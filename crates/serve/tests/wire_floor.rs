//! The wire-speed floor of the decision server, measured over real
//! sockets against an in-process server on an ephemeral port:
//!
//! 1. **Serial probe**: one keep-alive connection in strict
//!    request/response lockstep for 0.8 s (this also warms every sweep
//!    level). Its p99 round trip must stay under 10× the mean uncached
//!    in-process decision, the work each warm hit avoids.
//! 2. **Pipelined throughput**: 6 connections, each writing bursts of
//!    128 back-to-back `POST /v1/plan` requests before reading, for 2 s
//!    against 4 workers, after 0.3 s of untimed bursts on every
//!    connection. At least 380k req/s (10× the ~38k req/s of the
//!    thread-per-connection server this plane replaced), and a
//!    per-request p99 under 50 µs.
//! 3. **Idle fleet**: 10k idle keep-alive connections, capped to the fd
//!    budget and opened in batches the server adopts before the next,
//!    must cost under 16 KiB of resident memory each. Then
//!    `/v1/shutdown` must drain them all within 15 s, and every one
//!    must see EOF or a reset.
//!
//! RSS is sampled for the whole process, so this binary holds a single
//! test: no sibling test may allocate while it samples. Debug builds
//! skip it; run it with `cargo test --release -p agequant-serve --test
//! wire_floor`.

mod common;

use std::io::{BufReader, ErrorKind, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use agequant_aging::{VthShift, AGING_SWEEP_MV};
use agequant_fleet::{Decider, FleetConfig};
use agequant_serve::{start, ServeConfig};
use common::{addr_of, metric_value, read_response, request, test_config};

const CONNECTIONS: usize = 6;
const PIPELINE_DEPTH: usize = 128;
const PIPELINED_FOR: Duration = Duration::from_secs(2);
/// Untimed pipelined bursts on every connection before the timed
/// phase, so first-touch costs on either end (buffer growth, page
/// faults, cold code after a rebuild) land outside the measurement.
const PIPELINED_WARM_UP: Duration = Duration::from_millis(300);
const SERIAL_FOR: Duration = Duration::from_millis(800);
const WORKERS: u32 = 4;
const IDLE_CONNECTIONS: usize = 10_000;

/// Idle connections opened before waiting for the server to adopt
/// them: about one listen backlog. Each loop wakeup polls every open
/// connection, so with thousands open the accept loop falls behind a
/// client that connects without pause; the kernel then drops SYNs from
/// the full backlog and each retry costs the client a second or more.
const IDLE_BATCH: usize = 128;

/// Idle keep-alive limit of the server under test. It must outlast the
/// idle phase, or the sweep closes the first idle connections before
/// the last one is open (the default is 5 s).
const IDLE_KEEP_ALIVE_SECS: u64 = 120;

/// Minimum sustained pipelined throughput, requests per second.
const FLOOR_REQ_PER_SEC: f64 = 380_000.0;

/// Pipelined per-request p99 budget, nanoseconds.
const PIPELINED_P99_BUDGET_NS: u64 = 50_000;

/// Serial p99 budget, as a multiple of the mean uncached decision.
const SERIAL_P99_OVER_UNCACHED: f64 = 10.0;

/// Resident memory one idle connection may cost, across both ends of
/// the socket pair. Kernel socket buffers are not mapped into the
/// process, so this bounds the server's per-connection bookkeeping.
const IDLE_RSS_PER_CONN_BUDGET: f64 = 16.0 * 1024.0;

const DRAIN_BUDGET: Duration = Duration::from_secs(15);

fn plan_request(mv: f64) -> String {
    let body = format!("{{\"delta_vth_mv\": {mv}}}");
    format!(
        "POST /v1/plan HTTP/1.1\r\nhost: bench\r\ncontent-length: {}\r\n\r\n{body}",
        body.len()
    )
}

fn connect(addr: &str) -> TcpStream {
    let stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    stream
}

fn elapsed_ns(since: Instant) -> u64 {
    u64::try_from(since.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// One keep-alive connection issuing plan requests in lockstep until
/// `until`, timing each full round trip.
fn serial_client(addr: &str, until: Instant) -> Vec<u64> {
    let stream = connect(addr);
    let mut writer = stream.try_clone().expect("clone");
    let mut reader = BufReader::new(stream);
    let mut latencies = Vec::with_capacity(16 * 1024);
    for mv in AGING_SWEEP_MV.iter().cycle() {
        if Instant::now() >= until {
            break;
        }
        let request = plan_request(*mv);
        let started = Instant::now();
        writer.write_all(request.as_bytes()).expect("write");
        let (status, _, _) = read_response(&mut reader);
        latencies.push(elapsed_ns(started));
        assert_eq!(status, 200, "plan request failed");
    }
    latencies
}

/// Counts `HTTP/1.1 2` status-line prefixes across read-chunk
/// boundaries without reassembling the stream.
struct StatusCounter {
    pos: usize,
    count: usize,
}

const STATUS_PAT: &[u8] = b"HTTP/1.1 2";

impl StatusCounter {
    fn feed(&mut self, chunk: &[u8]) {
        for &byte in chunk {
            if byte == STATUS_PAT[self.pos] {
                self.pos += 1;
                if self.pos == STATUS_PAT.len() {
                    self.count += 1;
                    self.pos = 0;
                }
            } else {
                self.pos = usize::from(byte == STATUS_PAT[0]);
            }
        }
    }
}

/// One pipelined connection: writes bursts of [`PIPELINE_DEPTH`] plan
/// requests back to back, then reads the responses. The first burst is
/// scanned for status lines to learn the exact response byte length
/// (responses carry no varying headers); later bursts read by size.
struct PipelinedConn {
    writer: TcpStream,
    reader: TcpStream,
    burst: String,
    buf: Vec<u8>,
    burst_bytes: usize,
}

impl PipelinedConn {
    fn open(addr: &str, worker: usize) -> Self {
        let reader = connect(addr);
        PipelinedConn {
            writer: reader.try_clone().expect("clone"),
            reader,
            burst: (0..PIPELINE_DEPTH)
                .map(|i| plan_request(AGING_SWEEP_MV[(worker + i) % AGING_SWEEP_MV.len()]))
                .collect(),
            buf: vec![0u8; 256 * 1024],
            burst_bytes: 0,
        }
    }

    /// Writes one burst and reads every response to it.
    fn burst(&mut self) {
        self.writer
            .write_all(self.burst.as_bytes())
            .expect("write burst");
        if self.burst_bytes == 0 {
            let mut counter = StatusCounter { pos: 0, count: 0 };
            while counter.count < PIPELINE_DEPTH {
                let n = self.reader.read(&mut self.buf).expect("read burst");
                assert!(n > 0, "server closed mid-burst");
                counter.feed(&self.buf[..n]);
                self.burst_bytes += n;
            }
            assert_eq!(
                counter.count, PIPELINE_DEPTH,
                "stream misaligned after burst"
            );
        } else {
            let mut got = 0usize;
            while got < self.burst_bytes {
                let want = self.buf.len().min(self.burst_bytes - got);
                let n = self.reader.read(&mut self.buf[..want]).expect("read burst");
                assert!(n > 0, "server closed mid-burst");
                got += n;
            }
        }
    }
}

/// One pipelined client: untimed bursts for [`PIPELINED_WARM_UP`],
/// then timed bursts for [`PIPELINED_FOR`]. Returns `(timed_from,
/// requests_completed, per_burst_latencies_ns)` of the timed bursts.
fn pipelined_client(addr: &str, worker: usize) -> (Instant, usize, Vec<u64>) {
    let mut conn = PipelinedConn::open(addr, worker);
    let warm_until = Instant::now() + PIPELINED_WARM_UP;
    while Instant::now() < warm_until {
        conn.burst();
    }
    let timed_from = Instant::now();
    let mut done = 0usize;
    let mut latencies = Vec::with_capacity(4096);
    while timed_from.elapsed() < PIPELINED_FOR {
        let started = Instant::now();
        conn.burst();
        latencies.push(elapsed_ns(started));
        done += PIPELINE_DEPTH;
    }
    (timed_from, done, latencies)
}

/// The 99th percentile of `samples` (nearest rank).
fn p99(mut samples: Vec<u64>) -> u64 {
    assert!(!samples.is_empty(), "no samples");
    samples.sort_unstable();
    let index = ((samples.len() - 1) as f64 * 0.99).round() as usize;
    samples[index]
}

/// Resident set size of this process, bytes, from `/proc/self/status`.
fn rss_bytes() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status");
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmRSS:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<u64>()
                .ok()
        })
        .expect("VmRSS line")
        * 1024
}

/// The soft open-file limit, from `/proc/self/limits`.
fn fd_soft_limit() -> u64 {
    let limits = std::fs::read_to_string("/proc/self/limits").unwrap_or_default();
    limits
        .lines()
        .find(|line| line.starts_with("Max open files"))
        .and_then(|line| line.split_whitespace().nth(3))
        .and_then(|v| v.parse().ok())
        .unwrap_or(1024)
}

/// Waits until the server reports at least `want` open connections
/// besides the metrics probe itself.
fn await_open_connections(addr: &str, want: usize) {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let (status, _, metrics) = request(addr, "GET", "/metrics", None);
        assert_eq!(status, 200);
        let open = metric_value(&metrics, "agequant_serve_open_connections")
            .expect("open-connection gauge exported");
        if open > want as f64 {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "gauge stuck at {open} with {want} idle connections open"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
}

#[test]
#[cfg_attr(debug_assertions, ignore = "timing floors hold only in release builds")]
fn serve_holds_its_wire_floor_and_drains_an_idle_fleet() {
    // The uncached baseline: a fresh decider pays the full library and
    // timing evaluation once per sweep level.
    let fleet_config = FleetConfig::new(8, 7);
    let cold = Decider::from_config(&fleet_config).expect("cold decider");
    let uncached: Vec<u64> = AGING_SWEEP_MV
        .iter()
        .map(|mv| {
            let started = Instant::now();
            cold.decide_bucket(cold.bucket_of(VthShift::from_millivolts(*mv)))
                .expect("cold decision");
            elapsed_ns(started)
        })
        .collect();
    let uncached_mean = uncached.iter().sum::<u64>() as f64 / uncached.len() as f64;

    let config = ServeConfig {
        workers: WORKERS,
        queue_depth: 256,
        keep_alive_secs: IDLE_KEEP_ALIVE_SECS,
        ..test_config(8)
    };
    let handle = start(config, fleet_config).expect("start server");
    let addr = addr_of(&handle);

    // Phase 1: serial round trips.
    let serial_p99 = p99(serial_client(&addr, Instant::now() + SERIAL_FOR));
    let serial_ratio = serial_p99 as f64 / uncached_mean;
    assert!(
        serial_ratio < SERIAL_P99_OVER_UNCACHED,
        "serial p99 {serial_p99} ns is {serial_ratio:.1}× the uncached decision \
         ({uncached_mean:.0} ns); budget {SERIAL_P99_OVER_UNCACHED}×"
    );

    // Phase 2: pipelined throughput, timed from the first client's end
    // of warm-up.
    let clients: Vec<_> = (0..CONNECTIONS)
        .map(|worker| {
            let addr = addr.clone();
            std::thread::spawn(move || pipelined_client(&addr, worker))
        })
        .collect();
    let mut started: Option<Instant> = None;
    let mut requests = 0usize;
    let mut per_request = Vec::new();
    for client in clients {
        let (timed_from, done, bursts) = client.join().expect("client thread");
        started = Some(started.map_or(timed_from, |s| s.min(timed_from)));
        requests += done;
        per_request.extend(bursts.into_iter().map(|ns| ns / PIPELINE_DEPTH as u64));
    }
    let elapsed = started.expect("clients ran").elapsed();
    let rate = requests as f64 / elapsed.as_secs_f64();
    assert!(
        rate >= FLOOR_REQ_PER_SEC,
        "{rate:.0} req/s pipelined, below the {FLOOR_REQ_PER_SEC:.0} req/s floor"
    );
    let pipelined_p99 = p99(per_request);
    assert!(
        pipelined_p99 < PIPELINED_P99_BUDGET_NS,
        "pipelined per-request p99 {pipelined_p99} ns, budget {PIPELINED_P99_BUDGET_NS} ns"
    );

    // Phase 3: an idle fleet. Both ends of every connection live in
    // this process, so each costs two descriptors; cap to the budget.
    let idle_cap = usize::try_from(fd_soft_limit().saturating_sub(512) / 2).unwrap_or(0);
    let idle_count = IDLE_CONNECTIONS.min(idle_cap);
    let rss_before = rss_bytes();
    let mut idle: Vec<TcpStream> = Vec::with_capacity(idle_count);
    while idle.len() < idle_count {
        let batch = IDLE_BATCH.min(idle_count - idle.len());
        for _ in 0..batch {
            let stream = TcpStream::connect(&addr).expect("idle connect");
            stream
                .set_read_timeout(Some(Duration::from_secs(30)))
                .expect("read timeout");
            idle.push(stream);
        }
        await_open_connections(&addr, idle.len());
    }
    let rss_growth = rss_bytes() as f64 - rss_before as f64;
    let per_conn = rss_growth / idle_count.max(1) as f64;
    assert!(
        per_conn < IDLE_RSS_PER_CONN_BUDGET,
        "{idle_count} idle connections grew RSS by {rss_growth:.0} bytes, {per_conn:.0} each; \
         budget {IDLE_RSS_PER_CONN_BUDGET:.0}"
    );

    let drain_started = Instant::now();
    handle.shutdown_and_join();
    let drain = drain_started.elapsed();
    assert!(
        drain < DRAIN_BUDGET,
        "drain of {idle_count} idle connections took {drain:?}"
    );
    for mut stream in idle {
        let mut buf = [0u8; 8];
        match stream.read(&mut buf) {
            Ok(n) => assert_eq!(n, 0, "a drained idle connection received bytes"),
            Err(e) => assert!(
                matches!(
                    e.kind(),
                    ErrorKind::ConnectionReset | ErrorKind::ConnectionAborted
                ),
                "a drained idle connection saw neither EOF nor a reset: {e}"
            ),
        }
    }
}
