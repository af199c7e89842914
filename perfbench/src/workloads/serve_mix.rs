//! The `serve-mix` phase: open-loop HTTP load against an in-process
//! `agequant_serve` server.
//!
//! Reads (`/v1/plan` over the workload's half of the served ΔVth
//! range, plus a share of `/v1/plan/batch`) are answered by the event loop from the
//! prerendered `DecisionTable` bodies; the engine does no work. Writes
//! (`/v1/telemetry`, epochs advancing over the run) go through the
//! worker queue, the hosted-fleet mutex and journal appends. Every
//! latency is timed from the request's due time on a fixed arrival
//! schedule, so a stall is charged to every request it delays.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use agequant_aging::VthShift;
use agequant_fleet::{Decider, DecisionTable, FleetConfig, FleetSim};
use agequant_serve::{plan_response, start, sweep_max_mv, ServeConfig, ServerHandle};
use serde::Value;

use super::{secs, Params};
use crate::affinity;
use crate::provenance::{CONNECTIONS, FLEET_SHARDS, SERVER_WORKERS};
use crate::report::{obj, Outcome};
use crate::rng::Rng;
use crate::stats::{median, percentile, sorted};
use crate::trace::Tracer;

/// Chips in the server-hosted fleet telemetry advances.
pub const HOSTED_CHIPS: u32 = 2048;
/// Read p99 limit a ladder rung must meet to count as sustained.
pub const READ_P99_LIMIT_US: f64 = 1000.0;
/// Write p99 limit of a sustained rung.
pub const WRITE_P99_LIMIT_US: f64 = 10_000.0;
/// The reference rung: a fixed rate well below saturation (writes
/// saturate first, near 50k requests/s on the reference box), where
/// the latency metrics are taken.
pub const REFERENCE_RPS: f64 = 10_000.0;
/// Share of the phase the untraced run spends on the reference rung.
pub const UNTRACED_REFERENCE_SHARE: f64 = 0.8;
/// Share of the phase each of the traced run's two reference rungs (one
/// plain, one traced) lasts.
pub const REFERENCE_SHARE: f64 = 0.35;
/// Untimed warm-up at the reference rate before it, seconds.
pub const WARMUP_S: f64 = 0.5;
/// The ladder starts here and climbs by [`LADDER_STEP`] until two
/// rungs in a row are not sustained (one can fail on a host stall).
pub const LADDER_START_RPS: f64 = 20_000.0;
/// Rate ratio between neighbouring rungs.
pub const LADDER_STEP: f64 = 1.15;
/// Most rungs the ladder climbs.
pub const LADDER_RUNGS: usize = 14;
/// Share of the phase each ladder rung lasts.
pub const RUNG_SHARE: f64 = 0.03;
/// Server starts timed per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 9;
/// Schedule seconds per telemetry epoch.
pub const EPOCH_PERIOD_S: f64 = 1.0;
/// Tail percentiles are taken per window of this many ns of schedule
/// (800 reads and 100 writes at the reference rate) and reported as
/// the median over a run's windows. Host preemption stalls of a few ms
/// land on about 1% of a run's requests — right at p99 — so a run-wide
/// p99 would measure the host rather than the server.
pub const WINDOW_NS: u64 = 100_000_000;
/// Request mix per block of 20 arrivals, shuffled per block.
const BLOCK: [Kind; 20] = {
    let mut block = [Kind::Plan; 20];
    block[16] = Kind::Batch;
    block[17] = Kind::Batch;
    block[18] = Kind::Telemetry;
    block[19] = Kind::Telemetry;
    block
};
/// How long the receiver waits past the last due time.
const GRACE: Duration = Duration::from_secs(2);
/// Request kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `POST /v1/plan`.
    Plan,
    /// `POST /v1/plan/batch`.
    Batch,
    /// `POST /v1/telemetry`.
    Telemetry,
}

/// What a correct answer looks like.
#[derive(Debug, Clone, PartialEq)]
pub enum Expect {
    /// 200 with exactly these body bytes.
    Body(Arc<str>),
    /// 200 with an `epoch` at least this, never below the previous
    /// telemetry answer on the same connection.
    Epoch(u64),
}

/// One scheduled request.
#[derive(Debug, Clone, PartialEq)]
pub struct Req {
    /// Due time, ns after the rung start.
    pub due_ns: u64,
    /// Connection index.
    pub conn: usize,
    /// Request kind.
    pub kind: Kind,
    /// Full HTTP/1.1 request bytes.
    pub bytes: Vec<u8>,
    /// The correct answer.
    pub expect: Expect,
    /// ΔVth values the request asks about (none for telemetry).
    pub mvs: Vec<f64>,
}

/// The served decision space the generator draws from.
pub struct Catalog<'a> {
    /// Expected `/v1/plan` body per bucket.
    pub bodies: &'a [Arc<str>],
    /// Bucket of a ΔVth, on the server's grid.
    pub bucket_of: &'a dyn Fn(f64) -> u64,
    /// The ΔVth range reads are drawn from, mV.
    pub mv_range: (f64, f64),
    /// Hosted fleet size.
    pub chips: u32,
}

fn http_post(path: &str, body: &str) -> Vec<u8> {
    format!(
        "POST {path} HTTP/1.1\r\nhost: perfbench\r\ncontent-length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

fn draw_mv(rng: &mut Rng, (lo, hi): (f64, f64)) -> f64 {
    ((rng.range(lo, hi) * 1000.0).round() / 1000.0).clamp(lo, hi)
}

/// The arrival schedule of one rung: `rate` requests per second for
/// `secs` seconds, evenly spaced. Reads go on connection 0 and writes
/// on connection 1: HTTP/1.1 answers a connection's requests in order,
/// so a read queued behind a write that steps the hosted fleet would
/// otherwise wait out the step. `epoch_offset_s` is the schedule time
/// already spent by earlier rungs, so telemetry epochs keep advancing
/// across rungs.
#[must_use]
pub fn schedule(
    rng: &mut Rng,
    cat: &Catalog<'_>,
    rate: f64,
    secs: f64,
    epoch_offset_s: f64,
) -> Vec<Req> {
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let n = (rate * secs).round() as usize;
    let gap_ns = 1e9 / rate;
    let mut block = BLOCK;
    let mut out = Vec::with_capacity(n);
    let body_of = |mv: f64| {
        let bucket = usize::try_from((cat.bucket_of)(mv)).expect("bucket fits usize");
        Arc::clone(&cat.bodies[bucket])
    };
    for i in 0..n {
        if i % block.len() == 0 {
            rng.shuffle(&mut block);
        }
        #[allow(
            clippy::cast_precision_loss,
            clippy::cast_possible_truncation,
            clippy::cast_sign_loss
        )]
        let due_ns = (i as f64 * gap_ns) as u64;
        let kind = block[i % block.len()];
        let (bytes, expect, mvs) = match kind {
            Kind::Plan => {
                let mv = draw_mv(rng, cat.mv_range);
                let body = format!("{{\"delta_vth_mv\":{mv:?}}}");
                (
                    http_post("/v1/plan", &body),
                    Expect::Body(body_of(mv)),
                    vec![mv],
                )
            }
            Kind::Batch => {
                let size = 2 + rng.below(15);
                let mvs: Vec<f64> = (0..size).map(|_| draw_mv(rng, cat.mv_range)).collect();
                let elems: Vec<String> = mvs
                    .iter()
                    .map(|mv| format!("{{\"delta_vth_mv\":{mv:?}}}"))
                    .collect();
                let answers: Vec<String> = mvs
                    .iter()
                    .map(|&mv| format!("{{\"status\":200,\"body\":{}}}", body_of(mv)))
                    .collect();
                let expected = format!("{{\"results\":[{}]}}", answers.join(","));
                (
                    http_post("/v1/plan/batch", &format!("[{}]", elems.join(","))),
                    Expect::Body(Arc::from(expected)),
                    mvs,
                )
            }
            Kind::Telemetry => {
                let chip = rng.below(u64::from(cat.chips));
                #[allow(
                    clippy::cast_precision_loss,
                    clippy::cast_possible_truncation,
                    clippy::cast_sign_loss
                )]
                let epoch = 1 + ((epoch_offset_s + due_ns as f64 / 1e9) / EPOCH_PERIOD_S) as u64;
                let body = format!("{{\"chip\":{chip},\"epoch\":{epoch}}}");
                (
                    http_post("/v1/telemetry", &body),
                    Expect::Epoch(epoch),
                    Vec::new(),
                )
            }
        };
        out.push(Req {
            due_ns,
            conn: usize::from(kind == Kind::Telemetry),
            kind,
            bytes,
            expect,
            mvs,
        });
    }
    out
}

/// Incremental HTTP/1.1 response framer over one connection's bytes.
#[derive(Default)]
struct Framer {
    buf: Vec<u8>,
    start: usize,
}

impl Framer {
    fn extend(&mut self, bytes: &[u8]) {
        if self.start > 0 && self.start == self.buf.len() {
            self.buf.clear();
            self.start = 0;
        } else if self.start > 1 << 16 {
            self.buf.drain(..self.start);
            self.start = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// The next complete response as `(status, body range)`, or `None`
    /// until more bytes arrive. A malformed head is `Err`.
    fn next(&mut self) -> Result<Option<(u16, std::ops::Range<usize>)>, String> {
        let pending = &self.buf[self.start..];
        let Some(head_len) = pending.windows(4).position(|w| w == b"\r\n\r\n") else {
            return Ok(None);
        };
        let head = std::str::from_utf8(&pending[..head_len]).map_err(|_| "non-UTF-8 head")?;
        let mut lines = head.split("\r\n");
        let status: u16 = lines
            .next()
            .and_then(|l| l.split_whitespace().nth(1))
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| format!("bad status line in {head:?}"))?;
        let length: usize = lines
            .find_map(|l| l.strip_prefix("content-length:"))
            .and_then(|v| v.trim().parse().ok())
            .ok_or_else(|| format!("no content-length in {head:?}"))?;
        let body_start = self.start + head_len + 4;
        if self.buf.len() < body_start + length {
            return Ok(None);
        }
        self.start = body_start + length;
        Ok(Some((status, body_start..body_start + length)))
    }
}

/// `(due ns, latency ns)` of each answered request of one kind.
pub type Samples = Vec<(u64, u64)>;

/// What one rung measured.
#[derive(Debug, Default)]
pub struct Rung {
    /// Offered rate, requests/s.
    pub rate: f64,
    /// Requests scheduled.
    pub attempted: u64,
    /// Failed requests (non-2xx, mismatch, unanswered).
    pub failed: u64,
    /// First few failure descriptions.
    pub failures: Vec<String>,
    /// Answers that were `200` with the wrong content: output-check
    /// failures even on a probing rung.
    pub mismatched: u64,
    /// `/v1/plan` latencies, timed from the due time.
    pub plan: Samples,
    /// `/v1/plan/batch` latencies.
    pub batch: Samples,
    /// `/v1/telemetry` latencies.
    pub telemetry: Samples,
    /// How late each send left, ns.
    pub lag_ns: Vec<u64>,
    /// Most requests outstanding at once.
    pub backlog_max: u64,
    /// Requests outstanding when the last one was sent.
    pub backlog_end: u64,
    /// Answered requests per second, from the first due time to the
    /// last answer.
    pub achieved_rps: f64,
    /// Whether a connection was left unusable (closed, or with answers
    /// still in flight).
    pub tainted: bool,
}

impl Rung {
    fn note(&mut self, why: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(why);
        }
    }

    /// Read (`/v1/plan`) p99, µs, per [`WINDOW_NS`] window.
    #[must_use]
    pub fn plan_p99_us(&self) -> f64 {
        windowed_pct_us(&self.plan, WINDOW_NS, 99.0)
    }

    /// Sustained: no failure, the read p99 under
    /// [`READ_P99_LIMIT_US`], and writes keeping up — their p99 under
    /// [`WRITE_P99_LIMIT_US`], which a growing write backlog crosses
    /// within a rung.
    #[must_use]
    pub fn sustained(&self) -> bool {
        self.failed == 0
            && self.plan_p99_us() <= READ_P99_LIMIT_US
            && windowed_pct_us(&self.telemetry, WINDOW_NS, 99.0) <= WRITE_P99_LIMIT_US
    }
}

/// Nearest-rank percentile of the latencies, µs.
#[must_use]
pub fn pct_us(samples: &[(u64, u64)], p: f64) -> f64 {
    #[allow(clippy::cast_precision_loss)]
    let values = sorted(samples.iter().map(|&(_, ns)| ns as f64 / 1e3).collect());
    percentile(&values, p).unwrap_or(f64::NAN)
}

/// The median over `window_ns` windows of schedule time of each
/// window's `p` percentile, µs. Windows with fewer than ten samples
/// are skipped.
#[must_use]
pub fn windowed_pct_us(samples: &[(u64, u64)], window_ns: u64, p: f64) -> f64 {
    let mut windows: std::collections::BTreeMap<u64, Vec<(u64, u64)>> =
        std::collections::BTreeMap::new();
    for &sample in samples {
        windows
            .entry(sample.0 / window_ns)
            .or_default()
            .push(sample);
    }
    let per_window: Vec<f64> = windows
        .values()
        .filter(|w| w.len() >= 10)
        .map(|w| pct_us(w, p))
        .collect();
    median(&per_window).unwrap_or(f64::NAN)
}

fn since_ns(t0: Instant, t: Instant) -> u64 {
    u64::try_from(t.saturating_duration_since(t0).as_nanos()).unwrap_or(u64::MAX)
}

/// Drives one rung over `conns` from this one thread, which spins:
/// it sends each request when due and reads answers the moment they
/// land, so neither timer slack nor a wake-up delays a measurement.
/// Spans of every answered request go to `tracer` (named by kind,
/// operation id = request index).
fn run_rung(conns: &[TcpStream], reqs: &[Req], rate: f64, tracer: &mut Tracer) -> Rung {
    let n = reqs.len();
    let mut per_conn: Vec<Vec<usize>> = vec![Vec::new(); conns.len()];
    for (i, req) in reqs.iter().enumerate() {
        per_conn[req.conn].push(i);
    }
    let mut rung = Rung {
        rate,
        attempted: n as u64,
        ..Rung::default()
    };
    let mut streams: Vec<&TcpStream> = conns.iter().collect();
    let mut out: Vec<(Vec<u8>, usize)> = vec![(Vec::new(), 0); conns.len()];
    let mut framers: Vec<Framer> = conns.iter().map(|_| Framer::default()).collect();
    let mut next: Vec<usize> = vec![0; conns.len()];
    let mut last_epoch: Vec<u64> = vec![0; conns.len()];
    let mut open: Vec<bool> = vec![true; conns.len()];
    let mut sent_ns = vec![0u64; n];
    let mut chunk = vec![0u8; 256 * 1024];
    let (mut sent, mut done, mut last_answer_ns) = (0usize, 0usize, 0u64);
    let mut backlog_end = None;
    rung.lag_ns.reserve(n);
    let t0 = Instant::now() + Duration::from_millis(2);
    let last_due = t0 + Duration::from_nanos(reqs.last().map_or(0, |r| r.due_ns));
    while done < n && open.iter().any(|o| *o) {
        let now = Instant::now();
        let now_ns = since_ns(t0, now);
        while sent < n && reqs[sent].due_ns <= now_ns {
            rung.lag_ns.push(now_ns - reqs[sent].due_ns);
            sent_ns[sent] = now_ns;
            out[reqs[sent].conn].0.extend_from_slice(&reqs[sent].bytes);
            sent += 1;
        }
        for (c, (bytes, off)) in out.iter_mut().enumerate() {
            if !open[c] || *off == bytes.len() {
                continue;
            }
            match streams[c].write(&bytes[*off..]) {
                Ok(k) => *off += k,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {}
                Err(e) => {
                    rung.note(format!("write: {e}"));
                    open[c] = false;
                }
            }
            if *off == bytes.len() {
                bytes.clear();
                *off = 0;
            }
        }
        rung.backlog_max = rung.backlog_max.max((sent - done) as u64);
        if sent == n && backlog_end.is_none() {
            backlog_end = Some((sent - done) as u64);
        }
        if now > last_due + GRACE {
            break;
        }
        let mut progressed = false;
        for c in 0..streams.len() {
            if !open[c] {
                continue;
            }
            let got = match streams[c].read(&mut chunk) {
                Ok(0) => {
                    open[c] = false;
                    continue;
                }
                Ok(got) => got,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => continue,
                Err(_) => {
                    open[c] = false;
                    continue;
                }
            };
            progressed = true;
            let at = Instant::now();
            let at_ns = since_ns(t0, at);
            framers[c].extend(&chunk[..got]);
            loop {
                let (status, body) = match framers[c].next() {
                    Ok(Some(frame)) => frame,
                    Ok(None) => break,
                    Err(e) => {
                        rung.note(e);
                        open[c] = false;
                        break;
                    }
                };
                let Some(&idx) = per_conn[c].get(next[c]) else {
                    rung.note("response with no request outstanding".to_string());
                    open[c] = false;
                    break;
                };
                next[c] += 1;
                let req = &reqs[idx];
                let body = &framers[c].buf[body];
                let ok = status == 200
                    && match &req.expect {
                        Expect::Body(expected) => body == expected.as_bytes(),
                        Expect::Epoch(asked) => match epoch_of(body) {
                            Some(epoch) if epoch >= *asked && epoch >= last_epoch[c] => {
                                last_epoch[c] = epoch;
                                true
                            }
                            _ => false,
                        },
                    };
                if !ok {
                    rung.mismatched += u64::from(status == 200);
                    rung.note(format!(
                        "{:?} answered {status}: {}",
                        req.kind,
                        String::from_utf8_lossy(&body[..body.len().min(160)])
                    ));
                }
                let sample = (req.due_ns, at_ns.saturating_sub(req.due_ns));
                match req.kind {
                    Kind::Plan => rung.plan.push(sample),
                    Kind::Batch => rung.batch.push(sample),
                    Kind::Telemetry => rung.telemetry.push(sample),
                }
                last_answer_ns = at_ns;
                if tracer.enabled() {
                    let name = match req.kind {
                        Kind::Plan => "serve.plan",
                        Kind::Batch => "serve.batch",
                        Kind::Telemetry => "serve.telemetry",
                    };
                    tracer.record(
                        name,
                        idx as u64,
                        t0 + Duration::from_nanos(sent_ns[idx]),
                        at,
                    );
                }
                done += 1;
            }
        }
        if !progressed {
            std::hint::spin_loop();
        }
    }
    let unanswered = n - done;
    if unanswered > 0 {
        rung.failed += unanswered as u64;
        rung.failures
            .push(format!("{unanswered} request(s) unanswered"));
    }
    rung.tainted = unanswered > 0 || open.iter().any(|o| !o);
    rung.backlog_end = backlog_end.unwrap_or((sent - done) as u64);
    #[allow(clippy::cast_precision_loss)]
    let achieved = done as f64 / (last_answer_ns as f64 / 1e9).max(1e-9);
    rung.achieved_rps = achieved;
    rung
}

fn epoch_of(body: &[u8]) -> Option<u64> {
    let value: Value = serde_json::from_str(std::str::from_utf8(body).ok()?).ok()?;
    let Value::Map(fields) = value else {
        return None;
    };
    fields
        .into_iter()
        .find(|(k, _)| k == "epoch")
        .and_then(|(_, v)| match v {
            Value::UInt(u) => Some(u),
            Value::Int(i) => u64::try_from(i).ok(),
            _ => None,
        })
}

/// One blocking request on a fresh connection (`connection: close`).
fn one_shot(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &str,
) -> std::io::Result<(u16, String)> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(10)))?;
    let request = format!(
        "{method} {path} HTTP/1.1\r\nhost: perfbench\r\nconnection: close\r\ncontent-length: {}\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(request.as_bytes())?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw)?;
    let mut framer = Framer::default();
    framer.extend(&raw);
    match framer.next() {
        Ok(Some((status, range))) => {
            Ok((status, String::from_utf8_lossy(&raw[range]).into_owned()))
        }
        _ => Err(std::io::Error::other("malformed response")),
    }
}

/// The counters `/metrics` exposes that the serve layer metrics use.
#[derive(Debug, Default, Clone, Copy)]
struct Scrape {
    table_hits: f64,
    table_misses: f64,
    queue_rejected: f64,
    open_connections: f64,
}

fn scrape(addr: SocketAddr) -> Option<Scrape> {
    let (status, text) = one_shot(addr, "GET", "/metrics", "").ok()?;
    if status != 200 {
        return None;
    }
    let mut out = Scrape::default();
    for line in text.lines().filter(|l| !l.starts_with('#')) {
        let mut parts = line.split_whitespace();
        let (Some(name), Some(value)) = (parts.next(), parts.next()) else {
            continue;
        };
        let Ok(value) = value.parse::<f64>() else {
            continue;
        };
        match name {
            "agequant_serve_table_hits_total" => out.table_hits = value,
            "agequant_serve_table_misses_total" => out.table_misses = value,
            "agequant_queue_rejected_total" => out.queue_rejected = value,
            "agequant_serve_open_connections" => out.open_connections = value,
            _ => {}
        }
    }
    Some(out)
}

fn serve_config(params: &Params) -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: SERVER_WORKERS,
        journal: Some(
            params
                .scratch
                .join("journal.jsonl")
                .to_string_lossy()
                .into_owned(),
        ),
        keep_alive_secs: 60,
        fleet_chips: HOSTED_CHIPS,
        fleet_seed: params.seed,
        ..ServeConfig::default()
    }
}

fn hosted_fleet_config(params: &Params) -> FleetConfig {
    FleetConfig::new(HOSTED_CHIPS, params.seed)
}

/// Starts the server and waits for its first `200` on `/v1/plan`.
fn start_server(params: &Params) -> Result<(ServerHandle, f64), String> {
    let t = Instant::now();
    let handle =
        start(serve_config(params), hosted_fleet_config(params)).map_err(|e| e.to_string())?;
    loop {
        match one_shot(handle.addr(), "POST", "/v1/plan", "{\"delta_vth_mv\":0.0}") {
            Ok((200, _)) => return Ok((handle, secs(t))),
            _ if t.elapsed() > Duration::from_secs(60) => {
                handle.shutdown_and_join();
                return Err("server never answered 200".to_string());
            }
            _ => std::thread::sleep(Duration::from_millis(1)),
        }
    }
}

fn connect(addr: SocketAddr) -> Vec<TcpStream> {
    (0..CONNECTIONS)
        .map(|_| {
            let stream = TcpStream::connect(addr).expect("connect to the local server");
            stream.set_nodelay(true).expect("nodelay");
            stream.set_nonblocking(true).expect("nonblocking");
            stream
        })
        .collect()
}

/// The `plan_max_rps` estimate: the answered rate of the fastest
/// sustained rung below the first two unsustained ones in a row (0
/// when none was sustained).
#[must_use]
pub fn max_rps(rungs: &[Rung]) -> f64 {
    let end = rungs
        .windows(2)
        .position(|pair| pair.iter().all(|r| !r.sustained()))
        .unwrap_or(rungs.len());
    rungs[..end]
        .iter()
        .filter(|r| r.sustained())
        .map(|r| r.achieved_rps)
        .fold(0.0, f64::max)
}

/// One rung's fields for the run record.
fn rung_value(r: &Rung) -> Value {
    obj(vec![
        ("rate", Value::Float(r.rate)),
        ("plan_p99_us", Value::Float(r.plan_p99_us())),
        ("failed", Value::UInt(r.failed)),
        ("backlog_end", Value::UInt(r.backlog_end)),
        ("achieved_rps", Value::Float(r.achieved_rps)),
    ])
}

/// The open-loop generator of one run: owns the connections and the
/// request stream, and keeps telemetry epochs advancing across rungs.
struct Generator<'a> {
    addr: SocketAddr,
    conns: Vec<TcpStream>,
    rng: Rng,
    catalog: Catalog<'a>,
    schedule_s: f64,
}

impl Generator<'_> {
    fn rung(&mut self, rate: f64, secs: f64, tracer: &mut Tracer) -> (Rung, Vec<Req>) {
        let reqs = schedule(&mut self.rng, &self.catalog, rate, secs, self.schedule_s);
        self.schedule_s += secs;
        let rung = run_rung(&self.conns, &reqs, rate, tracer);
        if rung.tainted {
            self.conns = connect(self.addr);
        }
        (rung, reqs)
    }

    fn plain(&mut self, rate: f64, secs: f64) -> Rung {
        self.rung(rate, secs, &mut Tracer::new(false)).0
    }
}

/// Climbs the ladder from [`LADDER_START_RPS`] by [`LADDER_STEP`]
/// until two rungs in a row are not sustained.
fn climb(generator: &mut Generator<'_>, rung_secs: f64) -> Vec<Rung> {
    let mut ladder: Vec<Rung> = Vec::new();
    let mut rate = LADDER_START_RPS;
    for _ in 0..LADDER_RUNGS {
        ladder.push(generator.plain(rate, rung_secs));
        let tail = &ladder[ladder.len().saturating_sub(2)..];
        if tail.len() == 2 && tail.iter().all(|r| !r.sustained()) {
            break;
        }
        rate *= LADDER_STEP;
    }
    ladder
}

/// Runs the workload. The untraced run spends the warm-up and then
/// [`UNTRACED_REFERENCE_SHARE`] of the phase on the reference rung; the
/// traced run adds an identical traced reference rung and the ladder.
///
/// # Panics
///
/// Panics if the local server cannot be reached at all.
pub fn run(params: &Params) -> Outcome {
    let mut outcome = Outcome::default();
    // Server threads on every CPU but the last, the generator alone on
    // the last (with fewer than two CPUs, nobody is pinned).
    let cpus = affinity::allowed_cpus();
    let split = (cpus.len() >= 2).then(|| cpus.split_at(cpus.len() - 1));
    let setup_awake = affinity::Awake::on(&cpus);
    if let Some((server_cpus, _)) = split {
        affinity::pin_current_thread(server_cpus);
    }
    let reps = if params.trace { 1 } else { SETUP_REPS };
    let mut setups = Vec::with_capacity(reps);
    let mut server = None;
    for rep in 0..reps {
        match start_server(params) {
            Ok((handle, took)) => {
                setups.push(took);
                if rep + 1 == reps {
                    server = Some(handle);
                } else {
                    handle.shutdown_and_join();
                }
            }
            Err(e) => {
                affinity::pin_current_thread(&cpus);
                outcome.attempted += 1;
                outcome.fail(format!("server start: {e}"));
                return outcome;
            }
        }
    }
    drop(setup_awake);
    let handle = server.expect("last setup kept its server");
    let addr = handle.addr();

    // Reference answers, rendered before timing on a decider of the
    // server's own configuration (its own engine, so the server's
    // counters see only the run's traffic).
    let reference =
        Decider::from_config(&hosted_fleet_config(params)).expect("hosted fleet config is valid");
    let max_mv = sweep_max_mv();
    let max_bucket = reference.bucket_of(VthShift::from_millivolts(max_mv + 1e-9));
    let bodies: Vec<Arc<str>> = (0..=max_bucket)
        .map(|b| {
            let decision = reference.decide_bucket(b).expect("served buckets decide");
            Arc::from(
                serde_json::to_string(&plan_response(&reference, &decision)).expect("finite plan"),
            )
        })
        .collect();
    let bucket_of = |mv: f64| reference.bucket_of(VthShift::from_millivolts(mv));
    let awake = split.map(|(server_cpus, generator_cpu)| {
        affinity::pin_current_thread(generator_cpu);
        affinity::Awake::on(server_cpus)
    });
    let mut generator = Generator {
        addr,
        conns: connect(addr),
        rng: Rng::new(params.seed, 0x5E4E),
        catalog: Catalog {
            bodies: &bodies,
            bucket_of: &bucket_of,
            mv_range: {
                let (lo, hi) = params.stage.sweep_share();
                (lo * max_mv, hi * max_mv)
            },
            chips: HOSTED_CHIPS,
        },
        schedule_s: 0.0,
    };
    let mut scrapes: Vec<Scrape> = scrape(addr).into_iter().collect();
    let warmup = generator.plain(REFERENCE_RPS, WARMUP_S);
    outcome.absorb_counts(warmup.attempted, warmup.failed, warmup.failures.clone());

    if !params.trace {
        let reference_rung =
            generator.plain(REFERENCE_RPS, params.seconds * UNTRACED_REFERENCE_SHARE);
        drop(generator);
        drop(awake);
        handle.shutdown_and_join();
        affinity::pin_current_thread(&cpus);
        outcome.absorb_counts(
            reference_rung.attempted,
            reference_rung.failed,
            reference_rung.failures.clone(),
        );
        outcome.e2e("setup_s", median(&setups).unwrap_or(f64::NAN), "s");
        outcome.e2e("plan_p50_us", pct_us(&reference_rung.plan, 50.0), "us");
        outcome.detail("reference", rung_value(&reference_rung));
        return outcome;
    }

    let ref_secs = params.seconds * REFERENCE_SHARE;
    let plain = generator.plain(REFERENCE_RPS, ref_secs);
    let mid = scrape(addr);
    let mut tracer = Tracer::new(true);
    let (traced, reqs) = generator.rung(REFERENCE_RPS, ref_secs, &mut tracer);
    let after = scrape(addr);
    // The ladder probes for the knee, so refusals and timeouts there
    // are its measurement; a wrong answer is still a failure.
    let ladder = climb(&mut generator, params.seconds * RUNG_SHARE);
    scrapes.extend(mid);
    scrapes.extend(after);
    scrapes.extend(scrape(addr));
    drop(generator);
    drop(awake);
    handle.shutdown_and_join();
    affinity::pin_current_thread(&cpus);
    for rung in [&plain, &traced] {
        outcome.absorb_counts(rung.attempted, rung.failed, rung.failures.clone());
    }
    for rung in &ladder {
        outcome.attempted += rung.attempted;
        for _ in 0..rung.mismatched {
            outcome.fail(format!("wrong answer at {} requests/s", rung.rate));
        }
    }
    outcome.layer("plan_p99_us", plain.plan_p99_us(), "us");
    outcome.layer(
        "telemetry_p99_us",
        windowed_pct_us(&plain.telemetry, WINDOW_NS, 99.0),
        "us",
    );
    outcome.layer("plan_max_rps", max_rps(&ladder), "1/s");
    let p50 = |name: &str| median(&tracer.durations_ms(name)).unwrap_or(f64::NAN) * 1e3;
    outcome.layer("serve.plan_us_p50", p50("serve.plan"), "us");
    outcome.layer("serve.batch_us_p50", p50("serve.batch"), "us");
    outcome.layer("serve.telemetry_us_p50", p50("serve.telemetry"), "us");
    if let (Some(a), Some(b)) = (mid, after) {
        let hits = b.table_hits - a.table_hits;
        let misses = b.table_misses - a.table_misses;
        outcome.layer(
            "serve.table_hit_ratio",
            hits / (hits + misses).max(1.0),
            "ratio",
        );
        outcome.layer(
            "serve.queue_rejected",
            b.queue_rejected - a.queue_rejected,
            "count",
        );
    }
    let open_max = scrapes
        .iter()
        .map(|s| s.open_connections)
        .fold(0.0, f64::max);
    outcome.layer("serve.open_connections_max", open_max, "count");
    #[allow(clippy::cast_precision_loss)]
    let lag: Vec<f64> = sorted(traced.lag_ns.iter().map(|&v| v as f64 / 1e3).collect());
    outcome.layer(
        "gen.lag_us_p99",
        percentile(&lag, 99.0).unwrap_or(f64::NAN),
        "us",
    );
    #[allow(clippy::cast_precision_loss)]
    outcome.layer("gen.backlog_max", traced.backlog_max as f64, "count");
    outcome.layer(
        "fleet.table_lookup_ns_p50",
        table_lookup_ns_p50(&reference, max_bucket, &reqs),
        "ns",
    );
    let epochs = reqs
        .iter()
        .filter_map(|r| match r.expect {
            Expect::Epoch(e) => Some(e),
            Expect::Body(_) => None,
        })
        .max()
        .unwrap_or(1);
    outcome.layer(
        "fleet.hosted_step_ms_p50",
        hosted_step_ms_p50(params, epochs),
        "ms",
    );
    let untraced = pct_us(&plain.plan, 50.0);
    outcome.layer(
        "serve.trace_overhead_pct",
        (pct_us(&traced.plan, 50.0) / untraced - 1.0) * 100.0,
        "%",
    );
    outcome.detail(
        "ladder",
        Value::Seq(ladder.iter().map(rung_value).collect()),
    );
    outcome
}

/// `DecisionTable::lookup` replayed over the run's `/v1/plan` ΔVth
/// sequence, timed in chunks of 64 lookups; median ns per lookup.
fn table_lookup_ns_p50(decider: &Decider, max_bucket: u64, reqs: &[Req]) -> f64 {
    let table = DecisionTable::build(decider, max_bucket, &[]).expect("table builds");
    let keys: Vec<u64> = reqs
        .iter()
        .filter(|r| r.kind == Kind::Plan)
        .flat_map(|r| {
            r.mvs
                .iter()
                .map(|&mv| decider.bucket_of(VthShift::from_millivolts(mv)))
        })
        .collect();
    let constraint = decider.constraint_ps();
    let per_lookup: Vec<f64> = keys
        .chunks(64)
        .map(|chunk| {
            let t = Instant::now();
            for &bucket in chunk {
                std::hint::black_box(table.lookup(std::hint::black_box(bucket), constraint));
            }
            #[allow(clippy::cast_precision_loss)]
            let ns = t.elapsed().as_nanos() as f64 / chunk.len() as f64;
            ns
        })
        .collect();
    median(&per_lookup).unwrap_or(f64::NAN)
}

/// `FleetSim::step` on a fleet of the hosted size, once per epoch the
/// telemetry writes advanced; median ms per step.
fn hosted_step_ms_p50(params: &Params, epochs: u64) -> f64 {
    let mut sim = FleetSim::new_sharded(hosted_fleet_config(params), FLEET_SHARDS)
        .expect("hosted fleet builds");
    let steps: Vec<f64> = (0..epochs)
        .map(|_| {
            let t = Instant::now();
            sim.step().expect("hosted fleet steps");
            secs(t) * 1e3
        })
        .collect();
    median(&steps).unwrap_or(f64::NAN)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn catalog_bodies() -> Vec<Arc<str>> {
        (0..=5)
            .map(|b| Arc::from(format!("{{\"bucket\":{b}}}")))
            .collect()
    }

    #[test]
    fn schedule_is_deterministic_per_seed() {
        let bodies = catalog_bodies();
        let bucket_of = |mv: f64| (mv / 10.0) as u64;
        let cat = Catalog {
            bodies: &bodies,
            bucket_of: &bucket_of,
            mv_range: (0.0, 50.0),
            chips: 64,
        };
        let a = schedule(&mut Rng::new(11, 0x5E4E), &cat, 400.0, 2.5, 0.0);
        let b = schedule(&mut Rng::new(11, 0x5E4E), &cat, 400.0, 2.5, 0.0);
        let c = schedule(&mut Rng::new(12, 0x5E4E), &cat, 400.0, 2.5, 0.0);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.len(), 1000);
        let count = |k: Kind| a.iter().filter(|r| r.kind == k).count();
        assert_eq!(
            (
                count(Kind::Plan),
                count(Kind::Batch),
                count(Kind::Telemetry)
            ),
            (800, 100, 100)
        );
        let epochs: Vec<u64> = a
            .iter()
            .filter_map(|r| match r.expect {
                Expect::Epoch(e) => Some(e),
                Expect::Body(_) => None,
            })
            .collect();
        assert!(
            epochs.windows(2).all(|w| w[0] <= w[1]),
            "telemetry epochs advance"
        );
        assert_eq!(epochs.last(), Some(&3));
        assert!(
            a.iter()
                .all(|r| r.conn == usize::from(r.kind == Kind::Telemetry)),
            "writes on their own connection"
        );
    }

    #[test]
    fn framer_splits_pipelined_responses() {
        let mut f = Framer::default();
        let one =
            b"HTTP/1.1 200 OK\r\ncontent-type: application/json\r\ncontent-length: 2\r\n\r\n{}";
        let mut both = one.to_vec();
        both.extend_from_slice(b"HTTP/1.1 503 Service Unavailable\r\ncontent-length: 3\r\n\r\nab");
        f.extend(&both);
        let (status, body) = f.next().expect("well formed").expect("complete");
        assert_eq!((status, &f.buf[body]), (200, &b"{}"[..]));
        assert_eq!(
            f.next().expect("well formed"),
            None,
            "second body incomplete"
        );
        f.extend(b"c");
        let (status, body) = f.next().expect("well formed").expect("complete");
        assert_eq!((status, &f.buf[body]), (503, &b"abc"[..]));
    }

    #[test]
    fn max_rps_is_the_fastest_sustained_rung() {
        let rung = |rate: f64, p99_us: u64| Rung {
            rate,
            plan: (0..20).map(|i| (i * 1000, p99_us * 1000)).collect(),
            telemetry: (0..20).map(|i| (i * 1000, 100_000)).collect(),
            achieved_rps: rate * 0.999,
            ..Rung::default()
        };
        assert_eq!(
            max_rps(&[rung(1000.0, 100), rung(2000.0, 200), rung(4000.0, 5000)]),
            1998.0
        );
        // One unsustained rung between sustained ones does not end the ladder.
        let bumpy = [
            rung(1000.0, 100),
            rung(2000.0, 5000),
            rung(4000.0, 200),
            rung(8000.0, 5000),
            rung(16000.0, 5000),
            rung(32000.0, 100),
        ];
        assert_eq!(max_rps(&bumpy), 3996.0);
        assert_eq!(max_rps(&[rung(1000.0, 5000)]), 0.0);
    }

    #[test]
    fn windowed_percentiles_take_the_median_window() {
        // Three windows; one holds a stall.
        let mut samples: Vec<(u64, u64)> = Vec::new();
        for w in 0..3u64 {
            for i in 0..100u64 {
                let stalled = w == 1 && i >= 90;
                samples.push((
                    w * WINDOW_NS + i,
                    if stalled { 5_000_000 } else { (i + 1) * 1000 },
                ));
            }
        }
        assert_eq!(pct_us(&samples, 99.0), 5000.0);
        assert_eq!(windowed_pct_us(&samples, WINDOW_NS, 99.0), 99.0);
        assert!(windowed_pct_us(&samples[..5], WINDOW_NS, 99.0).is_nan());
    }
}
