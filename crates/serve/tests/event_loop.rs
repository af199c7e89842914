//! End-to-end tests for the readiness-polled connection plane:
//! pipelining byte-identity, the wire-speed table counters, the
//! central idle keep-alive sweep, and a many-idle-connection drain.

mod common;

use std::io::{BufReader, ErrorKind, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use agequant_aging::{VthShift, AGING_SWEEP_MV};
use agequant_fleet::{Decider, FleetConfig};
use agequant_serve::{plan_response, start, ServeConfig};
use common::{addr_of, metric_value, read_response, request, test_config};

/// A pipelined burst — many requests written before any response is
/// read — must answer every request, in order, with exactly the bytes
/// the direct engine produces. This is the wire-speed path's bread
/// and butter: buffered pipelined bytes never raise another poll
/// event, so only a parser that re-runs after each completion passes.
#[test]
fn pipelined_burst_is_bit_identical_and_counts_table_hits() {
    let handle = start(test_config(8), FleetConfig::new(8, 7)).expect("start");
    let addr = addr_of(&handle);

    let reference = Decider::from_config(&FleetConfig::new(8, 7)).expect("reference decider");
    let expected: Vec<String> = AGING_SWEEP_MV
        .iter()
        .map(|mv| {
            let decision = reference
                .decide_bucket(reference.bucket_of(VthShift::from_millivolts(*mv)))
                .expect("reference decision");
            serde_json::to_string(&plan_response(&reference, &decision)).expect("render")
        })
        .collect();

    let stream = TcpStream::connect(&addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    let mut writer = stream.try_clone().expect("clone");
    let mut burst = String::new();
    for mv in AGING_SWEEP_MV {
        let body = format!("{{\"delta_vth_mv\": {mv}}}");
        burst.push_str(&format!(
            "POST /v1/plan HTTP/1.1\r\nhost: {addr}\r\ncontent-length: {}\r\n\r\n{body}",
            body.len()
        ));
    }
    writer.write_all(burst.as_bytes()).expect("write burst");

    let mut reader = BufReader::new(stream);
    for expected_body in &expected {
        let (status, _, body) = read_response(&mut reader);
        assert_eq!(status, 200, "{body}");
        assert_eq!(&body, expected_body, "pipelined body diverged");
    }
    drop(reader);
    drop(writer);

    let (status, _, metrics) = request(&addr, "GET", "/metrics", None);
    assert_eq!(status, 200);
    let hits = metric_value(&metrics, "agequant_serve_table_hits_total")
        .expect("table hit counter exported");
    assert!(
        hits >= AGING_SWEEP_MV.len() as f64,
        "expected the whole burst to hit the table, counted {hits}"
    );
    // Per-endpoint latency evidence that the loop observed the burst.
    assert!(
        metrics.contains("agequant_http_request_duration_seconds_count{endpoint=\"plan\"}"),
        "plan latency histogram missing"
    );
    handle.shutdown_and_join();
}

/// Requests the table cannot answer — constraint overrides — miss the
/// table and fall to the worker path, and both counters say so.
#[test]
fn table_misses_are_counted_for_live_path_requests() {
    let handle = start(test_config(8), FleetConfig::new(8, 7)).expect("start");
    let addr = addr_of(&handle);

    let (status, _, body) = request(
        &addr,
        "POST",
        "/v1/plan",
        Some("{\"delta_vth_mv\": 12.5, \"constraint_factor\": 1.1}"),
    );
    assert_eq!(status, 200, "{body}");
    let (status, _, body) = request(&addr, "POST", "/v1/plan", Some("{\"delta_vth_mv\": 12.5}"));
    assert_eq!(status, 200, "{body}");

    let (_, _, metrics) = request(&addr, "GET", "/metrics", None);
    let hits = metric_value(&metrics, "agequant_serve_table_hits_total").expect("hits exported");
    let misses =
        metric_value(&metrics, "agequant_serve_table_misses_total").expect("misses exported");
    assert!(hits >= 1.0, "plain plan should hit the table: {hits}");
    assert!(
        misses >= 1.0,
        "constraint override should miss the table: {misses}"
    );
    handle.shutdown_and_join();
}

/// A batch counts exactly what its single calls count — a table body
/// (the configured model, named or not) is one hit, an out-of-range
/// refusal neither a hit nor a miss, a constraint override or another
/// zoo model one miss — whether the event loop answers it from the
/// table or a worker answers it, and the worker's bytes stay those of
/// the single calls.
#[test]
fn batch_table_counters_match_single_calls() {
    let handle = start(test_config(8), FleetConfig::new(8, 7)).expect("start");
    let addr = addr_of(&handle);
    let counters = || {
        let (_, _, metrics) = request(&addr, "GET", "/metrics", None);
        let hits = metric_value(&metrics, "agequant_serve_table_hits_total").expect("hits");
        let misses = metric_value(&metrics, "agequant_serve_table_misses_total").expect("misses");
        (hits, misses)
    };
    let batch_deltas = |elements: &[&str]| {
        let before = counters();
        let batch = format!("[{}]", elements.join(","));
        let (status, _, body) = request(&addr, "POST", "/v1/plan/batch", Some(&batch));
        assert_eq!(status, 200, "{body}");
        let after = counters();
        ((after.0 - before.0, after.1 - before.1), body)
    };
    let single_calls = |elements: &[&str]| {
        let mut expected = String::from("{\"results\":[");
        for (i, element) in elements.iter().enumerate() {
            let (status, _, single) = request(&addr, "POST", "/v1/plan", Some(element));
            if i > 0 {
                expected.push(',');
            }
            expected.push_str(&format!("{{\"status\":{status},\"body\":{single}}}"));
        }
        expected.push_str("]}");
        expected
    };

    // All table-answerable: the loop answers, one hit, no miss.
    let (deltas, _) = batch_deltas(&["{\"delta_vth_mv\":10}", "{\"delta_vth_mv\":400}"]);
    assert_eq!(
        deltas,
        (1.0, 0.0),
        "(hits, misses) for a covered + out-of-range batch"
    );

    // One override sends the whole batch to a worker.
    let elements = [
        "{\"delta_vth_mv\":10}",
        "{\"delta_vth_mv\":400}",
        "{\"delta_vth_mv\":10,\"constraint_factor\":1.1}",
    ];
    let (deltas, body) = batch_deltas(&elements);
    assert_eq!(
        deltas,
        (1.0, 1.0),
        "(hits, misses) for a worker-answered batch"
    );
    assert_eq!(
        body,
        single_calls(&elements),
        "worker batch diverged from single calls"
    );

    // Naming the configured model keeps the element a table answer.
    let (deltas, _) = batch_deltas(&["{\"delta_vth_mv\":10,\"model\":\"nbti\"}"]);
    assert_eq!(
        deltas,
        (1.0, 0.0),
        "(hits, misses) for a batch naming the default model"
    );

    // Another zoo model sends the whole batch to a worker, which
    // decides that element live: one miss, the same bytes as single
    // calls.
    let elements = [
        "{\"delta_vth_mv\":10}",
        "{\"delta_vth_mv\":10,\"model\":\"hci\"}",
    ];
    let (deltas, body) = batch_deltas(&elements);
    assert_eq!(
        deltas,
        (1.0, 1.0),
        "(hits, misses) for a batch naming another model"
    );
    assert_eq!(
        body,
        single_calls(&elements),
        "other-model batch diverged from single calls"
    );
    handle.shutdown_and_join();
}

/// The loop's central sweep closes idle keep-alive connections after
/// `keep_alive_secs` — the regression test for idle bookkeeping now
/// living in one place instead of per-connection threads.
#[test]
fn idle_keep_alive_connections_are_swept() {
    let config = ServeConfig {
        keep_alive_secs: 1,
        ..test_config(4)
    };
    let handle = start(config, FleetConfig::new(4, 7)).expect("start");
    let addr = addr_of(&handle);

    let stream = TcpStream::connect(&addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    let mut writer = stream.try_clone().expect("clone");
    write!(
        writer,
        "GET /healthz HTTP/1.1\r\nhost: {addr}\r\ncontent-length: 0\r\n\r\n"
    )
    .expect("write request");
    let mut reader = BufReader::new(stream);
    let (status, _, _) = read_response(&mut reader);
    assert_eq!(status, 200);

    // Now idle. The server owes us a close shortly after the 1s idle
    // limit; a read returning 0 bytes is the FIN.
    let started = Instant::now();
    let mut buf = [0u8; 64];
    let n = reader.read(&mut buf).expect("await server close");
    assert_eq!(n, 0, "server should close the idle connection");
    let waited = started.elapsed();
    assert!(
        waited >= Duration::from_millis(500) && waited < Duration::from_secs(8),
        "idle sweep fired at {waited:?}, expected shortly after the 1s limit"
    );
    handle.shutdown_and_join();
}

/// Hundreds of idle keep-alive connections cost the server an open
/// socket each — no thread stacks — and a drain closes every one of
/// them promptly. (The 10k-connection memory-flatness assertion runs
/// in the `wire_floor` test binary, which has the process to itself.)
#[test]
fn many_idle_connections_report_and_drain_cleanly() {
    let handle = start(test_config(4), FleetConfig::new(4, 7)).expect("start");
    let addr = addr_of(&handle);

    const IDLE: usize = 300;
    let conns: Vec<TcpStream> = (0..IDLE)
        .map(|_| {
            let stream = TcpStream::connect(&addr).expect("connect");
            stream
                .set_read_timeout(Some(Duration::from_secs(30)))
                .expect("read timeout");
            stream
        })
        .collect();

    // Give the accept loop a beat to adopt the whole batch, then the
    // gauge must see them all (+1 for the metrics probe itself).
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let (status, _, metrics) = request(&addr, "GET", "/metrics", None);
        assert_eq!(status, 200);
        let open = metric_value(&metrics, "agequant_serve_open_connections")
            .expect("open-connection gauge exported");
        if open >= IDLE as f64 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "gauge stuck at {open} with {IDLE} idle connections open"
        );
        std::thread::sleep(Duration::from_millis(50));
    }

    let (status, _, body) = request(&addr, "POST", "/v1/shutdown", None);
    assert_eq!(status, 200);
    assert!(body.contains("draining"), "{body}");
    let mut handle = handle;
    let drained = Instant::now();
    handle.join();
    assert!(
        drained.elapsed() < Duration::from_secs(15),
        "drain with {IDLE} idle connections took {:?}",
        drained.elapsed()
    );

    // Every idle connection got a FIN (or RST) rather than a hang.
    for stream in conns {
        let mut reader = stream;
        let mut buf = [0u8; 16];
        match reader.read(&mut buf) {
            Ok(n) => assert_eq!(n, 0, "expected EOF on a drained idle connection"),
            Err(e) => assert!(
                matches!(
                    e.kind(),
                    ErrorKind::ConnectionReset | ErrorKind::ConnectionAborted
                ),
                "unexpected error draining idle connection: {e}"
            ),
        }
    }
}

/// Writes one keep-alive request on `stream` and reads its response.
fn keep_alive_call(
    addr: &str,
    stream: &TcpStream,
    reader: &mut BufReader<TcpStream>,
    method: &str,
    path: &str,
    body: &str,
) -> (u16, String) {
    let mut writer = stream;
    write!(
        writer,
        "{method} {path} HTTP/1.1\r\nhost: {addr}\r\ncontent-length: {}\r\n\r\n{body}",
        body.len()
    )
    .expect("write request");
    let (status, _, body) = read_response(reader);
    (status, body)
}

/// A keep-alive client that hangs up with nothing left to write is
/// closed at once, not left holding its socket, slot and gauge entry
/// until the idle sweep (`keep_alive_secs`, 5 s by default).
#[test]
fn a_hung_up_keep_alive_connection_closes_at_once() {
    let handle = start(test_config(4), FleetConfig::new(4, 7)).expect("start");
    let addr = addr_of(&handle);

    let stream = TcpStream::connect(&addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let (status, body) = keep_alive_call(&addr, &stream, &mut reader, "GET", "/healthz", "");
    assert_eq!((status, body.as_str()), (200, "ok\n"));
    drop(reader);
    drop(stream);

    // The scraper's own connection is the only one left.
    let hung_up = Instant::now();
    loop {
        let (_, _, metrics) = request(&addr, "GET", "/metrics", None);
        let open = metric_value(&metrics, "agequant_serve_open_connections")
            .expect("open-connection gauge exported");
        if open == 1.0 {
            break;
        }
        assert!(
            hung_up.elapsed() < Duration::from_millis(500),
            "gauge still reads {open} {:?} after the hang-up",
            hung_up.elapsed()
        );
        std::thread::sleep(Duration::from_millis(25));
    }
    handle.shutdown_and_join();
}

/// A worker reply that lands after the loop already answered `504` is
/// retired by the connection's generation: it is never written onto
/// the next connection that reuses the slot, nor onto that
/// connection's own parked request.
#[test]
fn a_late_worker_reply_is_retired_by_the_connection_generation() {
    let config = ServeConfig {
        workers: 1,
        debug_delay_ms: 700,
        deadline_ms: 100,
        ..test_config(4)
    };
    let handle = start(config, FleetConfig::new(4, 7)).expect("start");
    let addr = addr_of(&handle);
    let connect = || {
        let stream = TcpStream::connect(&addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("read timeout");
        let reader = BufReader::new(stream.try_clone().expect("clone"));
        (stream, reader)
    };
    let telemetry = |chip: u32| format!("{{\"chip\": {chip}, \"epoch\": 0}}");

    // A's job sits in the worker's 700 ms delay; the loop answers 504
    // once the 100 ms deadline and its grace pass.
    let (a, mut a_reader) = connect();
    let (status, body) = keep_alive_call(
        &addr,
        &a,
        &mut a_reader,
        "POST",
        "/v1/telemetry",
        &telemetry(0),
    );
    assert_eq!(status, 504, "{body}");
    let (status, body) = keep_alive_call(&addr, &a, &mut a_reader, "GET", "/healthz", "");
    assert_eq!((status, body.as_str()), (200, "ok\n"));
    // Hang up and wait for the server's FIN: A's slot is free.
    a.shutdown(std::net::Shutdown::Write).expect("half-close");
    let mut rest = Vec::new();
    a_reader.read_to_end(&mut rest).expect("server closes A");
    assert!(rest.is_empty(), "stray bytes on A: {rest:?}");

    // B takes A's slot while the worker still holds A's job.
    let (b, mut b_reader) = connect();
    let (status, body) = keep_alive_call(
        &addr,
        &b,
        &mut b_reader,
        "POST",
        "/v1/telemetry",
        &telemetry(1),
    );
    assert_eq!(status, 504, "B got another request's answer: {body}");
    std::thread::sleep(Duration::from_secs(1));
    let (status, body) = keep_alive_call(&addr, &b, &mut b_reader, "GET", "/healthz", "");
    assert_eq!((status, body.as_str()), (200, "ok\n"));
    drop(b_reader);
    drop(b);
    handle.shutdown_and_join();
}
