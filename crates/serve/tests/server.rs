//! End-to-end tests over real sockets: bit-identity with the direct
//! engine, backpressure under saturation, graceful drain, and the
//! telemetry/metrics surface.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use agequant_aging::{VthShift, AGING_SWEEP_MV};
use agequant_fleet::{Decider, FleetConfig};
use agequant_serve::{
    plan_response, series_label, start, Endpoint, ServeConfig, ServerHandle, ROUTES,
};

/// A minimal blocking HTTP/1.1 client: one request per connection.
fn request(
    addr: &str,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> (u16, HashMap<String, String>, String) {
    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    let mut writer = stream.try_clone().expect("clone");
    let body = body.unwrap_or("");
    write!(
        writer,
        "{method} {path} HTTP/1.1\r\nhost: {addr}\r\ncontent-length: {}\r\nconnection: close\r\n\r\n{body}",
        body.len()
    )
    .expect("write request");
    writer.flush().expect("flush");

    let mut reader = BufReader::new(stream);
    let mut status_line = String::new();
    reader.read_line(&mut status_line).expect("status line");
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .expect("status code")
        .parse()
        .expect("numeric status");
    let mut headers = HashMap::new();
    loop {
        let mut line = String::new();
        reader.read_line(&mut line).expect("header line");
        let line = line.trim_end();
        if line.is_empty() {
            break;
        }
        let (name, value) = line.split_once(':').expect("header colon");
        headers.insert(name.trim().to_lowercase(), value.trim().to_string());
    }
    let length: usize = headers
        .get("content-length")
        .expect("content-length")
        .parse()
        .expect("numeric length");
    let mut body = vec![0u8; length];
    reader.read_exact(&mut body).expect("body");
    (
        status,
        headers,
        String::from_utf8(body).expect("utf-8 body"),
    )
}

fn test_config(chips: u32) -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        fleet_chips: chips,
        fleet_seed: 7,
        ..ServeConfig::default()
    }
}

fn addr_of(handle: &ServerHandle) -> String {
    handle.addr().to_string()
}

#[test]
fn concurrent_clients_bit_identical_to_direct_engine() {
    let handle = start(test_config(8), FleetConfig::new(8, 7)).expect("start");
    let addr = addr_of(&handle);

    // The reference: an INDEPENDENT decider over the same fleet
    // config, never shared with the server. Whatever it decides for a
    // sweep level, the server must serialize byte-for-byte.
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

    let workers: Vec<_> = (0..4)
        .map(|_| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                AGING_SWEEP_MV
                    .iter()
                    .map(|mv| {
                        let (status, _, body) = request(
                            &addr,
                            "POST",
                            "/v1/plan",
                            Some(&format!("{{\"delta_vth_mv\": {mv}}}")),
                        );
                        assert_eq!(status, 200, "{body}");
                        body
                    })
                    .collect::<Vec<String>>()
            })
        })
        .collect();
    for worker in workers {
        let bodies = worker.join().expect("client thread");
        assert_eq!(bodies, expected);
    }
    handle.shutdown_and_join();
}

/// The degradation-model surface: `GET /v1/models` lists the zoo,
/// `POST /v1/plan` with a `model` field answers from that model's
/// decider, an explicit `"model": "nbti"` is byte-identical to
/// omitting the field (the server default), and the per-model cache
/// split shows up in `/metrics`.
#[test]
fn model_selection_end_to_end() {
    let handle = start(test_config(4), FleetConfig::new(4, 7)).expect("start");
    let addr = addr_of(&handle);

    let (status, _, body) = request(&addr, "GET", "/v1/models", None);
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"default\":\"nbti\""), "{body}");
    for name in ["nbti", "hci", "surrogate"] {
        assert!(body.contains(&format!("\"name\":\"{name}\"")), "{body}");
    }
    let (status, _, _) = request(&addr, "DELETE", "/v1/models", None);
    assert_eq!(status, 405);

    // Default-model responses are byte-identical with and without the
    // explicit field — the wire contract for pre-existing clients.
    let body_implicit = |mv: f64| {
        let (status, _, body) = request(
            &addr,
            "POST",
            "/v1/plan",
            Some(&format!("{{\"delta_vth_mv\": {mv}}}")),
        );
        assert_eq!(status, 200, "{body}");
        body
    };
    let body_with_model = |mv: f64, model: &str| {
        let (status, _, body) = request(
            &addr,
            "POST",
            "/v1/plan",
            Some(&format!(
                "{{\"delta_vth_mv\": {mv}, \"model\": \"{model}\"}}"
            )),
        );
        assert_eq!(status, 200, "{body}");
        body
    };
    for &mv in &AGING_SWEEP_MV {
        assert_eq!(body_implicit(mv), body_with_model(mv, "nbti"));
    }

    // Every zoo model answers; HCI shares the 14 nm profile with the
    // default, so its plans agree — what differs is the cache traffic.
    for &mv in &AGING_SWEEP_MV {
        assert_eq!(body_implicit(mv), body_with_model(mv, "hci"));
        let surrogate = body_with_model(mv, "surrogate");
        assert!(surrogate.contains("\"bucket\""), "{surrogate}");
    }

    // Unknown models are a 400 naming the zoo.
    let (status, _, body) = request(
        &addr,
        "POST",
        "/v1/plan",
        Some("{\"delta_vth_mv\": 10.0, \"model\": \"entropy\"}"),
    );
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("nbti, hci, surrogate"), "{body}");

    // The per-model split is visible on /metrics, and /v1/models now
    // reports the lazily built deciders as loaded.
    let (status, _, metrics) = request(&addr, "GET", "/metrics", None);
    assert_eq!(status, 200);
    for model in ["nbti", "hci"] {
        assert!(
            metrics.contains(&format!(
                "agequant_engine_model_cache_events_total{{model=\"{model}\",cache=\"plan\",event=\"miss\"}}"
            )),
            "{metrics}"
        );
    }
    assert!(
        metrics.contains("agequant_engine_cache_events_total{cache=\"plan\",event=\"hit\"}"),
        "aggregate series stays: {metrics}"
    );
    let (_, _, body) = request(&addr, "GET", "/v1/models", None);
    assert!(!body.contains("\"loaded\":false"), "{body}");

    handle.shutdown_and_join();
}

#[test]
fn plan_validates_its_input() {
    let handle = start(test_config(4), FleetConfig::new(4, 7)).expect("start");
    let addr = addr_of(&handle);
    let (status, _, body) = request(&addr, "POST", "/v1/plan", Some("{\"delta_vth_mv\": 400.0}"));
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("outside the served range"), "{body}");
    let (status, _, _) = request(&addr, "POST", "/v1/plan", Some("not json"));
    assert_eq!(status, 400);
    let (status, _, _) = request(&addr, "GET", "/v1/nope", None);
    assert_eq!(status, 404);
    let (status, _, _) = request(&addr, "DELETE", "/v1/plan", None);
    assert_eq!(status, 405);
    handle.shutdown_and_join();
}

/// Walks the route table: every listed path answers `405` under
/// another method (counted as `other`), and its own method shows up
/// under its own metric label.
#[test]
fn every_route_answers_its_method_under_its_own_label() {
    let labels: Vec<String> = (0..=ROUTES.len()).map(series_label).collect();
    assert_eq!(
        labels.join(" "),
        "plan plan_batch telemetry fleet_summary metrics shutdown memory_summary models \
         healthz autopilot_summary autopilot_enroll other"
    );
    let handle = start(test_config(4), FleetConfig::new(4, 7)).expect("start");
    let addr = addr_of(&handle);
    for (method, path, _) in ROUTES {
        let wrong = if method == "GET" { "POST" } else { "GET" };
        let (status, _, body) = request(&addr, wrong, path, None);
        assert_eq!(status, 405, "{wrong} {path}: {body}");
    }
    // Shutdown drains the server, so it goes last.
    let live = || ROUTES.iter().filter(|route| route.2 != Endpoint::Shutdown);
    for (method, path, _) in live() {
        request(&addr, method, path, None);
    }
    let (_, _, metrics) = request(&addr, "GET", "/metrics", None);
    for (_, path, endpoint) in live() {
        let label = series_label(*endpoint as usize);
        let series = format!("agequant_http_requests_total{{endpoint=\"{label}\",");
        assert!(
            metrics.contains(&series),
            "{path} not under {label}: {metrics}"
        );
    }
    let other_4xx = format!(
        "agequant_http_requests_total{{endpoint=\"other\",code=\"4xx\"}} {}\n",
        ROUTES.len()
    );
    assert!(metrics.contains(&other_4xx), "{metrics}");
    let (status, _, body) = request(&addr, "POST", "/v1/shutdown", None);
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("draining"), "{body}");
    let mut handle = handle;
    handle.join();
}

#[test]
fn saturated_queue_returns_503_with_retry_after() {
    // One slow worker, a queue of one: concurrent requests MUST
    // overflow, and overflow must be a fast 503, not a hang. The
    // constraint override keeps the requests off the decision table,
    // so every one of them needs the queue.
    let config = ServeConfig {
        workers: 1,
        queue_depth: 1,
        debug_delay_ms: 300,
        deadline_ms: 10_000,
        ..test_config(4)
    };
    let handle = start(config, FleetConfig::new(4, 7)).expect("start");
    let addr = addr_of(&handle);

    let clients: Vec<_> = (0..6)
        .map(|_| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let body = "{\"delta_vth_mv\": 10.0, \"constraint_factor\": 1.1}";
                let (status, headers, _) = request(&addr, "POST", "/v1/plan", Some(body));
                (status, headers)
            })
        })
        .collect();
    let outcomes: Vec<_> = clients
        .into_iter()
        .map(|c| c.join().expect("client"))
        .collect();
    let ok = outcomes.iter().filter(|(s, _)| *s == 200).count();
    let rejected = outcomes.iter().filter(|(s, _)| *s == 503).count();
    assert!(ok >= 1, "someone must get through: {outcomes:?}");
    assert!(rejected >= 1, "queue of 1 must overflow: {outcomes:?}");
    for (status, headers) in &outcomes {
        if *status == 503 {
            assert_eq!(headers.get("retry-after").map(String::as_str), Some("1"));
        }
    }

    // The server is still healthy after shedding load.
    let (status, _, body) = request(&addr, "GET", "/metrics", None);
    assert_eq!(status, 200);
    assert!(body.contains("agequant_queue_rejected_total"), "{body}");
    handle.shutdown_and_join();
}

#[test]
fn graceful_drain_finishes_accepted_work() {
    let config = ServeConfig {
        workers: 1,
        debug_delay_ms: 300,
        deadline_ms: 10_000,
        ..test_config(4)
    };
    let handle = start(config, FleetConfig::new(4, 7)).expect("start");
    let addr = addr_of(&handle);

    // A slow request in flight (the constraint override sends it past
    // the decision table to the worker)...
    let in_flight = {
        let addr = addr.clone();
        std::thread::spawn(move || {
            let body = "{\"delta_vth_mv\": 20.0, \"constraint_factor\": 1.1}";
            request(&addr, "POST", "/v1/plan", Some(body))
        })
    };
    std::thread::sleep(Duration::from_millis(100));
    // ...then a drain request.
    let (status, _, body) = request(&addr, "POST", "/v1/shutdown", None);
    assert_eq!(status, 200);
    assert!(body.contains("draining"), "{body}");

    // The accepted request still completes with a real answer.
    let (status, _, body) = in_flight.join().expect("in-flight client");
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"bucket\""), "{body}");

    let mut handle = handle;
    handle.join();
    // After the drain, new connections are refused or reset.
    let refused = match TcpStream::connect(&addr) {
        Err(_) => true,
        Ok(mut stream) => {
            let _ = stream.write_all(b"GET /healthz HTTP/1.1\r\nhost: x\r\n\r\n");
            let mut buf = Vec::new();
            stream
                .set_read_timeout(Some(Duration::from_secs(2)))
                .expect("timeout");
            matches!(stream.read_to_end(&mut buf), Ok(0) | Err(_))
        }
    };
    assert!(refused, "drained server must not serve new requests");
}

#[test]
fn telemetry_summary_metrics_and_artifacts() {
    let dir = std::env::temp_dir().join(format!("agequant-serve-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let journal = dir.join("journal.jsonl");
    let config = ServeConfig {
        journal: Some(journal.to_string_lossy().into_owned()),
        ..test_config(6)
    };
    let handle = start(config, FleetConfig::new(6, 7)).expect("start");
    let addr = addr_of(&handle);

    // Telemetry advances the hosted fleet to the reported epoch.
    let (status, _, body) = request(
        &addr,
        "POST",
        "/v1/telemetry",
        Some("{\"chip\": 2, \"epoch\": 3, \"delta_vth_mv\": 11.0}"),
    );
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"epoch\":3"), "{body}");
    assert!(body.contains("reported_consistent"), "{body}");

    // A stale sample does not rewind the fleet.
    let (status, _, body) = request(
        &addr,
        "POST",
        "/v1/telemetry",
        Some("{\"chip\": 0, \"epoch\": 1}"),
    );
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"stale\":true"), "{body}");
    assert!(body.contains("\"epoch\":3"), "{body}");

    // Unknown chips and runaway epochs are rejected.
    let (status, _, _) = request(
        &addr,
        "POST",
        "/v1/telemetry",
        Some("{\"chip\": 99, \"epoch\": 4}"),
    );
    assert_eq!(status, 404);
    let (status, _, _) = request(
        &addr,
        "POST",
        "/v1/telemetry",
        Some("{\"chip\": 0, \"epoch\": 999999}"),
    );
    assert_eq!(status, 400);

    let (status, _, body) = request(&addr, "GET", "/v1/fleet/summary", None);
    assert_eq!(status, 200);
    assert!(body.contains("\"chips\": 6"), "{body}");

    let (status, _, body) = request(&addr, "GET", "/metrics", None);
    assert_eq!(status, 200);
    assert!(
        body.contains("agequant_http_requests_total{endpoint=\"telemetry\",code=\"2xx\"} 2"),
        "{body}"
    );
    assert!(
        body.contains("agequant_http_request_duration_seconds_bucket"),
        "{body}"
    );
    assert!(
        body.contains("agequant_engine_cache_events_total"),
        "{body}"
    );

    handle.shutdown_and_join();

    // The journal the server wrote is well-formed JSONL with the
    // epoch-0 plans and the telemetry-driven events.
    let text = std::fs::read_to_string(&journal).expect("journal file");
    let events = agequant_fleet::journal::from_jsonl(&text).expect("journal parses");
    assert!(!events.is_empty());
    assert!(events.iter().any(|e| e.epoch == 0));
    std::fs::remove_dir_all(&dir).ok();
}

/// The journal file the server appends epoch by epoch is byte-identical
/// to the whole merged journal of the same fleet run straight through.
#[test]
fn served_journal_file_matches_the_merged_journal() {
    let dir = std::env::temp_dir().join(format!("agequant-serve-journal-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let journal = dir.join("journal.jsonl");
    let config = ServeConfig {
        journal: Some(journal.to_string_lossy().into_owned()),
        ..test_config(16)
    };
    let handle = start(config, FleetConfig::new(16, 7)).expect("start");
    let addr = addr_of(&handle);
    for epoch in [1, 2, 5, 9, 10, 16] {
        let (status, _, body) = request(
            &addr,
            "POST",
            "/v1/telemetry",
            Some(&format!("{{\"chip\": 3, \"epoch\": {epoch}}}")),
        );
        assert_eq!(status, 200, "{body}");
    }
    handle.shutdown_and_join();

    let mut sim = agequant_fleet::FleetSim::new(FleetConfig::new(16, 7)).expect("valid config");
    sim.run(16).expect("simulates");
    let want = agequant_fleet::journal::to_jsonl(&sim.journal());
    assert!(want.lines().any(|line| !line.contains("\"epoch\":0")));
    assert_eq!(
        std::fs::read_to_string(&journal).expect("journal file"),
        want
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// The weight-memory axis over the wire: `/v1/plan` gains a `memory`
/// projection, `/v1/memory/summary` reports the hosted fleet's
/// rollup, telemetry-driven epochs accrue re-encodes, and `/metrics`
/// exports the memory series.
#[test]
fn memory_axis_wire_surface() {
    let mut fleet_config = FleetConfig::new(8, 7);
    fleet_config.memory = Some(agequant_mem::MemoryConfig::demo());
    let handle = start(test_config(8), fleet_config).expect("start");
    let addr = addr_of(&handle);

    // Plans carry the memory projection, and the mitigation math is
    // visible on the wire: the re-encoded 10-year failure probability
    // is strictly below the unmitigated one.
    #[derive(serde::Deserialize)]
    struct PlanMemory {
        asymmetry: f64,
        failure_prob_10y: f64,
        failure_prob_10y_reencoded: f64,
    }
    #[derive(serde::Deserialize)]
    struct PlanBody {
        memory: Option<PlanMemory>,
    }
    let (status, _, body) = request(&addr, "POST", "/v1/plan", Some("{\"delta_vth_mv\": 30.0}"));
    assert_eq!(status, 200, "{body}");
    let plan: PlanBody = serde_json::from_str(&body).expect("plan parses");
    let memory = plan.memory.expect("plan has memory projection");
    assert!((0.0..=1.0).contains(&memory.asymmetry), "{body}");
    assert!(
        memory.failure_prob_10y_reencoded < memory.failure_prob_10y,
        "re-encoding must project lower failure probability: {} vs {}",
        memory.failure_prob_10y_reencoded,
        memory.failure_prob_10y
    );

    // The summary endpoint reports every chip tracked, fresh at epoch 0.
    let (status, _, body) = request(&addr, "GET", "/v1/memory/summary", None);
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"cell_model\""), "{body}");
    assert!(body.contains("\"tracked\":8"), "{body}");
    assert!(body.contains("\"reencodes\":0"), "{body}");

    // Telemetry advances the hosted fleet far enough that the decider
    // orders re-encodes; the rollup and the metrics see them.
    let (status, _, body) = request(
        &addr,
        "POST",
        "/v1/telemetry",
        Some("{\"chip\": 0, \"epoch\": 24}"),
    );
    assert_eq!(status, 200, "{body}");
    #[derive(serde::Deserialize)]
    struct FleetRollup {
        reencodes: u64,
    }
    #[derive(serde::Deserialize)]
    struct MemorySummaryBody {
        fleet: FleetRollup,
    }
    let (status, _, body) = request(&addr, "GET", "/v1/memory/summary", None);
    assert_eq!(status, 200, "{body}");
    let summary: MemorySummaryBody = serde_json::from_str(&body).expect("summary parses");
    let reencodes = summary.fleet.reencodes;
    assert!(reencodes > 0, "24 epochs must trigger re-encodes: {body}");

    let (status, _, metrics) = request(&addr, "GET", "/metrics", None);
    assert_eq!(status, 200);
    assert!(
        metrics.contains(&format!("agequant_memory_reencodes_total {reencodes}")),
        "{metrics}"
    );
    assert!(
        metrics.contains("agequant_memory_degraded_chips"),
        "{metrics}"
    );
    assert!(
        metrics.contains("agequant_memory_worst_failure_prob"),
        "{metrics}"
    );
    assert!(
        metrics.contains("endpoint=\"memory_summary\",code=\"2xx\"} 2"),
        "{metrics}"
    );

    handle.shutdown_and_join();
}

/// EQUIVALENCE GUARD — a server without the memory axis answers
/// `/v1/plan` byte-identically to the pre-memory build (committed
/// fixture), keeps `/metrics` free of memory series, and 404s the
/// memory summary exactly like any unknown route.
#[test]
fn memoryless_server_keeps_pre_memory_wire_bytes() {
    let handle = start(test_config(8), FleetConfig::new(8, 7)).expect("start");
    let addr = addr_of(&handle);

    let fixture = include_str!("fixtures/pre-mem-plan.jsonl");
    for (line, mv) in fixture.lines().zip([0.0f64, 12.5, 30.0, 47.0]) {
        let (status, _, body) = request(
            &addr,
            "POST",
            "/v1/plan",
            Some(&format!("{{\"delta_vth_mv\": {mv}}}")),
        );
        assert_eq!(status, 200, "{body}");
        assert_eq!(body, line, "plan wire bytes diverged at {mv} mV");
    }

    let (status, _, body) = request(&addr, "GET", "/v1/memory/summary", None);
    assert_eq!(status, 404, "{body}");
    assert!(body.contains("memory axis disabled"), "{body}");

    let (status, _, metrics) = request(&addr, "GET", "/metrics", None);
    assert_eq!(status, 200);
    assert!(
        !metrics.contains("agequant_memory_"),
        "memory series must not appear on a memoryless server: {metrics}"
    );

    handle.shutdown_and_join();
}

/// BIT-IDENTITY — `POST /v1/plan/batch` answers each element with the
/// exact bytes the corresponding single `POST /v1/plan` call would
/// have produced, including per-element errors, assembled as
/// `{"results":[{"status":N,"body":...},...]}`.
#[test]
fn plan_batch_is_bit_identical_to_single_calls() {
    let handle = start(test_config(8), FleetConfig::new(8, 7)).expect("start");
    let addr = addr_of(&handle);

    // A deliberately mixed batch: plans from several models, a
    // constraint override, an out-of-range level, and an unknown model
    // — errors must stay per-element, not fail the batch.
    let elements = [
        "{\"delta_vth_mv\": 0.0}",
        "{\"delta_vth_mv\": 12.5}",
        "{\"delta_vth_mv\": 30.0, \"model\": \"surrogate\"}",
        "{\"delta_vth_mv\": 47.0, \"constraint_factor\": 1.1}",
        "{\"delta_vth_mv\": 400.0}",
        "{\"delta_vth_mv\": 10.0, \"model\": \"entropy\"}",
    ];

    // The reference bytes come from the live single-call endpoint, so
    // the comparison pins the two code paths to each other.
    let mut expected = String::from("{\"results\":[");
    for (i, element) in elements.iter().enumerate() {
        let (status, _, body) = request(&addr, "POST", "/v1/plan", Some(element));
        if i > 0 {
            expected.push(',');
        }
        expected.push_str(&format!("{{\"status\":{status},\"body\":{body}}}"));
    }
    expected.push_str("]}");

    let batch_body = format!("[{}]", elements.join(","));
    let (status, _, body) = request(&addr, "POST", "/v1/plan/batch", Some(&batch_body));
    assert_eq!(status, 200, "{body}");
    assert_eq!(body, expected, "batch elements diverged from single calls");

    // An empty batch is a well-formed no-op, a non-array body is a 400,
    // and the endpoint shows up under its own metrics label.
    let (status, _, body) = request(&addr, "POST", "/v1/plan/batch", Some("[]"));
    assert_eq!(status, 200, "{body}");
    assert_eq!(body, "{\"results\":[]}");
    let (status, _, _) = request(
        &addr,
        "POST",
        "/v1/plan/batch",
        Some("{\"delta_vth_mv\": 1}"),
    );
    assert_eq!(status, 400);
    let (status, _, _) = request(&addr, "DELETE", "/v1/plan/batch", None);
    assert_eq!(status, 405);
    let (status, _, metrics) = request(&addr, "GET", "/metrics", None);
    assert_eq!(status, 200);
    assert!(
        metrics.contains("endpoint=\"plan_batch\",code=\"2xx\"} 2"),
        "{metrics}"
    );

    handle.shutdown_and_join();
}

/// The autopilot over the wire: enrollment arms the hosted fleet,
/// telemetry answers carry the regime and next-sample cadence hint
/// plus the report-vs-model residual, the summary endpoint reports
/// the census and ledger, and `/metrics` exports the regime gauges,
/// budget gauge, and residual EWMA.
#[test]
fn autopilot_wire_surface() {
    let handle = start(test_config(6), FleetConfig::new(6, 7)).expect("start");
    let addr = addr_of(&handle);

    // Before enrollment: the summary 404s, telemetry has no hint, and
    // no autopilot series exist — the pre-autopilot surface.
    let (status, _, body) = request(&addr, "GET", "/v1/autopilot/summary", None);
    assert_eq!(status, 404, "{body}");
    assert!(body.contains("not enrolled"), "{body}");
    let (status, _, body) = request(
        &addr,
        "POST",
        "/v1/telemetry",
        Some("{\"chip\": 1, \"epoch\": 0}"),
    );
    assert_eq!(status, 200, "{body}");
    assert!(!body.contains("\"autopilot\""), "{body}");
    let (status, _, metrics) = request(&addr, "GET", "/metrics", None);
    assert_eq!(status, 200);
    assert!(!metrics.contains("agequant_autopilot_"), "{metrics}");
    assert!(
        metrics.contains("agequant_telemetry_residual_mv"),
        "{metrics}"
    );

    // An implausible controller is rejected with the violation named.
    let (status, _, body) = request(
        &addr,
        "POST",
        "/v1/autopilot/enroll",
        Some("{\"budget_messages_per_epoch\": 100, \"budget_burst\": 1}"),
    );
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("burst"), "{body}");

    // Enrollment arms every hosted chip.
    let (status, _, body) = request(&addr, "POST", "/v1/autopilot/enroll", None);
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"enrolled\":6"), "{body}");
    assert!(body.contains("\"already_armed\":false"), "{body}");

    // Telemetry now advances the closed loop and answers with the
    // cadence hint and the residual it fed the rate estimator.
    let (status, _, body) = request(
        &addr,
        "POST",
        "/v1/telemetry",
        Some("{\"chip\": 0, \"epoch\": 8, \"delta_vth_mv\": 25.0}"),
    );
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"autopilot\":{\"regime\":\""), "{body}");
    assert!(body.contains("\"next_sample_epoch\":"), "{body}");
    assert!(body.contains("\"residual_mv\":"), "{body}");

    // The summary reports the full census and the controller config.
    let (status, _, body) = request(&addr, "GET", "/v1/autopilot/summary", None);
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"config\":{"), "{body}");
    assert!(body.contains("\"enrolled\":6"), "{body}");
    assert!(body.contains("\"budget_tokens\":"), "{body}");

    // /metrics exports the regime census, budget, and message ledger.
    let (status, _, metrics) = request(&addr, "GET", "/metrics", None);
    assert_eq!(status, 200);
    for regime in ["calm", "watch", "intervene"] {
        assert!(
            metrics.contains(&format!(
                "agequant_autopilot_regime_chips{{regime=\"{regime}\"}}"
            )),
            "{metrics}"
        );
    }
    assert!(
        metrics.contains("agequant_autopilot_budget_tokens"),
        "{metrics}"
    );
    assert!(
        metrics.contains("agequant_autopilot_messages_total{outcome=\"granted\"}"),
        "{metrics}"
    );

    // Re-enrollment is idempotent and says so.
    let (status, _, body) = request(&addr, "POST", "/v1/autopilot/enroll", None);
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"already_armed\":true"), "{body}");

    handle.shutdown_and_join();
}
