//! Prometheus text-format metrics for the decision server.
//!
//! Everything is a plain atomic counter (histograms are cumulative
//! per-bucket counters, as the exposition format requires), so the
//! `/metrics` scrape never takes a lock and never blocks the plan
//! path — the same discipline the engine's `CacheStats` follow.

use std::collections::BTreeMap;
use std::time::Duration;

use agequant_check::sync::atomic::{AtomicU64, Ordering};

use agequant_core::CacheStats;
use agequant_fleet::{AutopilotSummary, MemorySummary};

/// Latency histogram upper bounds, seconds: 1–2.5–5 steps per decade
/// from 1 µs to 1 s, then 2 s, so a table answer (a few µs on the
/// event loop) lands in a bucket of its own instead of the first one.
/// The last implicit bucket is `+Inf`.
pub const LATENCY_BUCKETS_S: [f64; 20] = [
    1e-6, 2.5e-6, 5e-6, 1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3, 0.01, 0.025,
    0.05, 0.1, 0.25, 0.5, 1.0, 2.0,
];

/// The endpoints the server distinguishes in its metrics: one per
/// [`ROUTES`] entry, in the same order, then [`Endpoint::Other`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Endpoint {
    /// `POST /v1/plan`
    Plan,
    /// `POST /v1/plan/batch`
    PlanBatch,
    /// `POST /v1/telemetry`
    Telemetry,
    /// `GET /v1/fleet/summary`
    Summary,
    /// `GET /metrics`
    Metrics,
    /// `POST /v1/shutdown`
    Shutdown,
    /// `GET /v1/memory/summary`
    MemorySummary,
    /// `GET /v1/models`
    Models,
    /// `GET /healthz`
    Healthz,
    /// `GET /v1/autopilot/summary`
    AutopilotSummary,
    /// `POST /v1/autopilot/enroll`
    AutopilotEnroll,
    /// Anything else (404s, 405s, unparseable requests, ...).
    Other,
}

/// Every route the server answers, as `(method, path, endpoint)`: the
/// one method the path answers and the endpoint the request is
/// dispatched to and counted under. The server dispatches through this
/// list and answers `405` for a listed path under another method; the
/// metric registry keeps one series per entry, plus `other`.
pub const ROUTES: [(&str, &str, Endpoint); 11] = [
    ("POST", "/v1/plan", Endpoint::Plan),
    ("POST", "/v1/plan/batch", Endpoint::PlanBatch),
    ("POST", "/v1/telemetry", Endpoint::Telemetry),
    ("GET", "/v1/fleet/summary", Endpoint::Summary),
    ("GET", "/metrics", Endpoint::Metrics),
    ("POST", "/v1/shutdown", Endpoint::Shutdown),
    ("GET", "/v1/memory/summary", Endpoint::MemorySummary),
    ("GET", "/v1/models", Endpoint::Models),
    ("GET", "/healthz", Endpoint::Healthz),
    ("GET", "/v1/autopilot/summary", Endpoint::AutopilotSummary),
    ("POST", "/v1/autopilot/enroll", Endpoint::AutopilotEnroll),
];

// An endpoint's discriminant is its `ROUTES` index — checked at
// compile time, so the list and the enum cannot drift apart.
const _: () = {
    let mut i = 0;
    while i < ROUTES.len() {
        assert!(
            ROUTES[i].2 as usize == i,
            "ROUTES order must follow Endpoint"
        );
        i += 1;
    }
    assert!(Endpoint::Other as usize == ROUTES.len());
};

/// Metric series: one per route, plus `other`.
const SERIES: usize = ROUTES.len() + 1;

/// Per-endpoint counters: requests by status class plus a latency
/// histogram.
#[derive(Debug)]
struct EndpointStats {
    /// Status classes 1xx..5xx at indices 0..4.
    by_class: [AtomicU64; 5],
    /// Histogram counters, one per bound plus `+Inf`, each counting
    /// only its own bucket: one increment per observation however many
    /// bounds there are. `render` sums them into the cumulative `le`
    /// series Prometheus expects.
    buckets: [AtomicU64; LATENCY_BUCKETS_S.len() + 1],
    /// Total observed latency, nanoseconds.
    sum_nanos: AtomicU64,
    /// Total observations.
    count: AtomicU64,
}

impl EndpointStats {
    fn new() -> Self {
        EndpointStats {
            by_class: std::array::from_fn(|_| AtomicU64::new(0)),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum_nanos: AtomicU64::new(0),
            count: AtomicU64::new(0),
        }
    }
}

/// The server's metric registry.
#[derive(Debug)]
pub struct Metrics {
    endpoints: [EndpointStats; SERIES],
    /// Requests answered `503` because the queue was full.
    queue_rejected: AtomicU64,
    /// Requests answered `504` past their deadline.
    timeouts: AtomicU64,
    /// EWMA of the absolute measured-vs-model telemetry residual,
    /// millivolts, stored as `f64::to_bits`. Updated by
    /// `POST /v1/telemetry` whenever a client reports a measured
    /// ΔVth; previously that disagreement was computed and thrown
    /// away after the consistency bool.
    telemetry_residual_bits: AtomicU64,
    /// Live connections registered with the event loop.
    open_connections: AtomicU64,
    /// Plan decisions answered from the materialized table.
    table_hits: AtomicU64,
    /// Plan decisions that fell through to the live decider path.
    table_misses: AtomicU64,
}

/// The `endpoint="…"` label of the `i`th metric series, which counts
/// the [`Endpoint`] whose discriminant is `i`: its route's path
/// without the leading `/` or `/v1/`, each further `/` as `_`
/// (`plan_batch`, `fleet_summary`), and `other` past the routes.
#[must_use]
pub fn series_label(i: usize) -> String {
    ROUTES.get(i).map_or_else(
        || "other".to_string(),
        |(_, path, _)| {
            let path = path.strip_prefix("/v1").unwrap_or(path);
            path[1..].replace('/', "_")
        },
    )
}

/// Smoothing factor for the exported telemetry-residual EWMA.
const RESIDUAL_ALPHA: f64 = 0.25;

impl Default for Metrics {
    fn default() -> Self {
        Self::new()
    }
}

impl Metrics {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Self {
        Metrics {
            endpoints: std::array::from_fn(|_| EndpointStats::new()),
            queue_rejected: AtomicU64::new(0),
            timeouts: AtomicU64::new(0),
            telemetry_residual_bits: AtomicU64::new(0.0f64.to_bits()),
            open_connections: AtomicU64::new(0),
            table_hits: AtomicU64::new(0),
            table_misses: AtomicU64::new(0),
        }
    }

    /// Registers a newly accepted connection.
    pub fn connection_opened(&self) {
        self.open_connections.fetch_add(1, Ordering::Relaxed);
    }

    /// Deregisters a closed connection.
    pub fn connection_closed(&self) {
        self.open_connections.fetch_sub(1, Ordering::Relaxed);
    }

    /// Live connections right now.
    #[must_use]
    pub fn open_connections(&self) -> u64 {
        self.open_connections.load(Ordering::Relaxed)
    }

    /// Records `n` plan decisions served straight from the
    /// materialized decision table.
    pub fn record_table_hits(&self, n: u64) {
        self.table_hits.fetch_add(n, Ordering::Relaxed);
    }

    /// Records `n` plan decisions that fell through to the live
    /// decider path (queued for a worker).
    pub fn record_table_misses(&self, n: u64) {
        self.table_misses.fetch_add(n, Ordering::Relaxed);
    }

    /// Table hits so far.
    #[must_use]
    pub fn table_hits(&self) -> u64 {
        self.table_hits.load(Ordering::Relaxed)
    }

    /// Table misses so far.
    #[must_use]
    pub fn table_misses(&self) -> u64 {
        self.table_misses.load(Ordering::Relaxed)
    }

    /// Records one finished request.
    pub fn observe(&self, endpoint: Endpoint, status: u16, elapsed: Duration) {
        let stats = &self.endpoints[endpoint as usize];
        let class = usize::from(status / 100).clamp(1, 5) - 1;
        stats.by_class[class].fetch_add(1, Ordering::Relaxed);
        let secs = elapsed.as_secs_f64();
        let slot = LATENCY_BUCKETS_S.partition_point(|bound| *bound < secs);
        stats.buckets[slot].fetch_add(1, Ordering::Relaxed);
        let nanos = u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX);
        stats.sum_nanos.fetch_add(nanos, Ordering::Relaxed);
        stats.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a backpressure rejection (queue full, `503`).
    pub fn record_rejection(&self) {
        self.queue_rejected.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a deadline expiry (`504`).
    pub fn record_timeout(&self) {
        self.timeouts.fetch_add(1, Ordering::Relaxed);
    }

    /// Folds one measured-vs-model telemetry residual (millivolts,
    /// sign discarded) into the exported EWMA. Non-finite values are
    /// dropped. A compare-exchange loop keeps concurrent updates from
    /// losing each other without taking a lock on the scrape path.
    pub fn record_residual(&self, residual_mv: f64) {
        if !residual_mv.is_finite() {
            return;
        }
        let sample = residual_mv.abs();
        let mut current = self.telemetry_residual_bits.load(Ordering::Relaxed);
        loop {
            let ewma = RESIDUAL_ALPHA * sample + (1.0 - RESIDUAL_ALPHA) * f64::from_bits(current);
            match self.telemetry_residual_bits.compare_exchange_weak(
                current,
                ewma.to_bits(),
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(seen) => current = seen,
            }
        }
    }

    /// The current telemetry-residual EWMA, millivolts.
    #[must_use]
    pub fn telemetry_residual_mv(&self) -> f64 {
        f64::from_bits(self.telemetry_residual_bits.load(Ordering::Relaxed))
    }

    /// Total rejections so far.
    #[must_use]
    pub fn rejections(&self) -> u64 {
        self.queue_rejected.load(Ordering::Relaxed)
    }

    /// Renders the registry in Prometheus text exposition format,
    /// folding in the live queue depth, the engine's cache counters —
    /// the aggregate series plus one labelled series per degradation
    /// model — and, when the hosted fleet tracks them, the
    /// weight-memory and autopilot rollups.
    #[must_use]
    #[allow(clippy::cast_precision_loss)]
    pub fn render(
        &self,
        queue_depth: usize,
        engine: &CacheStats,
        by_model: &BTreeMap<String, CacheStats>,
        memory: Option<&MemorySummary>,
        autopilot: Option<&AutopilotSummary>,
    ) -> String {
        let mut out = String::with_capacity(4096);

        out.push_str("# HELP agequant_http_requests_total Requests by endpoint and status class\n");
        out.push_str("# TYPE agequant_http_requests_total counter\n");
        let labels: Vec<String> = (0..SERIES).map(series_label).collect();
        for (stats, label) in self.endpoints.iter().zip(&labels) {
            for (class, counter) in stats.by_class.iter().enumerate() {
                let n = counter.load(Ordering::Relaxed);
                if n > 0 {
                    out.push_str(&format!(
                        "agequant_http_requests_total{{endpoint=\"{label}\",code=\"{}xx\"}} {n}\n",
                        class + 1
                    ));
                }
            }
        }

        out.push_str("# HELP agequant_http_request_duration_seconds Request latency by endpoint\n");
        out.push_str("# TYPE agequant_http_request_duration_seconds histogram\n");
        for (stats, label) in self.endpoints.iter().zip(&labels) {
            if stats.count.load(Ordering::Relaxed) == 0 {
                continue;
            }
            let mut cumulative = 0;
            let bounds = LATENCY_BUCKETS_S.iter().map(|bound| bound.to_string());
            for (bucket, le) in stats.buckets.iter().zip(bounds.chain(["+Inf".to_string()])) {
                cumulative += bucket.load(Ordering::Relaxed);
                out.push_str(&format!(
                    "agequant_http_request_duration_seconds_bucket{{endpoint=\"{label}\",le=\"{le}\"}} {cumulative}\n"
                ));
            }
            out.push_str(&format!(
                "agequant_http_request_duration_seconds_sum{{endpoint=\"{label}\"}} {}\n",
                stats.sum_nanos.load(Ordering::Relaxed) as f64 / 1e9
            ));
            out.push_str(&format!(
                "agequant_http_request_duration_seconds_count{{endpoint=\"{label}\"}} {}\n",
                stats.count.load(Ordering::Relaxed)
            ));
        }

        out.push_str("# HELP agequant_queue_depth Jobs waiting in the bounded queue\n");
        out.push_str("# TYPE agequant_queue_depth gauge\n");
        out.push_str(&format!("agequant_queue_depth {queue_depth}\n"));
        out.push_str(
            "# HELP agequant_queue_rejected_total Requests answered 503 on a full queue\n",
        );
        out.push_str("# TYPE agequant_queue_rejected_total counter\n");
        out.push_str(&format!(
            "agequant_queue_rejected_total {}\n",
            self.queue_rejected.load(Ordering::Relaxed)
        ));
        out.push_str(
            "# HELP agequant_serve_open_connections Live connections registered with the event loop\n",
        );
        out.push_str("# TYPE agequant_serve_open_connections gauge\n");
        out.push_str(&format!(
            "agequant_serve_open_connections {}\n",
            self.open_connections.load(Ordering::Relaxed)
        ));
        out.push_str(
            "# HELP agequant_serve_table_hits_total Plan decisions served from the materialized decision table\n",
        );
        out.push_str("# TYPE agequant_serve_table_hits_total counter\n");
        out.push_str(&format!(
            "agequant_serve_table_hits_total {}\n",
            self.table_hits.load(Ordering::Relaxed)
        ));
        out.push_str(
            "# HELP agequant_serve_table_misses_total Plan decisions that fell through to the live decider\n",
        );
        out.push_str("# TYPE agequant_serve_table_misses_total counter\n");
        out.push_str(&format!(
            "agequant_serve_table_misses_total {}\n",
            self.table_misses.load(Ordering::Relaxed)
        ));
        out.push_str("# HELP agequant_request_timeouts_total Requests past their deadline\n");
        out.push_str("# TYPE agequant_request_timeouts_total counter\n");
        out.push_str(&format!(
            "agequant_request_timeouts_total {}\n",
            self.timeouts.load(Ordering::Relaxed)
        ));
        out.push_str(
            "# HELP agequant_telemetry_residual_mv EWMA of the absolute measured-vs-model telemetry residual\n",
        );
        out.push_str("# TYPE agequant_telemetry_residual_mv gauge\n");
        out.push_str(&format!(
            "agequant_telemetry_residual_mv {}\n",
            self.telemetry_residual_mv()
        ));

        if let Some(autopilot) = autopilot {
            out.push_str(
                "# HELP agequant_autopilot_regime_chips Enrolled chips by control regime\n",
            );
            out.push_str("# TYPE agequant_autopilot_regime_chips gauge\n");
            for (regime, n) in [
                ("calm", autopilot.calm),
                ("watch", autopilot.watch),
                ("intervene", autopilot.intervene),
            ] {
                out.push_str(&format!(
                    "agequant_autopilot_regime_chips{{regime=\"{regime}\"}} {n}\n"
                ));
            }
            out.push_str(
                "# HELP agequant_autopilot_budget_tokens Telemetry-budget tokens in the bucket\n",
            );
            out.push_str("# TYPE agequant_autopilot_budget_tokens gauge\n");
            out.push_str(&format!(
                "agequant_autopilot_budget_tokens {}\n",
                autopilot.budget_tokens
            ));
            out.push_str("# HELP agequant_autopilot_messages_total Telemetry grants by outcome\n");
            out.push_str("# TYPE agequant_autopilot_messages_total counter\n");
            for (outcome, n) in [
                ("granted", autopilot.messages_granted),
                ("deferred", autopilot.messages_deferred),
                ("overdraft", autopilot.overdraft_grants),
            ] {
                out.push_str(&format!(
                    "agequant_autopilot_messages_total{{outcome=\"{outcome}\"}} {n}\n"
                ));
            }
        }

        if let Some(memory) = memory {
            out.push_str(
                "# HELP agequant_memory_reencodes_total Weight-memory re-encodes across the hosted fleet\n",
            );
            out.push_str("# TYPE agequant_memory_reencodes_total counter\n");
            out.push_str(&format!(
                "agequant_memory_reencodes_total {}\n",
                memory.reencodes
            ));
            out.push_str(
                "# HELP agequant_memory_degraded_chips Chips whose weight memory crossed the degrade threshold\n",
            );
            out.push_str("# TYPE agequant_memory_degraded_chips gauge\n");
            out.push_str(&format!(
                "agequant_memory_degraded_chips {}\n",
                memory.memory_degraded
            ));
            out.push_str(
                "# HELP agequant_memory_worst_failure_prob Worst per-chip worst-bit failure probability\n",
            );
            out.push_str("# TYPE agequant_memory_worst_failure_prob gauge\n");
            out.push_str(&format!(
                "agequant_memory_worst_failure_prob {}\n",
                memory.worst_failure_prob
            ));
        }
        out.push_str(
            "# HELP agequant_engine_cache_events_total Evaluation-engine cache counters\n",
        );
        out.push_str("# TYPE agequant_engine_cache_events_total counter\n");
        for (cache, event, n) in [
            ("library", "hit", engine.library_hits),
            ("library", "miss", engine.library_misses),
            ("plan", "hit", engine.plan_hits),
            ("plan", "miss", engine.plan_misses),
        ] {
            out.push_str(&format!(
                "agequant_engine_cache_events_total{{cache=\"{cache}\",event=\"{event}\"}} {n}\n"
            ));
        }
        if !by_model.is_empty() {
            out.push_str(
                "# HELP agequant_engine_model_cache_events_total Evaluation-engine cache counters by degradation model\n",
            );
            out.push_str("# TYPE agequant_engine_model_cache_events_total counter\n");
            for (model, stats) in by_model {
                for (cache, event, n) in [
                    ("library", "hit", stats.library_hits),
                    ("library", "miss", stats.library_misses),
                    ("plan", "hit", stats.plan_hits),
                    ("plan", "miss", stats.plan_misses),
                ] {
                    out.push_str(&format!(
                        "agequant_engine_model_cache_events_total{{model=\"{model}\",cache=\"{cache}\",event=\"{event}\"}} {n}\n"
                    ));
                }
            }
        }
        out.push_str("# HELP agequant_engine_plan_hit_rate Plan-cache hit rate\n");
        out.push_str("# TYPE agequant_engine_plan_hit_rate gauge\n");
        out.push_str(&format!(
            "agequant_engine_plan_hit_rate {}\n",
            engine.plan_hit_rate()
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_are_cumulative() {
        let metrics = Metrics::new();
        metrics.observe(Endpoint::Plan, 200, Duration::from_micros(80));
        metrics.observe(Endpoint::Plan, 200, Duration::from_millis(3));
        metrics.observe(Endpoint::Plan, 503, Duration::from_micros(10));
        let text = metrics.render(2, &CacheStats::default(), &BTreeMap::new(), None, None);
        // 80 µs and 10 µs fall at or under 100 µs; 3 ms lands later.
        assert!(text.contains("le=\"0.0001\"} 2\n"), "{text}");
        assert!(text.contains("le=\"+Inf\"} 3\n"), "{text}");
        assert!(text.contains("endpoint=\"plan\",code=\"2xx\"} 2"));
        assert!(text.contains("endpoint=\"plan\",code=\"5xx\"} 1"));
        assert!(text.contains("agequant_queue_depth 2"));
    }

    #[test]
    fn table_path_latencies_resolve_below_ten_microseconds() {
        let metrics = Metrics::new();
        metrics.observe(Endpoint::Plan, 200, Duration::from_micros(8));
        let text = metrics.render(0, &CacheStats::default(), &BTreeMap::new(), None, None);
        assert!(
            text.contains("{endpoint=\"plan\",le=\"0.000005\"} 0\n"),
            "{text}"
        );
        assert!(
            text.contains("{endpoint=\"plan\",le=\"0.00001\"} 1\n"),
            "{text}"
        );
    }

    #[test]
    fn rejections_and_timeouts_are_counted() {
        let metrics = Metrics::new();
        metrics.record_rejection();
        metrics.record_rejection();
        metrics.record_timeout();
        assert_eq!(metrics.rejections(), 2);
        let text = metrics.render(0, &CacheStats::default(), &BTreeMap::new(), None, None);
        assert!(text.contains("agequant_queue_rejected_total 2"));
        assert!(text.contains("agequant_request_timeouts_total 1"));
    }

    #[test]
    fn connection_gauge_and_table_counters_are_exported() {
        let metrics = Metrics::new();
        metrics.connection_opened();
        metrics.connection_opened();
        metrics.connection_closed();
        metrics.record_table_hits(5);
        metrics.record_table_misses(2);
        assert_eq!(metrics.open_connections(), 1);
        assert_eq!(metrics.table_hits(), 5);
        assert_eq!(metrics.table_misses(), 2);
        let text = metrics.render(0, &CacheStats::default(), &BTreeMap::new(), None, None);
        assert!(text.contains("agequant_serve_open_connections 1"));
        assert!(text.contains("agequant_serve_table_hits_total 5"));
        assert!(text.contains("agequant_serve_table_misses_total 2"));
    }

    #[test]
    fn engine_counters_are_exported() {
        let metrics = Metrics::new();
        let stats = CacheStats {
            library_hits: 7,
            library_misses: 1,
            plan_hits: 30,
            plan_misses: 2,
        };
        let text = metrics.render(0, &stats, &BTreeMap::new(), None, None);
        assert!(text.contains("cache=\"plan\",event=\"hit\"} 30"));
        assert!(text.contains("cache=\"library\",event=\"miss\"} 1"));
        assert!(text.contains("agequant_engine_plan_hit_rate 0.9375"));
        // No per-model series without per-model counters.
        assert!(!text.contains("agequant_engine_model_cache_events_total"));
    }

    #[test]
    fn per_model_counters_are_exported_as_labelled_series() {
        let metrics = Metrics::new();
        let mut by_model = BTreeMap::new();
        by_model.insert(
            "nbti".to_string(),
            CacheStats {
                library_hits: 5,
                library_misses: 6,
                plan_hits: 7,
                plan_misses: 8,
            },
        );
        by_model.insert(
            "hci".to_string(),
            CacheStats {
                library_hits: 1,
                library_misses: 2,
                plan_hits: 3,
                plan_misses: 4,
            },
        );
        let text = metrics.render(0, &CacheStats::default(), &by_model, None, None);
        assert!(text.contains(
            "agequant_engine_model_cache_events_total{model=\"nbti\",cache=\"plan\",event=\"miss\"} 8"
        ));
        assert!(text.contains(
            "agequant_engine_model_cache_events_total{model=\"hci\",cache=\"library\",event=\"hit\"} 1"
        ));
        // The aggregate series is untouched by the split.
        assert!(text.contains("agequant_engine_cache_events_total{cache=\"plan\",event=\"hit\"} 0"));
    }
}
