//! `agequant-serve`: a concurrent compression-decision server over
//! the shared evaluation engine.
//!
//! The flow crates answer "given this chip's ΔVth, which `(α, β)`
//! compression, padding, and quantization method keep it at its fresh
//! clock?" as library calls. This crate puts that decision behind a
//! small HTTP/1.1 JSON API so a fleet of NPUs (or a fleet manager)
//! can ask over the network:
//!
//! * `POST /v1/plan` — ΔVth in, decision out, hitting the same plan
//!   cache every other caller warms. An optional `model` field picks a
//!   degradation model from the zoo; omitted, the server's configured
//!   default answers byte-identically to before the field existed.
//! * `GET /v1/models` — the degradation-model zoo: names,
//!   descriptions, the server default, and which models hold a live
//!   decider.
//! * `POST /v1/plan/batch` — a JSON array of plan requests decided in
//!   one round trip; each element answers with the exact bytes its
//!   single call would have produced, errors included.
//! * `POST /v1/telemetry` — per-chip aging samples advance a hosted
//!   [`FleetSim`](agequant_fleet::FleetSim), whose journal each call
//!   appends to the journal file and then releases. Reported
//!   ΔVth is cross-checked against the model and the residual is fed
//!   to the metrics gauge and (for enrolled chips) the autopilot's
//!   rate estimator; enrolled chips get a cadence hint back.
//! * `POST /v1/autopilot/enroll` — arms the regime-switching closed
//!   loop ([`agequant_autopilot`](agequant_fleet::AutopilotConfig))
//!   over the hosted fleet, with optional budget overrides.
//! * `GET /v1/autopilot/summary` — the regime census and telemetry
//!   budget ledger (`404` until enrolled).
//! * `GET /v1/fleet/summary` — the hosted fleet's plan distribution.
//! * `GET /v1/memory/summary` — the weight-memory aging rollup, when
//!   the hosted fleet tracks the memory axis (`404` otherwise).
//! * `GET /metrics` — Prometheus text: request counts, latency
//!   histograms, queue depth, the engine's cache counters (aggregate,
//!   plus per-degradation-model labelled series), the telemetry
//!   residual EWMA, and the memory/autopilot rollups when those axes
//!   are enabled.
//!
//! The connection plane is a readiness-polled event loop (`poll(2)`
//! via `agequant-netpoll`): every connection — parsing, writes, idle
//! keep-alive sweeping, deadlines, the graceful drain — is owned by
//! one loop thread, so idle connections cost a file descriptor, not a
//! thread. `POST /v1/plan` requests inside the served ΔVth range for
//! the configured model are answered *on the loop* from an immutable
//! prerendered decision table (one response body per bucket, rendered
//! from a decider at start, before any thread exists): no lock, no
//! queue, no engine, byte-identical to the live path. That table is
//! the server's only table; workers answer from it too, and decide
//! live only what it cannot answer (constraint overrides and other
//! zoo models, on a per-model decider whose memo serves repeats).
//! Everything else goes to a
//! bounded-queue worker pool built on the `agequant-check` facade
//! over `std`, so the queue/drain protocol is model-checked under
//! `--features model`: a full queue answers `503 Retry-After`
//! immediately — backpressure is explicit, memory stays flat under
//! overload — and every request carries a deadline. Shutdown
//! (`POST /v1/shutdown`) drains the queue before the workers exit, so
//! accepted work is never dropped.
//!
//! # Example
//!
//! ```
//! use agequant_fleet::FleetConfig;
//! use agequant_serve::{start, ServeConfig};
//!
//! # fn main() -> Result<(), agequant_serve::ServeError> {
//! let config = ServeConfig {
//!     addr: "127.0.0.1:0".to_string(), // ephemeral port
//!     fleet_chips: 4,
//!     ..ServeConfig::default()
//! };
//! let handle = start(config, FleetConfig::new(4, 7))?;
//! let addr = handle.addr(); // POST http://{addr}/v1/plan ...
//! # let _ = addr;
//! handle.shutdown_and_join();
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod event_loop;
mod http;
mod metrics;
mod queue;
mod server;

use std::fmt;

use agequant_fleet::FleetError;

pub use config::{sweep_max_mv, ServeConfig};
pub use http::{
    eof_error, reason, try_parse, HttpError, Parsed, Request, Response, CONTINUE_BYTES,
    MAX_BODY_BYTES,
};
pub use metrics::{series_label, Endpoint, Metrics, LATENCY_BUCKETS_S, ROUTES};
pub use queue::BoundedQueue;
pub use server::{plan_response, start, write_checkpoint, ServerHandle};

/// Everything that can go wrong starting or running the server.
#[derive(Debug)]
pub enum ServeError {
    /// The configuration is invalid (the message names each violation).
    Config(String),
    /// A socket or file operation failed.
    Io(String),
    /// The decision core could not be built or a decision failed.
    Fleet(FleetError),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Config(msg) => write!(f, "invalid server config: {msg}"),
            ServeError::Io(msg) => write!(f, "i/o error: {msg}"),
            ServeError::Fleet(e) => write!(f, "fleet error: {e}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<FleetError> for ServeError {
    fn from(e: FleetError) -> Self {
        ServeError::Fleet(e)
    }
}
