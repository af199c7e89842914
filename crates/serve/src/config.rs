//! Server configuration: the artifact `agequant-serve` runs from and
//! saves, and the one lint code SV001 validates.
//!
//! [`ServeConfig::violations`] is the single source of truth for what
//! makes a configuration valid — [`ServeConfig::validate`] and the
//! lint share it, so the running server and the static checker cannot
//! drift.

use std::net::SocketAddr;

use agequant_aging::AGING_SWEEP_MV;
use serde::{Deserialize, Serialize};

use crate::ServeError;

/// Everything the server needs to run, serializable as the saved
/// server-config artifact.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServeConfig {
    /// Listen address, `host:port`. Port 0 binds an ephemeral port.
    pub addr: String,
    /// Worker threads deciding queued requests.
    pub workers: u32,
    /// Bounded job-queue capacity; a full queue answers
    /// `503 Retry-After` instead of buffering without limit.
    pub queue_depth: u32,
    /// Largest ΔVth (millivolts) `/v1/plan` accepts. Bounded by the
    /// characterized library sweep: the engine has no data past it.
    pub max_mv: f64,
    /// Telemetry journal path (JSON lines, appended live).
    pub journal: Option<String>,
    /// Per-request deadline: a request not answered in this window
    /// gets `504`, and a worker reaching an expired job drops it
    /// instead of burning engine time on an abandoned reply.
    pub deadline_ms: u64,
    /// Keep-alive idle timeout per connection, seconds.
    pub keep_alive_secs: u64,
    /// Chips in the server-hosted fleet telemetry ingests into.
    pub fleet_chips: u32,
    /// Seed of the hosted fleet.
    pub fleet_seed: u64,
    /// Artificial per-job delay, milliseconds — a test/debug knob that
    /// makes queue saturation and drain timing deterministic. It delays
    /// worker jobs only: plan requests the prerendered decision table
    /// answers on the event loop never wait on it.
    pub debug_delay_ms: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:7171".to_string(),
            workers: 4,
            queue_depth: 64,
            max_mv: sweep_max_mv(),
            journal: None,
            deadline_ms: 2000,
            keep_alive_secs: 5,
            fleet_chips: 64,
            fleet_seed: 7,
            debug_delay_ms: 0,
        }
    }
}

/// The top of the characterized aging sweep (50 mV in the paper):
/// plans past it would extrapolate outside the cell libraries.
#[must_use]
pub fn sweep_max_mv() -> f64 {
    AGING_SWEEP_MV.iter().copied().fold(0.0f64, f64::max)
}

impl ServeConfig {
    /// Every way this configuration is invalid, as human-readable
    /// messages. Empty means valid. Shared verbatim by
    /// [`ServeConfig::validate`] and lint SV001.
    #[must_use]
    pub fn violations(&self) -> Vec<String> {
        let mut out = Vec::new();
        if self.workers == 0 {
            out.push("worker count must be at least 1".to_string());
        }
        if self.queue_depth < self.workers {
            out.push(format!(
                "queue depth {} is below the worker count {} (workers would idle)",
                self.queue_depth, self.workers
            ));
        }
        if self.addr.parse::<SocketAddr>().is_err() {
            out.push(format!(
                "listen address {:?} does not parse as host:port",
                self.addr
            ));
        }
        let sweep_top = sweep_max_mv();
        if !(self.max_mv > 0.0 && self.max_mv.is_finite() && self.max_mv <= sweep_top + 1e-9) {
            out.push(format!(
                "max ΔVth {} mV is outside the characterized 0–{sweep_top} mV library sweep",
                self.max_mv
            ));
        }
        if self.deadline_ms == 0 {
            out.push("request deadline must be at least 1 ms".to_string());
        }
        if self.fleet_chips == 0 {
            out.push("hosted fleet needs at least one chip".to_string());
        }
        out
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Config`] naming every violation.
    pub fn validate(&self) -> Result<(), ServeError> {
        let violations = self.violations();
        if violations.is_empty() {
            Ok(())
        } else {
            Err(ServeError::Config(violations.join("; ")))
        }
    }

    /// Serializes the config as pretty-printed JSON — the saved
    /// server-config artifact format.
    ///
    /// # Panics
    ///
    /// Panics if serialization fails (the config is plain data, so it
    /// cannot).
    #[must_use]
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("ServeConfig serializes")
    }

    /// Parses a saved server-config artifact.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Config`] when the text is not a valid
    /// config (shape errors only; semantic checks are
    /// [`ServeConfig::violations`]).
    pub fn from_json(text: &str) -> Result<Self, ServeError> {
        serde_json::from_str(text).map_err(|e| ServeError::Config(format!("config: {e}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_valid() {
        let config = ServeConfig::default();
        assert!(config.violations().is_empty(), "{:?}", config.violations());
        config.validate().expect("valid");
    }

    #[test]
    fn violations_name_every_bad_knob() {
        let config = ServeConfig {
            addr: "not-an-addr".to_string(),
            workers: 0,
            queue_depth: 0,
            max_mv: 75.0,
            deadline_ms: 0,
            fleet_chips: 0,
            ..ServeConfig::default()
        };
        let violations = config.violations();
        assert!(violations.iter().any(|v| v.contains("worker count")));
        assert!(violations.iter().any(|v| v.contains("address")));
        assert!(violations.iter().any(|v| v.contains("sweep")));
        assert!(violations.iter().any(|v| v.contains("deadline")));
        assert!(violations.iter().any(|v| v.contains("chip")));
        assert!(config.validate().is_err());
        // queue_depth 0 < workers 0 is NOT flagged (0 >= 0): the
        // worker-count violation already covers it.
        let config = ServeConfig {
            workers: 4,
            queue_depth: 2,
            ..ServeConfig::default()
        };
        assert!(config
            .violations()
            .iter()
            .any(|v| v.contains("queue depth")));
    }

    #[test]
    fn config_round_trips_through_json() {
        let config = ServeConfig {
            journal: Some("results/serve/journal.jsonl".to_string()),
            ..ServeConfig::default()
        };
        let back = ServeConfig::from_json(&config.to_json()).expect("parses");
        assert_eq!(back, config);
    }

    #[test]
    fn sweep_top_matches_the_paper() {
        assert_eq!(sweep_max_mv(), 50.0);
    }
}
