//! A run's outcome and the JSON lines the benchmark prints.

use serde::Value;

/// One named measurement with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as declared in `BENCHMARK.json`.
    pub name: &'static str,
    /// The measured value, with all its digits.
    pub value: f64,
    /// Unit, e.g. `us`, `s`, `1/s`.
    pub unit: &'static str,
}

/// What one run, or one phase of it, measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (requests, decisions, epochs + cycles).
    pub attempted: u64,
    /// Operations that failed: non-2xx, timeout, refusal, unanswered,
    /// or an output-check mismatch.
    pub failed: u64,
    /// The first few failure descriptions, for the log.
    pub failures: Vec<String>,
    /// End-to-end metrics (untraced runs).
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics (traced runs).
    pub per_layer: Vec<Metric>,
    /// Workload facts worth keeping beside the numbers (input sizes,
    /// shares, ladder rungs), for the run record.
    pub details: Vec<(String, Value)>,
}

impl Outcome {
    /// Adds an end-to-end metric.
    pub fn e2e(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.end_to_end.push(Metric { name, value, unit });
    }

    /// Adds a per-layer metric.
    pub fn layer(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.per_layer.push(Metric { name, value, unit });
    }

    /// Records a fact about the run.
    pub fn detail(&mut self, key: &str, value: Value) {
        self.details.push((key.to_string(), value));
    }

    /// Counts one failed operation, keeping its description if it is
    /// among the first few.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        self.remember(why);
    }

    /// Folds another outcome's counts and failures into this one.
    pub fn absorb_counts(&mut self, attempted: u64, failed: u64, failures: Vec<String>) {
        self.attempted += attempted;
        self.failed += failed;
        for why in failures {
            self.remember(why);
        }
    }

    /// Folds one phase's outcome into the run's: counts, failures and
    /// details (prefixed with the phase), metrics appended, except that
    /// the phases' `setup_s` add up to one.
    pub fn absorb_phase(&mut self, phase: &str, other: Outcome) {
        self.absorb_counts(
            other.attempted,
            other.failed,
            other
                .failures
                .into_iter()
                .map(|why| format!("{phase}: {why}"))
                .collect(),
        );
        for metric in other.end_to_end {
            match self.end_to_end.iter_mut().find(|m| m.name == metric.name) {
                Some(sum) if metric.name == "setup_s" => sum.value += metric.value,
                _ => self.end_to_end.push(metric),
            }
        }
        self.per_layer.extend(other.per_layer);
        self.details.extend(
            other
                .details
                .into_iter()
                .map(|(key, value)| (format!("{phase}.{key}"), value)),
        );
    }

    fn remember(&mut self, why: String) {
        if self.failures.len() < 8 {
            self.failures.push(why);
        }
    }

    /// Failed share of attempted operations.
    #[must_use]
    pub fn error_rate(&self) -> f64 {
        #[allow(clippy::cast_precision_loss)]
        let rate = self.failed as f64 / self.attempted.max(1) as f64;
        rate
    }
}

/// Builds a JSON object from ordered fields.
#[must_use]
pub fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Map(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// `{"name": {"value": v, "unit": u}, ...}` for a metric list.
#[must_use]
pub fn metrics_value(metrics: &[Metric]) -> Value {
    Value::Map(
        metrics
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    obj(vec![
                        ("value", Value::Float(m.value)),
                        ("unit", Value::Str(m.unit.to_string())),
                    ]),
                )
            })
            .collect(),
    )
}

/// The result line, the last of standard output: exactly `correct`, `attempted`,
/// `failed` and `metrics`.
#[must_use]
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let value = obj(vec![
        ("correct", Value::Bool(correct)),
        ("attempted", Value::UInt(attempted)),
        ("failed", Value::UInt(failed)),
        ("metrics", metrics_value(metrics)),
    ]);
    serde_json::to_string(&value).expect("metric values are finite")
}
