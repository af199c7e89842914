//! The comparison behind `bench_diff`: two sets of runs, one verdict
//! per workload × end-to-end metric under the benchmark's own bounds.

use std::collections::BTreeMap;

use serde::Value;

use crate::stats::{median, quartiles};

/// Which direction of a metric is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better (latency, time, memory).
    Lower,
    /// Larger values are better (throughput).
    Higher,
}

/// One end-to-end metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSpec {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// Better direction.
    pub better: Better,
    /// Share of the parent's median the metric may worsen by.
    pub bound: f64,
}

/// One run's record, as the benchmark prints it.
#[derive(Debug, Clone, PartialEq)]
pub struct Run {
    /// Workload name.
    pub workload: String,
    /// Whether the run was traced (traced runs carry no end-to-end
    /// metrics and are skipped).
    pub trace: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// Metric values by name.
    pub metrics: BTreeMap<String, f64>,
}

/// The verdict on one workload × metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The change wins at least nine tenths of the pairs and the
    /// medians differ by more than the parent's interquartile spread.
    Improved,
    /// Within the bound.
    NoWorse,
    /// The spread is wider than the bound and the runs overlap.
    Unresolved,
    /// Worse than the parent's median by more than the bound.
    Regressed,
}

impl Verdict {
    /// Lower-case label for reports.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::NoWorse => "no worse",
            Verdict::Unresolved => "unresolved",
            Verdict::Regressed => "regressed",
        }
    }
}

/// Median and quartiles of one side.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Side {
    /// Runs with this metric.
    pub runs: usize,
    /// Median.
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// Failed share of attempted operations over the side's runs.
    pub failure_share: f64,
}

/// One line of the comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Workload.
    pub workload: String,
    /// Metric.
    pub metric: String,
    /// Parent side.
    pub parent: Side,
    /// Change side.
    pub change: Side,
    /// Pairs (in run order) the change won; ties count for neither.
    pub won: usize,
    /// Pairs compared.
    pub pairs: usize,
    /// The verdict.
    pub verdict: Verdict,
}

fn side(values: &[f64], failed: u64, attempted: u64) -> Option<Side> {
    let (q1, q3) = quartiles(values)?;
    #[allow(clippy::cast_precision_loss)]
    let failure_share = failed as f64 / attempted.max(1) as f64;
    Some(Side {
        runs: values.len(),
        median: median(values)?,
        q1,
        q3,
        failure_share,
    })
}

/// The verdict for one metric, given each side's values in run order.
/// `None` when either side has fewer than two runs.
#[must_use]
pub fn judge(
    spec: &MetricSpec,
    parent: &[f64],
    change: &[f64],
    fail_share: (f64, f64),
) -> Option<(Verdict, usize, usize)> {
    let p = side(parent, 0, 1)?;
    let c = side(change, 0, 1)?;
    let better = |a: f64, b: f64| match spec.better {
        Better::Lower => a < b,
        Better::Higher => a > b,
    };
    let pairs = parent.len().min(change.len());
    let won = parent
        .iter()
        .zip(change)
        .filter(|(p, c)| better(**c, **p))
        .count();
    let worse_share = match spec.better {
        Better::Lower => (c.median - p.median) / p.median.abs(),
        Better::Higher => (p.median - c.median) / p.median.abs(),
    };
    let spread = |s: &Side| (s.q3 - s.q1) / s.median.abs();
    #[allow(clippy::cast_precision_loss)]
    let wins_most = won as f64 >= 0.9 * pairs as f64 && pairs > 0;
    let verdict = if wins_most
        && better(c.median, p.median)
        && (c.median - p.median).abs() > p.q3 - p.q1
        && fail_share.1 <= fail_share.0
    {
        Verdict::Improved
    } else if spread(&p).max(spread(&c)) > spec.bound {
        let all_better = change.iter().all(|c| parent.iter().all(|p| better(*c, *p)));
        if all_better {
            Verdict::NoWorse
        } else {
            Verdict::Unresolved
        }
    } else if worse_share > spec.bound {
        Verdict::Regressed
    } else {
        Verdict::NoWorse
    };
    Some((verdict, won, pairs))
}

/// Compares every workload × declared metric both sides measured.
#[must_use]
pub fn compare(specs: &[MetricSpec], parent: &[Run], change: &[Run]) -> Vec<Row> {
    let mut workloads: Vec<&str> = parent
        .iter()
        .chain(change)
        .map(|r| r.workload.as_str())
        .collect();
    workloads.sort_unstable();
    workloads.dedup();
    let mut rows = Vec::new();
    for workload in workloads {
        let runs = |set: &[Run]| -> Vec<Run> {
            set.iter()
                .filter(|r| r.workload == workload && !r.trace)
                .cloned()
                .collect()
        };
        let (p_runs, c_runs) = (runs(parent), runs(change));
        let fails = |set: &[Run]| {
            let failed: u64 = set.iter().map(|r| r.failed).sum();
            let attempted: u64 = set.iter().map(|r| r.attempted).sum();
            (failed, attempted)
        };
        let (pf, pa) = fails(&p_runs);
        let (cf, ca) = fails(&c_runs);
        for spec in specs {
            let values = |set: &[Run]| -> Vec<f64> {
                set.iter()
                    .filter_map(|r| r.metrics.get(&spec.name).copied())
                    .collect()
            };
            let (pv, cv) = (values(&p_runs), values(&c_runs));
            let (Some(p), Some(c)) = (side(&pv, pf, pa), side(&cv, cf, ca)) else {
                continue;
            };
            if let Some((verdict, won, pairs)) =
                judge(spec, &pv, &cv, (p.failure_share, c.failure_share))
            {
                rows.push(Row {
                    workload: workload.to_string(),
                    metric: spec.name.clone(),
                    parent: p,
                    change: c,
                    won,
                    pairs,
                    verdict,
                });
            }
        }
    }
    rows
}

fn field<'a>(value: &'a Value, key: &str) -> Option<&'a Value> {
    match value {
        Value::Map(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

fn number(value: &Value) -> Option<f64> {
    #[allow(clippy::cast_precision_loss)]
    match value {
        Value::Float(f) => Some(*f),
        Value::Int(i) => Some(*i as f64),
        Value::UInt(u) => Some(*u as f64),
        _ => None,
    }
}

/// The end-to-end metric specs of a `BENCHMARK.json` text.
///
/// # Errors
///
/// Malformed JSON or a metric entry missing a field.
pub fn parse_spec(text: &str) -> Result<Vec<MetricSpec>, String> {
    let root: Value = serde_json::from_str(text).map_err(|e| e.to_string())?;
    let Some(Value::Seq(metrics)) = field(&root, "end_to_end") else {
        return Err("no end_to_end list".to_string());
    };
    metrics
        .iter()
        .map(|m| {
            let text = |k: &str| match field(m, k) {
                Some(Value::Str(s)) => Ok(s.clone()),
                _ => Err(format!("metric without {k}")),
            };
            let better = match text("better")?.as_str() {
                "lower" => Better::Lower,
                "higher" => Better::Higher,
                other => return Err(format!("unknown direction {other}")),
            };
            Ok(MetricSpec {
                name: text("name")?,
                unit: text("unit")?,
                better,
                bound: field(m, "bound")
                    .and_then(number)
                    .ok_or("metric without bound")?,
            })
        })
        .collect()
}

/// Every run record in a benchmark's captured standard output: the
/// lines holding a `perfbench_record` object.
#[must_use]
pub fn parse_runs(text: &str) -> Vec<Run> {
    text.lines()
        .filter_map(|line| {
            let value: Value = serde_json::from_str(line.trim()).ok()?;
            let record = field(&value, "perfbench_record")?;
            let metrics = match field(record, "metrics")? {
                Value::Map(fields) => fields
                    .iter()
                    .filter_map(|(k, v)| Some((k.clone(), number(field(v, "value")?)?)))
                    .collect(),
                _ => return None,
            };
            #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
            let count = |k: &str| field(record, k).and_then(number).map_or(0, |v| v as u64);
            Some(Run {
                workload: match field(record, "workload")? {
                    Value::Str(s) => s.clone(),
                    _ => return None,
                },
                trace: matches!(field(record, "trace"), Some(Value::Bool(true))),
                attempted: count("attempted"),
                failed: count("failed"),
                metrics,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(better: Better, bound: f64) -> MetricSpec {
        MetricSpec {
            name: "m".to_string(),
            unit: "ms".to_string(),
            better,
            bound,
        }
    }

    const PARENT: [f64; 10] = [
        100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.3,
    ];

    fn scaled(k: f64) -> Vec<f64> {
        PARENT.iter().map(|v| v * k).collect()
    }

    #[test]
    fn a_clear_gain_is_improved() {
        let (v, won, pairs) = judge(
            &spec(Better::Lower, 0.05),
            &PARENT,
            &scaled(0.8),
            (0.0, 0.0),
        )
        .expect("judged");
        assert_eq!((v, won, pairs), (Verdict::Improved, 10, 10));
        let (v, ..) = judge(
            &spec(Better::Higher, 0.05),
            &PARENT,
            &scaled(1.2),
            (0.0, 0.0),
        )
        .expect("judged");
        assert_eq!(v, Verdict::Improved);
    }

    #[test]
    fn a_gain_with_more_failures_does_not_count() {
        let (v, ..) = judge(
            &spec(Better::Lower, 0.05),
            &PARENT,
            &scaled(0.8),
            (0.0, 0.01),
        )
        .expect("judged");
        assert_eq!(v, Verdict::NoWorse);
    }

    #[test]
    fn small_drift_within_the_bound_is_no_worse() {
        let (v, ..) = judge(
            &spec(Better::Lower, 0.05),
            &PARENT,
            &scaled(1.02),
            (0.0, 0.0),
        )
        .expect("judged");
        assert_eq!(v, Verdict::NoWorse);
        let (v, ..) =
            judge(&spec(Better::Lower, 0.05), &PARENT, &PARENT, (0.0, 0.0)).expect("judged");
        assert_eq!(v, Verdict::NoWorse);
    }

    #[test]
    fn worsening_past_the_bound_is_regressed() {
        let (v, won, _) = judge(
            &spec(Better::Lower, 0.05),
            &PARENT,
            &scaled(1.2),
            (0.0, 0.0),
        )
        .expect("judged");
        assert_eq!((v, won), (Verdict::Regressed, 0));
        let (v, ..) = judge(
            &spec(Better::Higher, 0.05),
            &PARENT,
            &scaled(0.8),
            (0.0, 0.0),
        )
        .expect("judged");
        assert_eq!(v, Verdict::Regressed);
    }

    #[test]
    fn spread_wider_than_the_bound_is_unresolved() {
        let noisy: Vec<f64> = (0..10)
            .map(|i| if i % 2 == 0 { 70.0 } else { 150.0 })
            .collect();
        let (v, ..) =
            judge(&spec(Better::Lower, 0.05), &PARENT, &noisy, (0.0, 0.0)).expect("judged");
        assert_eq!(v, Verdict::Unresolved);
        // Unless every change run beats every parent run.
        let better_noisy: Vec<f64> = (0..10)
            .map(|i| if i % 2 == 0 { 50.0 } else { 90.0 })
            .collect();
        let wide_parent: Vec<f64> = (0..10)
            .map(|i| if i % 2 == 0 { 95.0 } else { 130.0 })
            .collect();
        let (v, ..) = judge(
            &spec(Better::Lower, 0.05),
            &wide_parent,
            &better_noisy,
            (0.0, 0.0),
        )
        .expect("judged");
        assert_ne!(v, Verdict::Unresolved);
        assert_ne!(v, Verdict::Regressed);
    }

    #[test]
    fn too_few_runs_give_no_verdict() {
        assert_eq!(
            judge(&spec(Better::Lower, 0.05), &[1.0], &[1.0, 2.0], (0.0, 0.0)),
            None
        );
    }

    #[test]
    fn records_and_specs_parse() {
        let spec_text =
            r#"{"end_to_end": [{"name": "lat", "unit": "ms", "better": "lower", "bound": 0.1}]}"#;
        let specs = parse_spec(spec_text).expect("parses");
        assert_eq!(specs[0].better, Better::Lower);
        let out = "noise\n{\"perfbench_record\":{\"workload\":\"w\",\"trace\":false,\"attempted\":10,\"failed\":1,\"metrics\":{\"lat\":{\"value\":2.5,\"unit\":\"ms\"}}}}\n{\"correct\":true}";
        let runs = parse_runs(out);
        assert_eq!(runs.len(), 1);
        assert_eq!(runs[0].metrics["lat"], 2.5);
        assert_eq!((runs[0].attempted, runs[0].failed), (10, 1));
        let parent: Vec<Run> = (0..4)
            .map(|i| Run {
                metrics: [("lat".to_string(), 2.0 + f64::from(i) * 0.01)].into(),
                ..runs[0].clone()
            })
            .collect();
        let rows = compare(&specs, &parent, &parent);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].verdict, Verdict::NoWorse);
        assert!((rows[0].parent.failure_share - 0.1).abs() < 1e-12);
    }
}
