//! The append-only fleet event journal.
//!
//! Every state-changing decision the simulator takes is recorded as
//! one [`JournalEvent`], serialized as one JSON object per line
//! (JSON-lines), so a run's journal can be appended to across
//! checkpoint/resume boundaries and replayed or audited afterwards.
//! `agequant-lint`'s FL002 checks the causality invariants of a
//! journal against its checkpoint.

use std::fs::OpenOptions;
use std::io::{Read, Seek, SeekFrom};
use std::path::Path;

use agequant_autopilot::Regime;
use agequant_quant::QuantMethod;
use agequant_sta::Padding;
use serde::{Deserialize, Serialize, Value};

use crate::FleetError;

/// What happened to a chip.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum EventKind {
    /// The chip's ΔVth crossed into a higher quantized aging bucket.
    BucketCrossed {
        /// The bucket the chip was in.
        from: u64,
        /// The bucket the chip moved to.
        to: u64,
    },
    /// The chip received a fresh `(α, β, padding, method)` decision
    /// for its new bucket.
    Replanned {
        /// The bucket planned for.
        bucket: u64,
        /// Selected activation compression α.
        alpha: u8,
        /// Selected weight compression β.
        beta: u8,
        /// Selected padding side.
        padding: Padding,
        /// Selected quantization method, when selection is enabled.
        method: Option<QuantMethod>,
    },
    /// No compression closes timing at the chip's bucket; the chip
    /// fell back to a guardbanded clock for the rest of its life.
    Degraded {
        /// The bucket at which compression became infeasible.
        bucket: u64,
    },
    /// The chip's weight memory was re-encoded: the stored polarity
    /// toggled so NBTI stress moves to the complementary cell side.
    /// Only emitted when the fleet's memory axis is enabled.
    Reencoded {
        /// Total re-encodes completed after this one (so the first
        /// re-encode journals `count: 1`).
        count: u32,
    },
    /// The chip's worst-bit memory failure probability crossed the
    /// degrade threshold with no useful re-encode left. The chip may
    /// still be timing-healthy — this is the second failure axis.
    MemoryDegraded {
        /// Re-encodes spent before the memory axis degraded.
        reencodes: u32,
    },
    /// Autopilot: a granted telemetry sample moved the chip's
    /// supervision regime. The effective rate and boundary margin the
    /// hysteresis machine keyed on are recorded so `agequant-lint`'s
    /// AP002 can replay the pure transition and audit causality.
    RegimeChanged {
        /// The regime the chip was in.
        from: Regime,
        /// The regime the chip moved to.
        to: Regime,
        /// Effective supervision rate at the transition, mV/epoch.
        rate_mv_per_epoch: f64,
        /// Headroom to the next bucket boundary at the sample, mV.
        margin_mv: f64,
    },
    /// Autopilot: one telemetry message was granted from the fleet
    /// budget and the chip was sampled. Only emitted in autopilot
    /// mode, where cadence — not just outcome — is an auditable
    /// decision.
    CadenceGranted {
        /// The chip's regime when the grant was requested.
        regime: Regime,
        /// The epoch the chip was rescheduled to after the sample.
        next_epoch: u64,
        /// Tokens left in the fleet bucket after this grant (grants
        /// drawn on the Intervene overdraft leave zero).
        tokens_left: u64,
    },
    /// Autopilot: the fleet budget was empty and the chip's sample
    /// slipped to the next epoch. Never emitted for an Intervene chip
    /// — those draw the audited overdraft instead.
    CadenceDeferred {
        /// The chip's regime when the request was starved.
        regime: Regime,
    },
}

/// One journal entry: which chip, at which epoch, what happened.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct JournalEvent {
    /// The epoch the event occurred in.
    pub epoch: u64,
    /// The chip the event concerns.
    pub chip: u32,
    /// What happened.
    pub kind: EventKind,
}

/// Renders events as JSON-lines text (one event per line, trailing
/// newline after every line) — the append-friendly on-disk format.
///
/// A guardbanded chip has no timing boundary left, so its
/// [`EventKind::RegimeChanged`] journals `margin_mv: f64::INFINITY`.
/// JSON has no lexeme for infinity: that one leaf is written as
/// `null`, which [`from_jsonl`] reads back as `f64::INFINITY`. Every
/// other event renders exactly as its derived encoding.
///
/// # Panics
///
/// Panics if an event holds a NaN or a negative infinity, which JSON
/// cannot represent and the simulator never journals.
#[must_use]
pub fn to_jsonl(events: &[JournalEvent]) -> String {
    let mut out = String::new();
    for event in events {
        let mut value = event.to_value();
        if let Some(leaf) = margin_leaf(&mut value) {
            if *leaf == Value::Float(f64::INFINITY) {
                *leaf = Value::Null;
            }
        }
        out.push_str(&serde_json::to_string(&value).expect("journal floats are finite"));
        out.push('\n');
    }
    out
}

/// Parses JSON-lines journal text back into events.
///
/// # Errors
///
/// Returns [`FleetError::Malformed`] naming the offending line.
pub fn from_jsonl(text: &str) -> Result<Vec<JournalEvent>, FleetError> {
    text.lines()
        .enumerate()
        .filter(|(_, line)| !line.trim().is_empty())
        .map(|(idx, line)| {
            let malformed =
                |e: serde::Error| FleetError::Malformed(format!("journal line {}: {e}", idx + 1));
            let mut value: Value = serde_json::from_str(line).map_err(malformed)?;
            if let Some(leaf) = margin_leaf(&mut value) {
                if *leaf == Value::Null {
                    *leaf = Value::Float(f64::INFINITY);
                }
            }
            JournalEvent::from_value(&value).map_err(malformed)
        })
        .collect()
}

/// Cuts the journal at `path` back to its last event at or before
/// `epoch` (creating it empty if missing) and returns its length. The
/// journal is epoch-ordered, so the later events a stopped command
/// left, and a torn last line, are a suffix read back from the end.
///
/// # Errors
///
/// [`FleetError::Io`] if the file cannot be read or cut;
/// [`FleetError::Malformed`], cutting nothing, for a whole line in
/// that suffix that is not an event (or is over 64 KiB).
pub fn truncate_after(path: &Path, epoch: u64) -> Result<u64, FleetError> {
    let io = |e: std::io::Error| FleetError::Io(format!("{}: {e}", path.display()));
    let malformed =
        |at| FleetError::Malformed(format!("{}: byte {at}: not an event", path.display()));
    let mut file = OpenOptions::new()
        .read(true)
        .write(true)
        .create(true)
        .truncate(false)
        .open(path)
        .map_err(io)?;
    let len = file.metadata().map_err(io)?.len();
    let mut end = len;
    'scan: while end > 0 {
        let from = end.saturating_sub(1 << 16);
        let mut block = vec![0; (end - from) as usize];
        file.seek(SeekFrom::Start(from))
            .and_then(|_| file.read_exact(&mut block))
            .map_err(io)?;
        // Unless the block starts the file, its first line may be cut.
        let first = match block.iter().position(|&b| b == b'\n') {
            _ if from == 0 => 0,
            Some(newline) if newline + 1 < block.len() => newline + 1,
            _ => return Err(malformed(from)),
        };
        for line in block[first..].split_inclusive(|&b| b == b'\n').rev() {
            let at = end - line.len() as u64;
            if line.ends_with(b"\n") {
                let text = std::str::from_utf8(line).map_err(|_| malformed(at))?;
                let events = from_jsonl(text).map_err(|_| malformed(at))?;
                if events.iter().all(|event| event.epoch <= epoch) {
                    break 'scan;
                }
            }
            end = at;
        }
    }
    if end < len {
        file.set_len(end).map_err(io)?;
    }
    Ok(end)
}

/// The `margin_mv` leaf of a serialized [`EventKind::RegimeChanged`]
/// event — the one journaled float that can be infinite.
fn margin_leaf(event: &mut Value) -> Option<&mut Value> {
    let Value::Map(fields) = event else {
        return None;
    };
    let (_, kind) = fields.iter_mut().find(|(key, _)| key == "kind")?;
    let Value::Map(variant) = kind else {
        return None;
    };
    let [(name, Value::Map(body))] = variant.as_mut_slice() else {
        return None;
    };
    if name != "RegimeChanged" {
        return None;
    }
    body.iter_mut()
        .find(|(key, _)| key == "margin_mv")
        .map(|(_, leaf)| leaf)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn events() -> Vec<JournalEvent> {
        vec![
            JournalEvent {
                epoch: 0,
                chip: 0,
                kind: EventKind::Replanned {
                    bucket: 0,
                    alpha: 0,
                    beta: 0,
                    padding: Padding::Msb,
                    method: None,
                },
            },
            JournalEvent {
                epoch: 3,
                chip: 1,
                kind: EventKind::BucketCrossed { from: 0, to: 2 },
            },
            JournalEvent {
                epoch: 3,
                chip: 1,
                kind: EventKind::Degraded { bucket: 2 },
            },
        ]
    }

    #[test]
    fn jsonl_round_trips() {
        let text = to_jsonl(&events());
        assert_eq!(text.lines().count(), 3);
        let back = from_jsonl(&text).expect("parses");
        assert_eq!(back, events());
    }

    #[test]
    fn appended_journals_concatenate() {
        let all = events();
        let text = format!("{}{}", to_jsonl(&all[..1]), to_jsonl(&all[1..]));
        assert_eq!(from_jsonl(&text).expect("parses"), all);
    }

    fn regime_change(margin_mv: f64) -> JournalEvent {
        JournalEvent {
            epoch: 9,
            chip: 4,
            kind: EventKind::RegimeChanged {
                from: Regime::Calm,
                to: Regime::Intervene,
                rate_mv_per_epoch: 0.25,
                margin_mv,
            },
        }
    }

    #[test]
    fn an_infinite_margin_round_trips_as_null() {
        let events = vec![regime_change(f64::INFINITY), regime_change(3.5)];
        let text = to_jsonl(&events);
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines[0].contains(r#""margin_mv":null"#), "{}", lines[0]);
        // A finite margin keeps its plain derived encoding.
        assert_eq!(
            lines[1],
            serde_json::to_string(&events[1]).expect("finite event serializes")
        );
        assert_eq!(from_jsonl(&text).expect("parses"), events);
    }

    /// A journal cut back to an epoch keeps every whole event up to it,
    /// drops the later ones and a torn last line, and refuses to cut
    /// past a whole line that is not an event. A missing one is created.
    #[test]
    fn truncate_after_drops_the_events_past_an_epoch() {
        let path = std::env::temp_dir().join(format!("agequant-truncate-{}", std::process::id()));
        let _ = std::fs::remove_file(&path);
        assert_eq!(truncate_after(&path, 0).expect("missing file"), 0);
        assert_eq!(std::fs::read(&path).expect("created"), b"");

        let kept = to_jsonl(&events()[..1]);
        let whole = format!("{kept}{}", to_jsonl(&events()[1..]));
        std::fs::write(&path, format!("{whole}{{\"epoch\":4,\"ch")).expect("write journal");
        assert_eq!(truncate_after(&path, 3).expect("cuts"), whole.len() as u64);
        assert_eq!(truncate_after(&path, 2).expect("cuts"), kept.len() as u64);
        assert_eq!(std::fs::read_to_string(&path).expect("read"), kept);
        assert_eq!(truncate_after(&path, 0).expect("keeps"), kept.len() as u64);

        let text = format!("{kept}not an event\n{}", to_jsonl(&events()[1..]));
        std::fs::write(&path, &text).expect("write journal");
        let err = truncate_after(&path, 0).unwrap_err();
        assert!(matches!(err, FleetError::Malformed(msg) if msg.contains("not an event")));
        assert_eq!(std::fs::read_to_string(&path).expect("read"), text);
        std::fs::remove_file(&path).expect("clean up");
    }

    #[test]
    fn malformed_lines_are_reported_with_position() {
        let err = from_jsonl("{\"epoch\":0,\"chip\":0,\"kind\":\"nonsense\"}\n").unwrap_err();
        assert!(matches!(err, FleetError::Malformed(msg) if msg.contains("line 1")));
    }
}
