//! Lints over weight-memory aging artifacts: the memory report's
//! physicality (ME001) and the fleet journal's re-encode causality
//! (ME002).

use agequant_fleet::EventKind;
use agequant_mem::MemoryReport;

use crate::lint::{Artifact, Lint, Sink};

/// Relative tolerance for recomputed failure probabilities: wide
/// enough to absorb a JSON round-trip, far too tight for tampering.
const REL_TOL: f64 = 1e-9;

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= REL_TOL * a.abs().max(b.abs()).max(1e-300)
}

/// ME001: a memory report must be physically plausible — duty cycles
/// are probabilities, failure curves are monotone consequences of the
/// report's own cell model, and the mitigation never makes storage
/// worse.
///
/// Checks: the embedded cell calibration and re-encode schedule
/// validate; every per-bit duty (plain and encoded) lies in `[0, 1]`
/// and matches the stored word width; worst asymmetries lie in
/// `[0, 1]` with the encoded one never above the plain one (the
/// inversion encoder only balances); no bank stores more inverted
/// words than it has words; failure-curve years ascend from zero or
/// later; every probability lies in `[0, 1]`; the plain curve is
/// monotone non-decreasing in time and never below the mitigated one;
/// and both curves equal what the report's own cell model and schedule
/// recompute from its asymmetries, so a tampered curve cannot
/// masquerade as a measured one.
pub struct MemoryReportPhysical;

impl MemoryReportPhysical {
    fn check_report(report: &MemoryReport, sink: &mut Sink<'_>) {
        for violation in report.cell.violations() {
            sink.report(format!("cell calibration is unsound: {violation}"));
        }
        for violation in report.schedule.violations() {
            sink.report(format!("re-encode schedule is unsound: {violation}"));
        }
        for bank in &report.banks {
            let layer = bank.layer;
            if bank.bits == 0 || bank.bits > 8 {
                sink.report(format!(
                    "bank {layer}: stored word width {} outside 1..=8",
                    bank.bits
                ));
                continue;
            }
            for (label, duty) in [("plain", &bank.duty_plain), ("encoded", &bank.duty_encoded)] {
                if duty.len() != bank.bits as usize {
                    sink.report(format!(
                        "bank {layer}: {label} duty has {} entries for a {}-bit word",
                        duty.len(),
                        bank.bits
                    ));
                }
                for (bit, &d) in duty.iter().enumerate() {
                    if !(0.0..=1.0).contains(&d) {
                        sink.report(format!(
                            "bank {layer}: {label} duty of bit {bit} must lie in [0, 1], got {d}"
                        ));
                    }
                }
            }
            for (label, a) in [
                ("plain", bank.worst_asymmetry_plain),
                ("encoded", bank.worst_asymmetry_encoded),
            ] {
                if !(0.0..=1.0).contains(&a) {
                    sink.report(format!(
                        "bank {layer}: worst {label} asymmetry must lie in [0, 1], got {a}"
                    ));
                }
            }
            if bank.worst_asymmetry_encoded > bank.worst_asymmetry_plain + REL_TOL {
                sink.report(format!(
                    "bank {layer}: encoding raised the worst asymmetry ({} > {}) — the \
                     inversion encoder can only balance",
                    bank.worst_asymmetry_encoded, bank.worst_asymmetry_plain
                ));
            }
            if bank.inverted_words > bank.words {
                sink.report(format!(
                    "bank {layer}: {} inverted words in a {}-word bank",
                    bank.inverted_words, bank.words
                ));
            }
            Self::check_curve(report, bank, sink);
        }
    }

    fn check_curve(report: &MemoryReport, bank: &agequant_mem::BankReport, sink: &mut Sink<'_>) {
        let layer = bank.layer;
        let mut last_years = f64::NEG_INFINITY;
        let mut last_plain = 0.0f64;
        for (idx, point) in bank.failure.iter().enumerate() {
            let at = format!("bank {layer}, curve point {idx}");
            // False for a NaN year, as for a negative or infinite one.
            let aged = point.years.is_finite() && point.years >= 0.0;
            if !aged || point.years <= last_years {
                sink.report(format!(
                    "{at}: years {} after {last_years} (curve must ascend through finite \
                     years from 0)",
                    point.years
                ));
            }
            last_years = point.years;
            for (label, p) in [("plain", point.prob_plain), ("encoded", point.prob_encoded)] {
                if !(0.0..=1.0).contains(&p) {
                    sink.report(format!(
                        "{at}: {label} failure probability must lie in [0, 1], got {p}"
                    ));
                }
            }
            if point.prob_plain < last_plain {
                sink.report(format!(
                    "{at}: plain failure probability fell from {last_plain} to {} \
                     (static storage only ages)",
                    point.prob_plain
                ));
            }
            last_plain = last_plain.max(point.prob_plain);
            if point.prob_encoded > point.prob_plain + REL_TOL {
                sink.report(format!(
                    "{at}: mitigated probability {} exceeds the plain {} — the mitigation \
                     cannot make storage worse",
                    point.prob_encoded, point.prob_plain
                ));
            }
            // The cell model is defined at finite, non-negative ages
            // only; a point outside them is already reported above.
            if !aged {
                continue;
            }
            let want_plain = report
                .cell
                .failure_prob(bank.worst_asymmetry_plain, point.years, 0);
            if !close(point.prob_plain, want_plain) {
                sink.report(format!(
                    "{at}: plain probability {} but the report's own cell model gives \
                     {want_plain} at asymmetry {}",
                    point.prob_plain, bank.worst_asymmetry_plain
                ));
            }
            let want_encoded = report.cell.failure_prob(
                bank.worst_asymmetry_encoded,
                point.years,
                report.schedule.reencodes_by(point.years),
            );
            if !close(point.prob_encoded, want_encoded) {
                sink.report(format!(
                    "{at}: encoded probability {} but the cell model under the report's \
                     schedule gives {want_encoded}",
                    point.prob_encoded
                ));
            }
        }
    }
}

impl Lint for MemoryReportPhysical {
    fn code(&self) -> &'static str {
        "ME001"
    }

    fn slug(&self) -> &'static str {
        "memory-report-unphysical"
    }

    fn description(&self) -> &'static str {
        "memory report with out-of-range duty, non-monotone failure curve, or curves its own cell model disowns"
    }

    fn check(&self, artifact: &Artifact<'_>, sink: &mut Sink<'_>) {
        let Artifact::MemoryReport { report, .. } = artifact else {
            return;
        };
        Self::check_report(report, sink);
    }
}

/// ME002: the journal's memory events must be causally consistent
/// with each other and with the checkpoint they lead up to.
///
/// Checks: memory events only appear when the fleet's memory axis is
/// enabled; per chip, re-encode counts are at least 1 and consecutive
/// events increment by exactly one (no gaps, no repeats); no count
/// exceeds the configured re-encode budget; memory degradation is
/// terminal (no re-encode or second degradation after it) and records
/// at least the re-encodes already journaled; and the checkpoint
/// agrees — a chip the journal degraded is degraded in the checkpoint,
/// and no chip's journaled count exceeds the checkpoint's tally.
pub struct ReencodeCausality;

impl Lint for ReencodeCausality {
    fn code(&self) -> &'static str {
        "ME002"
    }

    fn slug(&self) -> &'static str {
        "memory-reencode-acausal"
    }

    fn description(&self) -> &'static str {
        "re-encode journal with skipped counts, blown budgets, events after degradation, or a disagreeing checkpoint"
    }

    fn check(&self, artifact: &Artifact<'_>, sink: &mut Sink<'_>) {
        let Artifact::FleetJournal { state, events, .. } = artifact else {
            return;
        };
        let memory = state.config.memory.as_ref();
        let mut last_count: Vec<Option<u32>> = vec![None; state.chips.len()];
        let mut degraded: Vec<bool> = vec![false; state.chips.len()];
        for (idx, event) in events.iter().enumerate() {
            let line = idx + 1;
            if !matches!(
                event.kind,
                EventKind::Reencoded { .. } | EventKind::MemoryDegraded { .. }
            ) {
                continue;
            }
            if memory.is_none() {
                sink.report(format!(
                    "event {line}: memory event for chip {} but the fleet's memory axis \
                     is disabled",
                    event.chip
                ));
                continue;
            }
            let slot = event.chip as usize;
            if slot >= state.chips.len() {
                // FL002 reports the orphan chip itself.
                continue;
            }
            if degraded[slot] {
                sink.report(format!(
                    "event {line}: chip {} saw a memory event after memory-degrading \
                     (memory degradation is terminal)",
                    event.chip
                ));
                continue;
            }
            match event.kind {
                EventKind::Reencoded { count } => {
                    if count == 0 {
                        sink.report(format!(
                            "event {line}: chip {} journals a zeroth re-encode (counts \
                             start at 1)",
                            event.chip
                        ));
                    }
                    if let Some(prev) = last_count[slot] {
                        if count != prev + 1 {
                            sink.report(format!(
                                "event {line}: chip {} re-encode count jumped from {prev} \
                                 to {count} (counts increment by one)",
                                event.chip
                            ));
                        }
                    }
                    if let Some(config) = memory {
                        if count > config.max_reencodes {
                            sink.report(format!(
                                "event {line}: chip {} re-encode {count} exceeds the \
                                 budget of {}",
                                event.chip, config.max_reencodes
                            ));
                        }
                    }
                    last_count[slot] = Some(count);
                }
                EventKind::MemoryDegraded { reencodes } => {
                    if let Some(prev) = last_count[slot] {
                        if reencodes < prev {
                            sink.report(format!(
                                "event {line}: chip {} degraded with {reencodes} \
                                 re-encodes on record after journaling {prev}",
                                event.chip
                            ));
                        }
                    }
                    degraded[slot] = true;
                }
                _ => unreachable!("filtered to memory events above"),
            }
        }
        // The checkpoint must agree with the journaled history.
        for (slot, chip) in state.chips.iter().enumerate() {
            let journaled = last_count[slot].is_some() || degraded[slot];
            let Some(mem) = &chip.mem else {
                if journaled {
                    sink.report(format!(
                        "chip {}: journal holds memory events but the checkpoint does \
                         not track its memory state",
                        chip.id
                    ));
                }
                continue;
            };
            if degraded[slot] && !mem.degraded {
                sink.report(format!(
                    "chip {}: journal memory-degrades it but the checkpoint records it \
                     healthy",
                    chip.id
                ));
            }
            if let Some(count) = last_count[slot] {
                if count > mem.reencodes {
                    sink.report(format!(
                        "chip {}: journal counts {count} re-encodes but the checkpoint \
                         records only {}",
                        chip.id, mem.reencodes
                    ));
                }
            }
        }
    }
}
