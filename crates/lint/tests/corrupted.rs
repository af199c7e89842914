//! Positive/negative coverage for every lint code: each corrupted
//! artifact must trip exactly the expected lint, and the pristine
//! artifact it was derived from must not.

use std::collections::BTreeMap;

use agequant_aging::{TechProfile, VthShift};
use agequant_cells::{ArcTiming, CellKind, CellLibrary, ProcessLibrary};
use agequant_core::CompressionPlan;
use agequant_lint::{Artifact, LintConfig, Linter, Severity};
use agequant_netlist::adders::ripple_carry;
use agequant_netlist::mac::MacGeometry;
use agequant_netlist::{NetId, Netlist, NetlistBuilder};
use agequant_quant::{BitWidths, QuantParams};
use agequant_sta::{Compression, Padding, Sta, TimingReport};

/// Lint codes fired by one artifact under default severities.
fn codes(artifact: Artifact<'_>) -> Vec<String> {
    Linter::new()
        .run(&[artifact])
        .diagnostics
        .into_iter()
        .map(|d| d.code)
        .collect()
}

fn netlist_codes(netlist: &Netlist) -> Vec<String> {
    codes(Artifact::Netlist {
        name: "under-test",
        netlist,
    })
}

/// A small adder plus its raw parts, the base for netlist corruption.
fn base_netlist() -> Netlist {
    ripple_carry(4)
}

fn rebuilt(
    f: impl FnOnce(&mut Vec<agequant_netlist::Gate>, &mut Vec<agequant_netlist::NetDriver>),
) -> Netlist {
    let base = base_netlist();
    let (mut drivers, mut gates, inputs, outputs) = {
        let (d, g, i, o) = base.to_parts();
        (d, g, i, o)
    };
    f(&mut gates, &mut drivers);
    Netlist::from_parts("corrupted", drivers, gates, inputs, outputs)
}

#[test]
fn nl001_fires_on_back_edge_and_self_loop() {
    let clean = base_netlist();
    assert!(!netlist_codes(&clean).contains(&"NL001".to_string()));

    let back_edge = rebuilt(|gates, _| {
        let last_out = gates.last().unwrap().output;
        gates[0].inputs[0] = last_out;
    });
    assert!(netlist_codes(&back_edge).contains(&"NL001".to_string()));

    let self_loop = rebuilt(|gates, _| {
        gates[0].inputs[0] = gates[0].output;
    });
    assert!(netlist_codes(&self_loop).contains(&"NL001".to_string()));
}

#[test]
fn nl002_fires_on_out_of_table_reference() {
    let clean = base_netlist();
    assert!(!netlist_codes(&clean).contains(&"NL002".to_string()));

    let count = clean.net_count();
    let floating = rebuilt(|gates, _| {
        gates[0].inputs[0] = NetId::from_index(count + 5);
    });
    assert!(netlist_codes(&floating).contains(&"NL002".to_string()));
}

#[test]
fn nl003_fires_on_duplicated_driver() {
    let clean = base_netlist();
    assert!(!netlist_codes(&clean).contains(&"NL003".to_string()));

    let doubled = rebuilt(|gates, _| {
        let first_out = gates[0].output;
        gates[1].output = first_out;
    });
    assert!(netlist_codes(&doubled).contains(&"NL003".to_string()));

    let stale_table = rebuilt(|gates, drivers| {
        // The driver table claims a gate drives a primary input.
        let pi = gates[0].inputs[0];
        drivers[pi.index()] =
            agequant_netlist::NetDriver::Gate(agequant_netlist::GateId::from_index(0));
    });
    assert!(netlist_codes(&stale_table).contains(&"NL003".to_string()));
}

#[test]
fn nl004_warns_once_on_dead_gates() {
    let clean = base_netlist();
    assert!(!netlist_codes(&clean).contains(&"NL004".to_string()));

    let mut b = NetlistBuilder::new("dead");
    let x = b.input_bus("x", 2);
    let live = b.gate(CellKind::And2, &[x[0], x[1]]);
    let _dead1 = b.gate(CellKind::Xor2, &[x[0], x[1]]);
    let _dead2 = b.gate(CellKind::Or2, &[x[0], x[1]]);
    b.output_bus("y", &[live]);
    let n = b.finish();

    let report = Linter::new().run(&[Artifact::Netlist {
        name: "dead",
        netlist: &n,
    }]);
    let findings: Vec<_> = report.with_code("NL004").collect();
    assert_eq!(findings.len(), 1, "dead gates aggregate into one finding");
    assert_eq!(findings[0].severity, Severity::Warn);
    assert!(findings[0].message.contains("2 of 3"));
    assert!(report.is_clean(), "NL004 defaults to warn, not deny");

    let denied = Linter::with_config(LintConfig::new().deny("NL004")).run(&[Artifact::Netlist {
        name: "dead",
        netlist: &n,
    }]);
    assert!(!denied.is_clean(), "config can promote NL004 to deny");
}

#[test]
fn nl005_fires_on_malformed_ports() {
    let clean = base_netlist();
    assert!(!netlist_codes(&clean).contains(&"NL005".to_string()));

    let base = base_netlist();
    let (drivers, gates, mut inputs, outputs) = base.to_parts();
    inputs[0].nets.clear(); // zero-width input bus
    let empty_bus = Netlist::from_parts("corrupted", drivers, gates, inputs, outputs);
    assert!(netlist_codes(&empty_bus).contains(&"NL005".to_string()));

    let base = base_netlist();
    let (drivers, gates, mut inputs, outputs) = base.to_parts();
    inputs[1].name = inputs[0].name.clone(); // duplicate port name
    let dup_name = Netlist::from_parts("corrupted", drivers, gates, inputs, outputs);
    assert!(netlist_codes(&dup_name).contains(&"NL005".to_string()));

    let base = base_netlist();
    let (drivers, gates, mut inputs, outputs) = base.to_parts();
    inputs[0].nets[0] = gates[0].output; // input port driven by a gate
    let gate_driven = Netlist::from_parts("corrupted", drivers, gates, inputs, outputs);
    assert!(netlist_codes(&gate_driven).contains(&"NL005".to_string()));
}

/// The fresh library's arcs, for building corrupted libraries.
fn fresh_arcs() -> BTreeMap<CellKind, ArcTiming> {
    let lib = ProcessLibrary::finfet14nm()
        .characterize(&TechProfile::INTEL14NM.derating(), VthShift::FRESH);
    lib.kinds().map(|k| (k, lib.arc(k).clone())).collect()
}

fn sweep_codes(sweep: &[CellLibrary]) -> Vec<String> {
    codes(Artifact::LibrarySweep {
        name: "under-test",
        sweep,
    })
}

fn real_sweep() -> Vec<CellLibrary> {
    let process = ProcessLibrary::finfet14nm();
    [0.0, 10.0, 20.0]
        .iter()
        .map(|&mv| {
            process.characterize(
                &TechProfile::INTEL14NM.derating(),
                VthShift::from_millivolts(mv),
            )
        })
        .collect()
}

#[test]
fn cl001_fires_on_negative_load_slope() {
    assert!(!sweep_codes(&real_sweep()).contains(&"CL001".to_string()));

    let mut arcs = fresh_arcs();
    arcs.get_mut(&CellKind::Nand2).unwrap().slope_ps_per_ff = -3.0;
    let bad = vec![CellLibrary::from_arcs(VthShift::FRESH, arcs)];
    assert!(sweep_codes(&bad).contains(&"CL001".to_string()));
}

#[test]
fn cl002_fires_when_aging_speeds_a_cell_up() {
    assert!(!sweep_codes(&real_sweep()).contains(&"CL002".to_string()));

    // An "aged" library whose delays shrank below the fresh ones.
    let fresh = ProcessLibrary::finfet14nm()
        .characterize(&TechProfile::INTEL14NM.derating(), VthShift::FRESH);
    let mut arcs = fresh_arcs();
    for arc in arcs.values_mut() {
        for d in &mut arc.pin_intrinsic_ps {
            *d *= 0.5;
        }
    }
    let faster_when_old = CellLibrary::from_arcs(VthShift::from_millivolts(20.0), arcs);
    let bad = vec![fresh.clone(), faster_when_old];
    assert!(sweep_codes(&bad).contains(&"CL002".to_string()));

    // A sweep whose ordering is scrambled is also rejected.
    let aged = ProcessLibrary::finfet14nm().characterize(
        &TechProfile::INTEL14NM.derating(),
        VthShift::from_millivolts(20.0),
    );
    let unordered = vec![aged, fresh];
    assert!(sweep_codes(&unordered).contains(&"CL002".to_string()));
}

#[test]
fn cl003_fires_on_non_physical_power_data() {
    assert!(!sweep_codes(&real_sweep()).contains(&"CL003".to_string()));

    let mut arcs = fresh_arcs();
    arcs.get_mut(&CellKind::Xor2).unwrap().switch_energy_fj = -0.5;
    let bad = vec![CellLibrary::from_arcs(VthShift::FRESH, arcs)];
    assert!(sweep_codes(&bad).contains(&"CL003".to_string()));

    let mut arcs = fresh_arcs();
    arcs.get_mut(&CellKind::Inv).unwrap().input_cap_ff = 0.0;
    let bad = vec![CellLibrary::from_arcs(VthShift::FRESH, arcs)];
    assert!(sweep_codes(&bad).contains(&"CL003".to_string()));
}

/// A real STA report over a small adder, plus the netlist it came from.
fn timed_adder() -> (Netlist, TimingReport) {
    let adder = ripple_carry(4);
    let lib = ProcessLibrary::finfet14nm()
        .characterize(&TechProfile::INTEL14NM.derating(), VthShift::FRESH);
    let report = Sta::new(&adder, &lib).analyze_uncompressed();
    (adder, report)
}

fn timing_codes(netlist: &Netlist, report: &TimingReport) -> Vec<String> {
    codes(Artifact::Timing {
        name: "under-test",
        netlist,
        report,
    })
}

#[test]
fn st001_fires_on_acausal_or_inconsistent_reports() {
    let (adder, clean) = timed_adder();
    assert!(!timing_codes(&adder, &clean).contains(&"ST001".to_string()));

    // Critical path no longer matches the slowest output.
    let mut wrong_cp = clean.clone();
    wrong_cp.critical_path_ps += 100.0;
    assert!(timing_codes(&adder, &wrong_cp).contains(&"ST001".to_string()));

    // A gate output claiming to settle before its fanins.
    let mut acausal = clean.clone();
    let last_out = adder.gates().last().unwrap().output;
    acausal.arrival_ps[last_out.index()] = Some(0.0);
    assert!(timing_codes(&adder, &acausal).contains(&"ST001".to_string()));

    // A report sized for a different netlist.
    let mut truncated = clean.clone();
    truncated.arrival_ps.pop();
    assert!(timing_codes(&adder, &truncated).contains(&"ST001".to_string()));

    // A primary input arriving late.
    let mut late_pi = clean;
    let pi = adder.primary_inputs().next().unwrap();
    late_pi.arrival_ps[pi.index()] = Some(5.0);
    assert!(timing_codes(&adder, &late_pi).contains(&"ST001".to_string()));
}

/// A self-consistent (4, 4) plan for the Edge-TPU geometry.
fn consistent_plan() -> (CompressionPlan, BitWidths) {
    let plan = CompressionPlan {
        shift: VthShift::from_millivolts(30.0),
        compression: Compression::new(4, 4),
        padding: Padding::Msb,
        compressed_delay_ps: 800.0,
        constraint_ps: 900.0,
        feasible_points: 12,
    };
    (plan, BitWidths::for_compression(4, 4))
}

fn plan_codes(plan: &CompressionPlan, widths: BitWidths) -> Vec<String> {
    codes(Artifact::Plan {
        name: "under-test",
        plan,
        geometry: MacGeometry::EDGE_TPU,
        widths,
    })
}

#[test]
fn st002_fires_on_inconsistent_plan_arithmetic() {
    let (plan, widths) = consistent_plan();
    assert!(!plan_codes(&plan, widths).contains(&"ST002".to_string()));

    // Widths that ignore the compression.
    assert!(plan_codes(&plan, BitWidths::W8A8).contains(&"ST002".to_string()));

    // A compression too wide for the MAC's operand buses.
    let mut too_wide = plan;
    too_wide.compression = Compression::new(9, 0);
    let wide_widths = BitWidths {
        activations: 8u8.saturating_sub(9),
        weights: 8,
        bias: 7,
    };
    assert!(plan_codes(&too_wide, wide_widths).contains(&"ST002".to_string()));

    // A plan that claims to meet a constraint its delay exceeds.
    let mut missed = plan;
    missed.compressed_delay_ps = 950.0;
    assert!(plan_codes(&missed, widths).contains(&"ST002".to_string()));

    // A selected plan with zero feasible points is contradictory.
    let mut infeasible = plan;
    infeasible.feasible_points = 0;
    assert!(plan_codes(&infeasible, widths).contains(&"ST002".to_string()));
}

fn quant_codes(params: &QuantParams, expected_bits: Option<u8>) -> Vec<String> {
    codes(Artifact::Quant {
        name: "under-test",
        params,
        expected_bits,
    })
}

#[test]
fn qt001_fires_on_broken_quant_params() {
    let clean = QuantParams::from_range(-1.0, 1.0, 8);
    assert!(!quant_codes(&clean, Some(8)).contains(&"QT001".to_string()));

    let negative_scale = QuantParams::from_raw(-0.25, 0, 8);
    assert!(quant_codes(&negative_scale, None).contains(&"QT001".to_string()));

    let wild_zero_point = QuantParams::from_raw(0.1, 300, 8);
    assert!(quant_codes(&wild_zero_point, None).contains(&"QT001".to_string()));

    let zero_bits = QuantParams::from_raw(0.1, 0, 0);
    assert!(quant_codes(&zero_bits, None).contains(&"QT001".to_string()));

    let too_many_bits = QuantParams::from_raw(0.1, 0, 16);
    assert!(quant_codes(&too_many_bits, None).contains(&"QT001".to_string()));

    // Valid in isolation, but not the width the plan dictates.
    let wrong_width = QuantParams::from_range(-1.0, 1.0, 8);
    assert!(quant_codes(&wrong_width, Some(4)).contains(&"QT001".to_string()));
}

/// A small simulated fleet: the checkpoint and journal base for
/// FL001/FL002 corruption.
fn base_fleet() -> (
    agequant_fleet::FleetState,
    Vec<agequant_fleet::JournalEvent>,
) {
    use agequant_fleet::{FleetConfig, FleetSim};

    let mut sim = FleetSim::new(FleetConfig::new(12, 21)).expect("valid config");
    sim.run(8).expect("simulates");
    (sim.to_state(), sim.journal())
}

fn checkpoint_codes(state: &agequant_fleet::FleetState) -> Vec<String> {
    codes(Artifact::FleetCheckpoint {
        name: "under-test",
        state,
    })
}

fn journal_codes(
    state: &agequant_fleet::FleetState,
    events: &[agequant_fleet::JournalEvent],
) -> Vec<String> {
    codes(Artifact::FleetJournal {
        name: "under-test",
        state,
        events,
    })
}

#[test]
fn fl001_fires_on_inconsistent_checkpoints() {
    let (clean, _) = base_fleet();
    assert!(!checkpoint_codes(&clean).contains(&"FL001".to_string()));

    // A chip vanished but the config still claims the full fleet.
    let mut short = clean.clone();
    short.chips.pop();
    assert!(checkpoint_codes(&short).contains(&"FL001".to_string()));

    // Chip ids are no longer dense and in order.
    let mut shuffled = clean.clone();
    shuffled.chips[0].id = 7;
    assert!(checkpoint_codes(&shuffled).contains(&"FL001".to_string()));

    // The RNG state collapsed to xoshiro's all-zero fixed point.
    let mut dead_rng = clean.clone();
    dead_rng.rng = serde_json::from_str(r#"{"s":[0,0,0,0]}"#).expect("valid RNG JSON");
    assert!(checkpoint_codes(&dead_rng).contains(&"FL001".to_string()));

    // A compressed chip lost its plan.
    let mut planless = clean.clone();
    planless.chips[0].plan = None;
    assert!(checkpoint_codes(&planless).contains(&"FL001".to_string()));

    // The epoch was rewound without rewinding the chips' buckets: the
    // recorded buckets disagree with each chip's own kinetics.
    let mut rewound = clean;
    rewound.epoch = 0;
    assert!(checkpoint_codes(&rewound).contains(&"FL001".to_string()));
}

#[test]
fn fl002_fires_on_acausal_journals() {
    use agequant_fleet::EventKind;

    let (state, clean) = base_fleet();
    assert!(!journal_codes(&state, &clean).contains(&"FL002".to_string()));

    // Events out of epoch order.
    let mut reversed = clean.clone();
    reversed.reverse();
    assert!(journal_codes(&state, &reversed).contains(&"FL002".to_string()));

    // An event for a chip the fleet does not have.
    let mut orphan = clean.clone();
    orphan.last_mut().expect("journal is nonempty").chip = 1000;
    assert!(journal_codes(&state, &orphan).contains(&"FL002".to_string()));

    // An event from beyond the checkpoint's epoch.
    let mut future = clean.clone();
    future.last_mut().expect("journal is nonempty").epoch = state.epoch + 5;
    assert!(journal_codes(&state, &future).contains(&"FL002".to_string()));

    // A bucket crossing that descends.
    let mut descending = clean.clone();
    descending.last_mut().expect("journal is nonempty").kind =
        EventKind::BucketCrossed { from: 3, to: 1 };
    assert!(journal_codes(&state, &descending).contains(&"FL002".to_string()));

    // A replan after terminal degradation.
    let mut zombie = clean;
    let epoch = zombie.last().expect("journal is nonempty").epoch;
    zombie.push(agequant_fleet::JournalEvent {
        epoch,
        chip: 0,
        kind: EventKind::Degraded { bucket: 4 },
    });
    zombie.push(agequant_fleet::JournalEvent {
        epoch,
        chip: 0,
        kind: EventKind::Replanned {
            bucket: 5,
            alpha: 2,
            beta: 2,
            padding: Padding::Msb,
            method: None,
        },
    });
    assert!(journal_codes(&state, &zombie).contains(&"FL002".to_string()));
}

/// A real memory-aging report over a small quantized network, the
/// base for ME001 corruption.
fn base_memory_report() -> agequant_mem::MemoryReport {
    use agequant_mem::{MemoryReport, ReencodeSchedule, SramCellModel};
    use agequant_nn::{NetArch, SyntheticDataset};
    use agequant_quant::{quantize_model, QuantMethod};

    let model = NetArch::AlexNet.build(1);
    let data = SyntheticDataset::generate(8, 2);
    let q = quantize_model(&model, QuantMethod::MinMax, BitWidths::W8A8, &data.take(4));
    MemoryReport::build(
        "alexnet",
        &q,
        &SramCellModel::INTEL14NM,
        &ReencodeSchedule::DEFAULT,
        &[1.0, 5.0, 10.0],
    )
}

fn memory_report_codes(report: &agequant_mem::MemoryReport) -> Vec<String> {
    codes(Artifact::MemoryReport {
        name: "under-test",
        report,
    })
}

#[test]
fn me001_fires_on_unphysical_memory_reports() {
    let clean = base_memory_report();
    assert!(!memory_report_codes(&clean).contains(&"ME001".to_string()));

    // A duty cycle that is not a probability.
    let mut wild_duty = clean.clone();
    wild_duty.banks[0].duty_plain[0] = 1.5;
    assert!(memory_report_codes(&wild_duty).contains(&"ME001".to_string()));

    // An encoding that claims to have made the storage worse.
    let mut worse = clean.clone();
    worse.banks[0].worst_asymmetry_encoded = worse.banks[0].worst_asymmetry_plain + 0.2;
    assert!(memory_report_codes(&worse).contains(&"ME001".to_string()));

    // A failure curve that heals with age.
    let mut healing = clean.clone();
    let last = healing.banks[0].failure.len() - 1;
    healing.banks[0].failure[last].prob_plain = 0.0;
    assert!(memory_report_codes(&healing).contains(&"ME001".to_string()));

    // A curve whose years run backwards.
    let mut backwards = clean.clone();
    backwards.banks[0].failure.reverse();
    assert!(memory_report_codes(&backwards).contains(&"ME001".to_string()));

    // A curve point whose year is NaN, negative or infinite is a
    // finding, not a panic in the cell model the lint cross-checks.
    for years in [f64::NAN, -1.0, f64::INFINITY] {
        let mut unordered = clean.clone();
        unordered.banks[0].failure[0].years = years;
        let diagnostics = Linter::new()
            .run(&[Artifact::MemoryReport {
                name: "under-test",
                report: &unordered,
            }])
            .diagnostics;
        assert!(
            diagnostics
                .iter()
                .any(|d| d.code == "ME001" && d.message.contains("curve must ascend")),
            "year {years} accepted: {diagnostics:?}"
        );
    }

    // A tampered probability the report's own cell model disowns.
    let mut tampered = clean.clone();
    tampered.banks[0].failure[0].prob_plain *= 0.5;
    tampered.banks[0].failure[0].prob_encoded *= 0.5;
    assert!(memory_report_codes(&tampered).contains(&"ME001".to_string()));

    // More inverted words than the bank holds.
    let mut overfull = clean;
    overfull.banks[0].inverted_words = overfull.banks[0].words + 1;
    assert!(memory_report_codes(&overfull).contains(&"ME001".to_string()));
}

/// A memory-enabled fleet run long enough to journal re-encodes, the
/// base for ME002 corruption.
fn base_memory_fleet() -> (
    agequant_fleet::FleetState,
    Vec<agequant_fleet::JournalEvent>,
) {
    use agequant_fleet::{FleetConfig, FleetSim};

    let mut config = FleetConfig::new(12, 21);
    config.memory = Some(agequant_mem::MemoryConfig::demo());
    let mut sim = FleetSim::new(config).expect("valid config");
    sim.run(32).expect("simulates");
    (sim.to_state(), sim.journal())
}

#[test]
fn me002_fires_on_acausal_reencode_journals() {
    use agequant_fleet::EventKind;

    let (state, clean) = base_memory_fleet();
    assert!(
        clean
            .iter()
            .any(|e| matches!(e.kind, EventKind::Reencoded { .. })),
        "mission long enough to re-encode"
    );
    assert!(!journal_codes(&state, &clean).contains(&"ME002".to_string()));

    // A chip's second re-encode skips a count.
    let mut skipped = clean.clone();
    let second = skipped
        .iter()
        .position(|e| matches!(e.kind, EventKind::Reencoded { count: 2 }))
        .expect("some chip re-encodes twice in 16 years");
    skipped[second].kind = EventKind::Reencoded { count: 4 };
    assert!(journal_codes(&state, &skipped).contains(&"ME002".to_string()));

    // A zeroth re-encode.
    let mut zeroth = clean.clone();
    let first = zeroth
        .iter()
        .position(|e| matches!(e.kind, EventKind::Reencoded { .. }))
        .expect("journal has re-encodes");
    zeroth[first].kind = EventKind::Reencoded { count: 0 };
    assert!(journal_codes(&state, &zeroth).contains(&"ME002".to_string()));

    // A count past the configured budget.
    let mut blown = clean.clone();
    blown[first].kind = EventKind::Reencoded { count: 99 };
    assert!(journal_codes(&state, &blown).contains(&"ME002".to_string()));

    // A re-encode after terminal memory degradation.
    let mut zombie = clean.clone();
    let epoch = state.epoch;
    let chip = zombie[first].chip;
    zombie.push(agequant_fleet::JournalEvent {
        epoch,
        chip,
        kind: EventKind::MemoryDegraded { reencodes: 3 },
    });
    zombie.push(agequant_fleet::JournalEvent {
        epoch,
        chip,
        kind: EventKind::Reencoded { count: 4 },
    });
    assert!(journal_codes(&state, &zombie).contains(&"ME002".to_string()));

    // A checkpoint that never heard of the journaled re-encodes.
    let mut amnesiac = state.clone();
    let re_chip = clean[first].chip as usize;
    if let Some(mem) = &mut amnesiac.chips[re_chip].mem {
        mem.reencodes = 0;
    }
    assert!(journal_codes(&amnesiac, &clean).contains(&"ME002".to_string()));

    // Memory events in a fleet whose memory axis is disabled.
    let (memoryless_state, mut memoryless) = base_fleet();
    memoryless.push(agequant_fleet::JournalEvent {
        epoch: memoryless_state.epoch,
        chip: 0,
        kind: EventKind::Reencoded { count: 1 },
    });
    assert!(journal_codes(&memoryless_state, &memoryless).contains(&"ME002".to_string()));
}

/// An autopilot-armed fleet run long enough to grant, defer, and
/// change regimes: the base for AP001/AP002 corruption.
fn base_autopilot_fleet() -> (
    agequant_fleet::FleetState,
    Vec<agequant_fleet::JournalEvent>,
) {
    use agequant_fleet::{AutopilotConfig, FleetConfig, FleetSim};

    let mut config = FleetConfig::new(12, 21);
    config.autopilot = Some(AutopilotConfig::demo());
    let mut sim = FleetSim::new(config).expect("valid config");
    sim.run(24).expect("simulates");
    (sim.to_state(), sim.journal())
}

#[test]
fn ap001_fires_on_unphysical_autopilot_checkpoints() {
    let (clean, _) = base_autopilot_fleet();
    assert!(!checkpoint_codes(&clean).contains(&"AP001".to_string()));

    // An inverted hysteresis band: watch exit above watch entry.
    let mut inverted = clean.clone();
    if let Some(autopilot) = &mut inverted.config.autopilot {
        autopilot.watch_exit_mv = autopilot.watch_enter_mv * 2.0;
    }
    assert!(checkpoint_codes(&inverted).contains(&"AP001".to_string()));

    // A ledger holding more tokens than the bucket can burst.
    let mut overfull = clean.clone();
    if let Some(ledger) = &mut overfull.autopilot {
        ledger.tokens = overfull.config.autopilot.as_ref().unwrap().budget_burst + 1;
    }
    assert!(checkpoint_codes(&overfull).contains(&"AP001".to_string()));

    // An armed fleet with a chip flying without a pilot.
    let mut pilotless = clean.clone();
    pilotless.chips[3].pilot = None;
    assert!(checkpoint_codes(&pilotless).contains(&"AP001".to_string()));

    // A pilot scheduled to sample before its own last sample.
    let mut rewound = clean.clone();
    if let Some(pilot) = &mut rewound.chips[0].pilot {
        pilot.last_epoch = pilot.next_epoch + 5;
    }
    assert!(checkpoint_codes(&rewound).contains(&"AP001".to_string()));

    // A negative rate estimate — aging only ascends.
    let mut negative = clean.clone();
    if let Some(pilot) = &mut negative.chips[0].pilot {
        pilot.rate_mv_per_epoch = -1.0;
    }
    assert!(checkpoint_codes(&negative).contains(&"AP001".to_string()));

    // Control state smuggled into an unarmed fleet.
    let mut smuggled = clean;
    smuggled.config.autopilot = None;
    assert!(checkpoint_codes(&smuggled).contains(&"AP001".to_string()));

    // A plain fleet with no autopilot anywhere stays silent.
    let (plain, _) = base_fleet();
    assert!(!checkpoint_codes(&plain).contains(&"AP001".to_string()));
}

/// A guardbanded chip's regime change journals an infinite margin,
/// written to JSONL as `null`. Read back, AP002 replays it exactly.
#[test]
fn ap002_replays_guardbanded_regime_changes_read_back_from_jsonl() {
    use agequant_fleet::{journal, AutopilotConfig, EventKind, FleetConfig, FleetSim};

    let mut config = FleetConfig::new(1200, 3);
    config.constraint_factor = 0.45;
    config.memory = Some(agequant_mem::MemoryConfig::demo());
    let mut pilot = AutopilotConfig::demo();
    pilot.budget_messages_per_epoch = 120;
    pilot.budget_burst = 240;
    pilot.intervene_horizon_epochs = 8;
    pilot.calm_cadence_epochs = 64;
    pilot.watch_cadence_epochs = 8;
    config.autopilot = Some(pilot);
    let mut sim = FleetSim::new(config).expect("valid config");
    sim.run(64).expect("simulates");

    let events = journal::from_jsonl(&journal::to_jsonl(&sim.journal())).expect("parses");
    assert!(events.iter().any(|e| matches!(
        e.kind,
        EventKind::RegimeChanged { margin_mv, .. } if margin_mv == f64::INFINITY
    )));
    assert!(!journal_codes(&sim.to_state(), &events).contains(&"AP002".to_string()));
}

#[test]
fn ap002_fires_on_acausal_cadence_journals() {
    use agequant_fleet::{EventKind, Regime};

    let (state, clean) = base_autopilot_fleet();
    assert!(
        clean
            .iter()
            .any(|e| matches!(e.kind, EventKind::RegimeChanged { .. })),
        "mission long enough to change regimes"
    );
    assert!(!journal_codes(&state, &clean).contains(&"AP002".to_string()));

    // A regime change the configuration's hysteresis machine disowns:
    // a calm rate cannot jump straight to Intervene.
    let mut forged = clean.clone();
    let change = forged
        .iter()
        .position(|e| matches!(e.kind, EventKind::RegimeChanged { .. }))
        .expect("journal has regime changes");
    forged[change].kind = EventKind::RegimeChanged {
        from: Regime::Calm,
        to: Regime::Intervene,
        rate_mv_per_epoch: 0.1,
        margin_mv: 1000.0,
    };
    assert!(journal_codes(&state, &forged).contains(&"AP002".to_string()));

    // A "change" that changes nothing.
    let mut idle = clean.clone();
    idle[change].kind = EventKind::RegimeChanged {
        from: Regime::Calm,
        to: Regime::Calm,
        rate_mv_per_epoch: 0.1,
        margin_mv: 1000.0,
    };
    assert!(journal_codes(&state, &idle).contains(&"AP002".to_string()));

    // A grant that never rescheduled the chip forward.
    let grant = clean
        .iter()
        .position(|e| matches!(e.kind, EventKind::CadenceGranted { .. }))
        .expect("journal has grants");
    let mut stalled = clean.clone();
    stalled[grant].kind = EventKind::CadenceGranted {
        regime: Regime::Calm,
        next_epoch: stalled[grant].epoch,
        tokens_left: 0,
    };
    assert!(journal_codes(&state, &stalled).contains(&"AP002".to_string()));

    // A grant leaving more tokens than the bucket can hold.
    let mut minted = clean.clone();
    minted[grant].kind = EventKind::CadenceGranted {
        regime: Regime::Calm,
        next_epoch: minted[grant].epoch + 1,
        tokens_left: state.config.autopilot.as_ref().unwrap().budget_burst + 50,
    };
    assert!(journal_codes(&state, &minted).contains(&"AP002".to_string()));

    // An Intervene chip starved at the gate.
    let mut starved = clean.clone();
    starved.push(agequant_fleet::JournalEvent {
        epoch: state.epoch,
        chip: 0,
        kind: EventKind::CadenceDeferred {
            regime: Regime::Intervene,
        },
    });
    assert!(journal_codes(&state, &starved).contains(&"AP002".to_string()));

    // More grants than the checkpoint's ledger ever recorded.
    let mut inflated = clean.clone();
    let ledger_granted = state.autopilot.as_ref().unwrap().granted;
    for _ in 0..=ledger_granted {
        inflated.push(agequant_fleet::JournalEvent {
            epoch: state.epoch,
            chip: 0,
            kind: EventKind::CadenceGranted {
                regime: Regime::Intervene,
                next_epoch: state.epoch + 1,
                tokens_left: 0,
            },
        });
    }
    assert!(journal_codes(&state, &inflated).contains(&"AP002".to_string()));

    // Autopilot events in a fleet that was never armed.
    let (plain_state, mut plain) = base_fleet();
    plain.push(agequant_fleet::JournalEvent {
        epoch: plain_state.epoch,
        chip: 0,
        kind: EventKind::CadenceDeferred {
            regime: Regime::Calm,
        },
    });
    assert!(journal_codes(&plain_state, &plain).contains(&"AP002".to_string()));
}

/// SV001 corruption.
fn serve_codes(config: &agequant_serve::ServeConfig) -> Vec<String> {
    codes(Artifact::ServeConfig {
        name: "under-test",
        config,
    })
}

#[test]
fn sv001_fires_on_unrunnable_server_configs() {
    use agequant_serve::ServeConfig;

    // The shipped defaults — and a saved artifact round-tripped
    // through JSON — are clean.
    let clean = ServeConfig::default();
    assert!(!serve_codes(&clean).contains(&"SV001".to_string()));
    let reloaded = ServeConfig::from_json(&clean.to_json()).expect("round trip");
    assert!(!serve_codes(&reloaded).contains(&"SV001".to_string()));

    // No workers: nothing would ever drain the queue.
    let no_workers = ServeConfig {
        workers: 0,
        ..ServeConfig::default()
    };
    assert!(serve_codes(&no_workers).contains(&"SV001".to_string()));

    // Queue shallower than the worker pool: workers would idle.
    let shallow = ServeConfig {
        workers: 8,
        queue_depth: 2,
        ..ServeConfig::default()
    };
    assert!(serve_codes(&shallow).contains(&"SV001".to_string()));

    // An address that cannot bind.
    let bad_addr = ServeConfig {
        addr: "localhost".to_string(),
        ..ServeConfig::default()
    };
    assert!(serve_codes(&bad_addr).contains(&"SV001".to_string()));

    // A served ΔVth range past the characterized 0–50 mV sweep.
    let beyond_sweep = ServeConfig {
        max_mv: 75.0,
        ..ServeConfig::default()
    };
    assert!(serve_codes(&beyond_sweep).contains(&"SV001".to_string()));
    let no_range = ServeConfig {
        max_mv: 0.0,
        ..ServeConfig::default()
    };
    assert!(serve_codes(&no_range).contains(&"SV001".to_string()));
}

/// SV002 corruption.
#[test]
fn sv002_fires_on_tables_diverging_from_their_decider() {
    use agequant_fleet::{Decider, DecisionTable, FleetConfig};

    let decider = Decider::from_config(&FleetConfig::new(8, 7)).expect("decider");
    let table = DecisionTable::build(&decider, 8, &[]).expect("table");
    let table_codes = |table: &DecisionTable, decider: &Decider| {
        codes(Artifact::DecisionTable {
            name: "under-test",
            table,
            decider,
        })
    };

    // A freshly built table agrees with its decider by construction.
    assert!(!table_codes(&table, &decider).contains(&"SV002".to_string()));

    let bands: Vec<u64> = table
        .constraint_bands_ps()
        .iter()
        .map(|c| c.to_bits())
        .collect();
    let entries: Vec<_> = table.iter().map(|(_, _, d)| *d).collect();

    // One swapped entry: the table would serve bucket 8 the fresh
    // bucket-0 plan.
    let mut wrong = entries.clone();
    assert_ne!(wrong[0], wrong[8], "sweep endpoints should differ");
    wrong[8] = wrong[0];
    let diverged = DecisionTable::from_parts(
        table.model_key().to_string(),
        table.bucket_mv(),
        table.max_bucket(),
        bands.clone(),
        wrong,
    )
    .expect("shape is still valid");
    assert!(table_codes(&diverged, &decider).contains(&"SV002".to_string()));

    // Right entries, wrong model key: the table claims to answer for
    // a model the decider is not running.
    let mislabeled = DecisionTable::from_parts(
        "hci".to_string(),
        table.bucket_mv(),
        table.max_bucket(),
        bands.clone(),
        entries.clone(),
    )
    .expect("shape is still valid");
    assert!(table_codes(&mislabeled, &decider).contains(&"SV002".to_string()));

    // Right entries, wrong bucket grid: index arithmetic would send
    // a ΔVth to the wrong row.
    let regridded = DecisionTable::from_parts(
        table.model_key().to_string(),
        table.bucket_mv() * 2.0,
        table.max_bucket(),
        bands,
        entries,
    )
    .expect("shape is still valid");
    assert!(table_codes(&regridded, &decider).contains(&"SV002".to_string()));
}

#[test]
fn corrupted_netlists_do_not_trip_unrelated_lints() {
    // Cross-check: a back-edge corruption fires NL001 but leaves the
    // quant/cell/STA lints silent (they ignore netlist artifacts).
    let back_edge = rebuilt(|gates, _| {
        let last_out = gates.last().unwrap().output;
        gates[0].inputs[0] = last_out;
    });
    let fired = netlist_codes(&back_edge);
    for code in [
        "CL001", "CL002", "CL003", "ST001", "ST002", "QT001", "ME001", "ME002", "SV001", "SV002",
    ] {
        assert!(
            !fired.contains(&code.to_string()),
            "{code} fired on a netlist"
        );
    }
}

fn source_codes(text: &str) -> Vec<String> {
    codes(Artifact::Source {
        name: "under-test.rs",
        text,
    })
}

#[test]
fn src001_fires_on_direct_std_sync_and_thread() {
    let clean = r#"
use agequant_check::sync::{Arc, Mutex};
use agequant_check::thread;

fn run(m: &Mutex<u32>) {
    let h = thread::spawn(|| {});
    *m.lock().unwrap() += 1;
    h.join().unwrap();
}
"#;
    assert!(source_codes(clean).is_empty(), "clean source flagged");

    let smuggled_sync = r#"
use std::sync::Mutex;
fn f(m: &Mutex<u32>) { *m.lock().unwrap() += 1; }
"#;
    assert!(source_codes(smuggled_sync).contains(&"SRC001".to_string()));

    let smuggled_thread = r#"
fn f() { std::thread::spawn(|| {}).join().unwrap(); }
"#;
    assert!(source_codes(smuggled_thread).contains(&"SRC001".to_string()));

    // Mentions in line comments are prose, not code.
    let commented = "// std::sync::Mutex is re-exported by the facade\n";
    assert!(source_codes(commented).is_empty(), "comment flagged");
}

#[test]
fn src001_fires_on_condvar_wait_outside_a_loop() {
    let looped = r#"
fn pop(cv: &Condvar, m: &Mutex<bool>) {
    let mut ready = m.lock().unwrap();
    while !*ready {
        ready = cv.wait(ready).unwrap();
    }
}
"#;
    assert!(source_codes(looped).is_empty(), "predicate loop flagged");

    let bare = r#"
fn pop(cv: &Condvar, m: &Mutex<bool>) {
    let ready = m.lock().unwrap();
    let ready = cv.wait(ready).unwrap();
    drop(ready);
}
"#;
    assert!(source_codes(bare).contains(&"SRC001".to_string()));

    let timed_bare = r#"
fn pop(cv: &Condvar, m: &Mutex<bool>) {
    let ready = m.lock().unwrap();
    let _ = cv.wait_timeout(ready, TICK).unwrap();
}
"#;
    assert!(source_codes(timed_bare).contains(&"SRC001".to_string()));

    // `loop { ... }` counts as a re-checking loop too.
    let looped_infinite = r#"
fn pop(cv: &Condvar, m: &Mutex<bool>) {
    let mut ready = m.lock().unwrap();
    loop {
        if *ready { return; }
        ready = cv.wait(ready).unwrap();
    }
}
"#;
    assert!(source_codes(looped_infinite).is_empty());
}

#[test]
fn src001_skips_seeded_mutation_items() {
    // The seeded mutation bodies violate the rules on purpose; the
    // cfg gate marks them exempt.
    let mutated = r#"
impl Q {
    #[cfg(agequant_model_mutation)]
    fn pop(&self) -> Option<u32> {
        let inner = self.m.lock().unwrap();
        let inner = self.cv.wait_timeout(inner, TICK).unwrap().0;
        inner.items.pop_front()
    }

    #[cfg(not(agequant_model_mutation))]
    fn ok(&self) {}
}
"#;
    assert!(source_codes(mutated).is_empty(), "mutation body flagged");

    // ...but the exemption ends with the item: a violation after the
    // mutated fn still fires.
    let after = r#"
impl Q {
    #[cfg(agequant_model_mutation)]
    fn pop(&self) -> Option<u32> {
        let inner = self.m.lock().unwrap();
        let inner = self.cv.wait_timeout(inner, TICK).unwrap().0;
        inner.items.pop_front()
    }

    fn bad(&self) {
        let g = self.m.lock().unwrap();
        let _ = self.cv.wait(g).unwrap();
    }
}
"#;
    assert!(source_codes(after).contains(&"SRC001".to_string()));
}
