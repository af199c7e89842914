//! Property tests: a materialized [`DecisionTable`] is
//! indistinguishable from the live decider across its whole domain,
//! and lookups refuse exactly outside the materialized space, so the
//! caller knows when to fall back to the live path — the contract
//! `agequant-serve`'s table plane rests on.

use std::sync::OnceLock;

use agequant_aging::VthShift;
use agequant_fleet::{Decider, DecisionTable, FleetConfig};
use proptest::prelude::*;

/// The served ΔVth range the table is materialized over.
const MAX_MV: f64 = 50.0;

/// One decider + table pair shared across cases: building performs
/// the full characterization sweep, so pay for it once.
fn harness() -> &'static (Decider, DecisionTable, f64) {
    static HARNESS: OnceLock<(Decider, DecisionTable, f64)> = OnceLock::new();
    HARNESS.get_or_init(|| {
        let decider = Decider::from_config(&FleetConfig::new(4, 7)).expect("decider");
        let extra = decider.constraint_ps() * 1.08;
        let max_bucket = decider.bucket_of(VthShift::from_millivolts(MAX_MV));
        let table = DecisionTable::build(&decider, max_bucket, &[extra]).expect("table");
        (decider, table, extra)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Any served (ΔVth, constraint band) answers from the table with
    /// exactly the decision the live decider makes for it.
    #[test]
    fn table_lookup_equals_live_decision(mv in 0.0..MAX_MV, extra_band in any::<bool>()) {
        let (decider, table, extra) = harness();
        let constraint = if extra_band { *extra } else { decider.constraint_ps() };
        let bucket = decider.bucket_of(VthShift::from_millivolts(mv));
        let hit = table
            .lookup(bucket, constraint)
            .expect("served range is materialized");
        let live = decider
            .decide_bucket_at(bucket, constraint)
            .expect("live decision");
        prop_assert_eq!(hit, live);
    }

    /// The table refuses exactly the keys outside the materialized
    /// space — a bucket past the table edge, or a constraint band that
    /// was never built — and answers every key inside it.
    #[test]
    fn lookup_refuses_exactly_outside_the_table(
        mv in 0.0..2.0 * MAX_MV,
        band in 0u8..3,
        factor in 0.5f64..2.0,
    ) {
        let (decider, table, extra) = harness();
        let constraint = match band {
            0 => decider.constraint_ps(),
            1 => *extra,
            _ => decider.constraint_ps() * factor,
        };
        let bucket = decider.bucket_of(VthShift::from_millivolts(mv));
        let banded = table
            .constraint_bands_ps()
            .iter()
            .any(|b| b.to_bits() == constraint.to_bits());
        prop_assert_eq!(
            table.lookup(bucket, constraint).is_some(),
            banded && bucket <= table.max_bucket()
        );
    }
}
