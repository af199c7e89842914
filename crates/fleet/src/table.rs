//! Fully materialized decision tables.
//!
//! The paper's decision space is finite: quantized ΔVth buckets ×
//! constraint bands map to `(α, β, padding, method)`. A
//! [`DecisionTable`] materializes that entire space once — every
//! bucket of every requested constraint band, characterized through
//! the live [`Decider`] — into an immutable flat vector, so serving a
//! decision becomes a pure indexed read: no engine, no memo mutex, no
//! allocation. The decider itself holds no table: a consumer that
//! serves from one owns it, falling back to
//! [`Decider::decide_bucket_at`] when [`DecisionTable::lookup`]
//! refuses a key. Lint SV002 pins every entry bit-identical to a
//! fresh live decision on the same key.

use crate::decide::{Decider, Decision};
use crate::FleetError;

/// An immutable, fully materialized decision lookup over
/// (ΔVth bucket × constraint band) for one degradation model.
///
/// Band 0 is always the decider's default constraint; further bands
/// are the caller's extra constraint values (the server's known
/// `constraint_factor` grid, say). Entries are flattened band-major:
/// `entries[band * (max_bucket + 1) + bucket]`.
#[derive(Debug, Clone, PartialEq)]
pub struct DecisionTable {
    model_key: String,
    bucket_mv: f64,
    max_bucket: u64,
    /// Constraint bands as f64 bit patterns — lookups compare bits,
    /// exactly like the decider's own memo keys, so a table hit is
    /// defined on precisely the keys the live path would memoize.
    constraint_bands: Vec<u64>,
    entries: Vec<Decision>,
}

impl DecisionTable {
    /// Characterizes every (band, bucket) pair through `decider` and
    /// freezes the result. `extra_constraints_ps` values equal to the
    /// default constraint (or repeated) are deduplicated; band order
    /// is default first, then first-occurrence order of the extras.
    ///
    /// Building performs the live characterizations it freezes, so a
    /// caller that must not perturb a shared decider's observable
    /// record ([`Decider::buckets_planned`], engine cache counters)
    /// should build from a throwaway decider on the same config —
    /// decisions are deterministic in the config, so the frozen
    /// entries are bit-identical either way.
    ///
    /// # Errors
    ///
    /// Propagates non-degradable flow errors from characterization.
    pub fn build(
        decider: &Decider,
        max_bucket: u64,
        extra_constraints_ps: &[f64],
    ) -> Result<Self, FleetError> {
        let mut constraint_bands = vec![decider.constraint_ps().to_bits()];
        for &constraint in extra_constraints_ps {
            let bits = constraint.to_bits();
            if !constraint_bands.contains(&bits) {
                constraint_bands.push(bits);
            }
        }
        let buckets = usize::try_from(max_bucket)
            .ok()
            .and_then(|b| b.checked_add(1))
            .and_then(|b| b.checked_mul(constraint_bands.len()))
            .ok_or_else(|| {
                FleetError::Capacity(format!("decision table of {max_bucket} buckets"))
            })?;
        let mut entries = Vec::with_capacity(buckets);
        for &band in &constraint_bands {
            let constraint_ps = f64::from_bits(band);
            for bucket in 0..=max_bucket {
                entries.push(decider.decide_bucket_at(bucket, constraint_ps)?);
            }
        }
        Ok(DecisionTable {
            model_key: decider.flow().model_key().to_string(),
            bucket_mv: decider.config().bucket_mv,
            max_bucket,
            constraint_bands,
            entries,
        })
    }

    /// Assembles a table from raw parts without characterizing —
    /// the lint test seam (corrupted.rs builds deliberately wrong
    /// tables through this).
    ///
    /// # Errors
    ///
    /// Returns [`FleetError::InvalidConfig`] when the entry count
    /// does not equal `bands × (max_bucket + 1)` or when no band is
    /// given.
    pub fn from_parts(
        model_key: String,
        bucket_mv: f64,
        max_bucket: u64,
        constraint_bands: Vec<u64>,
        entries: Vec<Decision>,
    ) -> Result<Self, FleetError> {
        if constraint_bands.is_empty() {
            return Err(FleetError::InvalidConfig(
                "decision table needs at least the default constraint band".to_string(),
            ));
        }
        let per_band = usize::try_from(max_bucket)
            .ok()
            .and_then(|b| b.checked_add(1))
            .ok_or_else(|| {
                FleetError::Capacity(format!("decision table of {max_bucket} buckets"))
            })?;
        let want = per_band * constraint_bands.len();
        if entries.len() != want {
            return Err(FleetError::InvalidConfig(format!(
                "decision table has {} entries, wants {want}",
                entries.len()
            )));
        }
        Ok(DecisionTable {
            model_key,
            bucket_mv,
            max_bucket,
            constraint_bands,
            entries,
        })
    }

    /// The decision for `(bucket, constraint_ps)`, or `None` when the
    /// key is outside the materialized space (bucket past the table
    /// edge, or a constraint band that was never built) — the caller
    /// falls back to the live engine path.
    #[must_use]
    pub fn lookup(&self, bucket: u64, constraint_ps: f64) -> Option<Decision> {
        if bucket > self.max_bucket {
            return None;
        }
        let bits = constraint_ps.to_bits();
        let band = self.constraint_bands.iter().position(|&b| b == bits)?;
        let per_band = self.max_bucket as usize + 1;
        Some(self.entries[band * per_band + bucket as usize])
    }

    /// The degradation-model key the table was built for.
    #[must_use]
    pub fn model_key(&self) -> &str {
        &self.model_key
    }

    /// The bucket grid pitch, mV.
    #[must_use]
    pub fn bucket_mv(&self) -> f64 {
        self.bucket_mv
    }

    /// The largest materialized bucket.
    #[must_use]
    pub fn max_bucket(&self) -> u64 {
        self.max_bucket
    }

    /// The materialized constraint bands, ps, in band order
    /// (band 0 is the default constraint).
    #[must_use]
    pub fn constraint_bands_ps(&self) -> Vec<f64> {
        self.constraint_bands
            .iter()
            .map(|&bits| f64::from_bits(bits))
            .collect()
    }

    /// Total materialized entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the table holds no entries (never true for a built
    /// table — band 0 always exists).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Every materialized key and its frozen decision, band-major —
    /// the audit surface SV002 walks.
    pub fn iter(&self) -> impl Iterator<Item = (f64, u64, &Decision)> + '_ {
        let per_band = self.max_bucket as usize + 1;
        self.entries.iter().enumerate().map(move |(i, decision)| {
            let band = self.constraint_bands[i / per_band];
            (f64::from_bits(band), (i % per_band) as u64, decision)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FleetConfig;

    #[test]
    fn built_table_serves_live_decisions() {
        let config = FleetConfig::new(2, 9);
        let decider = Decider::from_config(&config).expect("valid config");
        let tight = decider.constraint_ps() * 0.9;
        let table = DecisionTable::build(&decider, 6, &[tight]).expect("builds");
        assert_eq!(table.model_key(), decider.flow().model_key());
        assert_eq!(table.len(), 2 * 7);

        let fresh = Decider::from_config(&config).expect("valid config");
        for bucket in 0..=6 {
            for constraint in [decider.constraint_ps(), tight] {
                let hit = table.lookup(bucket, constraint).expect("materialized");
                let live = fresh.decide_bucket_at(bucket, constraint).expect("decides");
                assert_eq!(hit, live, "bucket {bucket} at {constraint}");
            }
        }
    }

    #[test]
    fn out_of_range_keys_miss() {
        let config = FleetConfig::new(2, 9);
        let decider = Decider::from_config(&config).expect("valid config");
        let table = DecisionTable::build(&decider, 4, &[]).expect("builds");
        assert!(table.lookup(5, decider.constraint_ps()).is_none());
        assert!(
            table.lookup(0, decider.constraint_ps() * 0.5).is_none(),
            "unmaterialized constraint band misses"
        );
    }

    #[test]
    fn from_parts_validates_shape() {
        let config = FleetConfig::new(2, 9);
        let decider = Decider::from_config(&config).expect("valid config");
        let table = DecisionTable::build(&decider, 3, &[]).expect("builds");
        let entries: Vec<Decision> = table.iter().map(|(_, _, d)| *d).collect();

        assert!(DecisionTable::from_parts(
            "x".to_string(),
            2.5,
            3,
            vec![decider.constraint_ps().to_bits()],
            entries.clone(),
        )
        .is_ok());
        assert!(matches!(
            DecisionTable::from_parts("x".to_string(), 2.5, 3, vec![], entries.clone()),
            Err(FleetError::InvalidConfig(_))
        ));
        assert!(matches!(
            DecisionTable::from_parts(
                "x".to_string(),
                2.5,
                4,
                vec![decider.constraint_ps().to_bits()],
                entries,
            ),
            Err(FleetError::InvalidConfig(_))
        ));
    }
}
