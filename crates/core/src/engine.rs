//! The shared evaluation engine: memoized aging characterization.
//!
//! Every per-aging-level entry point of the flow needs the same two
//! expensive artifacts for a given ΔVth: the characterized
//! [`CellLibrary`] and the per-net STA load vector of the MAC under
//! analysis. The seed recomputed both on every call —
//! `baseline_delay_ps`, `feasible_compressions`, the lifetime
//! trajectories, and the figure/table binaries each re-ran
//! [`ProcessLibrary::characterize`] for shifts they had already seen.
//!
//! [`EvalEngine`] memoizes four layers, keyed on the pair of a
//! degradation model's stable [`model_key`] and a *quantized* ΔVth
//! (rounded to the nearest nanovolt, far below any physically
//! meaningful difference, so float noise cannot split cache entries):
//!
//! 1. **Libraries** — `(model_key, ΔVth) → Arc<CellLibrary>` (the
//!    SiliconSmart step under that model's delay derating).
//! 2. **Load vectors** — `(model_key, ΔVth) → Arc<Vec<f64>>` for the
//!    engine's one netlist, reused across every case-analysis STA run
//!    at that level via [`Sta::with_loads`].
//! 3. **Grid scans** — `(model_key, ΔVth) → Arc<[FeasiblePoint]>`: the
//!    aged critical path of every valid `(α, β) × Padding` case,
//!    unfiltered, in scan order (Algorithm 1 lines 2–4). A timing
//!    constraint is only a filter over this list, so every constraint
//!    asked at one level shares one scan.
//! 4. **Compression plans** — `model_key → (ΔVth, constraint) →
//!    CompressionPlan`, an O(1) answer for a repeated query (the
//!    fleet's per-chip decisions, the `archs × levels` sweeps of the
//!    accuracy trajectory). Keyed by model first, so a hit borrows the
//!    key and allocates nothing. A plan miss selects from the cached
//!    scan; only a scan miss runs STA.
//!
//! The model key enters every cache key because two models with
//! different technology profiles derate the same ΔVth to different
//! delays: one engine can serve heterogeneous models concurrently (the
//! decision server does exactly that) and entries are never shared
//! across models. Hit/miss counters are likewise kept per model —
//! [`EvalEngine::stats`] aggregates them, [`EvalEngine::stats_by_model`]
//! exposes the split for `/metrics` and fleet reports.
//!
//! Memoization is transparent: a cache hit returns the bit-identical
//! value the miss path would compute (the equivalence suite in
//! `crates/core/tests/equivalence.rs` pins this against the uncached
//! serial reference paths). The engine is `Send + Sync` (asserted by
//! a compile-time check below): each cache sits behind an [`RwLock`],
//! so the hot path — concurrent readers hitting warm entries, which is
//! what a decision server does all day — never serializes; only a miss
//! takes the write lock, and the hit/miss counters are plain atomics a
//! `/metrics` scrape can snapshot without touching any lock.
//!
//! One engine serves exactly one netlist (the quantizer's MAC): load
//! vectors, scans and plans are circuit-dependent.
//! [`AgingAwareQuantizer`] creates its own engine at construction and
//! shares it across clones;
//! [`AgingAwareQuantizer::with_engine`] lets several quantizers with
//! different models share one engine.
//!
//! [`AgingAwareQuantizer`]: crate::AgingAwareQuantizer
//! [`AgingAwareQuantizer::with_engine`]: crate::AgingAwareQuantizer::with_engine
//! [`ProcessLibrary::characterize`]: agequant_cells::ProcessLibrary::characterize
//! [`Sta::with_loads`]: agequant_sta::Sta::with_loads
//! [`model_key`]: agequant_aging::DegradationModel::model_key

use agequant_check::sync::atomic::{AtomicU64, Ordering};
use agequant_check::sync::{Arc, RwLock};
use std::collections::{BTreeMap, HashMap};

use agequant_aging::{DelayDerating, VthShift};
use agequant_cells::{CellLibrary, ProcessLibrary};
use agequant_netlist::Netlist;
use agequant_sta::Sta;

use crate::{CompressionPlan, FeasiblePoint};

/// A library/load cache key: model identity plus quantized shift.
type ModelShiftKey = (String, i64);

/// A plan-cache key within one model's plans: quantized shift and
/// constraint bits. The plan cache is keyed by model first, so a hit
/// looks the model up by `&str` and allocates nothing.
type PlanKey = (i64, u64);

/// Cache-effectiveness counters, for benches and reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Library lookups served from the cache.
    pub library_hits: u64,
    /// Library lookups that ran `characterize`.
    pub library_misses: u64,
    /// Plan lookups served from the cache.
    pub plan_hits: u64,
    /// Plan lookups that had to select a plan: from the level's
    /// cached grid scan when one exists, so a plan miss does not imply
    /// a grid scan.
    pub plan_misses: u64,
}

impl CacheStats {
    /// Fraction of library lookups served from the cache, or 0 when
    /// no library lookup has happened yet.
    #[must_use]
    pub fn library_hit_rate(&self) -> f64 {
        Self::rate(self.library_hits, self.library_misses)
    }

    /// Fraction of plan lookups served from the cache, or 0 when no
    /// plan lookup has happened yet.
    #[must_use]
    pub fn plan_hit_rate(&self) -> f64 {
        Self::rate(self.plan_hits, self.plan_misses)
    }

    /// Overall hit rate across the plan and library caches combined,
    /// or 0 when the engine has served no lookup at all.
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        Self::rate(
            self.library_hits + self.plan_hits,
            self.library_misses + self.plan_misses,
        )
    }

    #[allow(clippy::cast_precision_loss)]
    fn rate(hits: u64, misses: u64) -> f64 {
        let total = hits + misses;
        if total == 0 {
            0.0
        } else {
            hits as f64 / total as f64
        }
    }
}

/// Per-model hit/miss atomics: one bundle per distinct `model_key`.
#[derive(Debug, Default)]
struct ModelCounters {
    library_hits: AtomicU64,
    library_misses: AtomicU64,
    plan_hits: AtomicU64,
    plan_misses: AtomicU64,
}

impl ModelCounters {
    fn snapshot(&self) -> CacheStats {
        CacheStats {
            library_hits: self.library_hits.load(Ordering::Relaxed),
            library_misses: self.library_misses.load(Ordering::Relaxed),
            plan_hits: self.plan_hits.load(Ordering::Relaxed),
            plan_misses: self.plan_misses.load(Ordering::Relaxed),
        }
    }
}

/// One model's plan-cache entries, next to its counter bundle so a hit
/// takes one lock.
#[derive(Debug)]
struct ModelPlans {
    counters: Arc<ModelCounters>,
    plans: HashMap<PlanKey, CompressionPlan>,
}

/// Memoized per-(model, ΔVth) evaluation state shared by all flow
/// entry points.
///
/// The module-level docs describe the cache layers and their keys.
#[derive(Debug)]
pub struct EvalEngine {
    process: ProcessLibrary,
    libraries: RwLock<HashMap<ModelShiftKey, Arc<CellLibrary>>>,
    loads: RwLock<HashMap<ModelShiftKey, Arc<Vec<f64>>>>,
    scans: RwLock<HashMap<ModelShiftKey, Arc<[FeasiblePoint]>>>,
    plans: RwLock<HashMap<String, ModelPlans>>,
    counters: RwLock<BTreeMap<String, Arc<ModelCounters>>>,
}

// The engine is shared by reference across worker threads (`par_map`
// fan-outs and the serve crate's request workers); regressing
// `Send + Sync` would only surface as a compile error far from the
// cause, so pin it here at the definition.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<EvalEngine>();
};

impl EvalEngine {
    /// Creates an empty engine over `process`.
    #[must_use]
    pub fn new(process: ProcessLibrary) -> Self {
        EvalEngine {
            process,
            libraries: RwLock::new(HashMap::new()),
            loads: RwLock::new(HashMap::new()),
            scans: RwLock::new(HashMap::new()),
            plans: RwLock::new(HashMap::new()),
            counters: RwLock::new(BTreeMap::new()),
        }
    }

    /// The cache key of a shift: ΔVth rounded to the nearest nanovolt.
    ///
    /// Two shifts quantizing to the same key characterize to libraries
    /// that differ by less than any representable timing effect; two
    /// sweeps expressing "30 mV" with different float round-off hit
    /// the same entry.
    #[must_use]
    pub fn shift_key(shift: VthShift) -> i64 {
        #[allow(clippy::cast_possible_truncation)]
        {
            (shift.volts() * 1e9).round() as i64
        }
    }

    /// The process library the engine characterizes from.
    #[must_use]
    pub fn process(&self) -> &ProcessLibrary {
        &self.process
    }

    /// The counter bundle of `model_key`, created on first use.
    fn counters(&self, model_key: &str) -> Arc<ModelCounters> {
        if let Some(counters) = self
            .counters
            .read()
            .expect("unpoisoned counter map")
            .get(model_key)
        {
            return Arc::clone(counters);
        }
        Arc::clone(
            self.counters
                .write()
                .expect("unpoisoned counter map")
                .entry(model_key.to_string())
                .or_default(),
        )
    }

    /// The characterized library at `shift` under `derating`, memoized
    /// per `(model_key, shift)`.
    ///
    /// The caller vouches that `derating` is the one the model behind
    /// `model_key` produces — the key carries the model identity, so
    /// two models never share an entry even when their deratings agree.
    ///
    /// # Panics
    ///
    /// Panics if the internal lock was poisoned by a panicking caller.
    #[must_use]
    pub fn library(
        &self,
        model_key: &str,
        derating: &DelayDerating,
        shift: VthShift,
    ) -> Arc<CellLibrary> {
        let key = (model_key.to_string(), Self::shift_key(shift));
        let counters = self.counters(model_key);
        if let Some(lib) = self
            .libraries
            .read()
            .expect("unpoisoned library cache")
            .get(&key)
        {
            counters.library_hits.fetch_add(1, Ordering::Relaxed);
            return Arc::clone(lib);
        }
        // Miss path: take the write lock and re-check — another thread
        // may have characterized this shift while we waited, and each
        // key must be characterized exactly once (the hit-returns-the-
        // same-Arc contract the tests pin).
        let mut cache = self.libraries.write().expect("unpoisoned library cache");
        // Seeded bug for the checker's mutation self-test: skipping the
        // re-check re-characterizes keys that raced on the miss path.
        #[cfg(not(agequant_model_mutation))]
        if let Some(lib) = cache.get(&key) {
            counters.library_hits.fetch_add(1, Ordering::Relaxed);
            return Arc::clone(lib);
        }
        counters.library_misses.fetch_add(1, Ordering::Relaxed);
        let lib = Arc::new(self.process.characterize(derating, shift));
        cache.insert(key, Arc::clone(&lib));
        lib
    }

    /// The STA load vector of `netlist` under the library at `shift`,
    /// memoized. Must always be called with the engine's one netlist.
    ///
    /// # Panics
    ///
    /// Panics if the internal lock was poisoned by a panicking caller.
    #[must_use]
    pub fn sta_loads(
        &self,
        model_key: &str,
        derating: &DelayDerating,
        netlist: &Netlist,
        shift: VthShift,
    ) -> Arc<Vec<f64>> {
        let key = (model_key.to_string(), Self::shift_key(shift));
        if let Some(loads) = self.loads.read().expect("unpoisoned load cache").get(&key) {
            debug_assert_eq!(
                loads.len(),
                netlist.net_count(),
                "engine reused across MACs"
            );
            return Arc::clone(loads);
        }
        // Characterize (or fetch) outside the load lock: `library`
        // takes its own lock and may be slow on a miss.
        let lib = self.library(model_key, derating, shift);
        let loads = Arc::new(Sta::compute_loads(netlist, &lib));
        self.loads
            .write()
            .expect("unpoisoned load cache")
            .entry(key)
            .or_insert_with(|| Arc::clone(&loads))
            .clone()
    }

    /// The grid scan at `shift`, memoized per `(model_key, shift)`:
    /// `scan` runs only on a miss and must return the aged delay of
    /// every valid grid case in scan order, unfiltered. Must always be
    /// called with the engine's one netlist and grid.
    ///
    /// Like [`sta_loads`](Self::sta_loads), a miss computes outside the
    /// lock and keeps the first stored entry, so racing callers may
    /// both scan but all of them receive the same `Arc`.
    ///
    /// # Panics
    ///
    /// Panics if the internal lock was poisoned by a panicking caller.
    #[must_use]
    pub(crate) fn grid_scan(
        &self,
        model_key: &str,
        shift: VthShift,
        scan: impl FnOnce() -> Vec<FeasiblePoint>,
    ) -> Arc<[FeasiblePoint]> {
        let key = (model_key.to_string(), Self::shift_key(shift));
        if let Some(points) = self.scans.read().expect("unpoisoned scan cache").get(&key) {
            return Arc::clone(points);
        }
        let points: Arc<[FeasiblePoint]> = scan().into();
        let mut cache = self.scans.write().expect("unpoisoned scan cache");
        // Seeded bug for the checker's mutation self-test: overwriting
        // the entry hands racing callers different scans.
        #[cfg(agequant_model_mutation)]
        cache.insert(key.clone(), Arc::clone(&points));
        Arc::clone(cache.entry(key).or_insert(points))
    }

    /// A cached compression plan for `(model_key, shift,
    /// constraint_ps)`, if a plan was already selected for this triple.
    ///
    /// # Panics
    ///
    /// Panics if the internal lock was poisoned by a panicking caller.
    #[must_use]
    pub fn cached_plan(
        &self,
        model_key: &str,
        shift: VthShift,
        constraint_ps: f64,
    ) -> Option<CompressionPlan> {
        let key = (Self::shift_key(shift), constraint_ps.to_bits());
        let plans = self.plans.read().expect("unpoisoned plan cache");
        let Some(model) = plans.get(model_key) else {
            drop(plans);
            self.counters(model_key)
                .plan_misses
                .fetch_add(1, Ordering::Relaxed);
            return None;
        };
        let found = model.plans.get(&key).copied();
        let counter = if found.is_some() {
            &model.counters.plan_hits
        } else {
            &model.counters.plan_misses
        };
        counter.fetch_add(1, Ordering::Relaxed);
        found
    }

    /// Counts `n` plan hits for `model_key`: for a caller that answers
    /// `n` repeats from plans this engine served it, as if each repeat
    /// had asked [`cached_plan`](Self::cached_plan). Counting zero hits
    /// touches nothing.
    ///
    /// # Panics
    ///
    /// Panics if the counter map was poisoned by a panicking caller.
    pub fn count_plan_hits(&self, model_key: &str, n: u64) {
        if n == 0 {
            return;
        }
        self.counters(model_key)
            .plan_hits
            .fetch_add(n, Ordering::Relaxed);
    }

    /// Records a freshly computed plan for `(model_key, shift,
    /// constraint_ps)`.
    ///
    /// # Panics
    ///
    /// Panics if the internal lock was poisoned by a panicking caller.
    pub fn store_plan(
        &self,
        model_key: &str,
        shift: VthShift,
        constraint_ps: f64,
        plan: CompressionPlan,
    ) {
        let key = (Self::shift_key(shift), constraint_ps.to_bits());
        let counters = self.counters(model_key);
        self.plans
            .write()
            .expect("unpoisoned plan cache")
            .entry(model_key.to_string())
            .or_insert_with(|| ModelPlans {
                counters,
                plans: HashMap::new(),
            })
            .plans
            .insert(key, plan);
    }

    /// Snapshot of the hit/miss counters, aggregated over every model
    /// the engine has served.
    ///
    /// # Panics
    ///
    /// Panics if the counter map was poisoned by a panicking caller.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        let mut total = CacheStats::default();
        for counters in self
            .counters
            .read()
            .expect("unpoisoned counter map")
            .values()
        {
            let s = counters.snapshot();
            total.library_hits += s.library_hits;
            total.library_misses += s.library_misses;
            total.plan_hits += s.plan_hits;
            total.plan_misses += s.plan_misses;
        }
        total
    }

    /// Snapshot of the hit/miss counters split by `model_key`, in key
    /// order — the per-model view `/metrics` and fleet reports expose.
    ///
    /// # Panics
    ///
    /// Panics if the counter map was poisoned by a panicking caller.
    #[must_use]
    pub fn stats_by_model(&self) -> BTreeMap<String, CacheStats> {
        self.counters
            .read()
            .expect("unpoisoned counter map")
            .iter()
            .map(|(key, counters)| (key.clone(), counters.snapshot()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use agequant_aging::TechProfile;

    use super::*;

    fn derating() -> DelayDerating {
        TechProfile::INTEL14NM.derating()
    }

    #[test]
    fn shift_keys_quantize_float_noise() {
        let a = VthShift::from_millivolts(30.0);
        let b = VthShift::from_volts(0.03 + 1e-13); // sub-nanovolt noise
        assert_ne!(a.volts().to_bits(), b.volts().to_bits());
        assert_eq!(EvalEngine::shift_key(a), EvalEngine::shift_key(b));
        assert_ne!(
            EvalEngine::shift_key(a),
            EvalEngine::shift_key(VthShift::from_millivolts(30.1))
        );
        assert_eq!(EvalEngine::shift_key(VthShift::FRESH), 0);
    }

    #[test]
    fn hit_rates_guard_against_zero_lookups() {
        let stats = CacheStats::default();
        assert_eq!(stats.hit_rate(), 0.0);
        assert_eq!(stats.plan_hit_rate(), 0.0);
        assert_eq!(stats.library_hit_rate(), 0.0);

        let stats = CacheStats {
            library_hits: 3,
            library_misses: 1,
            plan_hits: 0,
            plan_misses: 0,
        };
        assert!((stats.library_hit_rate() - 0.75).abs() < 1e-12);
        assert_eq!(stats.plan_hit_rate(), 0.0, "no plan lookups yet");
        assert!((stats.hit_rate() - 0.75).abs() < 1e-12);

        let stats = CacheStats {
            library_hits: 1,
            library_misses: 1,
            plan_hits: 7,
            plan_misses: 1,
        };
        assert!((stats.plan_hit_rate() - 0.875).abs() < 1e-12);
        assert!((stats.hit_rate() - 0.8).abs() < 1e-12);
    }

    #[test]
    fn library_cache_hits_return_the_same_arc() {
        let engine = EvalEngine::new(ProcessLibrary::finfet14nm());
        let shift = VthShift::from_millivolts(20.0);
        let first = engine.library("nbti", &derating(), shift);
        let second = engine.library("nbti", &derating(), shift);
        assert!(Arc::ptr_eq(&first, &second));
        let stats = engine.stats();
        assert_eq!((stats.library_misses, stats.library_hits), (1, 1));

        // A cached library is exactly what characterize produces.
        let reference = ProcessLibrary::finfet14nm().characterize(&derating(), shift);
        assert_eq!(*second, reference);
    }

    #[test]
    fn models_never_share_cache_entries_or_counters() {
        let engine = EvalEngine::new(ProcessLibrary::finfet14nm());
        let shift = VthShift::from_millivolts(30.0);
        // Same derating, different model keys: entries must not alias.
        let a = engine.library("nbti", &derating(), shift);
        let b = engine.library("hci", &derating(), shift);
        assert!(!Arc::ptr_eq(&a, &b));
        assert_eq!(*a, *b, "same derating characterizes identically");
        let by_model = engine.stats_by_model();
        assert_eq!(by_model.len(), 2);
        assert_eq!(by_model["nbti"].library_misses, 1);
        assert_eq!(by_model["hci"].library_misses, 1);
        assert_eq!(by_model["nbti"].library_hits, 0);
        // The aggregate is the sum of the per-model snapshots.
        assert_eq!(engine.stats().library_misses, 2);
    }

    #[test]
    fn grid_scans_run_once_per_model_and_shift() {
        use std::cell::Cell;

        use agequant_sta::{Compression, Padding};

        let engine = EvalEngine::new(ProcessLibrary::finfet14nm());
        let runs = Cell::new(0);
        let scan = |delay_ps: f64| {
            runs.set(runs.get() + 1);
            vec![FeasiblePoint {
                compression: Compression::NONE,
                padding: Padding::ALL[0],
                delay_ps,
            }]
        };
        let shift = VthShift::from_millivolts(30.0);
        let first = engine.grid_scan("nbti", shift, || scan(1.0));
        let again = engine.grid_scan("nbti", shift, || scan(2.0));
        assert!(Arc::ptr_eq(&first, &again), "a hit returns the stored scan");
        assert_eq!(runs.get(), 1);
        // Another model or another shift is another scan.
        assert_eq!(
            engine.grid_scan("hci", shift, || scan(3.0))[0].delay_ps,
            3.0
        );
        let other = VthShift::from_millivolts(30.1);
        assert_eq!(
            engine.grid_scan("nbti", other, || scan(4.0))[0].delay_ps,
            4.0
        );
        assert_eq!(runs.get(), 3);
    }
}
