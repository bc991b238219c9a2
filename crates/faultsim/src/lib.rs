//! Seeded, deterministic fault injection for the ProteusTM stack.
//!
//! ProteusTM's value is self-tuning that never wedges the application; the
//! quiescence protocol, the thread gate and the CUSUM monitor are control
//! loops whose *failure* paths are exactly where hybrid-TM systems degrade
//! pathologically. This crate exercises those paths on purpose, and
//! byte-reproducibly:
//!
//! * A [`FaultPlan`] names, per injection [`Site`], a probability, an
//!   activation offset (`after`), a fire cap (`max_fires`) and, for stall
//!   sites, a duration — all driven by one seed.
//! * Decisions are a **pure function** of `(seed, site, occurrence index)`
//!   (a splitmix64 hash compared against the probability), so a serial
//!   driver replays the exact same fault schedule on every run, and the
//!   *set* of firing occurrence indices is fixed even when concurrent
//!   threads race for them.
//! * Consumers on parallel paths (the `rectm` Controller inside `parx`
//!   workers) use a local [`FaultStream`] instead of the global counters,
//!   which keeps their fault schedule — and therefore their buffered
//!   telemetry — independent of worker interleaving (`--jobs`
//!   determinism).
//!
//! Like `obs/telemetry`, everything sits behind the `faults` cargo
//! feature: with the feature off, [`armed`] is `const false` and every
//! hook compiles out; with the feature on but no plan installed, a hook
//! costs one relaxed atomic load.
//!
//! # Example
//!
//! ```
//! use faultsim::{FaultPlan, FaultSpec, Site};
//!
//! let plan = FaultPlan::new(42).with(Site::SwitchApply, FaultSpec::always().fires(2));
//! faultsim::with_plan(plan, || {
//!     if faultsim::enabled() {
//!         assert!(faultsim::should_fire(Site::SwitchApply));
//!         assert!(faultsim::should_fire(Site::SwitchApply));
//!         assert!(!faultsim::should_fire(Site::SwitchApply), "fire cap");
//!         assert_eq!(faultsim::fired(Site::SwitchApply), 2);
//!     }
//! });
//! assert!(!faultsim::armed());
//! ```
#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod plan;

pub use plan::{FaultPlan, FaultSpec, PlanParseError};

/// Whether the `faults` cargo feature was compiled in.
pub const fn enabled() -> bool {
    cfg!(feature = "faults")
}

/// A well-defined injection point in the adaptive stack.
///
/// Each site owns an independent, deterministic decision stream derived
/// from the plan seed, so enabling one site never perturbs another's
/// schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Site {
    /// Spurious abort of a speculative HTM attempt (`htm` backends); the
    /// simulated analogue of interrupts/TLB shootdowns killing real HTM.
    HtmSpurious,
    /// A worker stalls inside its gate critical section (RUN bit held),
    /// delaying the adapter's quiescence drain.
    GateStall,
    /// `PolyTm::apply` rejects the switch with `SwitchError::Injected`.
    SwitchApply,
    /// A KPI sample fed to the Monitor/Controller is replaced by a
    /// corrupted value (NaN, ±Inf, or an absurd finite magnitude).
    KpiCorrupt,
    /// The adapter thread panics while serving a reconfiguration.
    AdapterPanic,
    /// The process *model* dies at a numbered persistence step of the
    /// durable heap (`txcore::PHeap`): mid-log-append, pre-fsync,
    /// post-fsync-pre-truncate, or mid-replay. With `probability: 1`,
    /// `after: N`, `max_fires: 1` the crash lands deterministically on
    /// step `N` — the basis of the exhaustive crash-point sweep.
    CrashPoint,
}

impl Site {
    /// All sites, in a stable order.
    pub const ALL: [Site; 6] = [
        Site::HtmSpurious,
        Site::GateStall,
        Site::SwitchApply,
        Site::KpiCorrupt,
        Site::AdapterPanic,
        Site::CrashPoint,
    ];

    /// Stable small index (for per-site state arrays).
    #[inline]
    pub fn index(self) -> usize {
        match self {
            Site::HtmSpurious => 0,
            Site::GateStall => 1,
            Site::SwitchApply => 2,
            Site::KpiCorrupt => 3,
            Site::AdapterPanic => 4,
            Site::CrashPoint => 5,
        }
    }

    /// Stable identifier, used in plan JSON keys, metric names
    /// (`fault.fired.<slug>`) and event kinds.
    pub fn slug(self) -> &'static str {
        match self {
            Site::HtmSpurious => "htm_spurious",
            Site::GateStall => "gate_stall",
            Site::SwitchApply => "switch_apply",
            Site::KpiCorrupt => "kpi_corrupt",
            Site::AdapterPanic => "adapter_panic",
            Site::CrashPoint => "crash_point",
        }
    }

    /// Per-site salt decorrelating the decision streams of different
    /// sites under one plan seed.
    #[cfg(any(feature = "faults", test))]
    fn salt(self) -> u64 {
        // Arbitrary odd constants; stable forever (part of the
        // reproducibility contract).
        [
            0x9E6B_55A1_C3D2_E4F5,
            0x6A09_E667_F3BC_C909,
            0xBB67_AE85_84CA_A73B,
            0x3C6E_F372_FE94_F82B,
            0xA54F_F53A_5F1D_36F1,
            0x510E_527F_ADE6_82D1,
        ][self.index()]
    }
}

impl std::fmt::Display for Site {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.slug())
    }
}

/// The splitmix64 finalizer: the single hash behind every decision.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Uniform `[0, 1)` draw from a hash (53-bit mantissa).
fn unit(h: u64) -> f64 {
    (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// The deterministic per-occurrence decision: does occurrence `n` of a
/// stream with `stream_seed` fire at probability `p`?
fn decide(stream_seed: u64, n: u64, p: f64) -> bool {
    p >= 1.0 || unit(splitmix64(stream_seed ^ n)) < p
}

#[cfg(feature = "faults")]
mod inject {
    use super::{decide, splitmix64, FaultPlan, Site};
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::sync::{Mutex, MutexGuard};

    /// Lock-free per-site state; a hook never takes a lock.
    struct Slot {
        enabled: AtomicBool,
        /// Probability as `f64::to_bits`.
        prob_bits: AtomicU64,
        after: AtomicU64,
        max_fires: AtomicU64,
        stall_ms: AtomicU64,
        stream_seed: AtomicU64,
        calls: AtomicU64,
        fired: AtomicU64,
        /// Fires recorded by local [`crate::FaultStream`]s (reporting
        /// only; kept apart from `fired` so stream fires never advance
        /// the global `max_fires` cap, whose consumption order must stay
        /// scheduling-independent).
        stream_fired: AtomicU64,
    }

    impl Slot {
        const fn new() -> Self {
            Slot {
                enabled: AtomicBool::new(false),
                prob_bits: AtomicU64::new(0),
                after: AtomicU64::new(0),
                max_fires: AtomicU64::new(u64::MAX),
                stall_ms: AtomicU64::new(0),
                stream_seed: AtomicU64::new(0),
                calls: AtomicU64::new(0),
                fired: AtomicU64::new(0),
                stream_fired: AtomicU64::new(0),
            }
        }
    }

    static ARMED: AtomicBool = AtomicBool::new(false);
    static SLOTS: [Slot; 6] = [
        Slot::new(),
        Slot::new(),
        Slot::new(),
        Slot::new(),
        Slot::new(),
        Slot::new(),
    ];
    /// Serializes plan installs across tests in one binary (the injector
    /// is process-global, like the obs trace).
    static PLAN_LOCK: Mutex<()> = Mutex::new(());

    fn lock_plan() -> MutexGuard<'static, ()> {
        PLAN_LOCK.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Whether any plan is installed (relaxed load).
    #[inline]
    pub fn armed() -> bool {
        ARMED.load(Ordering::Relaxed)
    }

    /// Install `plan`, resetting all per-site occurrence counters.
    pub fn install(plan: &FaultPlan) {
        for site in Site::ALL {
            let slot = &SLOTS[site.index()];
            slot.calls.store(0, Ordering::Relaxed);
            slot.fired.store(0, Ordering::Relaxed);
            slot.stream_fired.store(0, Ordering::Relaxed);
            match plan.spec(site) {
                Some(spec) => {
                    slot.prob_bits
                        .store(spec.probability.to_bits(), Ordering::Relaxed);
                    slot.after.store(spec.after, Ordering::Relaxed);
                    slot.max_fires.store(spec.max_fires, Ordering::Relaxed);
                    slot.stall_ms.store(spec.stall_ms, Ordering::Relaxed);
                    slot.stream_seed
                        .store(splitmix64(plan.seed ^ site.salt()), Ordering::Relaxed);
                    slot.enabled.store(true, Ordering::Relaxed);
                }
                None => slot.enabled.store(false, Ordering::Relaxed),
            }
        }
        ARMED.store(plan.any_enabled(), Ordering::Release);
    }

    /// Disarm the injector; every hook returns to its no-op fast path.
    pub fn uninstall() {
        ARMED.store(false, Ordering::Release);
        for slot in &SLOTS {
            slot.enabled.store(false, Ordering::Relaxed);
        }
    }

    /// Count one occurrence at `site` and decide whether it fires.
    pub fn should_fire(site: Site) -> bool {
        if !armed() {
            return false;
        }
        let slot = &SLOTS[site.index()];
        if !slot.enabled.load(Ordering::Relaxed) {
            return false;
        }
        let n = slot.calls.fetch_add(1, Ordering::Relaxed);
        let after = slot.after.load(Ordering::Relaxed);
        if n < after {
            return false;
        }
        if slot.fired.load(Ordering::Relaxed) >= slot.max_fires.load(Ordering::Relaxed) {
            return false;
        }
        let p = f64::from_bits(slot.prob_bits.load(Ordering::Relaxed));
        let fire = decide(slot.stream_seed.load(Ordering::Relaxed), n - after, p);
        if fire {
            slot.fired.fetch_add(1, Ordering::Relaxed);
        }
        fire
    }

    /// Total fires at `site` since the plan was installed, counting both
    /// the global [`should_fire`] stream and every local
    /// [`crate::FaultStream`].
    pub fn fired(site: Site) -> u64 {
        let slot = &SLOTS[site.index()];
        slot.fired.load(Ordering::Relaxed) + slot.stream_fired.load(Ordering::Relaxed)
    }

    /// Count one local-stream fire at `site` for [`fired`] reporting.
    pub(super) fn record_stream_fire(site: Site) {
        SLOTS[site.index()]
            .stream_fired
            .fetch_add(1, Ordering::Relaxed);
    }

    /// Configured stall duration for `site` (0 when unset).
    pub fn stall_ms(site: Site) -> u64 {
        SLOTS[site.index()].stall_ms.load(Ordering::Relaxed)
    }

    /// Snapshot `(stream_seed, probability, after, max_fires)` for local
    /// [`crate::FaultStream`]s; `None` when disarmed or site disabled.
    pub fn site_params(site: Site) -> Option<(u64, f64, u64, u64)> {
        if !armed() {
            return None;
        }
        let slot = &SLOTS[site.index()];
        if !slot.enabled.load(Ordering::Relaxed) {
            return None;
        }
        Some((
            slot.stream_seed.load(Ordering::Relaxed),
            f64::from_bits(slot.prob_bits.load(Ordering::Relaxed)),
            slot.after.load(Ordering::Relaxed),
            slot.max_fires.load(Ordering::Relaxed),
        ))
    }

    /// Run `f` with `plan` installed, uninstalling afterwards (also on
    /// panic). Serializes with every other `with_plan` in the process.
    pub fn with_plan<T>(plan: FaultPlan, f: impl FnOnce() -> T) -> T {
        struct Disarm;
        impl Drop for Disarm {
            fn drop(&mut self) {
                uninstall();
            }
        }
        let _serial = lock_plan();
        install(&plan);
        let _guard = Disarm;
        f()
    }
}

#[cfg(feature = "faults")]
pub use inject::{fired, install, should_fire, stall_ms, uninstall, with_plan};

#[cfg(feature = "faults")]
use inject::{record_stream_fire, site_params};

/// Whether any fault plan is currently installed (one relaxed atomic
/// load; the hot-path guard every hook checks first).
#[cfg(feature = "faults")]
#[inline(always)]
pub fn armed() -> bool {
    inject::armed()
}

/// Hot-path guard (feature off): always `false`, compiling every hook out.
#[cfg(not(feature = "faults"))]
#[inline(always)]
pub const fn armed() -> bool {
    false
}

#[cfg(not(feature = "faults"))]
mod stubs {
    use super::{FaultPlan, Site};

    /// Install a fault plan (no-op: built without the `faults` feature).
    pub fn install(_plan: &FaultPlan) {}

    /// Remove the installed plan (no-op: built without `faults`).
    /// Disarm the injector; every hook returns to its no-op fast path.
    pub fn uninstall() {}

    /// Ask whether `site` fires now (always `false` without `faults`).
    #[inline(always)]
    pub fn should_fire(_site: Site) -> bool {
        false
    }

    /// Times `site` has fired (always 0 without `faults`).
    pub fn fired(_site: Site) -> u64 {
        0
    }

    /// Configured stall for `site` (always 0 without `faults`).
    pub fn stall_ms(_site: Site) -> u64 {
        0
    }

    /// Run `f` with `plan` installed (without `faults`: just runs `f`).
    pub fn with_plan<T>(_plan: FaultPlan, f: impl FnOnce() -> T) -> T {
        f()
    }

    /// Record a local-stream fire (no-op without `faults`).
    pub(super) fn record_stream_fire(_site: Site) {}
}

#[cfg(not(feature = "faults"))]
pub use stubs::{fired, install, should_fire, stall_ms, uninstall, with_plan};

#[cfg(not(feature = "faults"))]
use stubs::record_stream_fire;

/// A local, deterministic fault stream for consumers that run on parallel
/// worker pools.
///
/// The global [`should_fire`] counters are shared across threads, so the
/// mapping from occurrence index to *call site* depends on scheduling. A
/// `FaultStream` snapshots the installed site parameters and keeps its own
/// occurrence counter, so each consumer instance replays an identical
/// schedule regardless of how many workers run beside it — this is what
/// keeps fault-injected `rectm` traces byte-identical at every
/// `PROTEUS_JOBS` value.
#[derive(Debug, Clone)]
pub struct FaultStream {
    site: Site,
    stream_seed: u64,
    probability: f64,
    after: u64,
    max_fires: u64,
    n: u64,
    fired: u64,
}

impl FaultStream {
    /// A stream over the installed plan's parameters for `site`, or `None`
    /// when no plan is armed (or the site is absent from it).
    ///
    /// Every stream for the same site replays the same schedule; the
    /// `after` / `max_fires` bounds apply per stream, not globally.
    #[cfg(feature = "faults")]
    pub fn for_site(site: Site) -> Option<FaultStream> {
        let (stream_seed, probability, after, max_fires) = site_params(site)?;
        Some(FaultStream {
            site,
            // Decorrelate from the global counter stream of the same site.
            stream_seed: splitmix64(stream_seed ^ 0x0D15_EA5E_0D15_EA5E),
            probability,
            after,
            max_fires,
            n: 0,
            fired: 0,
        })
    }

    /// A stream for `site` (feature off: always `None`).
    #[cfg(not(feature = "faults"))]
    pub fn for_site(_site: Site) -> Option<FaultStream> {
        None
    }

    /// Advance one occurrence; `true` when the fault fires.
    pub fn fire(&mut self) -> bool {
        let n = self.n;
        self.n += 1;
        if n < self.after || self.fired >= self.max_fires {
            return false;
        }
        let fire = decide(self.stream_seed, n - self.after, self.probability);
        if fire {
            self.fired += 1;
            record_stream_fire(self.site);
        }
        fire
    }

    /// Advance one occurrence; when firing, return the corrupted value to
    /// substitute for a KPI sample (cycles NaN, ±Inf and absurd finite
    /// magnitudes, deterministically).
    pub fn corrupt(&mut self) -> Option<f64> {
        if !self.fire() {
            return None;
        }
        let h = splitmix64(self.stream_seed ^ self.n.wrapping_mul(0x2545_F491_4F6C_DD1D));
        Some(match h % 5 {
            0 => f64::NAN,
            1 => f64::INFINITY,
            2 => f64::NEG_INFINITY,
            3 => 1e308,
            _ => -1e308,
        })
    }

    /// Times this stream has fired.
    pub fn count(&self) -> u64 {
        self.fired
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disarmed_by_default_and_hooks_are_noops() {
        // No plan installed in this test; should_fire must be false and
        // must not count.
        if !enabled() {
            assert!(!armed());
        }
        assert!(FaultStream::for_site(Site::KpiCorrupt).is_none() || armed());
    }

    #[test]
    fn decision_stream_is_a_pure_function() {
        let seed = splitmix64(7 ^ Site::SwitchApply.salt());
        let a: Vec<bool> = (0..100).map(|n| decide(seed, n, 0.3)).collect();
        let b: Vec<bool> = (0..100).map(|n| decide(seed, n, 0.3)).collect();
        assert_eq!(a, b);
        let fires = a.iter().filter(|&&f| f).count();
        assert!(fires > 10 && fires < 60, "p=0.3 over 100: got {fires}");
        // Different sites under the same seed decorrelate.
        let other = splitmix64(7 ^ Site::KpiCorrupt.salt());
        let c: Vec<bool> = (0..100).map(|n| decide(other, n, 0.3)).collect();
        assert_ne!(a, c);
    }

    #[cfg(feature = "faults")]
    #[test]
    fn global_counters_respect_after_and_max_fires() {
        let plan = FaultPlan::new(11).with(
            Site::HtmSpurious,
            FaultSpec::always().skip_first(3).fires(2),
        );
        with_plan(plan, || {
            let fires: Vec<bool> = (0..10).map(|_| should_fire(Site::HtmSpurious)).collect();
            assert_eq!(
                fires,
                vec![false, false, false, true, true, false, false, false, false, false]
            );
            assert_eq!(fired(Site::HtmSpurious), 2);
            // Other sites stay silent.
            assert!(!should_fire(Site::GateStall));
        });
        assert!(!armed());
        assert!(!should_fire(Site::HtmSpurious));
    }

    #[cfg(feature = "faults")]
    #[test]
    fn reinstall_resets_counters_and_replays_identically() {
        let plan = || FaultPlan::new(99).with(Site::SwitchApply, FaultSpec::with_probability(0.5));
        let run = || {
            with_plan(plan(), || {
                (0..64)
                    .map(|_| should_fire(Site::SwitchApply))
                    .collect::<Vec<_>>()
            })
        };
        assert_eq!(run(), run(), "same seed must replay the same schedule");
    }

    #[cfg(feature = "faults")]
    #[test]
    fn local_streams_replay_identically_and_cycle_corruptions() {
        let plan = FaultPlan::new(5).with(Site::KpiCorrupt, FaultSpec::with_probability(0.4));
        with_plan(plan, || {
            let mut a = FaultStream::for_site(Site::KpiCorrupt).unwrap();
            let mut b = FaultStream::for_site(Site::KpiCorrupt).unwrap();
            let va: Vec<Option<u64>> = (0..50).map(|_| a.corrupt().map(f64::to_bits)).collect();
            let vb: Vec<Option<u64>> = (0..50).map(|_| b.corrupt().map(f64::to_bits)).collect();
            assert_eq!(va, vb, "streams of one site must be identical");
            assert!(a.count() > 0, "p=0.4 over 50 must fire");
            let kinds: std::collections::HashSet<u64> = va.iter().flatten().copied().collect();
            assert!(kinds.len() >= 2, "corruption values should vary: {kinds:?}");
            // Corrupted values are non-finite or absurd — never plausible.
            for bits in va.iter().flatten() {
                let v = f64::from_bits(*bits);
                assert!(!v.is_finite() || v.abs() >= 1e308);
            }
        });
    }

    #[cfg(feature = "faults")]
    #[test]
    fn stall_duration_is_exposed() {
        let plan =
            FaultPlan::new(1).with(Site::GateStall, FaultSpec::with_probability(1.0).stall(7));
        with_plan(plan, || {
            assert_eq!(stall_ms(Site::GateStall), 7);
            assert!(should_fire(Site::GateStall));
        });
    }
}
