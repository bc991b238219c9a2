//! TM configurations and the tuning space of Table 3.

use htm::CapacityPolicy;
use std::fmt;
use std::sync::atomic::{fence, AtomicU64, Ordering};
use txcore::DurabilityMode;

/// Identifies one of PolyTM's encapsulated TM implementations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum BackendId {
    /// TL2 (commit-time locking STM).
    Tl2,
    /// TinySTM (encounter-time locking STM).
    TinyStm,
    /// NOrec (global sequence lock STM).
    NOrec,
    /// SwissTM (mixed eager/lazy STM).
    SwissTm,
    /// Simulated best-effort HTM with global-lock fallback.
    Htm,
    /// Hybrid NOrec (simulated HTM fast path, NOrec slow path).
    HybridNOrec,
    /// Phased hybrid over TL2 (capacity-bounded fast path, TL2 slow path).
    HybridTl2,
    /// Durable redo-log STM (NOrec concurrency, write-ahead persistence).
    Durable,
}

impl BackendId {
    /// All backends, in registry order.
    pub const ALL: [BackendId; 8] = [
        BackendId::Tl2,
        BackendId::TinyStm,
        BackendId::NOrec,
        BackendId::SwissTm,
        BackendId::Htm,
        BackendId::HybridNOrec,
        BackendId::HybridTl2,
        BackendId::Durable,
    ];

    /// The STM subset (the only backends available on machines without
    /// hardware TM, like the paper's Machine B).
    pub const STMS: [BackendId; 4] = [
        BackendId::Tl2,
        BackendId::TinyStm,
        BackendId::NOrec,
        BackendId::SwissTm,
    ];

    /// Stable registry index.
    pub fn index(self) -> usize {
        match self {
            BackendId::Tl2 => 0,
            BackendId::TinyStm => 1,
            BackendId::NOrec => 2,
            BackendId::SwissTm => 3,
            BackendId::Htm => 4,
            BackendId::HybridNOrec => 5,
            BackendId::HybridTl2 => 6,
            BackendId::Durable => 7,
        }
    }

    /// Inverse of [`BackendId::index`].
    pub fn from_index(i: usize) -> Option<BackendId> {
        BackendId::ALL.get(i).copied()
    }

    /// Whether this backend has tunable HTM contention management.
    pub fn is_hardware(self) -> bool {
        matches!(
            self,
            BackendId::Htm | BackendId::HybridNOrec | BackendId::HybridTl2
        )
    }

    /// Short display label, matching the paper's figures ("Tiny", "NOrec"…).
    pub fn label(self) -> &'static str {
        match self {
            BackendId::Tl2 => "TL2",
            BackendId::TinyStm => "Tiny",
            BackendId::NOrec => "NOrec",
            BackendId::SwissTm => "Swiss",
            BackendId::Htm => "HTM",
            BackendId::HybridNOrec => "HyNOrec",
            BackendId::HybridTl2 => "HyTL2",
            BackendId::Durable => "Durable",
        }
    }
}

impl fmt::Display for BackendId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// HTM contention-management setting (the last two columns of Table 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct HtmSetting {
    /// Speculative retry budget per atomic block.
    pub budget: u32,
    /// What a capacity abort does to the budget.
    pub policy: CapacityPolicy,
}

impl HtmSetting {
    /// The common default: 5 retries, decrease-on-capacity (paper §6.2).
    pub const DEFAULT: HtmSetting = HtmSetting {
        budget: 5,
        policy: CapacityPolicy::Decrease,
    };
}

impl fmt::Display for HtmSetting {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let p = match self.policy {
            CapacityPolicy::GiveUp => "GiveUp",
            CapacityPolicy::Decrease => "Linear",
            CapacityPolicy::Halve => "Half",
        };
        write!(f, "{}-{}", p, self.budget)
    }
}

/// One point of PolyTM's multi-dimensional tuning space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TmConfig {
    /// The TM algorithm.
    pub backend: BackendId,
    /// The degree of parallelism (active threads).
    pub threads: usize,
    /// Contention management, for hardware-backed configurations.
    pub htm: Option<HtmSetting>,
    /// Crash durability. [`DurabilityMode::Volatile`] for every classic
    /// configuration; a durable mode is valid only with
    /// [`BackendId::Durable`] (and vice versa).
    pub durability: DurabilityMode,
}

impl TmConfig {
    /// A software configuration (no HTM parameters).
    pub fn stm(backend: BackendId, threads: usize) -> Self {
        TmConfig {
            backend,
            threads,
            htm: None,
            durability: DurabilityMode::Volatile,
        }
    }

    /// A hardware configuration with explicit contention management.
    pub fn htm(backend: BackendId, threads: usize, setting: HtmSetting) -> Self {
        TmConfig {
            backend,
            threads,
            htm: Some(setting),
            durability: DurabilityMode::Volatile,
        }
    }

    /// A crash-durable configuration (always [`BackendId::Durable`]).
    pub fn durable(threads: usize, durability: DurabilityMode) -> Self {
        TmConfig {
            backend: BackendId::Durable,
            threads,
            htm: None,
            durability,
        }
    }

    /// Whether the backend/durability pairing is coherent: the Durable
    /// backend journals (non-Volatile), every other backend is volatile.
    pub fn durability_coherent(&self) -> bool {
        (self.backend == BackendId::Durable) == self.durability.is_durable()
    }
}

impl fmt::Display for TmConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}t", self.backend, self.threads)?;
        if let Some(s) = self.htm {
            write!(f, " {}", s)?;
        }
        // Volatile is the classic, implicit case: golden traces of the
        // pre-durability configuration space must render unchanged.
        if self.durability.is_durable() {
            write!(f, " +{}", self.durability)?;
        }
        Ok(())
    }
}

/// A seqlock-style atomic cell holding one [`TmConfig`].
///
/// Probe and monitor paths (`PolyTm::current_config`, `KpiProbe`) read the
/// active configuration on every sample; guarding it with a `Mutex` made
/// every probe contend with — and block behind — an in-progress algorithm
/// switch. This cell makes reads wait-free in the uncontended case and
/// lock-free always: a reader retries only while a writer is mid-publish
/// (a handful of stores).
///
/// Writers must be serialized externally (PolyTM holds its `reconfig`
/// mutex across every store). Every field is an atomic, so there is no
/// `UnsafeCell` and no torn access at the language level; the sequence
/// word only ensures a reader never *returns* a mix of two
/// configurations.
///
/// Ordering: the one writer stores the odd sequence, then a `Release`
/// fence keeps the field stores from hoisting above the marker; it
/// publishes the fields, then stores the even sequence with `Release`
/// (keeping them from sinking below). The reader's acquire loads chain in
/// program order, so its second sequence read cannot observe field values
/// from a later write.
#[derive(Debug, Default)]
pub(crate) struct ConfigCell {
    seq: AtomicU64,
    backend: AtomicU64,
    threads: AtomicU64,
    /// Packed `Option<HtmSetting>`: bit 63 = present, bits 33..=35 the
    /// policy's position in [`CapacityPolicy::ALL`], low 32 bits the
    /// budget. Zero = `None`.
    htm: AtomicU64,
    /// [`DurabilityMode::index`] of the durability dimension.
    durability: AtomicU64,
}

impl ConfigCell {
    pub(crate) fn new(c: TmConfig) -> Self {
        let cell = ConfigCell::default();
        cell.store(c);
        cell
    }

    fn encode_htm(h: Option<HtmSetting>) -> u64 {
        match h {
            None => 0,
            Some(s) => {
                let p = CapacityPolicy::ALL
                    .iter()
                    .position(|&x| x == s.policy)
                    .expect("policy missing from CapacityPolicy::ALL")
                    as u64;
                (1 << 63) | (p << 33) | s.budget as u64
            }
        }
    }

    fn decode_htm(word: u64) -> Option<HtmSetting> {
        if word & (1 << 63) == 0 {
            return None;
        }
        Some(HtmSetting {
            budget: word as u32,
            policy: CapacityPolicy::ALL[((word >> 33) & 0x7) as usize],
        })
    }

    /// Publish a new configuration. Callers must hold the runtime's
    /// reconfiguration lock — concurrent writers would corrupt the
    /// sequence protocol (debug builds catch one that finds it odd).
    pub(crate) fn store(&self, c: TmConfig) {
        let seq = self.seq.load(Ordering::Relaxed);
        debug_assert_eq!(seq & 1, 0, "config cell written by two threads at once");
        self.seq.store(seq + 1, Ordering::Relaxed); // odd: write in progress
        fence(Ordering::Release);
        self.backend
            .store(c.backend.index() as u64, Ordering::Release);
        self.threads.store(c.threads as u64, Ordering::Release);
        self.htm.store(Self::encode_htm(c.htm), Ordering::Release);
        self.durability
            .store(c.durability.index() as u64, Ordering::Release);
        self.seq.store(seq + 2, Ordering::Release); // even: stable
    }

    /// Lock-free consistent snapshot of the configuration.
    pub(crate) fn load(&self) -> TmConfig {
        loop {
            let s1 = self.seq.load(Ordering::Acquire);
            if s1 & 1 == 1 {
                std::hint::spin_loop();
                continue;
            }
            let backend = self.backend.load(Ordering::Acquire);
            let threads = self.threads.load(Ordering::Acquire);
            let htm = self.htm.load(Ordering::Acquire);
            let durability = self.durability.load(Ordering::Acquire);
            if self.seq.load(Ordering::Acquire) == s1 {
                return TmConfig {
                    backend: BackendId::from_index(backend as usize)
                        .expect("config cell holds invalid backend index"),
                    threads: threads as usize,
                    htm: Self::decode_htm(htm),
                    durability: DurabilityMode::from_index(durability as usize)
                        .expect("config cell holds invalid durability index"),
                };
            }
        }
    }
}

/// The Key Performance Indicator a tuning run optimizes (paper §6.1 uses
/// execution time, throughput and EDP).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Kpi {
    /// Committed transactions per second — maximized.
    Throughput,
    /// Time to complete a fixed workload — minimized.
    ExecTime,
    /// Energy-delay product — minimized.
    Edp,
}

impl Kpi {
    /// Whether larger KPI values are better.
    pub fn higher_is_better(self) -> bool {
        matches!(self, Kpi::Throughput)
    }
}

impl fmt::Display for Kpi {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Kpi::Throughput => "throughput",
            Kpi::ExecTime => "exec-time",
            Kpi::Edp => "edp",
        })
    }
}

/// An enumerated configuration space (the columns of RecTM's Utility
/// Matrix).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigSpace {
    configs: Vec<TmConfig>,
    /// Human-readable name ("machine-a" / "machine-b").
    pub name: &'static str,
}

impl ConfigSpace {
    /// Machine A's space (Table 3): 4 STMs × 8 thread counts, the simulated
    /// HTM × 8 thread counts × 4 budgets × 3 capacity policies, plus two
    /// Hybrid NOrec points — 130 configurations in total, matching §6.1.
    pub fn machine_a() -> Self {
        let mut configs = Vec::new();
        for backend in BackendId::STMS {
            for threads in 1..=8 {
                configs.push(TmConfig::stm(backend, threads));
            }
        }
        for threads in 1..=8 {
            for budget in [2u32, 4, 8, 16] {
                for policy in CapacityPolicy::ALL {
                    configs.push(TmConfig::htm(
                        BackendId::Htm,
                        threads,
                        HtmSetting { budget, policy },
                    ));
                }
            }
        }
        // The two HybridTMs, one point each (the paper includes them in
        // PolyTM but they never win — §6 footnote 4).
        configs.push(TmConfig::htm(
            BackendId::HybridNOrec,
            4,
            HtmSetting::DEFAULT,
        ));
        configs.push(TmConfig::htm(BackendId::HybridTl2, 8, HtmSetting::DEFAULT));
        ConfigSpace {
            configs,
            name: "machine-a",
        }
    }

    /// Machine B's space (Table 3): STMs only, eight thread counts up to 48.
    pub fn machine_b() -> Self {
        let mut configs = Vec::new();
        for backend in BackendId::STMS {
            for threads in [1usize, 2, 4, 6, 8, 16, 32, 48] {
                configs.push(TmConfig::stm(backend, threads));
            }
        }
        ConfigSpace {
            configs,
            name: "machine-b",
        }
    }

    /// Machine A's space extended with the durability dimension: every
    /// Table 3 column plus the Durable backend at each thread count in
    /// both journaling modes (130 + 8 × 2 = 146 configurations).
    pub fn machine_a_durable() -> Self {
        let mut space = Self::machine_a();
        for threads in 1..=8 {
            for mode in [DurabilityMode::Buffered, DurabilityMode::Strict] {
                space.configs.push(TmConfig::durable(threads, mode));
            }
        }
        space.name = "machine-a+durable";
        space
    }

    /// Machine B's space extended with the durability dimension
    /// (32 + 8 × 2 = 48 configurations).
    pub fn machine_b_durable() -> Self {
        let mut space = Self::machine_b();
        for threads in [1usize, 2, 4, 6, 8, 16, 32, 48] {
            for mode in [DurabilityMode::Buffered, DurabilityMode::Strict] {
                space.configs.push(TmConfig::durable(threads, mode));
            }
        }
        space.name = "machine-b+durable";
        space
    }

    /// The configurations, in stable column order.
    pub fn configs(&self) -> &[TmConfig] {
        &self.configs
    }

    /// Number of configurations (UM columns).
    pub fn len(&self) -> usize {
        self.configs.len()
    }

    /// Whether the space is empty.
    pub fn is_empty(&self) -> bool {
        self.configs.is_empty()
    }

    /// Column index of a configuration, if present.
    pub fn index_of(&self, c: &TmConfig) -> Option<usize> {
        self.configs.iter().position(|x| x == c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn machine_a_has_130_configs() {
        let space = ConfigSpace::machine_a();
        assert_eq!(space.len(), 130);
        // 32 STM points.
        assert_eq!(
            space.configs().iter().filter(|c| c.htm.is_none()).count(),
            32
        );
    }

    #[test]
    fn machine_b_has_32_stm_configs() {
        let space = ConfigSpace::machine_b();
        assert_eq!(space.len(), 32);
        assert!(space.configs().iter().all(|c| c.htm.is_none()));
        assert!(space.configs().iter().all(|c| !c.backend.is_hardware()));
    }

    #[test]
    fn durable_spaces_extend_the_classic_ones() {
        let a = ConfigSpace::machine_a_durable();
        assert_eq!(a.len(), 146);
        assert_eq!(&a.configs()[..130], ConfigSpace::machine_a().configs());
        let b = ConfigSpace::machine_b_durable();
        assert_eq!(b.len(), 48);
        assert_eq!(&b.configs()[..32], ConfigSpace::machine_b().configs());
        for space in [&a, &b] {
            for c in space.configs() {
                assert!(c.durability_coherent(), "incoherent config {c}");
            }
        }
    }

    #[test]
    fn configs_are_unique() {
        for space in [
            ConfigSpace::machine_a(),
            ConfigSpace::machine_b(),
            ConfigSpace::machine_a_durable(),
            ConfigSpace::machine_b_durable(),
        ] {
            let mut seen = std::collections::HashSet::new();
            for c in space.configs() {
                assert!(seen.insert(*c), "duplicate config {c}");
            }
        }
    }

    #[test]
    fn display_matches_paper_style() {
        let c = TmConfig::htm(
            BackendId::Htm,
            8,
            HtmSetting {
                budget: 20,
                policy: CapacityPolicy::Halve,
            },
        );
        assert_eq!(c.to_string(), "HTM:8t Half-20");
        assert_eq!(TmConfig::stm(BackendId::NOrec, 4).to_string(), "NOrec:4t");
        assert_eq!(
            TmConfig::durable(4, DurabilityMode::Strict).to_string(),
            "Durable:4t +strict"
        );
    }

    #[test]
    fn index_of_roundtrips() {
        let space = ConfigSpace::machine_a();
        for (i, c) in space.configs().iter().enumerate() {
            assert_eq!(space.index_of(c), Some(i));
        }
        assert_eq!(space.index_of(&TmConfig::stm(BackendId::Tl2, 99)), None);
    }

    #[test]
    fn from_index_roundtrips() {
        for b in BackendId::ALL {
            assert_eq!(BackendId::from_index(b.index()), Some(b));
        }
        assert_eq!(BackendId::from_index(BackendId::ALL.len()), None);
    }

    #[test]
    fn config_cell_roundtrips_every_shape() {
        // Every backend × several thread counts (including the invalid-but-
        // storable counts validation tests use) × HTM settings.
        for backend in BackendId::ALL {
            for threads in [0usize, 1, 2, 8, 9, 48, 99] {
                for htm in [
                    None,
                    Some(HtmSetting::DEFAULT),
                    Some(HtmSetting {
                        budget: u32::MAX,
                        policy: CapacityPolicy::Halve,
                    }),
                    Some(HtmSetting {
                        budget: 0,
                        policy: CapacityPolicy::GiveUp,
                    }),
                ] {
                    for durability in DurabilityMode::ALL {
                        let c = TmConfig {
                            backend,
                            threads,
                            htm,
                            durability,
                        };
                        let cell = ConfigCell::new(c);
                        assert_eq!(cell.load(), c);
                        // Overwrite with something else and back.
                        cell.store(TmConfig::stm(BackendId::NOrec, 3));
                        assert_eq!(cell.load(), TmConfig::stm(BackendId::NOrec, 3));
                        cell.store(c);
                        assert_eq!(cell.load(), c);
                    }
                }
            }
        }
    }

    #[test]
    fn config_cell_readers_never_see_torn_configs() {
        // Hammer the cell from reader threads while one writer alternates
        // between two configurations; every loaded value must be exactly
        // one of the two.
        use std::sync::atomic::{AtomicBool, Ordering};
        let a = TmConfig::stm(BackendId::Tl2, 1);
        let b = TmConfig::htm(BackendId::Htm, 8, HtmSetting::DEFAULT);
        let cell = ConfigCell::new(a);
        let stop = AtomicBool::new(false);
        std::thread::scope(|s| {
            for _ in 0..3 {
                s.spawn(|| {
                    while !stop.load(Ordering::Relaxed) {
                        let got = cell.load();
                        assert!(got == a || got == b, "torn config: {got}");
                    }
                });
            }
            for i in 0..20_000u32 {
                cell.store(if i % 2 == 0 { b } else { a });
            }
            stop.store(true, Ordering::SeqCst);
        });
    }

    #[test]
    fn kpi_direction() {
        assert!(Kpi::Throughput.higher_is_better());
        assert!(!Kpi::ExecTime.higher_is_better());
        assert!(!Kpi::Edp.higher_is_better());
    }
}
