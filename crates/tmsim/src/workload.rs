//! Workload descriptors: the features that drive the performance model.
//!
//! These features are *never shown to RecTM* (which only observes KPIs);
//! they are, however, exactly what the Wang-et-al-style ML baselines of
//! Fig. 7 train on — mirroring the paper's methodological contrast.

use std::fmt;

/// The synthetic analogue of one TM application workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadSpec {
    /// Intrinsic (uninstrumented, single-thread) transaction duration in
    /// microseconds.
    pub base_tx_us: f64,
    /// Average read-set size in words.
    pub reads: f64,
    /// Average write-set size in words.
    pub writes: f64,
    /// Data-contention intensity in `[0, 1]`.
    pub contention: f64,
    /// Fraction of transactions that update (vs read-only).
    pub update_frac: f64,
    /// Inherently parallelizable fraction (Amdahl) in `[0, 1]`.
    pub scalability: f64,
    /// Per-attempt probability that the transaction fits HTM capacity.
    pub htm_fit: f64,
    /// Multiplicative log-normal measurement noise (σ).
    pub noise: f64,
    /// Number of transactions in one "run" (defines the exec-time KPI).
    pub work_txs: f64,
}

impl Default for WorkloadSpec {
    fn default() -> Self {
        WorkloadSpec {
            base_tx_us: 2.0,
            reads: 40.0,
            writes: 8.0,
            contention: 0.2,
            update_frac: 0.5,
            scalability: 0.9,
            htm_fit: 0.8,
            noise: 0.03,
            work_txs: 1e6,
        }
    }
}

/// The 15 application families of Table 1, with the workload character the
/// paper (and the STAMP characterization) attributes to each.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum WorkloadFamily {
    // STAMP
    Genome,
    Intruder,
    Kmeans,
    Labyrinth,
    Ssca2,
    Vacation,
    Yada,
    Bayes,
    // Data structures
    RedBlackTree,
    SkipList,
    LinkedList,
    HashMap,
    // Larger applications
    StmBench7,
    TpcC,
    Memcached,
}

impl WorkloadFamily {
    /// Every family.
    pub const ALL: [WorkloadFamily; 15] = [
        WorkloadFamily::Genome,
        WorkloadFamily::Intruder,
        WorkloadFamily::Kmeans,
        WorkloadFamily::Labyrinth,
        WorkloadFamily::Ssca2,
        WorkloadFamily::Vacation,
        WorkloadFamily::Yada,
        WorkloadFamily::Bayes,
        WorkloadFamily::RedBlackTree,
        WorkloadFamily::SkipList,
        WorkloadFamily::LinkedList,
        WorkloadFamily::HashMap,
        WorkloadFamily::StmBench7,
        WorkloadFamily::TpcC,
        WorkloadFamily::Memcached,
    ];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            WorkloadFamily::Genome => "genome",
            WorkloadFamily::Intruder => "intruder",
            WorkloadFamily::Kmeans => "kmeans",
            WorkloadFamily::Labyrinth => "labyrinth",
            WorkloadFamily::Ssca2 => "ssca2",
            WorkloadFamily::Vacation => "vacation",
            WorkloadFamily::Yada => "yada",
            WorkloadFamily::Bayes => "bayes",
            WorkloadFamily::RedBlackTree => "red-black-tree",
            WorkloadFamily::SkipList => "skip-list",
            WorkloadFamily::LinkedList => "linked-list",
            WorkloadFamily::HashMap => "hash-map",
            WorkloadFamily::StmBench7 => "stmbench7",
            WorkloadFamily::TpcC => "tpc-c",
            WorkloadFamily::Memcached => "memcached",
        }
    }

    /// The family's base characteristics (perturbed per workload instance
    /// by the corpus generator).
    pub fn base_spec(self) -> WorkloadSpec {
        let d = WorkloadSpec::default();
        match self {
            // Low-contention genomic matching: short txs, scalable,
            // HTM-friendly.
            WorkloadFamily::Genome => WorkloadSpec {
                base_tx_us: 1.2,
                reads: 30.0,
                writes: 6.0,
                contention: 0.08,
                update_frac: 0.5,
                scalability: 0.95,
                htm_fit: 0.9,
                ..d
            },
            // High contention, short txs, abort-prone.
            WorkloadFamily::Intruder => WorkloadSpec {
                base_tx_us: 0.9,
                reads: 25.0,
                writes: 10.0,
                contention: 0.65,
                update_frac: 0.85,
                scalability: 0.8,
                htm_fit: 0.85,
                ..d
            },
            // Tiny txs on shared centroids, moderate contention.
            WorkloadFamily::Kmeans => WorkloadSpec {
                base_tx_us: 0.5,
                reads: 12.0,
                writes: 6.0,
                contention: 0.35,
                update_frac: 0.9,
                scalability: 0.9,
                htm_fit: 0.95,
                ..d
            },
            // Enormous transactions (grid copies): capacity-hostile, few
            // long txs, low parallelism.
            WorkloadFamily::Labyrinth => WorkloadSpec {
                base_tx_us: 900.0,
                reads: 4000.0,
                writes: 1500.0,
                contention: 0.3,
                update_frac: 1.0,
                scalability: 0.75,
                htm_fit: 0.01,
                work_txs: 2e3,
                ..d
            },
            // Tiny independent updates: embarrassingly parallel.
            WorkloadFamily::Ssca2 => WorkloadSpec {
                base_tx_us: 0.4,
                reads: 6.0,
                writes: 3.0,
                contention: 0.03,
                update_frac: 0.95,
                scalability: 0.97,
                htm_fit: 0.97,
                ..d
            },
            // Medium OLTP-style txs over trees.
            WorkloadFamily::Vacation => WorkloadSpec {
                base_tx_us: 6.0,
                reads: 180.0,
                writes: 25.0,
                contention: 0.15,
                update_frac: 0.8,
                scalability: 0.92,
                htm_fit: 0.5,
                ..d
            },
            // Delaunay refinement: large irregular txs.
            WorkloadFamily::Yada => WorkloadSpec {
                base_tx_us: 25.0,
                reads: 600.0,
                writes: 180.0,
                contention: 0.4,
                update_frac: 1.0,
                scalability: 0.8,
                htm_fit: 0.1,
                ..d
            },
            // Long learner txs, very high contention.
            WorkloadFamily::Bayes => WorkloadSpec {
                base_tx_us: 60.0,
                reads: 900.0,
                writes: 220.0,
                contention: 0.7,
                update_frac: 0.95,
                scalability: 0.6,
                htm_fit: 0.05,
                work_txs: 1e4,
                ..d
            },
            WorkloadFamily::RedBlackTree => WorkloadSpec {
                base_tx_us: 0.8,
                reads: 35.0,
                writes: 8.0,
                contention: 0.25,
                update_frac: 0.3,
                scalability: 0.93,
                htm_fit: 0.85,
                ..d
            },
            WorkloadFamily::SkipList => WorkloadSpec {
                base_tx_us: 1.0,
                reads: 45.0,
                writes: 9.0,
                contention: 0.2,
                update_frac: 0.3,
                scalability: 0.93,
                htm_fit: 0.8,
                ..d
            },
            // Long list traversals: huge read sets, serial by nature.
            WorkloadFamily::LinkedList => WorkloadSpec {
                base_tx_us: 8.0,
                reads: 800.0,
                writes: 4.0,
                contention: 0.5,
                update_frac: 0.2,
                scalability: 0.55,
                htm_fit: 0.15,
                ..d
            },
            WorkloadFamily::HashMap => WorkloadSpec {
                base_tx_us: 0.4,
                reads: 8.0,
                writes: 4.0,
                contention: 0.1,
                update_frac: 0.4,
                scalability: 0.96,
                htm_fit: 0.96,
                ..d
            },
            // Mixed long traversals and short ops over a big object graph.
            WorkloadFamily::StmBench7 => WorkloadSpec {
                base_tx_us: 40.0,
                reads: 1200.0,
                writes: 60.0,
                contention: 0.45,
                update_frac: 0.4,
                scalability: 0.7,
                htm_fit: 0.08,
                work_txs: 1e5,
                ..d
            },
            // OLTP with sizable read/write sets, warehouse hot spots.
            WorkloadFamily::TpcC => WorkloadSpec {
                base_tx_us: 30.0,
                reads: 400.0,
                writes: 120.0,
                contention: 0.5,
                update_frac: 0.92,
                scalability: 0.8,
                htm_fit: 0.15,
                work_txs: 1e5,
                ..d
            },
            // Very short cache ops, read-dominated.
            WorkloadFamily::Memcached => WorkloadSpec {
                base_tx_us: 0.3,
                reads: 10.0,
                writes: 3.0,
                contention: 0.12,
                update_frac: 0.15,
                scalability: 0.95,
                htm_fit: 0.97,
                ..d
            },
        }
    }
}

impl fmt::Display for WorkloadFamily {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_families_have_sane_specs() {
        for fam in WorkloadFamily::ALL {
            let s = fam.base_spec();
            assert!(s.base_tx_us > 0.0, "{fam}");
            assert!((0.0..=1.0).contains(&s.contention), "{fam}");
            assert!((0.0..=1.0).contains(&s.update_frac), "{fam}");
            assert!((0.0..=1.0).contains(&s.scalability), "{fam}");
            assert!((0.0..=1.0).contains(&s.htm_fit), "{fam}");
            assert!(s.work_txs > 0.0, "{fam}");
        }
    }

    #[test]
    fn families_are_heterogeneous() {
        // Transaction durations must span orders of magnitude — the rating
        // heterogeneity problem the paper's normalization solves.
        let durations: Vec<f64> = WorkloadFamily::ALL
            .iter()
            .map(|f| f.base_spec().base_tx_us)
            .collect();
        let min = durations.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = durations.iter().cloned().fold(0.0, f64::max);
        assert!(max / min > 100.0);
    }

    #[test]
    fn labyrinth_is_capacity_hostile_memcached_is_not() {
        assert!(WorkloadFamily::Labyrinth.base_spec().htm_fit < 0.05);
        assert!(WorkloadFamily::Memcached.base_spec().htm_fit > 0.9);
    }
}
