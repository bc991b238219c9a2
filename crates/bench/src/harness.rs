//! Shared plumbing for the experiments: corpora, ground-truth matrices,
//! splits, metrics glue and plain-text table rendering.

use polytm::{Kpi, TmConfig};
use rand::rngs::StdRng;
use rand::{seq::SliceRandom, Rng, SeedableRng};
use recsys::UtilityMatrix;
use smbo::Goal;
use tmsim::{corpus_with_families, MachineModel, PerfModel, Workload, WorkloadFamily};

/// The trace families used in §6.3 ("STAMP and Data Structures").
pub const TRACE_FAMILIES: [WorkloadFamily; 12] = [
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
];

/// A generated evaluation corpus plus its ground-truth KPI matrix.
pub struct Bench {
    /// The machine's performance model.
    pub model: PerfModel,
    /// The workloads (rows).
    pub workloads: Vec<Workload>,
    /// The configurations (columns).
    pub configs: Vec<TmConfig>,
    /// `truth[row][col]` KPI values (with reproducible measurement noise).
    pub truth: Vec<Vec<f64>>,
    /// KPI direction.
    pub goal: Goal,
    /// The KPI.
    pub kpi: Kpi,
}

impl Bench {
    /// Build a corpus of `n` workloads on `machine`, measured (through the
    /// model, with noise) for every configuration of the machine's space.
    ///
    /// Rows are generated on the [`parx`] worker pool. Each cell's
    /// measurement noise is seeded from `(workload.id, config index)`, so
    /// the matrix is bit-identical at every job count.
    pub fn new(machine: MachineModel, kpi: Kpi, n: usize, seed: u64) -> Self {
        let model = PerfModel::new(machine);
        let workloads = corpus_with_families(&TRACE_FAMILIES, n, seed);
        let space = model.machine().config_space();
        let configs = space.configs().to_vec();
        let truth: Vec<Vec<f64>> = parx::par_map(&workloads, |w| {
            configs
                .iter()
                .enumerate()
                .map(|(i, c)| model.noisy_kpi(w.id, &w.spec, c, i, kpi, 0))
                .collect()
        });
        let goal = if kpi.higher_is_better() {
            Goal::Maximize
        } else {
            Goal::Minimize
        };
        Bench {
            model,
            workloads,
            configs,
            truth,
            goal,
            kpi,
        }
    }

    /// Split row indices into (train, test) with the given train fraction.
    pub fn split(&self, train_frac: f64, seed: u64) -> (Vec<usize>, Vec<usize>) {
        let mut idx: Vec<usize> = (0..self.workloads.len()).collect();
        idx.shuffle(&mut StdRng::seed_from_u64(seed));
        let k = ((idx.len() as f64) * train_frac).round() as usize;
        let k = k.clamp(1, idx.len().saturating_sub(1).max(1));
        let (train, test) = idx.split_at(k);
        (train.to_vec(), test.to_vec())
    }

    /// A fully-known Utility Matrix of the given rows.
    pub fn matrix_of(&self, rows: &[usize]) -> UtilityMatrix {
        UtilityMatrix::from_rows(
            rows.iter()
                .map(|&r| self.truth[r].iter().map(|&v| Some(v)).collect())
                .collect(),
        )
    }

    /// Best KPI of a row (respecting the goal).
    pub fn best_kpi(&self, row: usize) -> f64 {
        let it = self.truth[row].iter().copied();
        match self.goal {
            Goal::Maximize => it.fold(f64::NEG_INFINITY, f64::max),
            Goal::Minimize => it.fold(f64::INFINITY, f64::min),
        }
    }

    /// Distance-from-optimum of choosing `col` for `row`.
    pub fn dfo(&self, row: usize, col: usize) -> f64 {
        recsys::dfo(self.best_kpi(row), self.truth[row][col])
    }

    /// `k` distinct random columns, forcing `forced` (if any) to be among
    /// them — every scheme gets exactly `k` observations.
    pub fn sample_columns(&self, k: usize, forced: Option<usize>, rng: &mut StdRng) -> Vec<usize> {
        let ncols = self.configs.len();
        let mut cols: Vec<usize> = (0..ncols).collect();
        cols.shuffle(rng);
        cols.truncate(k.min(ncols));
        if let Some(f) = forced {
            if !cols.contains(&f) {
                let victim = rng.gen_range(0..cols.len());
                cols[victim] = f;
            }
        }
        cols
    }
}

/// Render an aligned plain-text table.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line = |cells: Vec<String>| {
        let mut s = String::new();
        for (i, c) in cells.iter().enumerate() {
            s.push_str(&format!("{:>w$}  ", c, w = widths[i]));
        }
        println!("{}", s.trim_end());
    };
    line(headers.iter().map(|h| h.to_string()).collect());
    line(widths.iter().map(|w| "-".repeat(*w)).collect());
    for row in rows {
        line(row.clone());
    }
}

/// Format a float with 3 significant-ish decimals.
pub fn f3(v: f64) -> String {
    if v == 0.0 {
        "0".into()
    } else if v.abs() >= 100.0 {
        format!("{v:.0}")
    } else if v.abs() >= 1.0 {
        format!("{v:.2}")
    } else {
        format!("{v:.4}")
    }
}

/// Percentile over a sample (delegates to recsys).
pub fn pct(sample: &[f64], p: f64) -> f64 {
    recsys::percentile(sample, p)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_shapes_are_consistent() {
        let b = Bench::new(MachineModel::machine_a(), Kpi::ExecTime, 24, 7);
        assert_eq!(b.workloads.len(), 24);
        assert_eq!(b.truth.len(), 24);
        assert_eq!(b.truth[0].len(), 130);
        assert_eq!(b.goal, Goal::Minimize);
        let (train, test) = b.split(0.3, 1);
        assert_eq!(train.len() + test.len(), 24);
        assert!(!train.is_empty() && !test.is_empty());
    }

    #[test]
    fn dfo_is_zero_at_the_optimum() {
        let b = Bench::new(MachineModel::machine_b(), Kpi::Throughput, 12, 3);
        for row in 0..12 {
            let best_col = (0..b.configs.len())
                .max_by(|&x, &y| b.truth[row][x].total_cmp(&b.truth[row][y]))
                .unwrap();
            assert!(b.dfo(row, best_col) < 1e-12);
        }
    }

    #[test]
    fn sample_columns_respects_forced() {
        let b = Bench::new(MachineModel::machine_b(), Kpi::Throughput, 4, 3);
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..50 {
            let cols = b.sample_columns(3, Some(17), &mut rng);
            assert_eq!(cols.len(), 3);
            assert!(cols.contains(&17));
            let set: std::collections::HashSet<_> = cols.iter().collect();
            assert_eq!(set.len(), 3);
        }
    }
}
