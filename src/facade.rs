//! The ProteusTM facade: a PolyTM runtime managed by RecTM.

use polytm::{ConfigSpace, Kpi, PolyTm, TmConfig};
use recsys::UtilityMatrix;
use rectm::{Exploration, Monitor, RecTm, RecTmOptions, Tick};
use smbo::Goal;
use std::fmt;
use std::sync::Arc;
use tmsim::{corpus, MachineModel, PerfModel};

/// The result of one on-line optimization round.
#[derive(Debug, Clone, PartialEq)]
pub struct OptimizeOutcome {
    /// The configuration ProteusTM settled on (already applied).
    pub chosen: TmConfig,
    /// The exploration trace (which configurations were profiled).
    pub exploration: Exploration,
}

/// Builder for [`ProteusTm`].
pub struct ProteusTmBuilder {
    heap_words: usize,
    max_threads: usize,
    kpi: Kpi,
    training: Option<UtilityMatrix>,
    training_workloads: usize,
    options: Option<RecTmOptions>,
}

impl ProteusTmBuilder {
    /// Transactional heap size in words.
    pub fn heap_words(mut self, words: usize) -> Self {
        self.heap_words = words;
        self
    }

    /// Maximum application threads (bounds the tuning space's thread
    /// dimension).
    pub fn max_threads(mut self, n: usize) -> Self {
        self.max_threads = n.max(1);
        self
    }

    /// The KPI to optimize.
    pub fn kpi(mut self, kpi: Kpi) -> Self {
        self.kpi = kpi;
        self
    }

    /// Provide an explicit off-line training matrix (rows = workloads,
    /// columns = this runtime's [`ProteusTm::space`] configurations). When
    /// omitted, a training matrix is synthesized from the `tmsim` workload
    /// corpus — the paper's off-line profiling step, replayed through the
    /// performance model (DESIGN.md §2).
    pub fn training_matrix(mut self, m: UtilityMatrix) -> Self {
        self.training = Some(m);
        self
    }

    /// Number of synthesized training workloads (when no explicit matrix).
    pub fn training_workloads(mut self, n: usize) -> Self {
        self.training_workloads = n;
        self
    }

    /// Override the RecTM options (normalization, CF tuning, SMBO knobs).
    pub fn rectm_options(mut self, options: RecTmOptions) -> Self {
        self.options = Some(options);
        self
    }

    /// Assemble the managed runtime (fits the whole learning pipeline).
    ///
    /// # Panics
    ///
    /// Panics if an explicit training matrix's width does not match the
    /// configuration space.
    pub fn build(self) -> ProteusTm {
        let goal = if self.kpi.higher_is_better() {
            Goal::Maximize
        } else {
            Goal::Minimize
        };
        // The tuning space: Machine A's Table 3 space clamped to the
        // runtime's thread capacity.
        let full = ConfigSpace::machine_a();
        let keep: Vec<usize> = (0..full.len())
            .filter(|&i| full.configs()[i].threads <= self.max_threads)
            .collect();
        let configs: Vec<TmConfig> = keep.iter().map(|&i| full.configs()[i]).collect();

        let training = self.training.unwrap_or_else(|| {
            let model = PerfModel::new(MachineModel::machine_a());
            let workloads = corpus(self.training_workloads, 0xBA5E);
            let rows = workloads
                .iter()
                .map(|w| {
                    keep.iter()
                        .map(|&i| {
                            Some(model.noisy_kpi(w.id, &w.spec, &full.configs()[i], i, self.kpi, 0))
                        })
                        .collect()
                })
                .collect();
            UtilityMatrix::from_rows(rows)
        });
        assert_eq!(
            training.ncols(),
            configs.len(),
            "training matrix width must match the configuration space"
        );
        let options = self.options.unwrap_or_else(|| RecTmOptions {
            goal,
            tuning: recsys::TuningOptions {
                n_candidates: 6,
                knn_only: true,
                ..recsys::TuningOptions::default()
            },
            ..RecTmOptions::default()
        });
        let rectm = RecTm::offline(&training, RecTmOptions { goal, ..options });
        let poly = Arc::new(
            PolyTm::builder()
                .heap_words(self.heap_words)
                .max_threads(self.max_threads)
                .build(),
        );
        ProteusTm {
            poly,
            rectm,
            configs,
            kpi: self.kpi,
        }
    }
}

/// A PolyTM runtime managed by RecTM: the full ProteusTM system.
pub struct ProteusTm {
    poly: Arc<PolyTm>,
    rectm: RecTm,
    configs: Vec<TmConfig>,
    kpi: Kpi,
}

impl ProteusTm {
    /// Start building a managed runtime.
    pub fn builder() -> ProteusTmBuilder {
        ProteusTmBuilder {
            heap_words: 1 << 20,
            max_threads: 8,
            kpi: Kpi::Throughput,
            training: None,
            training_workloads: 60,
            options: None,
        }
    }

    /// The underlying polymorphic runtime (register threads, run
    /// transactions, inspect statistics).
    pub fn poly(&self) -> &Arc<PolyTm> {
        &self.poly
    }

    /// The tuner.
    pub fn rectm(&self) -> &RecTm {
        &self.rectm
    }

    /// The KPI being optimized.
    pub fn kpi(&self) -> Kpi {
        self.kpi
    }

    /// The tuning space (the Utility Matrix columns).
    pub fn space(&self) -> &[TmConfig] {
        &self.configs
    }

    /// One optimization round: `measure` must apply no configuration itself
    /// — ProteusTM applies each candidate and calls it to obtain the KPI of
    /// the *current* configuration (e.g. by running the application for a
    /// profiling quantum). The best found configuration is left applied.
    pub fn optimize(&self, measure: &mut dyn FnMut(&TmConfig) -> f64) -> OptimizeOutcome {
        let exploration = self.rectm.optimize_workload(&mut |idx| {
            let config = &self.configs[idx];
            self.poly
                .apply(config)
                .expect("space is clamped to runtime capacity");
            measure(config)
        });
        let chosen = self.configs[exploration.recommended];
        self.poly.apply(&chosen).expect("chosen config is valid");
        OptimizeOutcome {
            chosen,
            exploration,
        }
    }

    /// A steady-state change detector wired to this tuner's settings; feed
    /// it KPI samples and re-run [`ProteusTm::optimize`] when it fires.
    pub fn monitor(&self) -> Monitor {
        self.rectm.monitor()
    }

    /// The complete online loop of the paper (Fig. 2),
    /// [`rectm::Controller::run_online`] on this runtime: each tick applies
    /// its configuration, and `measure(config, tick)` runs the application
    /// for one profiling quantum in it and returns the KPI. The record
    /// holds every tick, explorations included; the last tick's
    /// configuration is left applied.
    pub fn run_managed(
        &self,
        measure: &mut dyn FnMut(&TmConfig, usize) -> f64,
        ticks: usize,
    ) -> Vec<Tick> {
        self.rectm
            .controller()
            .run_online(&mut self.monitor(), ticks, &mut |idx, tick| {
                let config = &self.configs[idx];
                if *config != self.poly.current_config() {
                    self.poly
                        .apply(config)
                        .expect("space is clamped to runtime capacity");
                }
                measure(config, tick)
            })
    }
}

impl fmt::Debug for ProteusTm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ProteusTm")
            .field("kpi", &self.kpi)
            .field("space", &self.configs.len())
            .field("config", &self.poly.current_config())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_produces_clamped_space() {
        let p = ProteusTm::builder()
            .heap_words(1 << 10)
            .max_threads(2)
            .training_workloads(20)
            .build();
        assert!(!p.space().is_empty());
        assert!(p.space().iter().all(|c| c.threads <= 2));
        assert_eq!(p.kpi(), Kpi::Throughput);
    }

    #[test]
    fn run_managed_reoptimizes_on_behaviour_change() {
        let p = ProteusTm::builder()
            .heap_words(1 << 10)
            .max_threads(2)
            .training_workloads(20)
            .build();
        // A synthetic application whose performance regime flips at tick
        // 60: configuration quality inverts, so the Monitor must flag the
        // change and a second optimization round must run.
        let record = p.run_managed(
            &mut |c: &TmConfig, tick| {
                assert_eq!(*c, p.poly().current_config(), "tick {tick}");
                let base = c.threads as f64 * 100.0;
                if tick < 60 {
                    base
                } else {
                    1.0 / c.threads as f64 * 25.0 // collapse: regime change
                }
            },
            100,
        );
        assert!(record.len() >= 100);
        let alarms: Vec<usize> = (0..record.len()).filter(|&t| record[t].alarm).collect();
        assert!(!alarms.is_empty(), "the regime flip must be detected");
        for &t in &alarms {
            assert!(
                record.get(t + 1).is_none_or(|next| next.exploring),
                "the alarm at tick {t} starts no round"
            );
        }
        let last_steady = record.iter().rev().find(|t| !t.exploring).unwrap();
        assert!(!record.last().unwrap().exploring, "the run ends steady");
        assert_eq!(p.poly().current_config(), p.space()[last_steady.config]);
    }

    #[test]
    fn optimize_applies_the_recommended_config() {
        let p = ProteusTm::builder()
            .heap_words(1 << 10)
            .max_threads(2)
            .training_workloads(20)
            .build();
        // A synthetic measurement: configuration i is exactly as good as
        // the number of threads it grants TL2 and half that otherwise.
        let out = p.optimize(&mut |c: &TmConfig| {
            let base = c.threads as f64;
            if c.backend == polytm::BackendId::Tl2 {
                base * 2.0
            } else {
                base
            }
        });
        assert_eq!(p.poly().current_config(), out.chosen);
        assert!(!out.exploration.is_empty());
    }
}
