//! The RecTM workflow (Algorithm 2): off-line training, on-line
//! per-workload optimization.

use crate::controller::{Controller, ControllerSettings, Exploration};
use crate::monitor::{Monitor, MonitorSettings};
use crate::recommender::{to_scores, Recommender};
use recsys::{
    tune_cf, CfAlgorithm, DistillationNorm, GlobalMaxNorm, IdealNorm, NoNorm, Normalization,
    RcNorm, TuningOptions, UtilityMatrix,
};
use smbo::Goal;
use std::fmt;

/// Which KPI→rating normalization to use (Fig. 4 compares them all).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NormalizationChoice {
    /// Rating distillation (ProteusTM's scheme, Algorithm 3).
    Distillation,
    /// Raw KPIs (Quasar-like).
    None,
    /// One machine-wide constant (Paragon-like).
    GlobalMax,
    /// Row-column mean subtraction.
    Rc,
    /// The oracle per-row maximum (simulation studies only).
    Ideal,
}

impl NormalizationChoice {
    /// All choices, in Fig. 4's order.
    pub const ALL: [NormalizationChoice; 5] = [
        NormalizationChoice::None,
        NormalizationChoice::GlobalMax,
        NormalizationChoice::Rc,
        NormalizationChoice::Ideal,
        NormalizationChoice::Distillation,
    ];

    /// Instantiate a fresh (unfitted) normalizer of this kind.
    pub fn build(self) -> Box<dyn Normalization + Send + Sync> {
        match self {
            NormalizationChoice::Distillation => Box::new(DistillationNorm::new()),
            NormalizationChoice::None => Box::new(NoNorm),
            NormalizationChoice::GlobalMax => Box::new(GlobalMaxNorm::new()),
            NormalizationChoice::Rc => Box::new(RcNorm::new()),
            NormalizationChoice::Ideal => Box::new(IdealNorm),
        }
    }

    /// Display label matching the paper's plots.
    pub fn label(self) -> &'static str {
        match self {
            NormalizationChoice::Distillation => "ProteusTM",
            NormalizationChoice::None => "No norm",
            NormalizationChoice::GlobalMax => "Norm wrt Max",
            NormalizationChoice::Rc => "RC-diff",
            NormalizationChoice::Ideal => "Ideal norm",
        }
    }
}

/// Options of the off-line phase (Algorithm 2 steps 1–3).
#[derive(Debug, Clone)]
pub struct RecTmOptions {
    /// Optimization direction of the target KPI.
    pub goal: Goal,
    /// Normalization scheme.
    pub normalization: NormalizationChoice,
    /// CF algorithm selection budget (random search + CV).
    pub tuning: TuningOptions,
    /// Controller (SMBO) settings.
    pub controller: ControllerSettings,
    /// Monitor settings for steady-state change detection.
    pub monitor: MonitorSettings,
    /// Skip tuning and force a CF algorithm (used by ablations).
    pub fixed_algorithm: Option<CfAlgorithm>,
}

impl Default for RecTmOptions {
    fn default() -> Self {
        RecTmOptions {
            goal: Goal::Maximize,
            normalization: NormalizationChoice::Distillation,
            tuning: TuningOptions::default(),
            controller: ControllerSettings::default(),
            monitor: MonitorSettings::default(),
            fixed_algorithm: None,
        }
    }
}

/// The assembled RecTM subsystem.
pub struct RecTm {
    recommender: Recommender,
    controller: Controller,
    options: RecTmOptions,
    chosen_algorithm: CfAlgorithm,
}

impl RecTm {
    /// Off-line phase: given the raw-KPI training matrix (profiled off-line
    /// over the base applications), select and fit the CF machinery.
    pub fn offline(training_kpis: &UtilityMatrix, options: RecTmOptions) -> Self {
        // Select the CF algorithm by random search + cross-validation on
        // the *normalized* training matrix (§5.1).
        let chosen_algorithm = options.fixed_algorithm.unwrap_or_else(|| {
            let mut norm = options.normalization.build();
            let scores = to_scores(training_kpis, options.goal);
            norm.fit(&scores);
            let ratings = norm.transform_matrix(&scores);
            let report = tune_cf(&ratings, &options.tuning);
            // `offline` is serial driver code: replay the CV candidate/fold
            // spans the tuner buffered on the parx pool.
            report.emit_trace();
            report.best
        });
        let recommender = Recommender::fit(
            training_kpis,
            options.goal,
            options.normalization.build(),
            chosen_algorithm,
        );
        let controller = Controller::fit(
            training_kpis,
            options.goal,
            options.normalization.build(),
            chosen_algorithm,
            options.controller,
        );
        RecTm {
            recommender,
            controller,
            options,
            chosen_algorithm,
        }
    }

    /// The CF algorithm selected off-line.
    pub fn algorithm(&self) -> CfAlgorithm {
        self.chosen_algorithm
    }

    /// The performance-predictor view (for accuracy studies).
    pub fn recommender(&self) -> &Recommender {
        &self.recommender
    }

    /// The exploration engine.
    pub fn controller(&self) -> &Controller {
        &self.controller
    }

    /// On-line phase for one workload: profile a few configurations
    /// (`sample` measures the KPI of a configuration) and recommend.
    pub fn optimize_workload(&self, sample: &mut dyn FnMut(usize) -> f64) -> Exploration {
        self.controller.optimize(sample)
    }

    /// A fresh steady-state change detector.
    pub fn monitor(&self) -> Monitor {
        Monitor::new(self.options.monitor)
    }
}

impl fmt::Debug for RecTm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RecTm")
            .field("normalization", &self.options.normalization)
            .field("algorithm", &self.chosen_algorithm)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use recsys::Similarity;

    fn training() -> UtilityMatrix {
        // Three workload archetypes at mixed scales over 6 configs.
        let mut rows = Vec::new();
        for i in 0..12 {
            let scale = 10f64.powi(i % 3);
            let shape: Vec<f64> = match i % 3 {
                0 => vec![1.0, 2.0, 4.0, 6.0, 7.0, 8.0], // scalable
                1 => vec![8.0, 7.0, 5.0, 3.0, 2.0, 1.0], // anti-scalable
                _ => vec![2.0, 6.0, 8.0, 6.0, 3.0, 1.0], // peak at 2
            };
            rows.push(shape.iter().map(|v| Some(v * scale)).collect());
        }
        UtilityMatrix::from_rows(rows)
    }

    fn opts() -> RecTmOptions {
        RecTmOptions {
            fixed_algorithm: Some(CfAlgorithm::Knn {
                similarity: Similarity::Cosine,
                k: 3,
            }),
            ..RecTmOptions::default()
        }
    }

    #[test]
    fn offline_then_online_finds_optima() {
        let _serial = crate::serial();
        let rectm = RecTm::offline(&training(), opts());
        for (shape, expect) in [
            (vec![1.0, 2.0, 4.0, 6.0, 7.0, 8.0], 5usize),
            (vec![8.0, 7.0, 5.0, 3.0, 2.0, 1.0], 0),
            (vec![2.0, 6.0, 8.0, 6.0, 3.0, 1.0], 2),
        ] {
            let out = rectm.optimize_workload(&mut |c| shape[c] * 3.7);
            assert_eq!(out.recommended, expect, "shape {shape:?}");
        }
    }

    #[test]
    fn tuning_selects_an_algorithm_automatically() {
        let _serial = crate::serial();
        let options = RecTmOptions {
            tuning: TuningOptions {
                n_candidates: 4,
                knn_only: true,
                ..TuningOptions::default()
            },
            ..RecTmOptions::default()
        };
        let rectm = RecTm::offline(&training(), options);
        assert!(matches!(rectm.algorithm(), CfAlgorithm::Knn { .. }));
    }

    #[test]
    fn monitor_integrates() {
        let _serial = crate::serial();
        let rectm = RecTm::offline(&training(), opts());
        let mut mon = rectm.monitor();
        for _ in 0..30 {
            assert!(!mon.observe(100.0));
        }
        let mut hit = false;
        for _ in 0..20 {
            if mon.observe(25.0) {
                hit = true;
                break;
            }
        }
        assert!(hit);
    }
}
