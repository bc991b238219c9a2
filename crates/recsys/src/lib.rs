//! Collaborative filtering for performance prediction (paper §5.1).
//!
//! RecTM casts "which TM configuration is best for this workload?" as a
//! recommendation problem: workloads are users, configurations are items,
//! KPI-derived ratings fill a sparse [`UtilityMatrix`]. This crate provides:
//!
//! * the matrix and its **normalization schemes** — including the paper's
//!   novel **rating distillation** (Algorithm 3) and the baselines it is
//!   evaluated against in Fig. 4 (no normalization, normalization w.r.t. a
//!   global maximum, row-column subtraction, and the oracle "ideal"
//!   normalization);
//! * two CF families: user-based **KNN** (Euclidean / Cosine / Pearson
//!   similarities) and **matrix factorization** trained by SGD;
//! * **bagging ensembles** providing the predictive mean and variance the
//!   Bayesian Controller needs;
//! * **hyper-parameter selection** by random search with k-fold
//!   cross-validation (paper §5.1 "Tuning the Recommender");
//! * the paper's accuracy metrics, **MAPE** and **MDFO** (§6.1).
#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bagging;
mod knn;
mod matrix;
mod metrics;
mod mf;
mod normalize;
mod predictor;
mod tuning;

pub use bagging::{BaggingEnsemble, EnsembleWorkspace};
pub use knn::{KnnModel, Similarity};
pub use matrix::{Row, UtilityMatrix};
pub use metrics::{dfo, mape, mdfo, percentile};
pub use mf::{MfModel, MfParams};
pub use normalize::{DistillationNorm, GlobalMaxNorm, IdealNorm, NoNorm, Normalization, RcNorm};
pub use predictor::{CfAlgorithm, CfPredictor};
pub use tuning::{tune_cf, CvReport, TuningOptions};
