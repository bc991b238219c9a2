//! RecTM: the recommendation subsystem of ProteusTM (paper §5).
//!
//! RecTM identifies the best PolyTM configuration for the running workload
//! by combining three modules, reproduced here one-to-one:
//!
//! * [`Recommender`] (§5.1) — a CF-based performance predictor over a
//!   normalized Utility Matrix;
//! * [`Controller`] (§5.2) — Sequential Model-based Bayesian Optimization
//!   steering which configurations to profile on-line, with Expected
//!   Improvement over a bagging ensemble of CF learners and the Cautious
//!   stopping rule;
//! * [`Monitor`] (§5.3) — Adaptive-CUSUM change detection on the KPI
//!   stream, triggering re-optimization when the workload (or the
//!   environment) shifts.
//!
//! [`RecTm`] wires them into the Algorithm 2 workflow: off-line training on
//! a base set of applications, then on-line profiling + recommendation per
//! incoming workload; [`Controller::run_online`] is its on-line loop.
#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod controller;
mod monitor;
mod online;
mod recommender;
mod workflow;

pub use controller::{Controller, ControllerSettings, Exploration};
pub use monitor::{Monitor, MonitorSettings};
pub use online::Tick;
pub use recommender::Recommender;
pub use workflow::{NormalizationChoice, RecTm, RecTmOptions};

/// One test of this binary at a time, whole body included: a trace capture
/// records every event the process emits, so a sibling test's Monitor
/// spans would land in another test's capture.
#[cfg(test)]
fn serial() -> std::sync::MutexGuard<'static, ()> {
    static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());
    // The lock guards no data, so a sibling's failed assertion must not
    // fail this test too.
    SERIAL
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}
