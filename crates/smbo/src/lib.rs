//! Sequential Model-based Bayesian Optimization (paper §5.2).
//!
//! RecTM's Controller steers the on-line profiling of a new workload with
//! SMBO: a probabilistic model (a bagging ensemble of CF learners) supplies
//! a predictive mean and variance per unexplored configuration; an
//! *acquisition function* picks the next configuration to sample; a
//! *stopping rule* decides when further exploration is no longer worth it.
//!
//! This crate is model-agnostic: anything that yields `(µ, σ²)` per
//! candidate plugs in. It provides the pieces; the loop that joins them is
//! `rectm::Controller`'s. They are
//!
//! * the closed-form Gaussian **Expected Improvement**
//!   `EI = σ · (u·Φ(u) + φ(u))` (§5.2),
//! * the competing acquisition policies of Fig. 5 (`Variance`, `Greedy`,
//!   `Random`),
//! * the **Cautious** stopping criterion and the **Naive** baseline of
//!   Fig. 6.
#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod acquisition;
mod gaussian;
mod stopping;

pub use acquisition::{Acquisition, Candidate};
pub use gaussian::{ei_upper_bound, expected_improvement, norm_cdf, norm_pdf};
pub use stopping::{StopState, StoppingRule};

/// Whether the optimized KPI is maximized (throughput) or minimized
/// (execution time, EDP).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Goal {
    /// Larger KPI values are better.
    Maximize,
    /// Smaller KPI values are better.
    Minimize,
}

impl Goal {
    /// Whether `a` is a better KPI than `b` under this goal.
    #[inline]
    pub fn better(self, a: f64, b: f64) -> bool {
        match self {
            Goal::Maximize => a > b,
            Goal::Minimize => a < b,
        }
    }

    /// The better of two KPI values.
    #[inline]
    pub fn best(self, a: f64, b: f64) -> f64 {
        if self.better(a, b) {
            a
        } else {
            b
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn goal_comparisons() {
        assert!(Goal::Maximize.better(2.0, 1.0));
        assert!(Goal::Minimize.better(1.0, 2.0));
        assert_eq!(Goal::Maximize.best(2.0, 1.0), 2.0);
        assert_eq!(Goal::Minimize.best(2.0, 1.0), 1.0);
    }
}
