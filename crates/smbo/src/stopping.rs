//! Stopping criteria: when to end the profiling phase (paper §5.2 and the
//! Fig. 6 ablation).

/// A predicate over the exploration history deciding whether to stop.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StoppingRule {
    /// ProteusTM's *Cautious* rule: stop at step `k` only when (i) the EI
    /// decreased over the last two iterations, (ii) the last EI is marginal
    /// (< ε relative to the best sampled KPI), and (iii) the relative KPI
    /// improvement achieved by the previous exploration did not exceed ε.
    Cautious {
        /// The early-stop threshold ε.
        epsilon: f64,
    },
    /// The *Naive* baseline: blindly trust the model and stop as soon as
    /// the expected improvement falls below ε relative to the best KPI.
    Naive {
        /// The early-stop threshold ε.
        epsilon: f64,
    },
}

/// Rolling exploration state fed to a [`StoppingRule`]: the rules read
/// only the last three steps, so that is all it keeps, in place.
#[derive(Debug, Clone, Default)]
pub struct StopState {
    steps: usize,
    /// The last three steps' `(EI, best KPI)`, oldest first.
    last: [(f64, f64); 3],
}

impl StopState {
    /// Fresh state (no explorations recorded).
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one exploration step: the EI of the configuration that was
    /// selected, and the best KPI sampled so far *after* evaluating it.
    pub fn record(&mut self, ei: f64, best_kpi: f64) {
        self.last.rotate_left(1);
        self.last[2] = (ei, best_kpi);
        self.steps += 1;
    }

    /// Number of recorded explorations.
    pub fn steps(&self) -> usize {
        self.steps
    }
}

impl StoppingRule {
    /// Stable short name of the rule ("cautious" / "naive"), for telemetry
    /// and figure labels.
    pub fn name(&self) -> &'static str {
        match self {
            StoppingRule::Cautious { .. } => "cautious",
            StoppingRule::Naive { .. } => "naive",
        }
    }

    /// The rule's early-stop threshold ε.
    pub fn epsilon(&self) -> f64 {
        match *self {
            StoppingRule::Cautious { epsilon } | StoppingRule::Naive { epsilon } => epsilon,
        }
    }

    /// Whether exploration should stop given the recorded history.
    pub fn should_stop(&self, state: &StopState) -> bool {
        let k = state.steps();
        if k == 0 {
            return false;
        }
        // Steps k-2, k-1 and k.
        let [(ei_2, best_2), (ei_1, best_1), (last_ei, last_best)] = state.last;
        let best = last_best.abs().max(1e-12);
        match *self {
            StoppingRule::Naive { epsilon } => last_ei < epsilon * best,
            StoppingRule::Cautious { epsilon } => {
                if k < 3 {
                    return false;
                }
                // (i) EI decreased in the last 2 iterations.
                let decreasing = last_ei < ei_1 && ei_1 < ei_2;
                // (ii) the k-th EI is marginal w.r.t. the best sampled KPI.
                let marginal = last_ei < epsilon * best;
                // (iii) the (k-1)-th exploration barely improved the KPI.
                let prev_best = best_2.abs().max(1e-12);
                let improvement = (best_1 - best_2).abs() / prev_best;
                let stalled = improvement <= epsilon;
                decreasing && marginal && stalled
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_and_epsilons_are_stable() {
        let c = StoppingRule::Cautious { epsilon: 0.01 };
        let n = StoppingRule::Naive { epsilon: 0.05 };
        assert_eq!(c.name(), "cautious");
        assert_eq!(n.name(), "naive");
        assert_eq!(c.epsilon(), 0.01);
        assert_eq!(n.epsilon(), 0.05);
    }

    #[test]
    fn naive_stops_immediately_on_low_ei() {
        let rule = StoppingRule::Naive { epsilon: 0.05 };
        let mut s = StopState::new();
        s.record(0.01, 10.0); // EI 0.01 < 0.5
        assert!(rule.should_stop(&s));
    }

    #[test]
    fn naive_keeps_going_on_high_ei() {
        let rule = StoppingRule::Naive { epsilon: 0.05 };
        let mut s = StopState::new();
        s.record(3.0, 10.0);
        assert!(!rule.should_stop(&s));
    }

    #[test]
    fn cautious_requires_three_steps() {
        let rule = StoppingRule::Cautious { epsilon: 0.05 };
        let mut s = StopState::new();
        s.record(0.0, 10.0);
        assert!(!rule.should_stop(&s));
        s.record(0.0, 10.0);
        assert!(!rule.should_stop(&s), "must not trust a 2-step history");
    }

    #[test]
    fn cautious_stops_on_decreasing_marginal_stalled() {
        let rule = StoppingRule::Cautious { epsilon: 0.05 };
        let mut s = StopState::new();
        s.record(2.0, 10.0);
        s.record(1.0, 10.1);
        s.record(0.1, 10.1); // decreasing EIs, marginal, no improvement
        assert!(rule.should_stop(&s));
    }

    #[test]
    fn cautious_continues_while_ei_rises() {
        let rule = StoppingRule::Cautious { epsilon: 0.05 };
        let mut s = StopState::new();
        s.record(1.0, 10.0);
        s.record(2.0, 10.0); // EI went up: model still learning
        s.record(0.1, 10.0);
        assert!(!rule.should_stop(&s));
    }

    #[test]
    fn cautious_continues_after_recent_improvement() {
        let rule = StoppingRule::Cautious { epsilon: 0.05 };
        let mut s = StopState::new();
        s.record(2.0, 10.0);
        s.record(1.0, 15.0); // the previous exploration improved 50%
        s.record(0.1, 15.0);
        assert!(!rule.should_stop(&s));
    }

    #[test]
    fn lower_epsilon_explores_longer() {
        // A history that satisfies eps=0.10 but not eps=0.01.
        let mut s = StopState::new();
        s.record(2.0, 10.0);
        s.record(1.0, 10.3);
        s.record(0.5, 10.3); // EI ratio 0.048, improvement 0.03
        assert!(StoppingRule::Cautious { epsilon: 0.10 }.should_stop(&s));
        assert!(!StoppingRule::Cautious { epsilon: 0.01 }.should_stop(&s));
    }
}
