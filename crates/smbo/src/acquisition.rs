//! Acquisition functions: which configuration to sample next (Fig. 5
//! compares EI against Variance, Greedy and Random).

use crate::gaussian::{ei_upper_bound, expected_improvement, improvement};
use crate::Goal;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One unexplored configuration as seen by an acquisition function.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Candidate {
    /// Configuration (column) index.
    pub index: usize,
    /// Predictive mean of the KPI.
    pub mu: f64,
    /// Predictive variance of the KPI.
    pub sigma2: f64,
}

/// A strategy for choosing the next configuration to profile.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Acquisition {
    /// Expected Improvement over the best sampled KPI (ProteusTM's choice).
    ExpectedImprovement,
    /// Highest model uncertainty (variance/|mean| ratio): pure exploration.
    Variance,
    /// Best predictive mean: pure exploitation.
    Greedy,
    /// Uniformly random (the Paragon/Quasar-style baseline).
    Random,
}

impl Acquisition {
    /// All policies, in Fig. 5's order.
    pub const ALL: [Acquisition; 4] = [
        Acquisition::ExpectedImprovement,
        Acquisition::Variance,
        Acquisition::Greedy,
        Acquisition::Random,
    ];

    /// Short label for reports.
    pub fn label(self) -> &'static str {
        match self {
            Acquisition::ExpectedImprovement => "EI",
            Acquisition::Variance => "Variance",
            Acquisition::Greedy => "Greedy",
            Acquisition::Random => "Random",
        }
    }

    /// Score a candidate (higher = more attractive) given the incumbent
    /// `best` KPI.
    pub fn score(self, c: &Candidate, best: f64, goal: Goal) -> f64 {
        let sigma = c.sigma2.max(0.0).sqrt();
        match self {
            Acquisition::ExpectedImprovement => expected_improvement(c.mu, sigma, best, goal),
            Acquisition::Variance => c.sigma2 / c.mu.abs().max(1e-12),
            Acquisition::Greedy => match goal {
                Goal::Maximize => c.mu,
                Goal::Minimize => -c.mu,
            },
            Acquisition::Random => 0.0, // selection handled in `select`
        }
    }

    /// Pick the next candidate; returns the winner and its EI score (the
    /// stopping rules consume the EI regardless of the policy in use).
    pub fn select(
        self,
        candidates: &[Candidate],
        best: f64,
        goal: Goal,
        seed: &mut u64,
    ) -> Option<(Candidate, f64)> {
        if candidates.is_empty() {
            return None;
        }
        let ei = |c: &Candidate| Acquisition::ExpectedImprovement.score(c, best, goal);
        // The winner, its EI, and how many candidates the policy scored.
        let (chosen, ei, scored) = match self {
            Acquisition::Random => {
                let mut rng = StdRng::seed_from_u64(*seed);
                let i = rng.gen_range(0..candidates.len());
                *seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
                (candidates[i], ei(&candidates[i]), 0)
            }
            Acquisition::ExpectedImprovement => max_ei(candidates, best, goal),
            // One score per candidate; among equal scores the last wins
            // (`max_by`'s rule).
            _ => {
                let chosen = candidates
                    .iter()
                    .map(|&c| (self.score(&c, best, goal), c))
                    .max_by(|a, b| a.0.total_cmp(&b.0))
                    .expect("non-empty")
                    .1;
                (chosen, ei(&chosen), candidates.len())
            }
        };
        if obs::enabled() {
            obs::counter("smbo.select.calls").inc();
            obs::counter("smbo.select.candidates").add(candidates.len() as u64);
            obs::counter("smbo.select.scored").add(scored as u64);
        }
        Some((chosen, ei))
    }
}

/// EI's winner, its EI and how many candidates were scored: exactly what
/// `max_by` over every candidate's EI picks, last of equal scores included.
///
/// The candidate with the largest improvement is scored first. Its EI is a
/// bar that a candidate whose [`ei_upper_bound`] is below it cannot reach,
/// so such a candidate is never the maximum and is not scored. The bar
/// rises to every larger EI scored on the way: a bound below an EI already
/// seen rules its candidate out just as well.
fn max_ei(candidates: &[Candidate], best: f64, goal: Goal) -> (Candidate, f64, usize) {
    let sigma = |c: &Candidate| c.sigma2.max(0.0).sqrt();
    let lead = candidates
        .iter()
        .enumerate()
        .max_by(|(_, a), (_, b)| {
            improvement(a.mu, best, goal).total_cmp(&improvement(b.mu, best, goal))
        })
        .expect("non-empty")
        .0;
    let lead_ei = expected_improvement(candidates[lead].mu, sigma(&candidates[lead]), best, goal);
    let mut bar = lead_ei;
    let mut scored = 1;
    let mut top: Option<(f64, Candidate)> = None;
    for (i, c) in candidates.iter().enumerate() {
        let sigma = sigma(c);
        let ei = if i == lead {
            lead_ei
        } else if ei_upper_bound(c.mu, sigma, best, goal) < bar {
            continue;
        } else {
            scored += 1;
            expected_improvement(c.mu, sigma, best, goal)
        };
        bar = bar.max(ei);
        if top.is_none_or(|(t, _)| ei.total_cmp(&t).is_ge()) {
            top = Some((ei, *c));
        }
    }
    let (ei, chosen) = top.expect("the lead is scored");
    (chosen, ei, scored)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn candidates() -> Vec<Candidate> {
        vec![
            Candidate {
                index: 0,
                mu: 10.0,
                sigma2: 0.01,
            }, // near the incumbent, certain
            Candidate {
                index: 1,
                mu: 5.0,
                sigma2: 0.01,
            }, // clearly better (minimization), certain
            Candidate {
                index: 2,
                mu: 11.0,
                sigma2: 25.0,
            }, // worse mean, very uncertain
        ]
    }

    #[test]
    fn ei_prefers_the_promising_candidate() {
        let mut seed = 1;
        let (c, ei) = Acquisition::ExpectedImprovement
            .select(&candidates(), 10.0, Goal::Minimize, &mut seed)
            .unwrap();
        assert_eq!(c.index, 1);
        assert!(ei > 4.0);
    }

    #[test]
    fn variance_prefers_the_uncertain_candidate() {
        let mut seed = 1;
        let (c, _) = Acquisition::Variance
            .select(&candidates(), 10.0, Goal::Minimize, &mut seed)
            .unwrap();
        assert_eq!(c.index, 2);
    }

    #[test]
    fn greedy_prefers_the_best_mean() {
        let mut seed = 1;
        let (c, _) = Acquisition::Greedy
            .select(&candidates(), 10.0, Goal::Minimize, &mut seed)
            .unwrap();
        assert_eq!(c.index, 1);
        let (c, _) = Acquisition::Greedy
            .select(&candidates(), 10.0, Goal::Maximize, &mut seed)
            .unwrap();
        assert_eq!(c.index, 2);
    }

    #[test]
    fn the_last_of_equal_scores_wins() {
        let tied: Vec<Candidate> = (0..4)
            .map(|index| Candidate {
                index,
                mu: if index == 0 { 20.0 } else { 5.0 },
                sigma2: 1.0,
            })
            .collect();
        for acquisition in [
            Acquisition::ExpectedImprovement,
            Acquisition::Variance,
            Acquisition::Greedy,
        ] {
            let mut seed = 1;
            let (c, _) = acquisition
                .select(&tied[1..], 10.0, Goal::Minimize, &mut seed)
                .unwrap();
            assert_eq!(c.index, 3, "{}", acquisition.label());
        }
        // A later tie does not displace a strictly better score.
        let mut seed = 1;
        let (c, _) = Acquisition::Greedy
            .select(&tied, 10.0, Goal::Maximize, &mut seed)
            .unwrap();
        assert_eq!(c.index, 0);
    }

    #[test]
    fn random_eventually_picks_everything() {
        let mut seed = 7;
        let mut seen = std::collections::HashSet::new();
        for _ in 0..100 {
            let (c, _) = Acquisition::Random
                .select(&candidates(), 10.0, Goal::Minimize, &mut seed)
                .unwrap();
            seen.insert(c.index);
        }
        assert_eq!(seen.len(), 3);
    }

    #[test]
    fn empty_candidates_yield_none() {
        let mut seed = 1;
        assert!(Acquisition::ExpectedImprovement
            .select(&[], 1.0, Goal::Minimize, &mut seed)
            .is_none());
    }
}
