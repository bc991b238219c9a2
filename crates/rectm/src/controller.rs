//! The Controller: Bayesian exploration of a new workload (paper §5.2).

use crate::recommender::{from_score, row_to_scores, scores_into, to_scores};
use recsys::{BaggingEnsemble, CfAlgorithm, EnsembleWorkspace, Normalization, Row, UtilityMatrix};
use smbo::{Acquisition, Candidate, Goal, StopState, StoppingRule};
use std::fmt;

/// KPI magnitudes at or beyond this are discarded as corrupt rather than
/// rated: no physical throughput/abort-rate measurement approaches 1e300,
/// but a garbage sample easily can.
const ABSURD_KPI: f64 = 1e300;

/// Knobs of the Controller's SMBO loop.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ControllerSettings {
    /// Acquisition function steering the sampling (EI in ProteusTM).
    pub acquisition: Acquisition,
    /// When to stop exploring.
    pub stopping: StoppingRule,
    /// Bagging ensemble size (the paper uses 10).
    pub n_bags: usize,
    /// Hard cap on on-line explorations.
    pub max_explorations: usize,
    /// Seed for bootstrap sampling and the Random baseline.
    pub seed: u64,
}

impl Default for ControllerSettings {
    fn default() -> Self {
        ControllerSettings {
            acquisition: Acquisition::ExpectedImprovement,
            stopping: StoppingRule::Cautious { epsilon: 0.01 },
            n_bags: 10,
            max_explorations: 20,
            seed: 2016,
        }
    }
}

/// The result of optimizing one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct Exploration {
    /// Every `(configuration, raw KPI)` sampled, in order (the first is the
    /// reference configuration).
    pub explored: Vec<(usize, f64)>,
    /// The final recommendation: the best configuration *among those
    /// explored* (the paper's protocol — a predicted-best configuration is
    /// explored before being recommended).
    pub recommended: usize,
    /// Its raw KPI.
    pub best_kpi: f64,
    /// Telemetry events buffered during this optimization (empty when no
    /// trace is active). [`Controller::optimize`] may run inside `parx`
    /// workers, so it never writes the trace stream itself (DESIGN.md §7,
    /// rule 1); serial driver code replays the buffer with
    /// [`Exploration::emit_trace`].
    pub trace: Vec<obs::PendingEvent>,
}

impl Exploration {
    /// Number of on-line explorations performed.
    pub fn len(&self) -> usize {
        self.explored.len()
    }

    /// Whether no exploration happened (never true for a completed run).
    pub fn is_empty(&self) -> bool {
        self.explored.is_empty()
    }

    /// Replay the buffered telemetry events into the active trace.
    ///
    /// Call from **serial driver code only** — sequence numbers are
    /// assigned here, in replay order, which is what keeps the JSONL
    /// stream byte-identical at every `--jobs` value when
    /// optimizations ran on the worker pool.
    pub fn emit_trace(&self) {
        obs::emit_pending(&self.trace);
    }
}

/// SMBO over the configuration space, modelled by a bagging ensemble of CF
/// learners over the normalized training matrix.
pub struct Controller {
    normalizer: Box<dyn Normalization + Send + Sync>,
    ensemble: BaggingEnsemble,
    goal: Goal,
    ncols: usize,
    settings: ControllerSettings,
    /// The ratings of a workload whose only sample is the reference, and
    /// the candidates they give: computed once per fit, because under a
    /// ratio scheme every workload's first step sees the same ratings.
    first_step: Option<(Row, Vec<Candidate>)>,
}

/// Everything one exploration step builds: the known KPIs as scores, their
/// ratings, the ensemble's workspace and the candidate vector. Made once
/// per decision, sized up front, and reused at every step, so that a step
/// allocates nothing.
struct Step {
    scores: Row,
    ratings: Row,
    ensemble: EnsembleWorkspace,
    candidates: Vec<Candidate>,
}

impl Controller {
    /// Fit the Controller: normalize the training KPIs and train the
    /// ensemble on the resulting ratings.
    pub fn fit(
        training_kpis: &UtilityMatrix,
        goal: Goal,
        mut normalizer: Box<dyn Normalization + Send + Sync>,
        algorithm: CfAlgorithm,
        settings: ControllerSettings,
    ) -> Self {
        let scores = if normalizer.wants_scores() {
            to_scores(training_kpis, goal)
        } else {
            training_kpis.clone()
        };
        normalizer.fit(&scores);
        let ratings = normalizer.transform_matrix(&scores);
        let ensemble = BaggingEnsemble::fit(&ratings, algorithm, settings.n_bags, settings.seed);
        let mut controller = Controller {
            normalizer,
            ensemble,
            goal,
            ncols: training_kpis.ncols(),
            settings,
            first_step: None,
        };
        let first = controller.first_config();
        if first < controller.ncols {
            // The reference sampled at KPI 1: a ratio scheme rates any
            // other reference KPI (bar a guarded near-zero one) the same.
            let mut known: Row = vec![None; controller.ncols];
            known[first] = Some(1.0);
            let mut tried = vec![false; controller.ncols];
            tried[first] = true;
            controller.first_step = controller.ratings(&known).map(|ratings| {
                let candidates = controller.predict_candidates(&ratings, &tried);
                (ratings, candidates)
            });
        }
        controller
    }

    /// The configuration profiled first (the normalization's reference, or
    /// column 0 when the scheme needs none).
    pub fn first_config(&self) -> usize {
        self.normalizer.reference_col().unwrap_or(0)
    }

    /// Number of configuration columns.
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Change the cap on on-line explorations; nothing fitted depends on it.
    pub fn set_max_explorations(&mut self, max_explorations: usize) {
        self.settings.max_explorations = max_explorations;
    }

    /// Optimize one workload: `sample(config)` runs the workload in that
    /// configuration and returns the measured raw KPI. The KPI is the
    /// caller's input and is checked: a non-finite or absurd sample is
    /// discarded, and a discarded reference sample is taken again.
    ///
    /// Implements the §6.3 protocol: profile the reference configuration,
    /// run acquisition-driven exploration until the stopping rule fires,
    /// then explore the model's final recommendation if it was not sampled,
    /// and return the best *sampled* configuration.
    pub fn optimize(&self, sample: &mut dyn FnMut(usize) -> f64) -> Exploration {
        // Telemetry is *buffered*, never emitted, in this function: it runs
        // inside parx workers (Figs. 5/7), and only serial replay of the
        // buffer keeps the trace deterministic (DESIGN.md §7, rule 1).
        let mut trace: Vec<obs::PendingEvent> = Vec::new();
        let mut known: Row = vec![None; self.ncols];
        // Every profiling run adds at most one sample.
        let mut explored: Vec<(usize, f64)> = Vec::with_capacity(self.settings.max_explorations);
        // Sampled-at-least-once mask, distinct from `known`: a corrupt
        // sample is discarded from the ratings but must not be re-picked by
        // the acquisition loop, or a configuration that always measures
        // garbage could pin the Controller on it forever.
        let mut tried: Vec<bool> = vec![false; self.ncols];
        // Profiling runs spent, distinct from *surviving* samples and from
        // *distinct* configurations: the exploration budget pays per run,
        // and a discarded corrupt KPI still burned one.
        let spent = std::cell::Cell::new(0usize);
        let mut seed = self.settings.seed;
        let mut probe = |c: usize,
                         known: &mut Row,
                         explored: &mut Vec<(usize, f64)>,
                         tried: &mut Vec<bool>,
                         trace: &mut Vec<obs::PendingEvent>| {
            spent.set(spent.get() + 1);
            let kpi = sample(c);
            tried[c] = true;
            // Sanitization: a non-finite KPI never enters the ratings (it
            // would propagate NaN through normalization into every
            // prediction) and never competes for the recommendation. An
            // absurd finite magnitude is rejected too — it would win every
            // Maximize comparison outright — with the bound far beyond any
            // physical KPI so legitimate dynamic range is untouched.
            if kpi.is_finite() && kpi.abs() < ABSURD_KPI {
                known[c] = Some(kpi);
                explored.push((c, kpi));
            } else if obs::enabled() {
                trace.push(obs::pending_event!(
                    "kpi.sanitized",
                    "reason" => if kpi.is_finite() { "absurd" } else { "nonfinite" },
                    "config" => c,
                ));
            }
            kpi
        };
        if obs::enabled() {
            // Span ids are assigned when the serial driver replays the
            // buffer, so pushing span records here is as deterministic as
            // pushing events (obs assigns ids under the same lock as seq).
            trace.push(obs::pending_event!(obs::SPAN_BEGIN, "name" => "explore"));
            trace.push(obs::pending_event!(
                "explore.start",
                "first" => self.first_config(),
                "max" => self.settings.max_explorations,
                "stopping" => self.settings.stopping.name(),
            ));
        }
        let mut reference_kpi = probe(
            self.first_config(),
            &mut known,
            &mut explored,
            &mut tried,
            &mut trace,
        );
        // Recovery: every rating is a ratio against the reference sample, so
        // a corrupted one would abort the entire exploration after a single
        // probe. Re-probe the reference while budget remains instead.
        while known[self.first_config()].is_none() && spent.get() < self.settings.max_explorations {
            reference_kpi = probe(
                self.first_config(),
                &mut known,
                &mut explored,
                &mut tried,
                &mut trace,
            );
        }
        if obs::enabled() {
            trace.push(obs::pending_event!(
                "ei.reference",
                "config" => self.first_config(),
                "kpi" => reference_kpi,
            ));
        }

        // The ratings of `known` (in `step.ratings`, when `rated`),
        // recomputed after every probe — once per step, shared by the
        // stopping check and the next acquisition round.
        let mut step = self.step();
        let mut rated = self.rate(&known, &mut step.scores, &mut step.ratings);
        let mut stop = StopState::new();
        let mut stop_reason = "exhausted";
        while spent.get() < self.settings.max_explorations {
            if !rated {
                break;
            }
            // Score-space ratings are "higher is better" by construction;
            // raw-KPI baselines (RC, none) keep the original direction.
            let inner = self.inner_goal();
            let best_rating = self.best_of(&step.ratings).unwrap_or(f64::NAN);
            let candidates = self.candidates(&tried, &mut step);
            if candidates.is_empty() {
                break;
            }
            let Some((chosen, ei)) =
                self.settings
                    .acquisition
                    .select(candidates, best_rating, inner, &mut seed)
            else {
                break;
            };
            if obs::enabled() {
                trace.push(obs::pending_event!(
                    obs::SPAN_BEGIN,
                    "name" => "ei.round",
                    "step" => stop.steps(),
                    "config" => chosen.index,
                ));
            }
            let actual = probe(
                chosen.index,
                &mut known,
                &mut explored,
                &mut tried,
                &mut trace,
            );
            if obs::enabled() {
                trace.push(obs::pending_event!(
                    "ei.step",
                    "step" => stop.steps(),
                    "config" => chosen.index,
                    "ei" => ei,
                    "predicted" => chosen.mu,
                    "actual" => actual,
                ));
                trace.push(obs::pending_event!(obs::SPAN_END, "name" => "ei.round"));
            }
            rated = self.rate(&known, &mut step.scores, &mut step.ratings);
            let new_best = rated
                .then(|| self.best_of(&step.ratings))
                .flatten()
                .unwrap_or(best_rating);
            stop.record(ei, new_best);
            if self.settings.stopping.should_stop(&stop) {
                stop_reason = "criterion";
                break;
            }
        }
        if obs::enabled() {
            trace.push(obs::pending_event!(
                "stop.verdict",
                "rule" => self.settings.stopping.name(),
                "steps" => stop.steps(),
                "reason" => stop_reason,
            ));
        }

        // Final step: explore the model's recommendation if new.
        let inner = self.inner_goal();
        if rated {
            let best_explored = self.best_of(&step.ratings);
            let candidates = self.candidates(&tried, &mut step);
            let best_candidate =
                candidates.iter().copied().reduce(
                    |a, b| {
                        if inner.better(b.mu, a.mu) {
                            b
                        } else {
                            a
                        }
                    },
                );
            if let Some(cand) = best_candidate {
                let improves = match best_explored {
                    Some(b) => inner.better(cand.mu, b),
                    None => true,
                };
                if improves && spent.get() < self.settings.max_explorations {
                    probe(
                        cand.index,
                        &mut known,
                        &mut explored,
                        &mut tried,
                        &mut trace,
                    );
                }
            }
        }

        // `explored` holds finite KPIs only; if every sample this run was
        // discarded, recommend the reference configuration — the
        // known-safe default — rather than panicking or picking garbage.
        let (recommended, best_kpi) = explored
            .iter()
            .copied()
            .reduce(|best, cur| {
                if self.goal.better(cur.1, best.1) {
                    cur
                } else {
                    best
                }
            })
            .unwrap_or_else(|| {
                if obs::enabled() {
                    obs::counter("rectm.recommend_fallbacks").inc();
                }
                (self.first_config(), f64::NAN)
            });
        if obs::enabled() {
            trace.push(obs::pending_event!(
                "recommend",
                "config" => recommended,
                "kpi" => best_kpi,
                "explored" => explored.len(),
            ));
            trace.push(obs::pending_event!(obs::SPAN_END, "name" => "explore"));
        }
        Exploration {
            explored,
            recommended,
            best_kpi,
            trace,
        }
    }

    /// Ensemble-mean KPI predictions for a partially-profiled workload.
    /// Known entries pass through; columns the model cannot predict yet
    /// stay `None`. Used by the accuracy studies (Fig. 5's MAPE).
    pub fn predict_kpis(&self, known_kpis: &Row) -> Row {
        let Some(ratings) = self.ratings(known_kpis) else {
            return known_kpis.clone();
        };
        let inverted = self.normalizer.wants_scores();
        let scores = if inverted {
            row_to_scores(known_kpis, self.goal)
        } else {
            known_kpis.clone()
        };
        let stats = self.ensemble.predict_stats(&ratings);
        stats
            .iter()
            .enumerate()
            .map(|(c, s)| {
                known_kpis[c].or_else(|| {
                    s.map(|(mu, _)| {
                        let v = self.normalizer.to_kpi(&scores, c, mu);
                        if inverted {
                            from_score(v, self.goal)
                        } else {
                            v
                        }
                    })
                })
            })
            .collect()
    }

    /// A step's workspace, sized for this controller.
    fn step(&self) -> Step {
        Step {
            scores: Row::with_capacity(self.ncols),
            ratings: Row::with_capacity(self.ncols),
            ensemble: self.ensemble.workspace(),
            candidates: Vec::with_capacity(self.ncols),
        }
    }

    /// Known KPIs → known ratings (None before the reference sample).
    fn ratings(&self, known_kpis: &Row) -> Option<Row> {
        let (mut scores, mut ratings) = (Row::new(), Row::new());
        self.rate(known_kpis, &mut scores, &mut ratings)
            .then_some(ratings)
    }

    /// [`Self::ratings`] into `ratings`, through `scores` where the scheme
    /// wants scores; returns whether there are any.
    fn rate(&self, known_kpis: &Row, scores: &mut Row, ratings: &mut Row) -> bool {
        if !self.normalizer.wants_scores() {
            return self.normalizer.to_ratings_into(known_kpis, ratings);
        }
        scores_into(known_kpis, self.goal, scores);
        self.normalizer.to_ratings_into(scores, ratings)
    }

    /// The optimization direction in rating space.
    fn inner_goal(&self) -> Goal {
        if self.normalizer.wants_scores() {
            Goal::Maximize
        } else {
            self.goal
        }
    }

    /// Best known rating under the inner goal.
    fn best_of(&self, ratings: &Row) -> Option<f64> {
        let inner = self.inner_goal();
        ratings
            .iter()
            .flatten()
            .copied()
            .reduce(|a, b| inner.best(a, b))
    }

    /// Predictive candidates, given the known ratings in `step.ratings`,
    /// for all columns not yet sampled (`tried` covers the known columns
    /// and those whose sample was discarded as corrupt): the fitted first
    /// step's when it applies.
    fn candidates<'a>(&'a self, tried: &[bool], step: &'a mut Step) -> &'a [Candidate] {
        if let Some(candidates) = self.cached_first_step(&step.ratings, tried) {
            return candidates;
        }
        self.predict_candidates_into(
            &step.ratings,
            tried,
            &mut step.ensemble,
            &mut step.candidates,
        );
        &step.candidates
    }

    /// The candidates computed at fit, if only the reference has been
    /// tried and `ratings` are bit for bit the ones they were computed from.
    fn cached_first_step(&self, ratings: &Row, tried: &[bool]) -> Option<&[Candidate]> {
        let (cached, candidates) = self.first_step.as_ref()?;
        let first = self.first_config();
        let only_reference = tried.iter().enumerate().all(|(c, &t)| t == (c == first));
        let same =
            |(a, b): (&Option<f64>, &Option<f64>)| a.map(f64::to_bits) == b.map(f64::to_bits);
        (only_reference && ratings.len() == cached.len() && ratings.iter().zip(cached).all(same))
            .then_some(candidates.as_slice())
    }

    /// [`Self::candidates`], computed from the ensemble.
    fn predict_candidates(&self, ratings: &Row, tried: &[bool]) -> Vec<Candidate> {
        let mut step = self.step();
        self.predict_candidates_into(ratings, tried, &mut step.ensemble, &mut step.candidates);
        step.candidates
    }

    /// [`Self::predict_candidates`] into `candidates`, built in `workspace`.
    fn predict_candidates_into(
        &self,
        ratings: &Row,
        tried: &[bool],
        workspace: &mut EnsembleWorkspace,
        candidates: &mut Vec<Candidate>,
    ) {
        let stats = self.ensemble.predict_stats_in(ratings, workspace);
        candidates.clear();
        candidates.extend(
            stats
                .iter()
                .enumerate()
                .filter(|(c, _)| !tried[*c])
                .filter_map(|(c, s)| {
                    s.map(|(mu, sigma2)| Candidate {
                        index: c,
                        mu,
                        sigma2,
                    })
                }),
        );
    }
}

impl fmt::Debug for Controller {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Controller")
            .field("normalizer", &self.normalizer.name())
            .field("ncols", &self.ncols)
            .field("settings", &self.settings)
            .finish()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use recsys::{DistillationNorm, Similarity};

    /// Training data: 12 workloads over 8 "thread count" columns; half
    /// peak at column 5, half at column 1, at random scales.
    fn training() -> UtilityMatrix {
        let mut rows = Vec::new();
        for i in 0..12 {
            let scale = 10f64.powi(i % 4);
            let peak = if i % 2 == 0 { 5.0 } else { 1.0 };
            rows.push(
                (0..8)
                    .map(|c| {
                        let x = c as f64;
                        Some(scale * (10.0 - (x - peak).powi(2)).max(0.5))
                    })
                    .collect(),
            );
        }
        UtilityMatrix::from_rows(rows)
    }

    pub(crate) fn controller(settings: ControllerSettings) -> Controller {
        controller_for(Goal::Maximize, settings)
    }

    fn controller_for(goal: Goal, settings: ControllerSettings) -> Controller {
        Controller::fit(
            &training(),
            goal,
            Box::new(DistillationNorm::new()),
            CfAlgorithm::Knn {
                similarity: Similarity::Cosine,
                k: 3,
            },
            settings,
        )
    }

    #[test]
    fn finds_the_optimum_of_a_matching_workload() {
        let _serial = crate::serial();
        let ctl = controller(ControllerSettings::default());
        // A fresh workload peaking at column 5, scale 3.3.
        let truth: Vec<f64> = (0..8)
            .map(|c| 3.3 * (10.0 - (c as f64 - 5.0).powi(2)).max(0.5))
            .collect();
        let mut calls = 0;
        let out = ctl.optimize(&mut |c| {
            calls += 1;
            truth[c]
        });
        assert_eq!(out.recommended, 5);
        assert_eq!(out.best_kpi, truth[5]);
        assert_eq!(calls, out.explored.len());
        // With only 8 columns the Cautious rule may legitimately explore
        // most of the space; the optimum must be found *early* regardless.
        let position = out.explored.iter().position(|&(c, _)| c == 5).unwrap();
        assert!(position < 4, "optimum found late: {:?}", out.explored);
    }

    #[test]
    fn exploration_counts_reflect_stopping_epsilon() {
        let _serial = crate::serial();
        let loose = controller(ControllerSettings {
            stopping: StoppingRule::Cautious { epsilon: 0.15 },
            ..ControllerSettings::default()
        });
        let tight = controller(ControllerSettings {
            stopping: StoppingRule::Cautious { epsilon: 0.001 },
            ..ControllerSettings::default()
        });
        let truth: Vec<f64> = (0..8)
            .map(|c| 7.0 * (10.0 - (c as f64 - 1.0).powi(2)).max(0.5))
            .collect();
        let run = |ctl: &Controller| ctl.optimize(&mut |c| truth[c]).explored.len();
        assert!(run(&tight) >= run(&loose));
    }

    #[test]
    fn never_exceeds_exploration_cap() {
        let _serial = crate::serial();
        let ctl = controller(ControllerSettings {
            max_explorations: 3,
            stopping: StoppingRule::Cautious { epsilon: 0.0 },
            ..ControllerSettings::default()
        });
        let out = ctl.optimize(&mut |c| c as f64 + 1.0);
        assert!(out.explored.len() <= 3);
    }

    #[test]
    fn explored_configs_are_unique() {
        let _serial = crate::serial();
        let ctl = controller(ControllerSettings {
            acquisition: Acquisition::Random,
            max_explorations: 8,
            stopping: StoppingRule::Cautious { epsilon: 0.0 },
            ..ControllerSettings::default()
        });
        let out = ctl.optimize(&mut |c| (c as f64).sin().abs() + 0.1);
        let mut seen = std::collections::HashSet::new();
        for (c, _) in &out.explored {
            assert!(seen.insert(*c), "config {c} sampled twice");
        }
    }

    /// The determinism contract: `optimize` may run inside parx workers,
    /// so it must never write the trace stream itself — its events are
    /// buffered on the `Exploration` and replayed serially.
    #[test]
    fn optimize_buffers_events_for_serial_emission() {
        let _serial = crate::serial();
        let ctl = controller(ControllerSettings::default());
        let truth: Vec<f64> = (0..8)
            .map(|c| 3.3 * (10.0 - (c as f64 - 5.0).powi(2)).max(0.5))
            .collect();
        let (out, direct) = obs::capture_trace(|| ctl.optimize(&mut |c| truth[c]));
        // The capture contains only the schema header the trace itself
        // writes — optimize must add nothing to it.
        assert!(
            String::from_utf8_lossy(&direct)
                .lines()
                .all(|l| l.contains("\"kind\":\"trace.meta\"")),
            "optimize must not emit events directly (got: {})",
            String::from_utf8_lossy(&direct)
        );
        let (_, replayed) = obs::capture_trace(|| out.emit_trace());
        let text = String::from_utf8(replayed).unwrap();
        for kind in [
            "explore.start",
            "ei.reference",
            "ei.step",
            "stop.verdict",
            "recommend",
        ] {
            assert!(
                text.contains(&format!("\"kind\":\"{kind}\"")),
                "missing {kind} in replayed trace: {text}"
            );
        }
        assert!(
            !text.contains("latency_ns"),
            "wall-clock fields are banned from the deterministic stream"
        );
    }

    pub(crate) fn truth(c: usize) -> f64 {
        3.3 * (10.0 - (c as f64 - 5.0).powi(2)).max(0.5)
    }

    /// Every rating is a ratio against the reference sample, so a garbage
    /// reference is measured again instead of ending the exploration.
    #[test]
    fn a_nan_reference_sample_is_taken_again() {
        let _serial = crate::serial();
        let ctl = controller(ControllerSettings::default());
        let mut calls = 0;
        let out = ctl.optimize(&mut |c| {
            calls += 1;
            if calls == 1 {
                f64::NAN
            } else {
                truth(c)
            }
        });
        let first = ctl.first_config();
        assert_eq!(out.explored[0], (first, truth(first)));
        assert_eq!(out.recommended, 5);
        assert_eq!(calls, out.explored.len() + 1, "the NaN run was paid for");
    }

    /// Infinite and absurd samples (which would win every comparison in
    /// one direction or the other) and NaN never enter the ratings or the
    /// recommendation, and a configuration whose sample was discarded is
    /// not picked again.
    #[test]
    fn hostile_samples_never_reach_the_recommendation() {
        let _serial = crate::serial();
        // The reference (column 3) and the optimum of either goal measure
        // truthfully.
        let hostile = |c: usize| match c {
            0 => Some(f64::INFINITY),
            2 => Some(f64::NEG_INFINITY),
            4 => Some(1e308),
            6 => Some(-1e308),
            7 => Some(f64::NAN),
            _ => None,
        };
        for (goal, best) in [(Goal::Maximize, 5), (Goal::Minimize, 1)] {
            let ctl = controller_for(
                goal,
                ControllerSettings {
                    stopping: StoppingRule::Cautious { epsilon: 0.0 },
                    ..ControllerSettings::default()
                },
            );
            assert_eq!(hostile(ctl.first_config()), None);
            let mut sampled = Vec::new();
            let out = ctl.optimize(&mut |c| {
                sampled.push(c);
                hostile(c).unwrap_or_else(|| truth(c))
            });
            assert!(
                sampled.iter().any(|&c| hostile(c).is_some()),
                "{goal:?}: no hostile sample was drawn: {sampled:?}"
            );
            let mut seen = std::collections::HashSet::new();
            assert!(sampled.iter().all(|c| seen.insert(*c)), "{sampled:?}");
            assert!(out.explored.iter().all(|&(c, _)| hostile(c).is_none()));
            assert_eq!(
                (out.recommended, out.best_kpi),
                (best, truth(best)),
                "{goal:?}"
            );
        }
    }

    /// Nothing measured: the reference is taken again until the budget is
    /// spent, and the known-safe reference is recommended.
    #[test]
    fn every_sample_poisoned_recommends_the_reference() {
        let _serial = crate::serial();
        let ctl = controller(ControllerSettings::default());
        let mut calls = 0;
        let out = ctl.optimize(&mut |_| {
            calls += 1;
            f64::NAN
        });
        assert!(out.explored.is_empty());
        assert_eq!(out.recommended, ctl.first_config());
        assert!(out.best_kpi.is_nan());
        assert_eq!(calls, ControllerSettings::default().max_explorations);
    }

    /// The reference-only step's candidates are computed once per fit. For
    /// every normalisation and goal: where they apply, they are bit for bit
    /// a cold computation; where the reference-only ratings depend on the
    /// KPI, or a guarded zero reference changes them, they are not used;
    /// and once a second configuration is tried they never are.
    #[test]
    fn first_step_cache_is_a_cold_call_or_unused() {
        let _serial = crate::serial();
        let schemes: [fn() -> Box<dyn Normalization + Send + Sync>; 5] = [
            || Box::new(recsys::NoNorm),
            || Box::new(recsys::GlobalMaxNorm::new()),
            || Box::new(recsys::IdealNorm),
            || Box::new(recsys::RcNorm::new()),
            || Box::new(DistillationNorm::new()),
        ];
        let bits = |c: &[Candidate]| -> Vec<(usize, u64, u64)> {
            c.iter()
                .map(|c| (c.index, c.mu.to_bits(), c.sigma2.to_bits()))
                .collect()
        };
        let mut hits = 0;
        for scheme in schemes {
            for goal in [Goal::Maximize, Goal::Minimize] {
                let ctl = Controller::fit(
                    &training(),
                    goal,
                    scheme(),
                    CfAlgorithm::Knn {
                        similarity: Similarity::Cosine,
                        k: 3,
                    },
                    ControllerSettings::default(),
                );
                let name = ctl.normalizer.name();
                // Ratio schemes rate the reference 1 and RC rates it minus
                // its column mean, whatever the KPI; none and norm-wrt-max
                // carry the KPI into the rating.
                let kpi_free = matches!(name, "ideal" | "rc-diff" | "distillation");
                let first = ctl.first_config();
                let mut tried = vec![false; ctl.ncols()];
                tried[first] = true;
                for kpi in [1.0, 3.7, 250.0, 0.0] {
                    let mut known: Row = vec![None; ctl.ncols()];
                    known[first] = Some(kpi);
                    let ratings = ctl.ratings(&known).expect("the reference is known");
                    let cold = ctl.predict_candidates(&ratings, &tried);
                    // A zero throughput scales by the 1e-12 guard instead.
                    let guarded = kpi == 0.0 && goal == Goal::Maximize && name != "rc-diff";
                    let cached = ctl.cached_first_step(&ratings, &tried);
                    assert_eq!(
                        cached.is_some(),
                        kpi == 1.0 || (kpi_free && !guarded),
                        "{name} {goal:?} kpi {kpi}"
                    );
                    if let Some(cached) = cached {
                        hits += 1;
                        assert!(!cached.is_empty(), "{name} {goal:?} kpi {kpi}");
                        assert_eq!(bits(cached), bits(&cold), "{name} {goal:?} kpi {kpi}");
                        let mut step = ctl.step();
                        assert!(ctl.rate(&known, &mut step.scores, &mut step.ratings));
                        assert_eq!(bits(ctl.candidates(&tried, &mut step)), bits(&cold));
                    }
                    let mut second = tried.clone();
                    second[(first + 1) % ctl.ncols()] = true;
                    assert!(ctl.cached_first_step(&ratings, &second).is_none());
                }
            }
        }
        // none and norm-wrt-max at KPI 1 only; ideal and distillation bar
        // Maximize's zero; RC always.
        assert_eq!(hits, 2 + 2 + 7 + 8 + 7);
    }

    #[test]
    fn recommendation_is_best_explored() {
        let _serial = crate::serial();
        let ctl = controller(ControllerSettings::default());
        let truth: Vec<f64> = (0..8)
            .map(|c| 2.0 * (10.0 - (c as f64 - 5.0).powi(2)).max(0.5))
            .collect();
        let out = ctl.optimize(&mut |c| truth[c]);
        let best_explored = out
            .explored
            .iter()
            .map(|&(_, k)| k)
            .fold(f64::NEG_INFINITY, f64::max);
        assert_eq!(out.best_kpi, best_explored);
    }
}
