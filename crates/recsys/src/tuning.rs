//! Hyper-parameter selection by random search + k-fold cross-validation
//! (paper §5.1, following Bergstra & Bengio's random-search methodology).

use crate::knn::{KnnModel, Similarity};
use crate::matrix::{Row, UtilityMatrix};
use crate::metrics::mape;
use crate::mf::{MfModel, MfParams};
use crate::predictor::CfAlgorithm;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Random-search budget and protocol knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TuningOptions {
    /// Number of random hyper-parameter candidates to evaluate.
    pub n_candidates: usize,
    /// Cross-validation folds.
    pub folds: usize,
    /// Fraction of each validation row's entries hidden for scoring.
    pub holdout_fraction: f64,
    /// RNG seed.
    pub seed: u64,
    /// Restrict the search to KNN candidates (MF fitting is much costlier;
    /// useful for quick runs and for ablations).
    pub knn_only: bool,
}

impl Default for TuningOptions {
    fn default() -> Self {
        TuningOptions {
            n_candidates: 12,
            folds: 3,
            holdout_fraction: 0.5,
            seed: 2016,
            knn_only: false,
        }
    }
}

/// The outcome of a tuning run.
#[derive(Debug, Clone)]
pub struct CvReport {
    /// The winning algorithm + hyper-parameters.
    pub best: CfAlgorithm,
    /// Its cross-validated MAPE.
    pub best_mape: f64,
    /// Every evaluated candidate with its score.
    pub evaluated: Vec<(CfAlgorithm, f64)>,
    /// Telemetry buffered during tuning (candidate/fold spans), empty when
    /// no trace is active. Candidates score on the `parx` pool, so nothing
    /// is emitted here (DESIGN.md §7, rule 1) — serial driver code replays
    /// the buffer with [`CvReport::emit_trace`].
    pub trace: Vec<obs::PendingEvent>,
}

impl CvReport {
    /// Replay the buffered telemetry into the active trace. Call from
    /// **serial driver code only** — span ids and sequence numbers are
    /// assigned at replay, in buffer order.
    pub fn emit_trace(&self) {
        obs::emit_pending(&self.trace);
    }
}

fn random_candidate(rng: &mut StdRng, knn_only: bool) -> CfAlgorithm {
    if knn_only || rng.gen_bool(0.5) {
        CfAlgorithm::Knn {
            similarity: Similarity::ALL[rng.gen_range(0..3)],
            k: rng.gen_range(1..=10),
        }
    } else {
        CfAlgorithm::Mf(MfParams {
            factors: rng.gen_range(2..=12),
            learning_rate: 10f64.powf(rng.gen_range(-2.3..-1.0)),
            regularization: 10f64.powf(rng.gen_range(-3.0..-1.0)),
            epochs: rng.gen_range(40..=150),
            seed: rng.gen(),
        })
    }
}

/// One cross-validation fold: the rows of every other fold, and the rows
/// of this one that are scored, each with a fraction of its entries
/// hidden.
struct Fold {
    /// The other folds' rows as a KNN model, their ratings copied
    /// column-major once: every KNN candidate borrows them under its own
    /// similarity and `k` ([`KnnModel::with`]), so this model's own two are
    /// never used, and every MF candidate fits them read row by row. No
    /// rows if there are no other folds, and then nothing is fitted.
    training: KnnModel,
    /// Each scored row with its hidden entries set to `None`.
    masked: Vec<Row>,
    /// Per masked row, its hidden `(column, rating)`s in column order.
    hidden: Vec<Vec<(usize, f64)>>,
}

/// The cross-validation split: the shuffled fold assignment and each
/// held-out row's mask. It comes from an RNG seeded by `opts.seed` alone
/// and its draws do not depend on the model, so every candidate is scored
/// on this one split.
fn draw_split(training: &UtilityMatrix, opts: &TuningOptions) -> Vec<Fold> {
    let mut rng = StdRng::seed_from_u64(opts.seed ^ 0xC0FFEE);
    let nrows = training.nrows();
    let folds = opts.folds.clamp(2, nrows.max(2));
    let mut assignment: Vec<usize> = (0..nrows).map(|r| r % folds).collect();
    // Shuffle fold assignment.
    for i in (1..nrows).rev() {
        let j = rng.gen_range(0..=i);
        assignment.swap(i, j);
    }
    (0..folds)
        .map(|fold| {
            let fit_rows: Vec<&Row> = (0..nrows)
                .filter(|&r| assignment[r] != fold)
                .map(|r| training.row(r))
                .collect();
            let mut masked = Vec::new();
            let mut hidden = Vec::new();
            if !fit_rows.is_empty() {
                for r in (0..nrows).filter(|&r| assignment[r] == fold) {
                    let known: Vec<(usize, f64)> = training.known_in_row(r).collect();
                    if known.len() < 2 {
                        continue;
                    }
                    // Hide a fraction of this row's entries, to predict back.
                    let mut hide = Vec::new();
                    let mut row = training.row(r).clone();
                    for &(c, real) in &known {
                        if rng.gen_bool(opts.holdout_fraction) && hide.len() + 1 < known.len() {
                            hide.push((c, real));
                            row[c] = None;
                        }
                    }
                    if !hide.is_empty() {
                        masked.push(row);
                        hidden.push(hide);
                    }
                }
            }
            Fold {
                training: KnnModel::of_rows(training.ncols(), &fit_rows, Similarity::Euclidean, 1),
                masked,
                hidden,
            }
        })
        .collect()
}

/// Each fold's predictions of its masked rows under `algo`: an MF
/// candidate fits its folds side by side and folds their rows in together.
fn predict_folds(split: &[Fold], algo: CfAlgorithm) -> Vec<Vec<Row>> {
    match algo {
        CfAlgorithm::Knn { similarity, k } => split
            .iter()
            .map(|f| {
                if f.training.nrows() == 0 {
                    return Vec::new();
                }
                let model = f.training.with(similarity, k);
                f.masked.iter().map(|row| model.predict_row(row)).collect()
            })
            .collect(),
        CfAlgorithm::Mf(params) => {
            let trainings: Vec<&KnnModel> = split
                .iter()
                .filter(|f| f.training.nrows() > 0)
                .map(|f| &f.training)
                .collect();
            let mut models = MfModel::fit_knn_folds(&trainings, params).into_iter();
            split
                .iter()
                .map(|f| {
                    if f.training.nrows() == 0 {
                        return Vec::new();
                    }
                    let model = models.next().expect("a model per fitted fold");
                    model.predict_rows(&f.masked)
                })
                .collect()
        }
    }
}

/// Cross-validated MAPE of one candidate on the split, plus the per-fold
/// span records buffered for later serial replay (empty when no trace is
/// active — this function runs inside `parx` workers and must never write
/// the trace itself).
fn cv_score(split: &[Fold], algo: CfAlgorithm) -> (f64, Vec<obs::PendingEvent>) {
    let predictions = predict_folds(split, algo);
    let mut trace: Vec<obs::PendingEvent> = Vec::new();
    let mut pairs: Vec<(f64, f64)> = Vec::new();
    for (fold, (f, preds)) in split.iter().zip(&predictions).enumerate() {
        let before = pairs.len();
        for (hide, pred) in f.hidden.iter().zip(preds) {
            for &(c, real) in hide {
                if let Some(p) = pred[c] {
                    pairs.push((real, p));
                }
            }
        }
        if obs::enabled() {
            trace.push(obs::pending_event!(
                obs::SPAN_BEGIN,
                "name" => "cv.fold",
                "fold" => fold,
            ));
            trace.push(obs::pending_event!(
                obs::SPAN_END,
                "name" => "cv.fold",
                "pairs" => pairs.len() - before,
            ));
        }
    }
    let score = if pairs.is_empty() {
        f64::INFINITY
    } else {
        mape(&pairs)
    };
    (score, trace)
}

/// Select a CF algorithm and its hyper-parameters for the given training
/// matrix (of *ratings* — normalize first).
pub fn tune_cf(training: &UtilityMatrix, opts: &TuningOptions) -> CvReport {
    let mut rng = StdRng::seed_from_u64(opts.seed);
    let mut candidates: Vec<CfAlgorithm> = vec![
        // Always include sane defaults so random search can only improve.
        CfAlgorithm::Knn {
            similarity: Similarity::Cosine,
            k: 5,
        },
        CfAlgorithm::Knn {
            similarity: Similarity::Euclidean,
            k: 5,
        },
    ];
    while candidates.len() < opts.n_candidates.max(2) {
        candidates.push(random_candidate(&mut rng, opts.knn_only));
    }
    // Candidates are drawn serially above and all score on one split, so
    // scoring them on the parx pool returns exactly the serial result in
    // the serial order.
    let split = draw_split(training, opts);
    let scored: Vec<(CfAlgorithm, f64, Vec<obs::PendingEvent>)> =
        parx::par_map(&candidates, |&c| {
            let (score, fold_trace) = cv_score(&split, c);
            (c, score, fold_trace)
        });
    // Assemble the replay buffer in candidate order: one `cv.candidate`
    // span per candidate wrapping its fold spans. Ids are assigned at
    // replay, so the buffer is identical at every job count.
    let mut trace: Vec<obs::PendingEvent> = Vec::new();
    if obs::enabled() {
        trace.push(obs::pending_event!(
            obs::SPAN_BEGIN,
            "name" => "cv.search",
            "candidates" => scored.len(),
        ));
        for (algo, score, fold_trace) in &scored {
            trace.push(obs::pending_event!(
                obs::SPAN_BEGIN,
                "name" => "cv.candidate",
                "algo" => format!("{algo:?}"),
            ));
            trace.extend(fold_trace.iter().cloned());
            trace.push(obs::pending_event!(
                obs::SPAN_END,
                "name" => "cv.candidate",
                "mape" => *score,
            ));
        }
    }
    let evaluated: Vec<(CfAlgorithm, f64)> = scored.iter().map(|(c, s, _)| (*c, *s)).collect();
    let (best, best_mape) = evaluated
        .iter()
        .min_by(|a, b| a.1.total_cmp(&b.1))
        .copied()
        .expect("at least one candidate");
    if obs::enabled() {
        trace.push(obs::pending_event!(
            "cv.best",
            "algo" => format!("{best:?}"),
            "mape" => best_mape,
        ));
        trace.push(obs::pending_event!(obs::SPAN_END, "name" => "cv.search"));
    }
    CvReport {
        best,
        best_mape,
        evaluated,
        trace,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Ratio-structured ratings (post-distillation shape): scalable and
    /// anti-scalable workload families.
    fn training() -> UtilityMatrix {
        let mut rows = Vec::new();
        for i in 0..10 {
            let up = i % 2 == 0;
            rows.push(
                (0..8)
                    .map(|c| {
                        let x = (c + 1) as f64;
                        Some(if up { x } else { 8.0 / x } * (1.0 + 0.01 * i as f64))
                    })
                    .collect(),
            );
        }
        UtilityMatrix::from_rows(rows)
    }

    #[test]
    fn tuner_returns_finite_best() {
        let opts = TuningOptions {
            n_candidates: 6,
            knn_only: true,
            ..TuningOptions::default()
        };
        let report = tune_cf(&training(), &opts);
        assert!(report.best_mape.is_finite());
        assert_eq!(report.evaluated.len(), 6);
        assert!(report.evaluated.iter().all(|(_, s)| *s >= report.best_mape));
    }

    #[test]
    fn tuner_is_deterministic() {
        let opts = TuningOptions {
            n_candidates: 5,
            knn_only: true,
            ..TuningOptions::default()
        };
        let a = tune_cf(&training(), &opts);
        let b = tune_cf(&training(), &opts);
        assert_eq!(format!("{:?}", a.best), format!("{:?}", b.best));
        assert_eq!(a.best_mape, b.best_mape);
    }

    #[test]
    fn tuner_buffers_spans_instead_of_emitting() {
        let opts = TuningOptions {
            n_candidates: 3,
            knn_only: true,
            ..TuningOptions::default()
        };
        let (report, direct) = obs::capture_trace(|| tune_cf(&training(), &opts));
        // Nothing beyond the trace's own schema header may be emitted
        // while tuning runs (candidates score on the worker pool).
        assert!(
            String::from_utf8_lossy(&direct)
                .lines()
                .all(|l| l.contains("\"kind\":\"trace.meta\"")),
            "tune_cf must not emit directly: {}",
            String::from_utf8_lossy(&direct)
        );
        let (_, replayed) = obs::capture_trace(|| report.emit_trace());
        let text = String::from_utf8(replayed).unwrap();
        assert!(text.contains("\"name\":\"cv.search\""));
        assert_eq!(text.matches("\"name\":\"cv.candidate\"").count(), 6);
        assert!(text.contains("\"name\":\"cv.fold\""));
        assert!(text.contains("\"kind\":\"cv.best\""));
        // Replaying the same buffer twice yields identical bytes.
        let (_, again) = obs::capture_trace(|| report.emit_trace());
        assert_eq!(String::from_utf8(again).unwrap(), text);
    }

    #[test]
    fn structured_data_scores_well() {
        let opts = TuningOptions {
            n_candidates: 6,
            knn_only: true,
            ..TuningOptions::default()
        };
        let report = tune_cf(&training(), &opts);
        assert!(
            report.best_mape < 0.2,
            "strongly structured ratings should be predictable, got {}",
            report.best_mape
        );
    }
}
