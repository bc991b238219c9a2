//! The tuner's cross-validation scores are pinned *bit for bit*: the
//! learner RecTM picks is the candidate with the lowest CV MAPE, so a
//! faster `tune_cf` must score every candidate on the same split, with the
//! same models, to the same bits. The per-candidate `cv_score` and the
//! candidate draw are kept verbatim below as the reference: each candidate
//! draws the split again from its own RNG seeded by `opts.seed`, fits each
//! fold on cloned rows and folds in one held-out row at a time.

#[path = "../../bench/tests/tuner_section/mod.rs"]
mod tuner_section;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use recsys::{
    mape, tune_cf, CfAlgorithm, CfPredictor, DistillationNorm, MfParams, Normalization, Row,
    Similarity, TuningOptions, UtilityMatrix,
};

/// The original `random_candidate`, verbatim.
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

/// The original `cv_score`, verbatim.
fn cv_score(
    training: &UtilityMatrix,
    algo: CfAlgorithm,
    opts: &TuningOptions,
) -> (f64, Vec<obs::PendingEvent>) {
    let mut rng = StdRng::seed_from_u64(opts.seed ^ 0xC0FFEE);
    let nrows = training.nrows();
    let folds = opts.folds.clamp(2, nrows.max(2));
    let mut assignment: Vec<usize> = (0..nrows).map(|r| r % folds).collect();
    // Shuffle fold assignment.
    for i in (1..nrows).rev() {
        let j = rng.gen_range(0..=i);
        assignment.swap(i, j);
    }
    let mut trace: Vec<obs::PendingEvent> = Vec::new();
    let mut pairs: Vec<(f64, f64)> = Vec::new();
    for fold in 0..folds {
        if obs::enabled() {
            trace.push(obs::pending_event!(
                obs::SPAN_BEGIN,
                "name" => "cv.fold",
                "fold" => fold,
            ));
        }
        let before = pairs.len();
        let fit_rows: Vec<Row> = (0..nrows)
            .filter(|&r| assignment[r] != fold)
            .map(|r| training.row(r).clone())
            .collect();
        if !fit_rows.is_empty() {
            let model = CfPredictor::fit(UtilityMatrix::from_rows(fit_rows), algo);
            for r in (0..nrows).filter(|&r| assignment[r] == fold) {
                let full = training.row(r);
                let known_cols: Vec<usize> = full
                    .iter()
                    .enumerate()
                    .filter_map(|(c, v)| v.map(|_| c))
                    .collect();
                if known_cols.len() < 2 {
                    continue;
                }
                // Hide a fraction of this row's entries, predict them back.
                let mut hidden = Vec::new();
                let mut masked = full.clone();
                for &c in &known_cols {
                    if rng.gen_bool(opts.holdout_fraction) && hidden.len() + 1 < known_cols.len() {
                        hidden.push(c);
                        masked[c] = None;
                    }
                }
                if hidden.is_empty() {
                    continue;
                }
                let pred = model.predict_row(&masked);
                for c in hidden {
                    if let (Some(real), Some(p)) = (full[c], pred[c]) {
                        pairs.push((real, p));
                    }
                }
            }
        }
        if obs::enabled() {
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

/// The original `tune_cf`'s candidates and choice, scored serially: every
/// candidate with its MAPE's bits, then the best.
fn reference_tune(training: &UtilityMatrix, opts: &TuningOptions) -> Vec<(CfAlgorithm, u64)> {
    let mut rng = StdRng::seed_from_u64(opts.seed);
    let mut candidates: Vec<CfAlgorithm> = vec![
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
    let evaluated: Vec<(CfAlgorithm, f64)> = candidates
        .iter()
        .map(|&c| (c, cv_score(training, c, opts).0))
        .collect();
    let best = *evaluated
        .iter()
        .min_by(|a, b| a.1.total_cmp(&b.1))
        .expect("at least one candidate");
    evaluated
        .into_iter()
        .chain([best])
        .map(|(c, s)| (c, s.to_bits()))
        .collect()
}

/// `tune_cf`'s candidates with their MAPE bits, then its best, in the
/// shape of [`reference_tune`].
fn tuned(training: &UtilityMatrix, opts: &TuningOptions) -> Vec<(CfAlgorithm, u64)> {
    let report = tune_cf(training, opts);
    report
        .evaluated
        .iter()
        .copied()
        .chain([(report.best, report.best_mape)])
        .map(|(c, s)| (c, s.to_bits()))
        .collect()
}

/// A ratings matrix with holes: some rows know fewer than two columns (and
/// so are never scored), and a fifth of the matrices are on a KPI-like
/// scale of thousands.
fn random_training(rng: &mut StdRng, case: usize) -> UtilityMatrix {
    let nrows = rng.gen_range(1..=12);
    let ncols = rng.gen_range(2..=10);
    let density = [1.0, 0.4, 0.75][case % 3];
    let scale = if case % 5 == 4 { 5000.0 } else { 5.0 };
    let rows = (0..nrows)
        .map(|_| {
            let sparse = rng.gen_bool(0.2);
            (0..ncols)
                .map(|_| {
                    let p = if sparse { 0.1 } else { density };
                    rng.gen_bool(p).then(|| rng.gen_range(0.1..scale))
                })
                .collect()
        })
        .collect();
    UtilityMatrix::from_rows(rows)
}

#[test]
fn tune_cf_scores_every_candidate_as_the_reference_does() {
    let mut rng = StdRng::seed_from_u64(0xC5_0F);
    // What the cases are there to cover; asserted below so that a change
    // to the generator cannot silently stop covering it.
    let (mut mf, mut sparse_rows, mut holed, mut infinite) = (0, 0, 0, 0);
    for case in 0..120 {
        let training = random_training(&mut rng, case);
        let opts = TuningOptions {
            n_candidates: rng.gen_range(2..=6),
            folds: rng.gen_range(2..=5),
            holdout_fraction: rng.gen_range(0.2..0.8),
            seed: rng.gen(),
            knn_only: case % 4 == 0,
        };
        let want = reference_tune(&training, &opts);
        for jobs in [1, 3] {
            let got = parx::with_jobs(jobs, || tuned(&training, &opts));
            assert_eq!(
                got, want,
                "case {case} jobs={jobs} diverged\n opts={opts:?}\n training={training:?}"
            );
        }
        mf += want
            .iter()
            .filter(|(c, _)| matches!(c, CfAlgorithm::Mf(_)))
            .count();
        sparse_rows +=
            usize::from((0..training.nrows()).any(|r| training.known_in_row(r).count() < 2));
        holed += usize::from(training.known_count() < training.nrows() * training.ncols());
        infinite += usize::from(want.iter().any(|(_, s)| *s == f64::INFINITY.to_bits()));
    }
    assert!(mf >= 100, "MF candidates in only {mf}");
    assert!(
        sparse_rows >= 30,
        "rows knowing < 2 columns in only {sparse_rows} cases"
    );
    assert!(holed >= 60, "holed matrices in only {holed} cases");
    assert!(
        infinite >= 5,
        "unscorable candidates in only {infinite} cases"
    );
}

/// The benchmark's tuner section: what `RecTm::offline` tunes on, at the
/// default options and with KNN only.
#[test]
fn tune_cf_on_the_benchmark_matrix_is_the_reference() {
    let (train, _) = tuner_section::train_and_truth();
    let mut norm = DistillationNorm::new();
    norm.fit(&train);
    let ratings = norm.transform_matrix(&train);
    for knn_only in [false, true] {
        let opts = TuningOptions {
            knn_only,
            ..TuningOptions::default()
        };
        assert_eq!(
            tuned(&ratings, &opts),
            reference_tune(&ratings, &opts),
            "knn_only={knn_only}"
        );
    }
}
