//! MF predictions are pinned *bit for bit*: Fig. 4's MF table, every CV
//! score of the random-search tuner and so every RecTM learner choice is a
//! function of these `Option<f64>`s. The flat-factor kernel must draw the
//! same initial factors, visit the entries in the same order, and evaluate
//! the same per-factor expressions and dot-product order as the nested-`Vec`
//! implementation kept verbatim below.

mod common;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use recsys::{BaggingEnsemble, CfAlgorithm, MfModel, MfParams, Row, UtilityMatrix};

/// The original `MfModel::fit`, kept verbatim as the reference: one `Vec`
/// per user and per item, indexed per factor. Returns the item factors.
fn reference_fit(training: &UtilityMatrix, params: MfParams) -> Vec<Vec<f64>> {
    let d = params.factors.max(1);
    let mut rng = StdRng::seed_from_u64(params.seed);
    let mut users: Vec<Vec<f64>> = (0..training.nrows())
        .map(|_| (0..d).map(|_| rng.gen_range(-0.1..0.1)).collect())
        .collect();
    let mut items: Vec<Vec<f64>> = (0..training.ncols())
        .map(|_| (0..d).map(|_| rng.gen_range(-0.1..0.1)).collect())
        .collect();
    let entries: Vec<(usize, usize, f64)> = (0..training.nrows())
        .flat_map(|r| {
            training
                .known_in_row(r)
                .map(move |(c, v)| (r, c, v))
                .collect::<Vec<_>>()
        })
        .collect();
    for _ in 0..params.epochs {
        for &(u, i, r) in &entries {
            let pred: f64 = users[u].iter().zip(&items[i]).map(|(p, q)| p * q).sum();
            let err = r - pred;
            for f in 0..d {
                let pu = users[u][f];
                let qi = items[i][f];
                users[u][f] += params.learning_rate * (err * qi - params.regularization * pu);
                items[i][f] += params.learning_rate * (err * pu - params.regularization * qi);
            }
        }
    }
    items
}

/// The original `MfModel::predict_row`, kept verbatim as the reference.
fn reference_predict_row(item_factors: &[Vec<f64>], params: MfParams, known: &Row) -> Row {
    let d = params.factors.max(1);
    let mut rng = StdRng::seed_from_u64(params.seed ^ 0x9E37);
    let mut user: Vec<f64> = (0..d).map(|_| rng.gen_range(-0.1..0.1)).collect();
    let observed: Vec<(usize, f64)> = known
        .iter()
        .enumerate()
        .filter_map(|(c, v)| v.map(|x| (c, x)))
        .collect();
    for _ in 0..params.epochs {
        for &(i, r) in &observed {
            let pred: f64 = user.iter().zip(&item_factors[i]).map(|(p, q)| p * q).sum();
            let err = r - pred;
            for (pu, qi) in user.iter_mut().zip(&item_factors[i]) {
                *pu += params.learning_rate * (err * qi - params.regularization * *pu);
            }
        }
    }
    (0..item_factors.len())
        .map(|i| {
            known
                .get(i)
                .copied()
                .flatten()
                .or_else(|| Some(user.iter().zip(&item_factors[i]).map(|(p, q)| p * q).sum()))
        })
        .collect()
}

/// Bit patterns, so that `-0.0` vs `0.0` and NaN payloads count too.
fn bits(row: &[Option<f64>]) -> Vec<Option<u64>> {
    row.iter().map(|v| v.map(f64::to_bits)).collect()
}

/// Hyper-parameters over the tuner's ranges and beyond: `d` in 1..=12 (odd
/// widths leave a scalar tail after any paired loop), a few epochs, and
/// some learning rates large enough to diverge, as MF over raw KPIs does in
/// Fig. 4.
fn random_params(rng: &mut StdRng) -> MfParams {
    MfParams {
        factors: rng.gen_range(1..=12),
        learning_rate: if rng.gen_bool(0.2) {
            rng.gen_range(0.5..2.0)
        } else {
            rng.gen_range(0.001..0.1)
        },
        regularization: rng.gen_range(0.0..0.2),
        epochs: rng.gen_range(0..=12),
        seed: rng.gen(),
    }
}

/// A training matrix that is full or has holes; a fifth of the cases are on
/// a KPI-like scale of thousands.
fn random_training(rng: &mut StdRng, case: usize) -> UtilityMatrix {
    let nrows = rng.gen_range(1..=10);
    let ncols = rng.gen_range(1..=16);
    let density = [1.0, 0.3, 0.7][case % 3];
    let scale = if case % 5 == 4 { 5000.0 } else { 5.0 };
    let rows = (0..nrows)
        .map(|_| {
            (0..ncols)
                .map(|_| rng.gen_bool(density).then(|| rng.gen_range(-scale..scale)))
                .collect()
        })
        .collect();
    UtilityMatrix::from_rows(rows)
}

/// A query knowing no column, exactly one, or many.
fn random_query(rng: &mut StdRng, ncols: usize, case: usize) -> Row {
    let mut known: Row = vec![None; ncols];
    match case % 3 {
        0 => {}
        1 => known[rng.gen_range(0..ncols)] = Some(rng.gen_range(-5.0..5.0)),
        _ => {
            for v in &mut known {
                if rng.gen_bool(0.6) {
                    *v = Some(rng.gen_range(-5.0..5.0));
                }
            }
        }
    }
    known
}

#[test]
fn flat_factors_match_the_nested_reference_bit_for_bit() {
    let mut rng = StdRng::seed_from_u64(0x4D_46);
    // What the cases are there to cover; asserted below so that a change
    // to the generator cannot silently stop covering it.
    let (mut odd_d, mut holed, mut many_known, mut non_finite) = (0, 0, 0, 0);
    for case in 0..240 {
        let params = random_params(&mut rng);
        let training = random_training(&mut rng, case);
        let model = MfModel::fit(&training, params);
        let items = reference_fit(&training, params);
        odd_d += usize::from(params.factors % 2 == 1);
        holed += usize::from(training.known_count() < training.nrows() * training.ncols());
        for q in 0..3 {
            let known = random_query(&mut rng, training.ncols(), case + q);
            let want = reference_predict_row(&items, params, &known);
            let got = model.predict_row(&known);
            many_known += usize::from(known.iter().flatten().count() > 1);
            non_finite += usize::from(want.iter().flatten().any(|v| !v.is_finite()));
            assert_eq!(
                bits(&got),
                bits(&want),
                "case {case} query {q} diverged\n params={params:?}\n known={known:?}\n training={training:?}"
            );
        }
    }
    assert!(odd_d >= 80, "odd d in only {odd_d} cases");
    assert!(holed >= 80, "holed matrices in only {holed} cases");
    assert!(many_known >= 80, "many-known queries in only {many_known}");
    assert!(non_finite >= 5, "diverged predictions in only {non_finite}");
}

/// An MF `BaggingEnsemble` is a Welford fold, in member order, of models
/// fitted on the bootstraps drawn from one `StdRng` seeded with the
/// ensemble seed; the fits run on the `parx` pool, which must not show.
#[test]
fn mf_ensemble_matches_reference_fold_at_every_job_count() {
    let mut rng = StdRng::seed_from_u64(0x4D_46_BA);
    let mut many_known = 0;
    for case in 0..30 {
        let params = random_params(&mut rng);
        let training = random_training(&mut rng, case);
        let known = random_query(&mut rng, training.ncols(), case);
        many_known += usize::from(known.iter().flatten().count() > 1);
        let (n_members, seed) = (10, 4000 + case as u64);
        let (want, _) = common::reference_ensemble(&training, n_members, seed, |sample| {
            reference_predict_row(&reference_fit(sample, params), params, &known)
        });
        for jobs in [1, 4] {
            let got = common::stats_bits(parx::with_jobs(jobs, || {
                BaggingEnsemble::fit(&training, CfAlgorithm::Mf(params), n_members, seed)
                    .predict_stats(&known)
            }));
            assert_eq!(
                got, want,
                "case {case} jobs={jobs} diverged\n params={params:?}\n known={known:?}\n training={training:?}"
            );
        }
    }
    assert!(many_known >= 8, "many-known queries in only {many_known}");
}

/// [`random_params`] at a given `d`, with enough epochs that a chain's
/// tail, or a fold-in's, moves the factors.
fn params_at(rng: &mut StdRng, factors: usize) -> MfParams {
    MfParams {
        factors,
        epochs: rng.gen_range(1..=12),
        ..random_params(rng)
    }
}

/// `fit_folds` trains its chains side by side; each must come out as the
/// reference fit of its own matrix, however many entries the others have.
#[test]
fn lockstep_folds_match_the_reference_chain_by_chain() {
    let mut rng = StdRng::seed_from_u64(0x4D_46_F0);
    let (mut uneven, mut chains_seen) = (0, [0; 5]);
    for case in 0..150 {
        let factors = if case % 14 == 13 { 16 } else { case % 14 };
        let params = params_at(&mut rng, factors);
        let ncols = rng.gen_range(1..=16);
        let n = 1 + case % 4;
        // Matrices over the same columns, with holes and different row
        // counts, so that the chains' entry counts differ.
        let trainings: Vec<UtilityMatrix> = (0..n)
            .map(|k| {
                let nrows = rng.gen_range(1..=10);
                let density = [1.0, 0.3, 0.7][(case + k) % 3];
                UtilityMatrix::from_rows(
                    (0..nrows)
                        .map(|_| {
                            (0..ncols)
                                .map(|_| rng.gen_bool(density).then(|| rng.gen_range(-5.0..5.0)))
                                .collect()
                        })
                        .collect(),
                )
            })
            .collect();
        let counts: Vec<usize> = trainings.iter().map(UtilityMatrix::known_count).collect();
        uneven += usize::from(counts.iter().any(|&c| c != counts[0]));
        chains_seen[n] += 1;
        let refs: Vec<&UtilityMatrix> = trainings.iter().collect();
        let models = MfModel::fit_folds(&refs, params);
        assert_eq!(models.len(), n);
        for (chain, (model, training)) in models.iter().zip(&trainings).enumerate() {
            let items = reference_fit(training, params);
            for q in 0..3 {
                let known = random_query(&mut rng, ncols, case + q);
                assert_eq!(
                    bits(&model.predict_row(&known)),
                    bits(&reference_predict_row(&items, params, &known)),
                    "case {case} chain {chain}/{n} query {q} diverged\n params={params:?}\n entries={counts:?}\n known={known:?}"
                );
            }
        }
    }
    assert!(uneven >= 80, "uneven entry counts in only {uneven} cases");
    assert!(chains_seen[1..].iter().all(|&n| n >= 30), "{chains_seen:?}");
}

/// `predict_rows` folds rows in side by side, a few at a time; each row
/// must come out as the reference fold-in of that row alone.
#[test]
fn batched_fold_in_matches_the_reference_row_by_row() {
    let mut rng = StdRng::seed_from_u64(0x4D_46_B4);
    let (mut knows_none, mut knows_one, mut knows_many) = (0, 0, 0);
    for case in 0..140 {
        let factors = if case % 14 == 13 { 16 } else { case % 14 };
        let params = params_at(&mut rng, factors);
        let training = random_training(&mut rng, case);
        let model = MfModel::fit(&training, params);
        let items = reference_fit(&training, params);
        let batch = case % 10;
        let rows: Vec<Row> = (0..batch)
            .map(|q| random_query(&mut rng, training.ncols(), case + q))
            .collect();
        let got = model.predict_rows(&rows);
        assert_eq!(got.len(), batch, "case {case}");
        for (q, (known, got)) in rows.iter().zip(&got).enumerate() {
            match known.iter().flatten().count() {
                0 => knows_none += 1,
                1 => knows_one += 1,
                _ => knows_many += 1,
            }
            assert_eq!(
                bits(got),
                bits(&reference_predict_row(&items, params, known)),
                "case {case} row {q}/{batch} diverged\n params={params:?}\n rows={rows:?}"
            );
        }
    }
    assert!(
        [knows_none, knows_one, knows_many]
            .iter()
            .all(|&n| n >= 100),
        "rows knowing none, one, many columns: {knows_none}, {knows_one}, {knows_many}"
    );
}

#[test]
#[should_panic(expected = "MfParams::factors is 17")]
fn more_than_sixteen_factors_panics() {
    let training = UtilityMatrix::from_rows(vec![vec![Some(1.0), Some(2.0)]]);
    let params = MfParams {
        factors: 17,
        ..MfParams::default()
    };
    MfModel::fit(&training, params);
}
