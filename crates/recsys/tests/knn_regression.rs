//! KNN and ensemble predictions are pinned *bit for bit*: every table the
//! experiments print and every RecTM decision is a function of these
//! `Option<f64>`s, so a faster kernel must choose the same neighbours in
//! the same order, break similarity ties the same way, and add the same
//! terms in the same order as the implementation kept verbatim below.

mod common;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use recsys::{BaggingEnsemble, CfAlgorithm, KnnModel, Row, Similarity, UtilityMatrix};

/// The original `KnnModel::predict_row`, kept verbatim as the reference:
/// per column, collect every training row that has a similarity and rates
/// the column, stable-sort by |similarity| descending, keep `k`, average.
fn reference_predict_row(
    training: &UtilityMatrix,
    similarity: Similarity,
    k: usize,
    known: &Row,
) -> Row {
    let k = k.max(1);
    let sims: Vec<Option<f64>> = (0..training.nrows())
        .map(|r| similarity.between(known, training.row(r), 1))
        .collect();
    let mut neighbours: Vec<(f64, f64)> = Vec::new(); // (similarity, rating)
    (0..training.ncols())
        .map(|col| {
            known.get(col).copied().flatten().or_else(|| {
                neighbours.clear();
                for (r, sim) in sims.iter().enumerate() {
                    if let (Some(sim), Some(rating)) = (sim, training.get(r, col)) {
                        neighbours.push((*sim, rating));
                    }
                }
                if neighbours.is_empty() {
                    return None;
                }
                neighbours.sort_by(|a, b| b.0.abs().total_cmp(&a.0.abs()));
                neighbours.truncate(k);
                let wsum: f64 = neighbours.iter().map(|(s, _)| s.abs()).sum();
                if wsum < 1e-12 {
                    return None;
                }
                Some(neighbours.iter().map(|(s, r)| s * r).sum::<f64>() / wsum)
            })
        })
        .collect()
}

/// Bit patterns, so that `-0.0` vs `0.0` and NaN payloads count too.
fn bits(row: &[Option<f64>]) -> Vec<Option<u64>> {
    row.iter().map(|v| v.map(f64::to_bits)).collect()
}

fn random_row(rng: &mut StdRng, len: usize, density: f64) -> Row {
    (0..len)
        .map(|_| rng.gen_bool(density).then(|| rng.gen_range(-50.0..50.0)))
        .collect()
}

/// A training matrix with the shapes the ranking argument has to survive:
/// duplicated rows (similarity ties) and a column nobody rates.
fn random_training(rng: &mut StdRng, case: usize) -> UtilityMatrix {
    let nrows = rng.gen_range(1..=14);
    let ncols = rng.gen_range(1..=24);
    let density = [0.2, 0.5, 0.9, 1.0][case % 4];
    let mut rows: Vec<Row> = (0..nrows)
        .map(|_| random_row(rng, ncols, density))
        .collect();
    if case.is_multiple_of(3) {
        for r in 1..nrows {
            if rng.gen_bool(0.5) {
                rows[r] = rows[rng.gen_range(0..r)].clone();
            }
        }
    }
    if case.is_multiple_of(5) {
        let blank = rng.gen_range(0..ncols);
        for row in &mut rows {
            row[blank] = None;
        }
    }
    UtilityMatrix::from_rows(rows)
}

/// A query knowing between one and all of the columns.
fn random_query(rng: &mut StdRng, ncols: usize) -> Row {
    let mut cols: Vec<usize> = (0..ncols).collect();
    for i in (1..ncols).rev() {
        cols.swap(i, rng.gen_range(0..=i));
    }
    let mut known: Row = vec![None; ncols];
    for &c in &cols[..rng.gen_range(1..=ncols)] {
        known[c] = Some(rng.gen_range(-50.0..50.0));
    }
    known
}

#[test]
fn predict_row_matches_reference_bit_for_bit() {
    let mut rng = StdRng::seed_from_u64(0x4B_4E_4E);
    // What the cases are there to cover; asserted below so that a change
    // to the generator cannot silently stop covering it.
    let (mut ties, mut negative, mut k_beyond_rows, mut fully_known, mut unrated) = (0, 0, 0, 0, 0);
    for case in 0..600 {
        let training = random_training(&mut rng, case);
        let known = random_query(&mut rng, training.ncols());
        let k = 1 + case % 10;
        k_beyond_rows += usize::from(k > training.nrows());
        fully_known += usize::from(known.iter().all(Option::is_some));
        unrated += usize::from(
            (0..training.ncols())
                .any(|c| (0..training.nrows()).all(|r| training.get(r, c).is_none())),
        );
        for similarity in Similarity::ALL {
            let sims: Vec<f64> = (0..training.nrows())
                .filter_map(|r| similarity.between(&known, training.row(r), 1))
                .collect();
            negative += usize::from(sims.iter().any(|s| *s < 0.0));
            ties += usize::from(
                sims.iter()
                    .enumerate()
                    .any(|(i, s)| sims[..i].iter().any(|t| t.abs() == s.abs())),
            );
            let want = reference_predict_row(&training, similarity, k, &known);
            let model = KnnModel::fit(training.clone(), similarity, k);
            let got = model.predict_row(&known);
            assert_eq!(
                bits(&got),
                bits(&want),
                "{similarity:?} k={k} diverged (case {case})\n known={known:?}\n training={training:?}"
            );
            // The single-column entry point ranks the same neighbourhood.
            for c in (0..training.ncols()).filter(|&c| known[c].is_none()) {
                assert_eq!(
                    model.predict(&known, c).map(f64::to_bits),
                    want[c].map(f64::to_bits),
                    "{similarity:?} k={k} predict({c}) diverged (case {case})"
                );
            }
        }
    }
    assert!(ties >= 50, "similarity ties in only {ties} cases");
    assert!(
        negative >= 50,
        "negative similarities in only {negative} cases"
    );
    assert!(
        k_beyond_rows >= 50,
        "k > rows in only {k_beyond_rows} cases"
    );
    assert!(
        fully_known >= 5,
        "fully known queries in only {fully_known} cases"
    );
    assert!(unrated >= 50, "unrated columns in only {unrated} cases");
}

/// One ensemble case: the reference fold of [`reference_predict_row`]
/// members against `BaggingEnsemble::predict_stats` at `parx` jobs 1 and 4
/// (where the members are computed must not show). Returns the bootstraps.
fn check_ensemble(
    training: &UtilityMatrix,
    similarity: Similarity,
    k: usize,
    known: &Row,
    seed: u64,
    case: &str,
) -> Vec<Vec<usize>> {
    let n_members = 10;
    let (want, bootstraps) = common::reference_ensemble(training, n_members, seed, |sample| {
        reference_predict_row(sample, similarity, k, known)
    });
    for jobs in [1, 4] {
        let got = common::stats_bits(parx::with_jobs(jobs, || {
            BaggingEnsemble::fit(
                training,
                CfAlgorithm::Knn { similarity, k },
                n_members,
                seed,
            )
            .predict_stats(known)
        }));
        assert_eq!(
            got, want,
            "{similarity:?} k={k} jobs={jobs} diverged ({case})\n known={known:?}\n training={training:?}"
        );
    }
    bootstraps
}

/// Each member's ranking as training rows: its comparable rows (those with
/// a similarity in `sims`), stable-sorted by |similarity|. Its prefix is
/// the first `k`.
fn member_rankings(sims: &[Option<f64>], bootstraps: &[Vec<usize>]) -> Vec<Vec<usize>> {
    bootstraps
        .iter()
        .map(|b| {
            let mut ranked: Vec<usize> = b.iter().copied().filter(|&r| sims[r].is_some()).collect();
            ranked.sort_by(|&x, &y| {
                let abs = |r: usize| sims[r].map_or(0.0, f64::abs);
                abs(y).total_cmp(&abs(x))
            });
            ranked
        })
        .collect()
}

/// `BaggingEnsemble::predict_stats` is a Welford fold, in member order, of
/// the members' predictions; member `m` is trained on the `m`-th bootstrap
/// drawn from one `StdRng` seeded with the ensemble seed. The members share
/// one ranking of the training rows, so the cases cover what a shared
/// ranking has to survive.
#[test]
fn predict_stats_matches_reference_fold_at_every_job_count() {
    let mut rng = StdRng::seed_from_u64(0xBA_66);
    // What the cases are there to cover; asserted below so that a change
    // to the generator cannot silently stop covering it.
    let (mut member_ties, mut all_tied, mut k_beyond_distinct, mut unrated, mut complete) =
        (0, 0, 0, 0, 0);
    // What the shared prefixes have to survive: members whose first `k`
    // ranked rows agree but whose rankings differ past them, a column some
    // prefix row leaves unrated (the member walks its ranking), prefix
    // weights summing below 1e-12, and fewer comparable rows than `k`.
    let (mut shared_prefix, mut walked, mut weightless_prefix, mut k_beyond_comparable) =
        (0, 0, 0, 0);
    // Members whose best |similarity| is shared by distinct rows they drew
    // at different positions: a prefix walk takes that group's rows in draw
    // order, at k = 1 and at k > 1.
    let (mut tied_best_k1, mut tied_best_k_more) = (0, 0);
    let abs_bits = |sim: Option<f64>| sim.map(|s| s.abs().to_bits());
    let mut cover = |training: &UtilityMatrix,
                     similarity: Similarity,
                     k: usize,
                     known: &Row,
                     bootstraps: &[Vec<usize>]| {
        let sims = similarities(training, similarity, known);
        member_ties += usize::from(bootstraps.iter().any(|b| {
            b.iter().any(|&r| {
                b.iter()
                    .any(|&s| s != r && sims[r].is_some() && abs_bits(sims[s]) == abs_bits(sims[r]))
            })
        }));
        all_tied += usize::from(
            training.nrows() > 1
                && known.iter().flatten().count() == 1
                && sims
                    .iter()
                    .all(|s| s.is_some() && abs_bits(*s) == abs_bits(sims[0])),
        );
        k_beyond_distinct += usize::from(bootstraps.iter().any(|b| {
            let mut distinct = b.clone();
            distinct.sort_unstable();
            distinct.dedup();
            k > distinct.len()
        }));
        unrated += usize::from(
            (0..training.ncols())
                .any(|c| (0..training.nrows()).all(|r| training.get(r, c).is_none())),
        );
        complete += usize::from(
            training.nrows() == 60 && training.ncols() == 130 && training.known_count() == 60 * 130,
        );
        let rankings = member_rankings(&sims, bootstraps);
        let prefix = |m: usize| &rankings[m][..k.min(rankings[m].len())];
        shared_prefix += usize::from(
            (0..rankings.len())
                .any(|a| (0..a).any(|b| prefix(a) == prefix(b) && rankings[a] != rankings[b])),
        );
        walked += usize::from((0..rankings.len()).any(|m| {
            (0..training.ncols()).any(|c| {
                known[c].is_none() && prefix(m).iter().any(|&r| training.get(r, c).is_none())
            })
        }));
        weightless_prefix += usize::from((0..rankings.len()).any(|m| {
            !prefix(m).is_empty()
                && prefix(m)
                    .iter()
                    .map(|&r| sims[r].map_or(0.0, f64::abs))
                    .sum::<f64>()
                    < 1e-12
        }));
        k_beyond_comparable += usize::from(rankings.iter().any(|r| k > r.len()));
        let tied_best = rankings.iter().any(|ranked| {
            ranked.first().is_some_and(|&top| {
                ranked
                    .iter()
                    .any(|&r| r != top && abs_bits(sims[r]) == abs_bits(sims[top]))
            })
        });
        if k == 1 {
            tied_best_k1 += usize::from(tied_best);
        } else {
            tied_best_k_more += usize::from(tied_best);
        }
    };

    // Random shapes: duplicated rows, holes, a column nobody rates.
    for case in 0..60 {
        let training = random_training(&mut rng, case);
        let known = random_query(&mut rng, training.ncols());
        let similarity = Similarity::ALL[case % 3];
        let k = 1 + case % 5;
        let seed = 1000 + case as u64;
        let bootstraps = check_ensemble(
            &training,
            similarity,
            k,
            &known,
            seed,
            &format!("case {case}"),
        );
        cover(&training, similarity, k, &known, &bootstraps);
    }

    // The distillation reference step: every row rates the reference
    // column 1, and the query knows only that column, so every row ties.
    for case in 0..12 {
        let mut training = random_training(&mut rng, case);
        let reference = rng.gen_range(0..training.ncols());
        for r in 0..training.nrows() {
            training.set(r, reference, 1.0);
        }
        let mut known: Row = vec![None; training.ncols()];
        known[reference] = Some(1.0);
        let similarity = [Similarity::Euclidean, Similarity::Cosine][case % 2];
        let k = 1 + case % 3;
        let seed = 2000 + case as u64;
        let bootstraps = check_ensemble(
            &training,
            similarity,
            k,
            &known,
            seed,
            &format!("reference step {case}"),
        );
        cover(&training, similarity, k, &known, &bootstraps);
    }

    // Zero similarities: cosine rates a row whose two query columns read
    // `(a, -a)` against the query's `(x, x)` exactly 0, so a member that
    // drew only such rows has a prefix of zero weight.
    for case in 0..12 {
        let ncols = rng.gen_range(3..=10);
        let x = rng.gen_range(0.5..50.0);
        let mut known: Row = vec![None; ncols];
        known[0] = Some(x);
        known[1] = Some(x);
        let nrows = rng.gen_range(3..=8);
        let training = UtilityMatrix::from_rows(
            (0..nrows)
                .map(|r| {
                    let mut row = random_row(&mut rng, ncols, 0.7);
                    let a = rng.gen_range(0.5..50.0);
                    row[0] = Some(a);
                    row[1] = Some(if r < case % 3 {
                        rng.gen_range(0.5..50.0)
                    } else {
                        -a
                    });
                    row
                })
                .collect(),
        );
        let k = 1 + case % 3;
        let seed = 2500 + case as u64;
        let bootstraps = check_ensemble(
            &training,
            Similarity::Cosine,
            k,
            &known,
            seed,
            &format!("zero similarity {case}"),
        );
        cover(&training, Similarity::Cosine, k, &known, &bootstraps);
    }

    // The benchmark tuner's shape: a complete 60 × 130 matrix distilled by
    // reference column 17, under the learner `tune_cf` picks there, queried
    // at the reference step and after a few more samples.
    let training = UtilityMatrix::from_rows(
        (0..60)
            .map(|_| {
                (0..130)
                    .map(|c| {
                        Some(if c == 17 {
                            1.0
                        } else {
                            rng.gen_range(0.0..2.0)
                        })
                    })
                    .collect()
            })
            .collect(),
    );
    let mut known: Row = vec![None; 130];
    for (step, c) in [17, 3, 88, 129, 54].into_iter().enumerate() {
        known[c] = Some(if c == 17 {
            1.0
        } else {
            rng.gen_range(0.0..2.0)
        });
        let bootstraps = check_ensemble(
            &training,
            Similarity::Euclidean,
            1,
            &known,
            3000,
            &format!("60 x 130 step {step}"),
        );
        cover(&training, Similarity::Euclidean, 1, &known, &bootstraps);
    }

    assert!(
        member_ties >= 30,
        "distinct rows tying inside a bootstrap in only {member_ties} cases"
    );
    assert!(all_tied >= 10, "every row tied in only {all_tied} cases");
    assert!(
        k_beyond_distinct >= 12,
        "k > distinct rows of a member in only {k_beyond_distinct} cases"
    );
    assert!(unrated >= 20, "unrated columns in only {unrated} cases");
    assert!(
        complete >= 5,
        "complete 60 x 130 matrix in only {complete} cases"
    );
    assert!(
        shared_prefix >= 30,
        "one prefix, different rankings in only {shared_prefix} cases"
    );
    assert!(
        walked >= 30,
        "a prefix row leaving a column unrated in only {walked} cases"
    );
    assert!(
        weightless_prefix >= 6,
        "a prefix of weight below 1e-12 in only {weightless_prefix} cases"
    );
    assert!(
        tied_best_k1 >= 10,
        "a member's best rows tied at k = 1 in only {tied_best_k1} cases"
    );
    assert!(
        tied_best_k_more >= 30,
        "a member's best rows tied at k > 1 in only {tied_best_k_more} cases"
    );
    assert!(
        k_beyond_comparable >= 10,
        "k > comparable rows of a member in only {k_beyond_comparable} cases"
    );
}

/// The shapes `Shared::new`'s dense pass over a prefix has to survive, one
/// hand-built case each, every one against the reference fold at every job
/// count: a prefix row leaving an unknown column unrated (its 0.0 enters
/// the dense sum, and every member reading the prefix must overwrite that
/// column from its own ranking), a prefix of weight below 1e-12 (the
/// columns it rates are gaps, its unrated ones still walked), a zero
/// rating under a negative cosine similarity (the product is `-0.0`, and
/// the sum starts at `-0.0` as `Sum<f64>` does), and `k > 1` over
/// bootstraps that draw a row more than once.
///
/// The Welford fold adds each prediction to a mean that starts at `+0.0`,
/// so the sign of a zero prediction never reaches `predict_stats`; the
/// member predictions themselves are pinned bit for bit by `recsys`'s
/// `bagging::tests::prefix_pass_matches_average`.
#[test]
fn dense_prefix_pass_matches_reference_fold_at_every_job_count() {
    let mut rng = StdRng::seed_from_u64(0xDE_45E);
    // Per case, how many seeds gave some member the shape the case is for.
    let mut hits = [0usize; 4];
    for seed in 0..8u64 {
        // A prefix row leaves an unknown column unrated: the query matches
        // row 0 exactly at columns 0 and 1, and row 0 rates neither 4 nor 5.
        let mut training: Vec<Row> = (0..6).map(|_| random_row(&mut rng, 6, 1.0)).collect();
        training[0][4] = None;
        training[0][5] = None;
        training[3][5] = None;
        let training = UtilityMatrix::from_rows(training);
        let mut known: Row = vec![None; 6];
        known[0] = training.get(0, 0);
        known[1] = training.get(0, 1);
        for k in [1, 2] {
            let b = check_ensemble(
                &training,
                Similarity::Euclidean,
                k,
                &known,
                4000 + seed,
                "unrated prefix column",
            );
            let sims = similarities(&training, Similarity::Euclidean, &known);
            hits[0] += usize::from(member_rankings(&sims, &b).iter().any(|r| {
                r[..k.min(r.len())]
                    .iter()
                    .any(|&row| training.get(row, 4).is_none())
            }));
        }

        // A prefix of weight below 1e-12: cosine rates every row whose
        // query columns read `(a, -a)` against the query's `(x, x)` exactly
        // 0; row 0 alone has weight, and row 1 leaves column 3 unrated.
        let x = rng.gen_range(0.5..50.0);
        let training = UtilityMatrix::from_rows(
            (0..5)
                .map(|r| {
                    let mut row = random_row(&mut rng, 5, 1.0);
                    let a = rng.gen_range(0.5..50.0);
                    row[0] = Some(a);
                    row[1] = Some(if r == 0 { a } else { -a });
                    if r == 1 {
                        row[3] = None;
                    }
                    row
                })
                .collect(),
        );
        let known: Row = vec![Some(x), Some(x), None, None, None];
        for k in [1, 2] {
            let b = check_ensemble(
                &training,
                Similarity::Cosine,
                k,
                &known,
                4100 + seed,
                "weightless prefix",
            );
            let sims = similarities(&training, Similarity::Cosine, &known);
            hits[1] += usize::from(member_rankings(&sims, &b).iter().any(|r| {
                let prefix = &r[..k.min(r.len())];
                !prefix.is_empty()
                    && prefix
                        .iter()
                        .map(|&row| sims[row].unwrap().abs())
                        .sum::<f64>()
                        < 1e-12
            }));
        }

        // A zero rating under a negative cosine similarity: rows 0..3
        // point away from the query and rate column 2 as 0.0.
        let training = UtilityMatrix::from_rows(
            (0..6)
                .map(|r| {
                    let mut row = random_row(&mut rng, 4, 1.0);
                    if r < 3 {
                        row[0] = Some(-rng.gen_range(0.5..50.0));
                        row[1] = Some(-rng.gen_range(0.5..50.0));
                        row[2] = Some(0.0);
                    }
                    row
                })
                .collect(),
        );
        let known: Row = vec![Some(x), Some(rng.gen_range(0.5..50.0)), None, None];
        let b = check_ensemble(
            &training,
            Similarity::Cosine,
            1,
            &known,
            4200 + seed,
            "negative zero",
        );
        let sims = similarities(&training, Similarity::Cosine, &known);
        hits[2] += usize::from(member_rankings(&sims, &b).iter().any(|r| {
            r.first()
                .is_some_and(|&row| sims[row].unwrap() < 0.0 && training.get(row, 2) == Some(0.0))
        }));

        // `k > 1` with repeated draws: three rows, so every bootstrap
        // repeats one, and `k = 3` takes it twice into some prefix.
        let training =
            UtilityMatrix::from_rows((0..3).map(|_| random_row(&mut rng, 5, 0.8)).collect());
        let known = random_query(&mut rng, 5);
        for similarity in Similarity::ALL {
            let b = check_ensemble(
                &training,
                similarity,
                3,
                &known,
                4300 + seed,
                "repeated draws",
            );
            let sims = similarities(&training, similarity, &known);
            hits[3] += usize::from(member_rankings(&sims, &b).iter().any(|r| {
                let prefix = &r[..3.min(r.len())];
                prefix
                    .iter()
                    .enumerate()
                    .any(|(i, row)| prefix[..i].contains(row))
            }));
        }
    }
    let names = [
        "a prefix row leaving an unknown column unrated",
        "a prefix of weight below 1e-12",
        "a negative similarity over a zero rating",
        "a row repeated in a prefix at k = 3",
    ];
    // Of 16, 16, 8 and 24 ensembles.
    for ((name, n), floor) in names.iter().zip(hits).zip([12, 12, 6, 16]) {
        assert!(n >= floor, "{name} in only {n} cases ({hits:?})");
    }
}

/// Every training row's similarity to `known`, `None` where it has none.
fn similarities(training: &UtilityMatrix, similarity: Similarity, known: &Row) -> Vec<Option<f64>> {
    (0..training.nrows())
        .map(|r| similarity.between(known, training.row(r), 1))
        .collect()
}

/// The similarity kernel before KNN kept its ratings column-major, kept
/// verbatim as the reference: one row against the query's known
/// `(column, value)` entries, each sum adding its terms in column order.
fn row_kernel(similarity: Similarity, a: &[(usize, f64)], b: &Row) -> Option<f64> {
    let co_rated = || {
        a.iter()
            .filter_map(|&(c, x)| b.get(c).copied().flatten().map(|y| (x, y)))
    };
    match similarity {
        Similarity::Euclidean => {
            let (mut n, mut d2) = (0usize, 0.0f64);
            for (x, y) in co_rated() {
                n += 1;
                d2 += (x - y).powi(2);
            }
            (n >= 1).then(|| 1.0 / (1.0 + d2.sqrt()))
        }
        Similarity::Cosine => {
            let (mut n, mut dot, mut na2, mut nb2) = (0usize, 0.0f64, 0.0f64, 0.0f64);
            for (x, y) in co_rated() {
                n += 1;
                dot += x * y;
                na2 += x * x;
                nb2 += y * y;
            }
            if n < 1 {
                return None;
            }
            let (na, nb) = (na2.sqrt(), nb2.sqrt());
            if na < 1e-12 || nb < 1e-12 {
                None
            } else {
                Some(dot / (na * nb))
            }
        }
        Similarity::Pearson => {
            let (mut count, mut sx, mut sy) = (0usize, 0.0f64, 0.0f64);
            for (x, y) in co_rated() {
                count += 1;
                sx += x;
                sy += y;
            }
            if count < 1 {
                return None;
            }
            let n = count as f64;
            let (ma, mb) = (sx / n, sy / n);
            let (mut cov, mut va2, mut vb2) = (0.0f64, 0.0f64, 0.0f64);
            for (x, y) in co_rated() {
                cov += (x - ma) * (y - mb);
                va2 += (x - ma).powi(2);
                vb2 += (y - mb).powi(2);
            }
            let (va, vb) = (va2.sqrt(), vb2.sqrt());
            if va < 1e-12 || vb < 1e-12 {
                None
            } else {
                Some(cov / (va * vb))
            }
        }
    }
}

/// The prediction before the ranking was partial, kept verbatim as the
/// reference: every row through [`row_kernel`], one *stable* sort of the
/// whole ranking by |similarity|, then per column the weighted mean of its
/// first `k` ranked raters.
fn stable_sort_predict_row(
    training: &UtilityMatrix,
    similarity: Similarity,
    k: usize,
    known: &Row,
) -> Row {
    let k = k.max(1);
    let entries: Vec<(usize, f64)> = known
        .iter()
        .enumerate()
        .filter_map(|(c, v)| v.map(|x| (c, x)))
        .collect();
    let mut ranking: Vec<(f64, usize)> = (0..training.nrows())
        .filter_map(|r| row_kernel(similarity, &entries, training.row(r)).map(|sim| (sim, r)))
        .collect();
    ranking.sort_by(|a, b| b.0.abs().total_cmp(&a.0.abs()));
    (0..training.ncols())
        .map(|c| {
            known.get(c).copied().flatten().or_else(|| {
                let neighbours = || {
                    ranking
                        .iter()
                        .filter_map(|&(sim, r)| training.get(r, c).map(|v| (sim, v)))
                        .take(k)
                };
                let wsum: f64 = neighbours().map(|(s, _)| s.abs()).sum();
                if wsum < 1e-12 {
                    return None;
                }
                Some(neighbours().map(|(s, r)| s * r).sum::<f64>() / wsum)
            })
        })
        .collect()
}

/// `KnnModel::predict_row` and `BaggingEnsemble::predict_stats` (ten
/// members, bootstraps that repeat rows) against [`stable_sort_predict_row`]
/// and its materialized-member fold, bit for bit.
fn check_exact(
    training: &UtilityMatrix,
    similarity: Similarity,
    k: usize,
    known: &Row,
    case: &str,
) {
    let want = stable_sort_predict_row(training, similarity, k, known);
    let got = KnnModel::fit(training.clone(), similarity, k).predict_row(known);
    assert_eq!(
        bits(&got),
        bits(&want),
        "{similarity:?} k={k} predict_row diverged ({case})\n known={known:?}\n training={training:?}"
    );
    let seed = 0xE4AC7 ^ k as u64;
    let (want, _) = common::reference_ensemble(training, 10, seed, |sample| {
        stable_sort_predict_row(sample, similarity, k, known)
    });
    let got = common::stats_bits(
        BaggingEnsemble::fit(training, CfAlgorithm::Knn { similarity, k }, 10, seed)
            .predict_stats(known),
    );
    assert_eq!(
        got, want,
        "{similarity:?} k={k} predict_stats diverged ({case})\n known={known:?}\n training={training:?}"
    );
}

/// How many fallback sorts `f` made: the rankings a walk had to sort past
/// their prefix. Other tests of this binary only ever add to the counter.
fn fallback_sorts(f: impl FnOnce()) -> u64 {
    obs::start_trace_memory();
    f();
    let sorts = obs::counter("recsys.knn.sorts").get();
    obs::finish_trace();
    sorts
}

/// The ranking sorts only its first rows, and a walk past them sorts the
/// rest: predictions must still be exactly those of the whole stable sort.
/// Random matrices with ratings from a small set (so similarities tie),
/// unrated entries and up to 40 rows, under every similarity and `k` from
/// 1 to 10; then a tied group straddling the sorted prefix's end, a
/// ranking that reverses the rows, and the reference-only query where
/// every row ties.
#[test]
fn partial_ranking_matches_the_whole_stable_sort() {
    let mut rng = StdRng::seed_from_u64(0x50_27);
    let levels = [-1.0, 0.0, 0.5, 1.0, 2.0];
    let level = |rng: &mut StdRng| levels[rng.gen_range(0..levels.len())];
    let (mut tied, mut long) = (0, 0);
    for case in 0..120 {
        let nrows = rng.gen_range(1..=40);
        let ncols = rng.gen_range(2..=10);
        let density = [0.6, 0.85, 1.0][case % 3];
        let training = UtilityMatrix::from_rows(
            (0..nrows)
                .map(|_| {
                    (0..ncols)
                        .map(|_| rng.gen_bool(density).then(|| level(&mut rng)))
                        .collect()
                })
                .collect(),
        );
        let known: Row = (0..ncols)
            .map(|_| rng.gen_bool(0.4).then(|| level(&mut rng)))
            .collect();
        long += usize::from(nrows > 16);
        for similarity in Similarity::ALL {
            let sims: Vec<u64> = similarities(&training, similarity, &known)
                .into_iter()
                .flatten()
                .map(|s| s.abs().to_bits())
                .collect();
            tied += usize::from((1..sims.len()).any(|i| sims[..i].contains(&sims[i])));
            check_exact(
                &training,
                similarity,
                1 + case % 10,
                &known,
                &format!("case {case}"),
            );
        }
    }
    assert!(tied >= 150, "tied similarities in only {tied} cases");
    assert!(
        long >= 40,
        "more rows than the sorted prefix in only {long} cases"
    );

    // Rows 0..8 match the query's three known columns less and less well;
    // rows 8..30 all read (2, 4, 6) there, one group of equal |similarity|
    // across the sorted prefix's end, under every similarity. Rows 0..20
    // leave column 5 unrated, so its neighbours lie past the prefix too.
    let training = UtilityMatrix::from_rows(
        (0..30)
            .map(|r| {
                let head = if r < 8 {
                    [1.0, 2.0, 3.0 + 0.5 * r as f64]
                } else {
                    [2.0, 4.0, 6.0]
                };
                let mut row: Row = head.iter().map(|&v| Some(v)).collect();
                row.extend((3..6).map(|c| (c != 5 || r >= 20).then(|| level(&mut rng))));
                row
            })
            .collect(),
    );
    let known: Row = vec![Some(1.0), Some(2.0), Some(3.0), None, None, None];
    for similarity in Similarity::ALL {
        for k in 1..=10 {
            let sorts = fallback_sorts(|| {
                check_exact(&training, similarity, k, &known, "a tie across the prefix");
            });
            assert!(sorts > 0, "{similarity:?} k={k}: no fallback sort");
        }
    }

    // Similarity rising with the row index: the ranking reverses the rows,
    // and column 3 is rated only by rows 0..10, which rank last, so its
    // neighbours must be read from a sorted tail.
    let reversed = UtilityMatrix::from_rows(
        (0..30)
            .map(|r| {
                let t = (30 - r) as f64 * 0.1;
                vec![
                    Some(1.0),
                    Some(t),
                    Some(2.0 + t * t),
                    (r < 10).then(|| level(&mut rng)),
                ]
            })
            .collect(),
    );
    let known: Row = vec![Some(1.0), Some(0.0), Some(2.0), None];
    for similarity in Similarity::ALL {
        for k in 1..=10 {
            let sorts = fallback_sorts(|| {
                check_exact(&reversed, similarity, k, &known, "a reversed ranking");
            });
            assert!(sorts > 0, "{similarity:?} k={k}: no fallback sort");
        }
    }

    // The reference-only query: every row rates the reference 1 and the
    // query knows only it, so all 30 rows tie. (Pearson has no similarity
    // over one column.)
    let mut training = training;
    for r in 0..30 {
        training.set(r, 0, 1.0);
    }
    let known: Row = vec![Some(1.0), None, None, None, None, None];
    for similarity in [Similarity::Euclidean, Similarity::Cosine] {
        for k in 1..=10 {
            let sorts = fallback_sorts(|| {
                check_exact(&training, similarity, k, &known, "the reference-only query");
            });
            assert!(sorts > 0, "{similarity:?} k={k}: no fallback sort");
        }
    }
}
