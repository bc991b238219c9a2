//! KNN and ensemble predictions are pinned *bit for bit*: every table the
//! experiments print and every RecTM decision is a function of these
//! `Option<f64>`s, so a faster kernel must choose the same neighbours in
//! the same order, break similarity ties the same way, and add the same
//! terms in the same order as the implementation kept verbatim below.

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

/// `BaggingEnsemble::predict_stats` is a Welford fold, in member order, of
/// the members' predictions; member `m` is trained on the `m`-th bootstrap
/// drawn from one `StdRng` seeded with the ensemble seed. Where the member
/// predictions are computed (pool or calling thread) must not show.
#[test]
fn predict_stats_matches_reference_fold_at_every_job_count() {
    let mut rng = StdRng::seed_from_u64(0xBA_66);
    for case in 0..30 {
        let training = random_training(&mut rng, case);
        let known = random_query(&mut rng, training.ncols());
        let similarity = Similarity::ALL[case % 3];
        let k = 1 + case % 5;
        let (n_members, seed) = (10, 1000 + case as u64);

        let nrows = training.nrows();
        let mut draw = StdRng::seed_from_u64(seed);
        let ncols = training.ncols();
        let (mut count, mut mean, mut m2) =
            (vec![0u32; ncols], vec![0.0f64; ncols], vec![0.0f64; ncols]);
        for _ in 0..n_members {
            let sample: Vec<Row> = (0..nrows)
                .map(|_| training.row(draw.gen_range(0..nrows)).clone())
                .collect();
            let prediction =
                reference_predict_row(&UtilityMatrix::from_rows(sample), similarity, k, &known);
            for (c, v) in prediction.iter().enumerate() {
                if let Some(v) = *v {
                    count[c] += 1;
                    let delta = v - mean[c];
                    mean[c] += delta / count[c] as f64;
                    m2[c] += delta * (v - mean[c]);
                }
            }
        }
        let want: Vec<Option<(u64, u64)>> = (0..ncols)
            .map(|c| {
                (count[c] > 0).then(|| (mean[c].to_bits(), (m2[c] / count[c] as f64).to_bits()))
            })
            .collect();

        for jobs in [1, 4] {
            let got: Vec<Option<(u64, u64)>> = parx::with_jobs(jobs, || {
                BaggingEnsemble::fit(
                    &training,
                    CfAlgorithm::Knn { similarity, k },
                    n_members,
                    seed,
                )
                .predict_stats(&known)
            })
            .into_iter()
            .map(|s| s.map(|(mu, var)| (mu.to_bits(), var.to_bits())))
            .collect();
            assert_eq!(
                got, want,
                "{similarity:?} k={k} jobs={jobs} diverged (case {case})"
            );
        }
    }
}
