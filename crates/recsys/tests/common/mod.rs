//! The reference bagging ensemble both regression suites compare
//! `BaggingEnsemble::predict_stats` against.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use recsys::{Row, UtilityMatrix};

/// Per column, the bit patterns of the ensemble's mean and variance.
pub type StatsBits = Vec<Option<(u64, u64)>>;

/// The ensemble as a loop over materialized members: member `m` is
/// `predict` on a matrix of the `m`-th bootstrap's row clones, the
/// bootstraps drawn from one `StdRng` seeded with `seed`, and every
/// member's prediction is folded into per-column moments (Welford) in
/// member order. Returns the statistics and the bootstraps drawn.
pub fn reference_ensemble(
    training: &UtilityMatrix,
    n_members: usize,
    seed: u64,
    predict: impl Fn(&UtilityMatrix) -> Row,
) -> (StatsBits, Vec<Vec<usize>>) {
    let nrows = training.nrows();
    let mut draw = StdRng::seed_from_u64(seed);
    let bootstraps: Vec<Vec<usize>> = (0..n_members)
        .map(|_| (0..nrows).map(|_| draw.gen_range(0..nrows)).collect())
        .collect();
    let (mut count, mut mean, mut m2) = (Vec::new(), Vec::new(), Vec::new());
    for (m, sample) in bootstraps.iter().enumerate() {
        let rows: Vec<Row> = sample.iter().map(|&r| training.row(r).clone()).collect();
        let prediction = predict(&UtilityMatrix::from_rows(rows));
        if m == 0 {
            count = vec![0u32; prediction.len()];
            mean = vec![0.0f64; prediction.len()];
            m2 = vec![0.0f64; prediction.len()];
        }
        for (c, v) in prediction.iter().enumerate() {
            if let Some(v) = *v {
                count[c] += 1;
                let delta = v - mean[c];
                mean[c] += delta / count[c] as f64;
                m2[c] += delta * (v - mean[c]);
            }
        }
    }
    let stats = (0..count.len())
        .map(|c| (count[c] > 0).then(|| (mean[c].to_bits(), (m2[c] / count[c] as f64).to_bits())))
        .collect();
    (stats, bootstraps)
}

/// `stats` as bit patterns.
pub fn stats_bits(stats: Vec<Option<(f64, f64)>>) -> StatsBits {
    stats
        .into_iter()
        .map(|s| s.map(|(mu, var)| (mu.to_bits(), var.to_bits())))
        .collect()
}
