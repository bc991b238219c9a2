//! Bagging ensembles of CF predictors (paper §5.2).
//!
//! The Controller needs a *probabilistic* model: it estimates the predictive
//! mean µ and variance σ² of each candidate configuration as frequentist
//! statistics over an ensemble of CF learners, each trained on a random
//! subset of the training rows (Breiman-style bagging).

use crate::matrix::{Row, UtilityMatrix};
use crate::predictor::{CfAlgorithm, CfPredictor};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// An ensemble of identically-configured CF learners trained on bootstrap
/// samples of the training rows.
#[derive(Debug, Clone)]
pub struct BaggingEnsemble {
    members: Vec<CfPredictor>,
}

impl BaggingEnsemble {
    /// Fit `n_members` learners (the paper uses 10), each on a bootstrap
    /// sample (sampling rows with replacement) of `training`.
    ///
    /// The bootstrap row indices for every member are drawn serially from
    /// one seeded RNG — the exact stream a fully serial fit would draw —
    /// and only the (independent) member fits run on the [`parx`] pool, so
    /// the ensemble is bit-identical at every job count.
    pub fn fit(
        training: &UtilityMatrix,
        algorithm: CfAlgorithm,
        n_members: usize,
        seed: u64,
    ) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let nrows = training.nrows();
        let bootstraps: Vec<Vec<usize>> = (0..n_members.max(1))
            .map(|_| (0..nrows).map(|_| rng.gen_range(0..nrows)).collect())
            .collect();
        let members = parx::par_map(&bootstraps, |sample| {
            let rows: Vec<Row> = sample.iter().map(|&r| training.row(r).clone()).collect();
            CfPredictor::fit(UtilityMatrix::from_rows(rows), algorithm)
        });
        BaggingEnsemble { members }
    }

    /// Number of ensemble members.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether the ensemble has no members (never true once fitted).
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Predictive mean and variance per column for a workload with the
    /// given known ratings. Columns no member can predict are `None`.
    ///
    /// Members predict on the calling thread, each row folded into the
    /// per-column moments (Welford) as it is produced, in member order. Not
    /// on the [`parx`] pool: this is called between every two samples of an
    /// exploration, and a member predicts in microseconds — less than
    /// spawning the pool's threads (measured: 129 µs per step pooled, 66 not).
    pub fn predict_stats(&self, known: &Row) -> Vec<Option<(f64, f64)>> {
        let mut predictions = self.members.iter().map(|m| m.predict_row(known)).peekable();
        let ncols = predictions.peek().map_or(0, |p| p.len());
        let mut count = vec![0u32; ncols];
        let mut mean = vec![0.0f64; ncols];
        let mut m2 = vec![0.0f64; ncols];
        for prediction in predictions {
            for (c, v) in prediction.iter().enumerate() {
                if let Some(v) = *v {
                    count[c] += 1;
                    let delta = v - mean[c];
                    mean[c] += delta / count[c] as f64;
                    m2[c] += delta * (v - mean[c]);
                }
            }
        }
        (0..ncols)
            .map(|c| (count[c] > 0).then(|| (mean[c], m2[c] / count[c] as f64)))
            .collect()
    }

    /// Ensemble-mean prediction per column (ignoring variance).
    pub fn predict_row(&self, known: &Row) -> Row {
        self.predict_stats(known)
            .into_iter()
            .map(|s| s.map(|(m, _)| m))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::knn::Similarity;

    fn training() -> UtilityMatrix {
        UtilityMatrix::from_rows(
            (1..=10)
                .map(|r| (1..=5).map(|c| Some(r as f64 * c as f64 * 0.1)).collect())
                .collect(),
        )
    }

    #[test]
    fn ensemble_reports_mean_and_variance() {
        let e = BaggingEnsemble::fit(
            &training(),
            CfAlgorithm::Knn {
                similarity: Similarity::Cosine,
                k: 3,
            },
            10,
            7,
        );
        assert_eq!(e.len(), 10);
        let stats = e.predict_stats(&vec![Some(0.2), Some(0.4), None, None, None]);
        let (mean, var) = stats[4].expect("predictable column");
        assert!(mean > 0.0);
        assert!(var >= 0.0);
    }

    #[test]
    fn known_columns_have_zero_variance() {
        let e = BaggingEnsemble::fit(
            &training(),
            CfAlgorithm::Knn {
                similarity: Similarity::Cosine,
                k: 3,
            },
            5,
            1,
        );
        let stats = e.predict_stats(&vec![Some(0.3), None, None, None, None]);
        let (mean, var) = stats[0].unwrap();
        assert_eq!(mean, 0.3, "known entries pass through every member");
        assert_eq!(var, 0.0);
    }

    #[test]
    fn deterministic_given_seed() {
        let algo = CfAlgorithm::Knn {
            similarity: Similarity::Pearson,
            k: 2,
        };
        let a = BaggingEnsemble::fit(&training(), algo, 4, 99).predict_row(&vec![
            Some(0.1),
            Some(0.2),
            None,
            None,
            None,
        ]);
        let b = BaggingEnsemble::fit(&training(), algo, 4, 99).predict_row(&vec![
            Some(0.1),
            Some(0.2),
            None,
            None,
            None,
        ]);
        assert_eq!(a, b);
    }
}
