//! The unified CF predictor: one enum over the supported algorithm
//! families, so the Recommender can "seamlessly leverage a vast library of
//! techniques rather than binding to a single one" (§5.1).

use crate::knn::{KnnModel, Similarity};
use crate::matrix::{Row, UtilityMatrix};
use crate::mf::{MfModel, MfParams};
use std::fmt;

/// A CF algorithm plus its hyper-parameters (the unit the random-search
/// tuner selects among).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CfAlgorithm {
    /// User-based KNN.
    Knn {
        /// Similarity function.
        similarity: Similarity,
        /// Neighbourhood size.
        k: usize,
    },
    /// Matrix factorization.
    Mf(MfParams),
}

impl fmt::Display for CfAlgorithm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CfAlgorithm::Knn { similarity, k } => write!(f, "knn({similarity}, k={k})"),
            CfAlgorithm::Mf(p) => write!(f, "mf(d={}, lr={})", p.factors, p.learning_rate),
        }
    }
}

/// A fitted CF predictor.
#[derive(Debug, Clone)]
pub enum CfPredictor {
    /// Fitted KNN model.
    Knn(KnnModel),
    /// Fitted MF model.
    Mf(MfModel),
}

impl CfPredictor {
    /// Fit `algorithm` on a training matrix of ratings. The matrix comes by
    /// value because KNN *is* its training rows (MF only reads them).
    pub fn fit(training: UtilityMatrix, algorithm: CfAlgorithm) -> Self {
        match algorithm {
            CfAlgorithm::Knn { similarity, k } => {
                CfPredictor::Knn(KnnModel::fit(training, similarity, k))
            }
            CfAlgorithm::Mf(params) => CfPredictor::Mf(MfModel::fit(&training, params)),
        }
    }

    /// Predict every column for a workload with the given known ratings.
    /// Known entries pass through; unpredictable entries stay `None`.
    pub fn predict_row(&self, known: &Row) -> Row {
        match self {
            CfPredictor::Knn(m) => m.predict_row(known),
            CfPredictor::Mf(m) => m.predict_row(known),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_families_fit_and_predict() {
        let training = UtilityMatrix::from_rows(vec![
            vec![Some(1.0), Some(2.0), Some(3.0)],
            vec![Some(2.0), Some(4.0), Some(6.0)],
        ]);
        for algo in [
            CfAlgorithm::Knn {
                similarity: Similarity::Cosine,
                k: 2,
            },
            CfAlgorithm::Mf(MfParams {
                epochs: 50,
                ..MfParams::default()
            }),
        ] {
            let p = CfPredictor::fit(training.clone(), algo);
            let row = p.predict_row(&vec![Some(1.5), Some(3.0), None]);
            assert!(row[2].is_some(), "{algo} failed to predict");
        }
    }

    #[test]
    fn algorithm_display() {
        let a = CfAlgorithm::Knn {
            similarity: Similarity::Pearson,
            k: 5,
        };
        assert_eq!(a.to_string(), "knn(pearson, k=5)");
    }
}
