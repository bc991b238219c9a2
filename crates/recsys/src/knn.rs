//! User-based K-Nearest-Neighbours collaborative filtering.

use crate::matrix::{known_entries, Row, UtilityMatrix};
use std::fmt;

/// Row-similarity functions (paper §5.1 discusses all three).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Similarity {
    /// `1 / (1 + euclidean distance)` over co-rated columns.
    /// Scale-sensitive — the reason unnormalized KPIs mislead KNN.
    Euclidean,
    /// Cosine of the co-rated sub-vectors (scale-insensitive).
    Cosine,
    /// Pearson correlation of the co-rated sub-vectors.
    Pearson,
}

impl Similarity {
    /// All similarity functions.
    pub const ALL: [Similarity; 3] = [
        Similarity::Euclidean,
        Similarity::Cosine,
        Similarity::Pearson,
    ];

    /// Similarity between two rows over their co-rated columns; `None` when
    /// fewer than `min_overlap` columns are co-rated.
    pub fn between(self, a: &Row, b: &Row, min_overlap: usize) -> Option<f64> {
        self.over(&known_entries(a).collect::<Vec<_>>(), b, min_overlap)
    }

    /// The kernel, with `a` as its known `(column, value)` entries in column
    /// order: a KNN query knows a handful of columns and meets every
    /// training row, so it is indexed once and a row costs its overlap.
    ///
    /// This is the innermost loop of every KNN query: nothing is
    /// materialized, and each accumulator adds its terms in column order —
    /// the order of the collect-then-sum reference implementation
    /// (`tests/similarity_regression.rs`) — so results are bit-identical.
    fn over(self, a: &[(usize, f64)], b: &Row, min_overlap: usize) -> Option<f64> {
        let co_rated = || {
            a.iter()
                .filter_map(|&(c, x)| b.get(c).copied().flatten().map(|y| (x, y)))
        };
        match self {
            Similarity::Euclidean => {
                let (mut n, mut d2) = (0usize, 0.0f64);
                for (x, y) in co_rated() {
                    n += 1;
                    d2 += (x - y).powi(2);
                }
                (n >= min_overlap.max(1)).then(|| 1.0 / (1.0 + d2.sqrt()))
            }
            Similarity::Cosine => {
                let (mut n, mut dot, mut na2, mut nb2) = (0usize, 0.0f64, 0.0f64, 0.0f64);
                for (x, y) in co_rated() {
                    n += 1;
                    dot += x * y;
                    na2 += x * x;
                    nb2 += y * y;
                }
                if n < min_overlap.max(1) {
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
                // Two passes: means first, then central moments — the exact
                // expressions (and order) of the reference implementation.
                let (mut count, mut sx, mut sy) = (0usize, 0.0f64, 0.0f64);
                for (x, y) in co_rated() {
                    count += 1;
                    sx += x;
                    sy += y;
                }
                if count < min_overlap.max(1) {
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
}

impl fmt::Display for Similarity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Similarity::Euclidean => "euclidean",
            Similarity::Cosine => "cosine",
            Similarity::Pearson => "pearson",
        })
    }
}

/// A fitted user-based KNN model: memorizes the training rows and predicts
/// a new row's missing ratings as similarity-weighted averages over the
/// most similar training rows (§2.2).
#[derive(Debug, Clone)]
pub struct KnnModel {
    training: UtilityMatrix,
    similarity: Similarity,
    k: usize,
}

/// The training rows comparable to one query, most similar first, each with
/// its similarity to the query.
pub(crate) type Ranking<'a> = Vec<(f64, &'a Row)>;

impl KnnModel {
    /// Fit (memorize) the training matrix.
    pub fn fit(training: UtilityMatrix, similarity: Similarity, k: usize) -> Self {
        KnnModel {
            training,
            similarity,
            k: k.max(1),
        }
    }

    /// The memorized training rows.
    pub(crate) fn training(&self) -> &UtilityMatrix {
        &self.training
    }

    /// Neighbours averaged per column.
    pub(crate) fn k(&self) -> usize {
        self.k
    }

    /// Rank the training rows for `known`: a *stable* sort by |similarity|
    /// descending over the rows in index order, each ranked row carried as
    /// `tag(index, row)`. One ranking serves every column — column `c`'s
    /// neighbours are the first `k` ranked rows that rate `c`, because a
    /// stable sort of a subsequence is that subsequence of the stable sort
    /// (DESIGN.md §5; `tests/knn_regression.rs`).
    pub(crate) fn rank_by<'a, T>(
        &'a self,
        known: &Row,
        tag: impl Fn(usize, &'a Row) -> T,
    ) -> Vec<(f64, T)> {
        let known: Vec<(usize, f64)> = known_entries(known).collect();
        let mut ranking: Vec<(f64, T)> = self
            .training
            .rows()
            .iter()
            .enumerate()
            .filter_map(|(r, row)| {
                self.similarity
                    .over(&known, row, 1)
                    .map(|sim| (sim, tag(r, row)))
            })
            .collect();
        ranking.sort_by(|a, b| b.0.abs().total_cmp(&a.0.abs()));
        if obs::enabled() {
            obs::counter("recsys.knn.kernels").add(self.training.nrows() as u64);
            obs::counter("recsys.knn.sorts").inc();
        }
        ranking
    }

    /// [`Self::rank_by`] for the model's own rows.
    fn ranking(&self, known: &Row) -> Ranking<'_> {
        self.rank_by(known, |_, row| row)
    }

    /// The similarity-weighted average of `col` over its `k` best-ranked
    /// raters; `None` when nobody comparable rates it. `ranking` may hold a
    /// row more than once (a bootstrap sample does): each entry counts.
    pub(crate) fn average(&self, ranking: &[(f64, &Row)], col: usize) -> Option<f64> {
        let neighbours = || {
            ranking
                .iter()
                .filter_map(|&(sim, row)| row[col].map(|rating| (sim, rating)))
                .take(self.k)
        };
        weighted_mean(neighbours().map(|(s, _)| s.abs()).sum(), neighbours())
    }

    /// Predict the rating of `col` for a workload with the given known
    /// ratings; `None` when no similar neighbour rates `col`.
    pub fn predict(&self, known: &Row, col: usize) -> Option<f64> {
        self.average(&self.ranking(known), col)
    }

    /// Predict every column (known entries are passed through unchanged).
    pub fn predict_row(&self, known: &Row) -> Row {
        let ranking = self.ranking(known);
        (0..self.training.ncols())
            .map(|c| {
                known
                    .get(c)
                    .copied()
                    .flatten()
                    .or_else(|| self.average(&ranking, c))
            })
            .collect()
    }
}

/// `Σ s·r / wsum` over `(similarity, rating)` neighbours whose `Σ |s|` is
/// `wsum`; `None` when `wsum` is below 1e-12.
fn weighted_mean(wsum: f64, neighbours: impl Iterator<Item = (f64, f64)>) -> Option<f64> {
    if wsum < 1e-12 {
        return None;
    }
    Some(neighbours.map(|(s, r)| s * r).sum::<f64>() / wsum)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn euclidean_is_scale_sensitive_cosine_is_not() {
        let a: Row = vec![Some(1.0), Some(2.0), Some(3.0)];
        let b: Row = vec![Some(10.0), Some(20.0), Some(30.0)];
        let cos = Similarity::Cosine.between(&a, &b, 1).unwrap();
        assert!((cos - 1.0).abs() < 1e-12, "parallel vectors");
        let euc = Similarity::Euclidean.between(&a, &b, 1).unwrap();
        assert!(euc < 0.1, "large distance despite identical trend");
    }

    #[test]
    fn pearson_detects_anticorrelation() {
        let a: Row = vec![Some(1.0), Some(2.0), Some(3.0)];
        let b: Row = vec![Some(3.0), Some(2.0), Some(1.0)];
        let p = Similarity::Pearson.between(&a, &b, 1).unwrap();
        assert!((p + 1.0).abs() < 1e-9);
    }

    #[test]
    fn similarity_needs_overlap() {
        let a: Row = vec![Some(1.0), None];
        let b: Row = vec![None, Some(1.0)];
        for s in Similarity::ALL {
            assert_eq!(s.between(&a, &b, 1), None);
        }
    }

    #[test]
    fn knn_reconstructs_the_paper_example() {
        // §5.1: A3 shows A1's linear trend at 10× the scale; with ratio-
        // preserved ratings (divide by col 0), KNN must predict A3,3 ≈ 300.
        let training = UtilityMatrix::from_rows(vec![
            vec![Some(1.0), Some(2.0 / 3.0), Some(1.0 / 3.0)], // A1 distilled
            vec![Some(1.0), Some(2.0), Some(4.0)],             // A2 distilled
        ]);
        let knn = KnnModel::fit(training, Similarity::Cosine, 1);
        // A3 known at cols 0 and 1, distilled by col 0 (100, 200 -> 1, 2).
        let known: Row = vec![Some(1.0), Some(2.0), None];
        let pred = knn.predict(&known, 2).unwrap();
        // Nearest neighbour is A2 (same trend), so prediction is 4.0 — i.e.
        // 400 in A3's KPI scale... but the paper's A3 matches A1's *linear*
        // trend: (100, 200, 300). With only these two neighbours cosine
        // picks A2 (ratings (1,2) match exactly), predicting 4.0 = 400.
        assert!((pred - 4.0).abs() < 1e-9);
    }

    #[test]
    fn knn_predict_row_passes_known_through() {
        let training = UtilityMatrix::from_rows(vec![vec![Some(1.0), Some(2.0)]]);
        let knn = KnnModel::fit(training, Similarity::Cosine, 3);
        let known: Row = vec![Some(5.0), None];
        let row = knn.predict_row(&known);
        assert_eq!(row[0], Some(5.0));
        assert!(row[1].is_some());
    }

    #[test]
    fn knn_returns_none_without_neighbours() {
        let training = UtilityMatrix::from_rows(vec![vec![None, Some(2.0)]]);
        let knn = KnnModel::fit(training, Similarity::Cosine, 3);
        let known: Row = vec![Some(1.0), None];
        // Col 0 unknown in every training row.
        assert_eq!(knn.predict(&known, 0), None);
    }
}
