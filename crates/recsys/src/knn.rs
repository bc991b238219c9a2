//! User-based K-Nearest-Neighbours collaborative filtering.

use crate::matrix::{known_entries, Row, UtilityMatrix};
use std::cmp::Ordering;
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
        let co_rated =
            || known_entries(a).filter_map(|(c, x)| b.get(c).copied().flatten().map(|y| (x, y)));
        let mut sums = Sums::default();
        co_rated().for_each(|(x, y)| self.add(&mut sums, x, y));
        if self == Similarity::Pearson {
            sums.center();
            co_rated().for_each(|(x, y)| sums.add_central(x, y));
        }
        self.finish(&sums, min_overlap)
    }

    /// One co-rated pair — `x` from the query, `y` from the row — added to
    /// the row's first-pass sums. Each sum adds its terms in column order,
    /// the order of the collect-then-sum reference implementation
    /// (`tests/similarity_regression.rs`), so results are bit-identical.
    #[inline(always)]
    fn add(self, sums: &mut Sums, x: f64, y: f64) {
        sums.n += 1;
        match self {
            Similarity::Euclidean => sums.a += (x - y).powi(2),
            Similarity::Cosine => {
                sums.a += x * y;
                sums.b += x * x;
                sums.c += y * y;
            }
            Similarity::Pearson => {
                sums.a += x;
                sums.b += y;
            }
        }
    }

    /// The similarity of a row whose pairs have all been added; `None` when
    /// fewer than `min_overlap` columns are co-rated.
    fn finish(self, sums: &Sums, min_overlap: usize) -> Option<f64> {
        if sums.n < min_overlap.max(1) {
            return None;
        }
        match self {
            Similarity::Euclidean => Some(1.0 / (1.0 + sums.a.sqrt())),
            // Cosine's dot and squared norms, Pearson's covariance and
            // squared deviations: the same quotient.
            Similarity::Cosine | Similarity::Pearson => {
                let (na, nb) = (sums.b.sqrt(), sums.c.sqrt());
                if na < 1e-12 || nb < 1e-12 {
                    None
                } else {
                    Some(sums.a / (na * nb))
                }
            }
        }
    }
}

/// One training row's running sums against a query, over the columns both
/// rate: the count, then Euclidean's squared distance in `a`; Cosine's dot
/// product and two squared norms in `a`, `b`, `c`; Pearson's two sums in
/// `a`, `b`, and after [`Sums::center`] its covariance and two squared
/// deviations around the means `ma`, `mb`.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Sums {
    n: usize,
    a: f64,
    b: f64,
    c: f64,
    ma: f64,
    mb: f64,
}

impl Sums {
    /// Pearson's means from its first pass; the second pass's sums start
    /// at zero. (A row with no co-rated column gets NaN means, and
    /// [`Similarity::finish`] rejects it on its count.)
    fn center(&mut self) {
        let n = self.n as f64;
        self.ma = self.a / n;
        self.mb = self.b / n;
        self.a = 0.0;
        self.b = 0.0;
    }

    /// Pearson's second pass: one pair's central moments.
    #[inline(always)]
    fn add_central(&mut self, x: f64, y: f64) {
        self.a += (x - self.ma) * (y - self.mb);
        self.b += (x - self.ma).powi(2);
        self.c += (y - self.mb).powi(2);
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
///
/// The ratings are kept column-major: a query knows a handful of columns
/// and meets every training row, so the similarity kernel takes one pass
/// per known column over all rows at once (DESIGN.md §5). A fitted model
/// owns them; the cross-validation tuner's KNN candidates borrow one copy
/// per fold.
#[derive(Debug, Clone)]
pub struct KnnModel<C = Vec<Option<f64>>> {
    nrows: usize,
    ncols: usize,
    /// Column `c`'s ratings are `columns[c * nrows..(c + 1) * nrows]`.
    columns: C,
    similarity: Similarity,
    k: usize,
}

/// Ranked rows a [`Ranking`] puts in order when it is made. A walk that
/// steps past them sorts the rest, once; the Controller's walks rarely do.
const SORTED_PREFIX: usize = 16;

/// The ranking order: |similarity| descending, then row ascending — the
/// order a stable sort by |similarity| gives rows listed in index order.
fn ranked_before(a: &(f64, usize), b: &(f64, usize)) -> Ordering {
    b.0.abs().total_cmp(&a.0.abs()).then(a.1.cmp(&b.1))
}

/// The training rows comparable to one query, as `(similarity, row)` in
/// ranking order, sorted only as far as a walk has reached.
///
/// It keeps its buffers from query to query, so a caller that ranks once
/// per step allocates nothing after its first.
#[derive(Debug, Default)]
pub(crate) struct Ranking {
    entries: Vec<(f64, usize)>,
    /// `entries[..sorted]` is in ranking order, and every later entry ranks
    /// after all of them.
    sorted: usize,
    /// The kernel's per-row sums.
    sums: Vec<Sums>,
}

impl Ranking {
    /// Room for rankings of `nrows` rows.
    pub(crate) fn with_capacity(nrows: usize) -> Self {
        Ranking {
            entries: Vec::with_capacity(nrows),
            sorted: 0,
            sums: Vec::with_capacity(nrows),
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    /// The ranked entries, in order as far as a walk has reached.
    pub(crate) fn entries(&self) -> &[(f64, usize)] {
        &self.entries
    }

    /// The `i`-th ranked entry, sorting the rest first if `i` is past the
    /// sorted prefix.
    pub(crate) fn get(&mut self, i: usize) -> Option<(f64, usize)> {
        if i >= self.sorted {
            self.sort_rest();
        }
        self.entries.get(i).copied()
    }

    /// Where the group of equal |similarity| that starts at entry `i` ends.
    /// A group that reaches the end of the sorted prefix may go on past it,
    /// so then the rest is sorted first.
    pub(crate) fn group_end(&mut self, i: usize) -> usize {
        if i >= self.sorted {
            self.sort_rest();
        }
        let abs = self.entries[i].0.abs();
        loop {
            if let Some(n) = self.entries[i..self.sorted]
                .iter()
                .position(|(sim, _)| sim.abs().total_cmp(&abs).is_ne())
            {
                return i + n;
            }
            if self.sorted == self.entries.len() {
                return self.sorted;
            }
            self.sort_rest();
        }
    }

    /// Let `fill` replace the entries with ones already in ranking order.
    pub(crate) fn fill_ordered<T>(&mut self, fill: impl FnOnce(&mut Vec<(f64, usize)>) -> T) -> T {
        let out = fill(&mut self.entries);
        self.sorted = self.entries.len();
        out
    }

    /// Sort the entries past the prefix: the ranking is then whole.
    fn sort_rest(&mut self) {
        if self.sorted >= self.entries.len() {
            return;
        }
        self.entries[self.sorted..].sort_unstable_by(ranked_before);
        self.sorted = self.entries.len();
        if obs::enabled() {
            obs::counter("recsys.knn.sorts").inc();
        }
    }
}

impl KnnModel {
    /// Fit (memorize) the training matrix.
    pub fn fit(training: UtilityMatrix, similarity: Similarity, k: usize) -> Self {
        Self::of(&training, similarity, k)
    }

    /// [`Self::fit`] on a borrowed matrix: its ratings copied column-major.
    pub(crate) fn of(training: &UtilityMatrix, similarity: Similarity, k: usize) -> Self {
        let (nrows, ncols) = (training.nrows(), training.ncols());
        let mut columns = vec![None; nrows * ncols];
        for (r, row) in training.rows().iter().enumerate() {
            for (c, &rating) in row.iter().enumerate() {
                columns[c * nrows + r] = rating;
            }
        }
        KnnModel {
            nrows,
            ncols,
            columns,
            similarity,
            k: k.max(1),
        }
    }
}

impl<C: AsRef<[Option<f64>]>> KnnModel<C> {
    /// The model on the same ratings, borrowed, with another similarity
    /// and `k`: the model [`KnnModel::fit`] on the same matrix gives.
    pub(crate) fn with(&self, similarity: Similarity, k: usize) -> KnnModel<&[Option<f64>]> {
        KnnModel {
            nrows: self.nrows,
            ncols: self.ncols,
            columns: self.columns.as_ref(),
            similarity,
            k: k.max(1),
        }
    }

    /// Number of training rows.
    pub(crate) fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns predicted.
    pub(crate) fn ncols(&self) -> usize {
        self.ncols
    }

    /// Neighbours averaged per column.
    pub(crate) fn k(&self) -> usize {
        self.k
    }

    /// Column `c`'s ratings, by row; empty past the last column.
    fn column(&self, c: usize) -> &[Option<f64>] {
        self.columns
            .as_ref()
            .get(c * self.nrows..(c + 1) * self.nrows)
            .unwrap_or(&[])
    }

    /// Add `term(sums of row r, query rating, row r's rating)` for every
    /// column `known` rates, in column order, over every row rating it.
    fn each_pair(&self, known: &Row, sums: &mut [Sums], term: impl Fn(&mut Sums, f64, f64)) {
        for (c, x) in known_entries(known) {
            for (s, y) in sums.iter_mut().zip(self.column(c)) {
                if let Some(y) = *y {
                    term(s, x, y);
                }
            }
        }
    }

    /// Rank the training rows for `known` into `ranking`: every row's
    /// similarity in one pass per known column (each row still adds its
    /// terms in column order, as [`Similarity::between`] does), then the
    /// first [`SORTED_PREFIX`] rows put in ranking order. One ranking
    /// serves every column — column `c`'s neighbours are the first `k`
    /// ranked rows that rate `c`, because a stable sort of a subsequence is
    /// that subsequence of the stable sort (DESIGN.md §5;
    /// `tests/knn_regression.rs`).
    pub(crate) fn rank(&self, known: &Row, ranking: &mut Ranking) {
        let sums = &mut ranking.sums;
        sums.clear();
        sums.resize(self.nrows, Sums::default());
        // One arm per similarity, so that each pass is specialised to its
        // terms.
        match self.similarity {
            Similarity::Euclidean => {
                self.each_pair(known, sums, |s, x, y| Similarity::Euclidean.add(s, x, y));
            }
            Similarity::Cosine => {
                self.each_pair(known, sums, |s, x, y| Similarity::Cosine.add(s, x, y));
            }
            Similarity::Pearson => {
                self.each_pair(known, sums, |s, x, y| Similarity::Pearson.add(s, x, y));
                sums.iter_mut().for_each(Sums::center);
                self.each_pair(known, sums, Sums::add_central);
            }
        }
        let entries = &mut ranking.entries;
        entries.clear();
        entries.extend(
            sums.iter()
                .enumerate()
                .filter_map(|(r, s)| self.similarity.finish(s, 1).map(|sim| (sim, r))),
        );
        // The order is total (rows are distinct), so an unstable sort is
        // the stable one.
        if entries.len() > SORTED_PREFIX {
            entries.select_nth_unstable_by(SORTED_PREFIX - 1, ranked_before);
            entries[..SORTED_PREFIX - 1].sort_unstable_by(ranked_before);
            ranking.sorted = SORTED_PREFIX;
        } else {
            entries.sort_unstable_by(ranked_before);
            ranking.sorted = entries.len();
        }
        if obs::enabled() {
            obs::counter("recsys.knn.kernels").add(self.nrows as u64);
        }
    }

    /// The similarity-weighted average of `col` over its `k` best-ranked
    /// raters; `None` when nobody comparable rates it. `ranking` may hold a
    /// row more than once (a bootstrap sample does): each entry counts.
    pub(crate) fn average(&self, ranking: &mut Ranking, col: usize) -> Option<f64> {
        let column = self.column(col);
        // The neighbours end at the k-th ranked row that rates `col`.
        let (mut end, mut taken) = (0, 0);
        while taken < self.k {
            let Some((_, r)) = ranking.get(end) else {
                break;
            };
            end += 1;
            taken += usize::from(column[r].is_some());
        }
        let neighbours = || {
            ranking.entries[..end]
                .iter()
                .filter_map(|&(sim, r)| column[r].map(|rating| (sim, rating)))
        };
        weighted_mean(neighbours().map(|(s, _)| s.abs()).sum(), neighbours())
    }

    /// Predict the rating of `col` for a workload with the given known
    /// ratings; `None` when no similar neighbour rates `col`.
    pub fn predict(&self, known: &Row, col: usize) -> Option<f64> {
        let mut ranking = Ranking::default();
        self.rank(known, &mut ranking);
        self.average(&mut ranking, col)
    }

    /// Predict every column (known entries are passed through unchanged).
    pub fn predict_row(&self, known: &Row) -> Row {
        let mut ranking = Ranking::default();
        self.rank(known, &mut ranking);
        (0..self.ncols)
            .map(|c| {
                known
                    .get(c)
                    .copied()
                    .flatten()
                    .or_else(|| self.average(&mut ranking, c))
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
