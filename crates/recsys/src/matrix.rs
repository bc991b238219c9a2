//! The Utility Matrix: workloads × configurations, sparsely rated.

use std::fmt;

/// One workload's (possibly partial) ratings across all configurations.
pub type Row = Vec<Option<f64>>;

/// The known `(col, value)` entries of a row, in column order.
pub(crate) fn known_entries(row: &Row) -> impl Iterator<Item = (usize, f64)> + '_ {
    row.iter()
        .enumerate()
        .filter_map(|(c, v)| v.map(|x| (c, x)))
}

/// A sparse matrix of ratings; rows are workloads, columns are TM
/// configurations (paper §5.1).
///
/// ```
/// use recsys::UtilityMatrix;
/// // Two workloads over three configurations; one rating still unknown.
/// let mut um = UtilityMatrix::from_rows(vec![
///     vec![Some(30.0), Some(20.0), Some(10.0)],
///     vec![Some(100.0), Some(200.0), None],
/// ]);
/// assert_eq!(um.row_best(0, true), Some(0));
/// um.set(1, 2, 400.0);
/// assert_eq!(um.known_count(), 6);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct UtilityMatrix {
    rows: Vec<Row>,
    ncols: usize,
}

impl UtilityMatrix {
    /// An empty matrix with `ncols` configuration columns.
    pub fn new(ncols: usize) -> Self {
        UtilityMatrix {
            rows: Vec::new(),
            ncols,
        }
    }

    /// Build from fully- or partially-known rows.
    ///
    /// # Panics
    ///
    /// Panics if rows have inconsistent lengths.
    pub fn from_rows(rows: Vec<Row>) -> Self {
        let ncols = rows.first().map_or(0, |r| r.len());
        assert!(
            rows.iter().all(|r| r.len() == ncols),
            "ragged utility matrix"
        );
        UtilityMatrix { rows, ncols }
    }

    /// Number of workload rows.
    pub fn nrows(&self) -> usize {
        self.rows.len()
    }

    /// Number of configuration columns.
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Whether the matrix has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Append a row and return its index.
    ///
    /// # Panics
    ///
    /// Panics if the row length does not match.
    pub fn push_row(&mut self, row: Row) -> usize {
        assert_eq!(row.len(), self.ncols, "row length mismatch");
        self.rows.push(row);
        self.rows.len() - 1
    }

    /// The rating at `(row, col)`, if known.
    pub fn get(&self, row: usize, col: usize) -> Option<f64> {
        self.rows[row][col]
    }

    /// Set the rating at `(row, col)`.
    pub fn set(&mut self, row: usize, col: usize, value: f64) {
        self.rows[row][col] = Some(value);
    }

    /// Borrow a row.
    pub fn row(&self, r: usize) -> &Row {
        &self.rows[r]
    }

    /// All rows.
    pub fn rows(&self) -> &[Row] {
        &self.rows
    }

    /// Known `(col, value)` entries of row `r`.
    pub fn known_in_row(&self, r: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        known_entries(&self.rows[r])
    }

    /// Total number of known entries.
    pub fn known_count(&self) -> usize {
        self.rows
            .iter()
            .map(|r| r.iter().filter(|v| v.is_some()).count())
            .sum()
    }

    /// Fill density in `[0, 1]`.
    pub fn density(&self) -> f64 {
        let cells = self.nrows() * self.ncols;
        if cells == 0 {
            0.0
        } else {
            self.known_count() as f64 / cells as f64
        }
    }

    /// The maximum known value of row `r`, if any entry is known.
    pub fn row_max(&self, r: usize) -> Option<f64> {
        self.rows[r]
            .iter()
            .flatten()
            .copied()
            .fold(None, |acc, v| Some(acc.map_or(v, |a: f64| a.max(v))))
    }

    /// The maximum known value anywhere in the matrix.
    pub fn global_max(&self) -> Option<f64> {
        (0..self.nrows())
            .filter_map(|r| self.row_max(r))
            .fold(None, |acc, v| Some(acc.map_or(v, |a: f64| a.max(v))))
    }

    /// Column index of the best known value in row `r` (`maximize` selects
    /// the largest, otherwise the smallest).
    pub fn row_best(&self, r: usize, maximize: bool) -> Option<usize> {
        let mut best: Option<(usize, f64)> = None;
        for (c, v) in self.known_in_row(r) {
            let better = match best {
                None => true,
                Some((_, b)) => {
                    if maximize {
                        v > b
                    } else {
                        v < b
                    }
                }
            };
            if better {
                best = Some((c, v));
            }
        }
        best.map(|(c, _)| c)
    }
}

impl fmt::Display for UtilityMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "UtilityMatrix {}x{} ({:.1}% known)",
            self.nrows(),
            self.ncols,
            self.density() * 100.0
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> UtilityMatrix {
        // The illustrative matrix from §5.1 of the paper.
        UtilityMatrix::from_rows(vec![
            vec![Some(30.0), Some(20.0), Some(10.0)],
            vec![Some(100.0), Some(200.0), None],
        ])
    }

    #[test]
    fn construction_and_access() {
        let m = sample();
        assert_eq!(m.nrows(), 2);
        assert_eq!(m.ncols(), 3);
        assert_eq!(m.get(0, 0), Some(30.0));
        assert_eq!(m.get(1, 2), None);
        assert_eq!(m.known_count(), 5);
        assert!((m.density() - 5.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn row_statistics() {
        let m = sample();
        assert_eq!(m.row_max(0), Some(30.0));
        assert_eq!(m.row_max(1), Some(200.0));
        assert_eq!(m.global_max(), Some(200.0));
        assert_eq!(m.row_best(0, true), Some(0));
        assert_eq!(m.row_best(0, false), Some(2));
        assert_eq!(m.row_best(1, true), Some(1));
    }

    #[test]
    fn push_and_set() {
        let mut m = UtilityMatrix::new(2);
        assert!(m.is_empty());
        let r = m.push_row(vec![None, None]);
        m.set(r, 1, 7.5);
        assert_eq!(m.get(r, 1), Some(7.5));
        assert_eq!(m.known_in_row(r).collect::<Vec<_>>(), vec![(1, 7.5)]);
    }

    #[test]
    #[should_panic(expected = "row length mismatch")]
    fn ragged_push_panics() {
        let mut m = UtilityMatrix::new(3);
        m.push_row(vec![None]);
    }

    #[test]
    fn empty_row_has_no_max() {
        let m = UtilityMatrix::from_rows(vec![vec![None, None]]);
        assert_eq!(m.row_max(0), None);
        assert_eq!(m.global_max(), None);
        assert_eq!(m.row_best(0, true), None);
    }
}
