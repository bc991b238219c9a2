//! Normalization of heterogeneous KPIs into CF-friendly ratings.
//!
//! KPIs of different TM applications span orders of magnitude (paper §5.1:
//! "The Rating Heterogeneity Problem"), which misleads both KNN and MF. The
//! paper's answer is **rating distillation** (Algorithm 3); this module
//! implements it alongside every baseline it is compared with in Fig. 4.
//!
//! All schemes share one interface: fit on a (fully known) training matrix,
//! map a row of known KPIs into rating space, and map predicted ratings
//! back into KPI space so accuracy metrics are always computed on KPIs.

use crate::matrix::{Row, UtilityMatrix};
use std::fmt;

/// A KPI-to-rating normalization scheme.
pub trait Normalization: fmt::Debug {
    /// Short scheme name as used in the paper's plots.
    fn name(&self) -> &'static str;

    /// Fit scheme parameters on a training matrix of raw KPIs (its rows are
    /// fully profiled off-line, per Algorithm 2 step 1).
    fn fit(&mut self, _training: &UtilityMatrix) {}

    /// The configuration that must be profiled before any rating can be
    /// computed for a new workload (distillation's reference column C*).
    fn reference_col(&self) -> Option<usize> {
        None
    }

    /// Whether this scheme expects KPIs converted to a "higher is better"
    /// score space first (ratio-based schemes align maxima, so they do);
    /// affine/identity baselines (RC, none) operate on raw KPIs, like the
    /// systems they model.
    fn wants_scores(&self) -> bool {
        true
    }

    /// Map a row of known KPIs into rating space.
    ///
    /// Returns `None` when prerequisites are missing (e.g. the reference
    /// column has not been sampled yet).
    fn to_ratings(&self, known_kpis: &Row) -> Option<Row> {
        let mut ratings = Row::new();
        self.to_ratings_into(known_kpis, &mut ratings)
            .then_some(ratings)
    }

    /// [`Self::to_ratings`] into `ratings`, which keeps its buffer; returns
    /// whether the row could be rated (`ratings` is unspecified if not).
    fn to_ratings_into(&self, known_kpis: &Row, ratings: &mut Row) -> bool;

    /// Map a predicted rating for `col` back to KPI space, given the row's
    /// known KPIs (used to compute MAPE on the original scale).
    fn to_kpi(&self, known_kpis: &Row, col: usize, rating: f64) -> f64;

    /// Transform a whole matrix row-by-row.
    ///
    /// # Panics
    ///
    /// Panics if any row cannot be transformed.
    fn transform_matrix(&self, m: &UtilityMatrix) -> UtilityMatrix {
        let rows = m
            .rows()
            .iter()
            .map(|r| self.to_ratings(r).expect("row not transformable"))
            .collect();
        UtilityMatrix::from_rows(rows)
    }
}

/// `known` divided by `s`, entry by entry, into `ratings`.
fn scale_into(known: &Row, s: f64, ratings: &mut Row) {
    ratings.clear();
    ratings.extend(known.iter().map(|v| v.map(|x| x / s)));
}

fn guard_scale(s: f64) -> f64 {
    if s.abs() < 1e-12 {
        1e-12
    } else {
        s
    }
}

/// No normalization: raw KPI values as ratings (the Quasar-like baseline).
#[derive(Debug, Default, Clone, Copy)]
pub struct NoNorm;

impl Normalization for NoNorm {
    fn name(&self) -> &'static str {
        "none"
    }

    fn wants_scores(&self) -> bool {
        false
    }

    fn to_ratings_into(&self, known: &Row, ratings: &mut Row) -> bool {
        ratings.clone_from(known);
        true
    }

    fn to_kpi(&self, _known: &Row, _col: usize, rating: f64) -> f64 {
        rating
    }
}

/// Normalization w.r.t. a single machine-wide constant (the Paragon-like
/// baseline: "the machine's peak instructions/sec rate").
#[derive(Debug, Clone, Copy)]
pub struct GlobalMaxNorm {
    constant: f64,
}

impl GlobalMaxNorm {
    /// Unfitted scheme (constant 1 until [`Normalization::fit`]).
    pub fn new() -> Self {
        GlobalMaxNorm { constant: 1.0 }
    }
}

impl Default for GlobalMaxNorm {
    fn default() -> Self {
        Self::new()
    }
}

impl Normalization for GlobalMaxNorm {
    fn name(&self) -> &'static str {
        "norm-wrt-max"
    }

    fn fit(&mut self, training: &UtilityMatrix) {
        self.constant = guard_scale(training.global_max().unwrap_or(1.0));
    }

    fn to_ratings_into(&self, known: &Row, ratings: &mut Row) -> bool {
        scale_into(known, self.constant, ratings);
        true
    }

    fn to_kpi(&self, _known: &Row, _col: usize, rating: f64) -> f64 {
        rating * self.constant
    }
}

/// The oracle "ideal" normalization of §5.1: divide each row by its true
/// maximum, assumed known a priori.
///
/// Only usable in simulation studies where the ground-truth row is
/// available; the caller passes *fully known* rows (the oracle knowledge)
/// and masks entries only afterwards.
#[derive(Debug, Default, Clone, Copy)]
pub struct IdealNorm;

impl Normalization for IdealNorm {
    fn name(&self) -> &'static str {
        "ideal"
    }

    fn to_ratings_into(&self, known: &Row, ratings: &mut Row) -> bool {
        let max = known
            .iter()
            .flatten()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max);
        if !max.is_finite() {
            return false;
        }
        scale_into(known, guard_scale(max), ratings);
        true
    }

    fn to_kpi(&self, known: &Row, _col: usize, rating: f64) -> f64 {
        let max = known
            .iter()
            .flatten()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max);
        rating * guard_scale(max)
    }
}

/// Row-column mean subtraction, the classic CF bias-removal preprocessing
/// (baseline (iv) in §6.3).
#[derive(Debug, Default, Clone)]
pub struct RcNorm {
    col_means: Vec<f64>,
}

impl RcNorm {
    /// Unfitted scheme.
    pub fn new() -> Self {
        Self::default()
    }

    fn row_mean(known: &Row) -> Option<f64> {
        let n = known.iter().flatten().count();
        (n > 0).then(|| known.iter().flatten().sum::<f64>() / n as f64)
    }
}

impl Normalization for RcNorm {
    fn name(&self) -> &'static str {
        "rc-diff"
    }

    fn wants_scores(&self) -> bool {
        false
    }

    fn fit(&mut self, training: &UtilityMatrix) {
        // Column means of row-centred residuals.
        let mut sums = vec![0.0; training.ncols()];
        let mut counts = vec![0usize; training.ncols()];
        for r in 0..training.nrows() {
            if let Some(mean) = Self::row_mean(training.row(r)) {
                for (c, v) in training.known_in_row(r) {
                    sums[c] += v - mean;
                    counts[c] += 1;
                }
            }
        }
        self.col_means = sums
            .iter()
            .zip(&counts)
            .map(|(s, &n)| if n == 0 { 0.0 } else { s / n as f64 })
            .collect();
    }

    fn to_ratings_into(&self, known: &Row, ratings: &mut Row) -> bool {
        let Some(mean) = Self::row_mean(known) else {
            return false;
        };
        ratings.clear();
        ratings.extend(
            known
                .iter()
                .enumerate()
                .map(|(c, v)| v.map(|x| x - mean - self.col_means.get(c).copied().unwrap_or(0.0))),
        );
        true
    }

    fn to_kpi(&self, known: &Row, col: usize, rating: f64) -> f64 {
        let mean = Self::row_mean(known).unwrap_or(0.0);
        rating + mean + self.col_means.get(col).copied().unwrap_or(0.0)
    }
}

/// Rating distillation (Algorithm 3): normalize every row w.r.t. the
/// reference configuration C* that minimizes the index of dispersion
/// `var/mean` of the per-row maxima in the normalized domain.
///
/// The resulting rating `k` for configuration `i` reads "configuration `i`
/// delivers `k`× the performance of the reference configuration" — a
/// scale-free, semantically uniform value across heterogeneous workloads.
#[derive(Debug, Default, Clone)]
pub struct DistillationNorm {
    reference: Option<usize>,
}

impl DistillationNorm {
    /// Unfitted scheme.
    pub fn new() -> Self {
        Self::default()
    }

    /// The chosen reference column, if fitted.
    pub fn reference(&self) -> Option<usize> {
        self.reference
    }
}

impl Normalization for DistillationNorm {
    fn name(&self) -> &'static str {
        "distillation"
    }

    fn fit(&mut self, training: &UtilityMatrix) {
        // Each row's (max, min) KPI, once: a row's largest rating `v / s`
        // is `max / s` for `s > 0` and `min / s` for `s < 0`, because
        // rounded division by a fixed divisor is monotone. `f64::max` and
        // `f64::min` skip NaN as the per-entry fold does.
        let extremes: Vec<(f64, f64)> = (0..training.nrows())
            .map(|r| {
                training
                    .known_in_row(r)
                    .fold((f64::NEG_INFINITY, f64::INFINITY), |(hi, lo), (_, v)| {
                        (hi.max(v), lo.min(v))
                    })
            })
            .collect();
        let mut best: Option<(usize, f64)> = None;
        let mut maxima = Vec::with_capacity(training.nrows());
        for candidate in 0..training.ncols() {
            // Rows that know the candidate column participate.
            maxima.clear();
            for (r, &(hi, lo)) in extremes.iter().enumerate() {
                let Some(reference) = training.get(r, candidate) else {
                    continue;
                };
                let s = guard_scale(reference);
                let m = if !s.is_finite() {
                    // An infinite reference rates finite entries 0, where
                    // `max / s` may be `inf / inf` = NaN; a NaN one rates
                    // nothing. Either way, scan the entries.
                    training
                        .known_in_row(r)
                        .map(|(_, v)| v / s)
                        .fold(f64::NEG_INFINITY, f64::max)
                } else if s > 0.0 {
                    hi / s
                } else {
                    lo / s
                };
                if m.is_finite() {
                    maxima.push(m);
                }
            }
            if maxima.is_empty() {
                continue;
            }
            let mean = maxima.iter().sum::<f64>() / maxima.len() as f64;
            let var = maxima.iter().map(|m| (m - mean).powi(2)).sum::<f64>() / maxima.len() as f64;
            let dispersion = if mean.abs() < 1e-12 {
                f64::INFINITY
            } else {
                var / mean
            };
            if best.is_none_or(|(_, d)| dispersion < d) {
                best = Some((candidate, dispersion));
            }
        }
        self.reference = best.map(|(c, _)| c);
    }

    fn reference_col(&self) -> Option<usize> {
        self.reference
    }

    fn to_ratings_into(&self, known: &Row, ratings: &mut Row) -> bool {
        let Some(reference) = self.reference.and_then(|c| known.get(c).copied().flatten()) else {
            return false;
        };
        scale_into(known, guard_scale(reference), ratings);
        true
    }

    fn to_kpi(&self, known: &Row, _col: usize, rating: f64) -> f64 {
        let s = self
            .reference
            .and_then(|c| known.get(c).copied().flatten())
            .map_or(1.0, guard_scale);
        rating * s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The §5.1 example: A1 scales linearly, A2 is anti-correlated with
    /// thread count but larger in absolute value.
    fn paper_matrix() -> UtilityMatrix {
        UtilityMatrix::from_rows(vec![
            vec![Some(30.0), Some(20.0), Some(10.0)],
            vec![Some(100.0), Some(200.0), Some(400.0)],
            vec![Some(3.0), Some(2.0), Some(1.0)],
        ])
    }

    #[test]
    fn no_norm_is_identity() {
        let n = NoNorm;
        let row = vec![Some(5.0), None];
        assert_eq!(n.to_ratings(&row).unwrap(), row);
        assert_eq!(n.to_kpi(&row, 0, 7.0), 7.0);
    }

    #[test]
    fn global_max_uses_one_constant() {
        let mut n = GlobalMaxNorm::new();
        n.fit(&paper_matrix());
        let r = n.to_ratings(&vec![Some(40.0), None, None]).unwrap();
        assert_eq!(r[0], Some(0.1)); // 40 / 400
        assert!((n.to_kpi(&vec![None, None, None], 1, 0.25) - 100.0).abs() < 1e-9);
    }

    #[test]
    fn ideal_norm_maps_row_max_to_one() {
        let n = IdealNorm;
        let row = vec![Some(30.0), Some(20.0), Some(10.0)];
        let r = n.to_ratings(&row).unwrap();
        assert_eq!(r[0], Some(1.0));
        assert!((n.to_kpi(&row, 2, 0.5) - 15.0).abs() < 1e-9);
        assert!(n.to_ratings(&vec![None, None]).is_none());
    }

    #[test]
    fn rc_norm_roundtrips() {
        let mut n = RcNorm::new();
        let m = paper_matrix();
        n.fit(&m);
        let row = m.row(0).clone();
        let ratings = n.to_ratings(&row).unwrap();
        for c in 0..3 {
            let back = n.to_kpi(&row, c, ratings[c].unwrap());
            assert!((back - row[c].unwrap()).abs() < 1e-9, "col {c}");
        }
    }

    #[test]
    fn distillation_preserves_ratios() {
        let mut n = DistillationNorm::new();
        let m = paper_matrix();
        n.fit(&m);
        let c = n.reference().expect("a reference must be chosen");
        let row = m.row(1).clone();
        let r = n.to_ratings(&row).unwrap();
        // Property (i) of §5.1: pairwise KPI ratios survive normalization.
        let kpi_ratio = row[0].unwrap() / row[2].unwrap();
        let rating_ratio = r[0].unwrap() / r[2].unwrap();
        assert!((kpi_ratio - rating_ratio).abs() < 1e-9);
        // The reference column itself maps to 1.
        assert!((r[c].unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn distillation_aligns_heterogeneous_scales() {
        let mut n = DistillationNorm::new();
        let m = paper_matrix();
        n.fit(&m);
        let t = n.transform_matrix(&m);
        // Rows 0 and 2 have identical trends at 10× different scales: after
        // distillation they must be identical.
        for c in 0..3 {
            assert!((t.get(0, c).unwrap() - t.get(2, c).unwrap()).abs() < 1e-9);
        }
    }

    #[test]
    fn distillation_requires_reference_sample() {
        let mut n = DistillationNorm::new();
        n.fit(&paper_matrix());
        let c = n.reference().unwrap();
        let mut row: Row = vec![Some(5.0); 3];
        row[c] = None;
        assert!(n.to_ratings(&row).is_none(), "missing C* must fail");
    }

    #[test]
    fn distillation_reference_minimizes_dispersion() {
        // Rows whose maxima align perfectly when normalized by column 1.
        let m = UtilityMatrix::from_rows(vec![
            vec![Some(1.0), Some(2.0), Some(8.0)],
            vec![Some(50.0), Some(100.0), Some(400.0)],
            vec![Some(0.5), Some(1.0), Some(4.0)],
        ]);
        let mut n = DistillationNorm::new();
        n.fit(&m);
        // Any column works here (rows are exact multiples), so dispersion is
        // ~0 for all; just assert it picked something valid and consistent.
        let c = n.reference().unwrap();
        assert!(c < 3);
        let t = n.transform_matrix(&m);
        for r in 0..3 {
            assert!((t.get(r, c).unwrap() - 1.0).abs() < 1e-12);
        }
    }
}
