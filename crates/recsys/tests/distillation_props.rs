//! Property tests for rating distillation (paper Algorithm 3, §5.1).
//!
//! The point of distillation is that the rating a workload receives is a
//! *scale-free* quantity — "k× the performance of the reference
//! configuration" — so three properties must hold on any utility matrix:
//!
//! 1. **Scale invariance**: multiplying a workload's KPI row by any
//!    positive constant leaves its ratings unchanged (and leaves the
//!    fitted reference column unchanged, because the dispersion criterion
//!    only sees per-row ratios).
//! 2. **Output bounds**: the reference column always rates exactly 1, and
//!    every other rating equals the KPI ratio w.r.t. the reference — in
//!    particular it stays inside [row-min, row-max] / reference and is
//!    finite and positive for positive KPIs.
//! 3. **Round trip**: `to_kpi` inverts `to_ratings` on every known entry.
//!
//! The fit itself is pinned to the per-candidate original kept verbatim
//! below, on matrices no KPI source produces: holes, ±0, negative and
//! infinite KPIs, and references small enough to hit the 1e-12 guard.

use proptest::prelude::*;
use recsys::{DistillationNorm, Normalization, Row, UtilityMatrix};

/// Build a fully-known `nrows × ncols` matrix from a flat pool of
/// strictly positive KPI samples (the pool is drawn large enough for the
/// largest dimensions the strategies produce).
fn matrix(nrows: usize, ncols: usize, vals: &[f64]) -> UtilityMatrix {
    let rows = (0..nrows)
        .map(|r| (0..ncols).map(|c| Some(vals[r * ncols + c])).collect())
        .collect();
    UtilityMatrix::from_rows(rows)
}

fn rel_close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0)
}

fn guard_scale(s: f64) -> f64 {
    if s.abs() < 1e-12 {
        1e-12
    } else {
        s
    }
}

/// The original `DistillationNorm::fit`, kept verbatim as the reference:
/// per candidate column, divide every known entry of every row that knows
/// the candidate by the row's reference, and keep the row's maximum.
fn reference_fit(training: &UtilityMatrix) -> Option<usize> {
    let ncols = training.ncols();
    let mut best: Option<(usize, f64)> = None;
    for candidate in 0..ncols {
        // Rows that know the candidate column participate.
        let mut maxima = Vec::new();
        for r in 0..training.nrows() {
            let Some(reference) = training.get(r, candidate) else {
                continue;
            };
            let s = guard_scale(reference);
            let m = training
                .known_in_row(r)
                .map(|(_, v)| v / s)
                .fold(f64::NEG_INFINITY, f64::max);
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
    best.map(|(c, _)| c)
}

/// An adversarial entry: `kind` picks a hole, ±0, ±inf, a value under the
/// 1e-12 guard, or `x` itself (either sign).
fn adversarial(kind: u8, x: f64) -> Option<f64> {
    match kind {
        0 => None,
        1 => Some(0.0),
        2 => Some(-0.0),
        3 => Some(f64::INFINITY),
        4 => Some(f64::NEG_INFINITY),
        5 => Some(x * 1e-15),
        _ => Some(x),
    }
}

/// A row whose reference is +inf rates its finite entries 0 (`v / inf`)
/// and its infinite ones NaN, which `f64::max` skips: the row still
/// contributes a finite maximum of 0. Here that 0 is what makes column 0
/// worse than column 1; dividing the row's maximum by the reference would
/// give `inf / inf` = NaN, drop the row, and tie column 0 at dispersion 0.
#[test]
fn infinite_reference_rates_finite_entries_zero() {
    let m = UtilityMatrix::from_rows(vec![
        vec![Some(f64::INFINITY), Some(1.0)],
        vec![Some(1.0), Some(1.0)],
        vec![Some(1.0), Some(1.0)],
    ]);
    let mut n = DistillationNorm::new();
    n.fit(&m);
    assert_eq!(reference_fit(&m), Some(1));
    assert_eq!(n.reference_col(), Some(1));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Property 1 — per-row positive rescaling changes neither the chosen
    /// reference column nor a single rating. This is exactly the "Rating
    /// Heterogeneity" fix of §5.1: a workload's absolute KPI magnitude
    /// carries no information after distillation.
    #[test]
    fn ratings_are_invariant_under_row_scaling(
        nrows in 2usize..7,
        ncols in 2usize..6,
        vals in prop::collection::vec(0.1f64..1000.0, 42),
        scales in prop::collection::vec(0.001f64..1000.0, 7),
    ) {
        let m = matrix(nrows, ncols, &vals);
        let scaled = UtilityMatrix::from_rows(
            (0..nrows)
                .map(|r| {
                    m.row(r)
                        .iter()
                        .map(|v| v.map(|x| x * scales[r]))
                        .collect()
                })
                .collect(),
        );

        let mut base = DistillationNorm::new();
        base.fit(&m);
        let mut resc = DistillationNorm::new();
        resc.fit(&scaled);
        prop_assert_eq!(
            base.reference(), resc.reference(),
            "dispersion only sees ratios, so C* must not move"
        );

        for (r, scale) in scales.iter().enumerate().take(nrows) {
            let a = base.to_ratings(m.row(r)).unwrap();
            let b = resc.to_ratings(scaled.row(r)).unwrap();
            for c in 0..ncols {
                prop_assert!(
                    rel_close(a[c].unwrap(), b[c].unwrap()),
                    "row {r} col {c}: {:?} vs {:?} after ×{scale}",
                    a[c], b[c]
                );
            }
        }
    }

    /// Property 2 — ratings are the KPI ratios w.r.t. C*: the reference
    /// itself rates exactly 1, everything is finite and positive, and no
    /// rating escapes the row's [min, max] / reference envelope.
    #[test]
    fn ratings_stay_in_ratio_bounds(
        nrows in 2usize..7,
        ncols in 2usize..6,
        vals in prop::collection::vec(0.1f64..1000.0, 42),
    ) {
        let m = matrix(nrows, ncols, &vals);
        let mut n = DistillationNorm::new();
        n.fit(&m);
        let cstar = n.reference().expect("fully-known matrix must fit");
        prop_assert!(cstar < ncols);
        prop_assert_eq!(n.reference_col(), Some(cstar));

        for r in 0..nrows {
            let row = m.row(r);
            let ratings = n.to_ratings(row).unwrap();
            let reference = row[cstar].unwrap();
            let lo = row.iter().flatten().copied().fold(f64::INFINITY, f64::min) / reference;
            let hi = row.iter().flatten().copied().fold(f64::NEG_INFINITY, f64::max) / reference;
            prop_assert_eq!(
                ratings[cstar],
                Some(1.0),
                "C* must rate exactly 1 (IEEE x/x) in row {r}"
            );
            for (c, rating) in ratings.iter().enumerate() {
                let k = rating.unwrap();
                prop_assert!(k.is_finite() && k > 0.0, "row {r} col {c}: {k}");
                prop_assert!(
                    (lo..=hi).contains(&k),
                    "row {r} col {c}: rating {k} outside [{lo}, {hi}]"
                );
            }
        }
    }

    /// Property 3 — `to_kpi` undoes `to_ratings` on every known entry, so
    /// accuracy metrics computed after un-distillation see the original
    /// KPI scale.
    #[test]
    fn distill_then_undistill_roundtrips(
        nrows in 2usize..7,
        ncols in 2usize..6,
        vals in prop::collection::vec(0.1f64..1000.0, 42),
    ) {
        let m = matrix(nrows, ncols, &vals);
        let mut n = DistillationNorm::new();
        n.fit(&m);
        for r in 0..nrows {
            let row = m.row(r);
            let ratings = n.to_ratings(row).unwrap();
            for c in 0..ncols {
                let back = n.to_kpi(row, c, ratings[c].unwrap());
                prop_assert!(
                    rel_close(back, row[c].unwrap()),
                    "row {r} col {c}: {} round-tripped to {}",
                    row[c].unwrap(), back
                );
            }
        }
    }

    /// A row that has not sampled the reference configuration cannot be
    /// rated (Algorithm 2 profiles C* first for exactly this reason) —
    /// but any row that has sampled it can, however sparse.
    #[test]
    fn reference_sample_gates_rating(
        nrows in 2usize..7,
        ncols in 2usize..6,
        vals in prop::collection::vec(0.1f64..1000.0, 42),
    ) {
        let m = matrix(nrows, ncols, &vals);
        let mut n = DistillationNorm::new();
        n.fit(&m);
        let cstar = n.reference().unwrap();

        let mut missing: Row = m.row(0).clone();
        missing[cstar] = None;
        prop_assert!(n.to_ratings(&missing).is_none());

        let mut sparse: Row = vec![None; ncols];
        sparse[cstar] = m.row(0)[cstar];
        let rated = n.to_ratings(&sparse).unwrap();
        prop_assert_eq!(rated[cstar], Some(1.0));
        prop_assert_eq!(rated.iter().flatten().count(), 1);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    /// The fitted reference column is the per-candidate original's, on
    /// matrices with holes, ±0, negative and infinite KPIs and references
    /// under 1e-12.
    #[test]
    fn reference_matches_the_per_candidate_original(
        nrows in 1usize..8,
        ncols in 1usize..7,
        cells in prop::collection::vec((0u8..12, -1000.0f64..1000.0), 42),
    ) {
        let rows = (0..nrows)
            .map(|r| {
                (0..ncols)
                    .map(|c| {
                        let (kind, x) = cells[r * ncols + c];
                        adversarial(kind, x)
                    })
                    .collect()
            })
            .collect();
        let m = UtilityMatrix::from_rows(rows);
        let mut n = DistillationNorm::new();
        n.fit(&m);
        prop_assert_eq!(n.reference_col(), reference_fit(&m), "matrix {:?}", m);
    }
}
