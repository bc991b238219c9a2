//! Standard-normal helpers and the closed-form Expected Improvement.

use crate::Goal;

/// Standard normal probability density φ(x).
pub fn norm_pdf(x: f64) -> f64 {
    (-(x * x) / 2.0).exp() / (2.0 * std::f64::consts::PI).sqrt()
}

/// Standard normal cumulative distribution Φ(x), via the Abramowitz &
/// Stegun 7.1.26 rational approximation of `erf` (|error| < 1.5e-7).
pub fn norm_cdf(x: f64) -> f64 {
    0.5 * (1.0 + erf(x / std::f64::consts::SQRT_2))
}

fn erf(x: f64) -> f64 {
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    const A1: f64 = 0.254829592;
    const A2: f64 = -0.284496736;
    const A3: f64 = 1.421413741;
    const A4: f64 = -1.453152027;
    const A5: f64 = 1.061405429;
    const P: f64 = 0.3275911;
    let t = 1.0 / (1.0 + P * x);
    let y = 1.0 - (((((A5 * t + A4) * t) + A3) * t + A2) * t + A1) * t * (-x * x).exp();
    sign * y
}

/// Closed-form Gaussian Expected Improvement over the incumbent `best`:
/// `EI = σ · (u·Φ(u) + φ(u))` with `u = (best − µ)/σ` for minimization and
/// `u = (µ − best)/σ` for maximization (paper §5.2).
///
/// With `σ = 0` the EI degenerates to the deterministic improvement
/// `max(0, improvement)`.
///
/// ```
/// use smbo::{expected_improvement, Goal};
/// // Minimizing with incumbent 10: a candidate predicted at 8±1 has solid
/// // expected improvement; one predicted at 12±0 has none.
/// assert!(expected_improvement(8.0, 1.0, 10.0, Goal::Minimize) > 1.5);
/// assert_eq!(expected_improvement(12.0, 0.0, 10.0, Goal::Minimize), 0.0);
/// ```
pub fn expected_improvement(mu: f64, sigma: f64, best: f64, goal: Goal) -> f64 {
    let improvement = improvement(mu, best, goal);
    if sigma <= 1e-12 {
        return improvement.max(0.0);
    }
    let u = improvement / sigma;
    (sigma * (u * norm_cdf(u) + norm_pdf(u))).max(0.0)
}

/// How much better than `best` a mean of `mu` is.
pub(crate) fn improvement(mu: f64, best: f64, goal: Goal) -> f64 {
    match goal {
        Goal::Minimize => best - mu,
        Goal::Maximize => mu - best,
    }
}

/// An upper bound on [`expected_improvement`] with the same arguments that
/// needs neither `Φ` nor `φ`. With `u` the improvement over `σ` it is
/// `σ·(u + φ(0))` where `u ≥ 0`, and `σ·φ(0)·(1 + ε) / (1 + x + x²/2)` with
/// `x = u²/2` where `u < 0` (`eˣ ≥ 1 + x + x²/2`); where EI is the
/// improvement itself (`σ ≤ 1e-12`), the improvement.
///
/// It holds for the computed values, not just the real ones: the `Φ` used
/// here lies in `[0, 1]`, so `u·Φ(u) ≤ max(u, 0)`, and `φ(u) ≤ φ(0)`; each
/// step of EI's expression then rounds a value no larger than the same step
/// of the bound's, and rounding is monotone. In the tail `u·Φ(u) ≤ 0`, so
/// EI ≤ `σ·φ(u)` as computed, and the slack `ε` covers the few roundings of
/// both sides where `x → 0` and the real gap, about `x³/6`, is below one
/// ulp. Where `x` or `x²` overflows the bound is 0, and so is EI
/// (DESIGN.md §5).
///
/// ```
/// use smbo::{ei_upper_bound, expected_improvement, Goal};
/// for (mu, sigma) in [(8.0, 1.0), (12.0, 0.5), (10.0, 3.0), (9.0, 0.0), (40.0, 1e-6)] {
///     let ei = expected_improvement(mu, sigma, 10.0, Goal::Minimize);
///     assert!(ei <= ei_upper_bound(mu, sigma, 10.0, Goal::Minimize));
/// }
/// ```
pub fn ei_upper_bound(mu: f64, sigma: f64, best: f64, goal: Goal) -> f64 {
    let improvement = improvement(mu, best, goal);
    if sigma <= 1e-12 {
        return improvement.max(0.0);
    }
    let u = improvement / sigma;
    if u < 0.0 {
        // `x` as `norm_pdf` computes it.
        let x = u * u / 2.0;
        return sigma * PDF_AT_0 * (1.0 + TAIL_SLACK) / (1.0 + x + x * x / 2.0);
    }
    sigma * (u.max(0.0) + PDF_AT_0)
}

/// `ε` of [`ei_upper_bound`]'s tail, 2⁻⁴⁰: 4,096 ulps of relative slack.
const TAIL_SLACK: f64 = 4096.0 * f64::EPSILON;

/// `norm_pdf(0.0)`, bit for bit.
const PDF_AT_0: f64 = 0.398_942_280_401_432_7;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cdf_reference_values() {
        assert!((norm_cdf(0.0) - 0.5).abs() < 1e-7);
        assert!((norm_cdf(1.96) - 0.975).abs() < 1e-3);
        assert!((norm_cdf(-1.96) - 0.025).abs() < 1e-3);
        assert!(norm_cdf(8.0) > 0.999999);
        assert!(norm_cdf(-8.0) < 1e-6);
    }

    #[test]
    fn pdf_is_symmetric_and_peaks_at_zero() {
        assert!((norm_pdf(1.3) - norm_pdf(-1.3)).abs() < 1e-12);
        assert!(norm_pdf(0.0) > norm_pdf(0.1));
        assert!((norm_pdf(0.0) - 0.3989422804).abs() < 1e-9);
    }

    #[test]
    fn the_bound_uses_the_pdf_peak() {
        assert_eq!(PDF_AT_0.to_bits(), norm_pdf(0.0).to_bits());
        // `norm_cdf` stays in [0, 1] because A&S's polynomial in `t` is
        // positive on [0, 1]: `u·Φ(u) ≤ max(u, 0)` rests on it.
        let sweep = (-40_000..=40_000).map(|i| f64::from(i) / 1000.0);
        for u in sweep.chain([-1e300, -1e-300, -0.0, 1e-300, 1e300]) {
            assert!((0.0..=1.0).contains(&norm_cdf(u)), "Φ({u})");
        }
    }

    #[test]
    fn ei_rewards_promising_mean() {
        // Minimization, incumbent 10: a candidate predicted at 5 beats one
        // predicted at 9, same uncertainty.
        let good = expected_improvement(5.0, 1.0, 10.0, Goal::Minimize);
        let meh = expected_improvement(9.0, 1.0, 10.0, Goal::Minimize);
        assert!(good > meh);
    }

    #[test]
    fn ei_rewards_uncertainty() {
        // Same (unpromising) mean: the uncertain candidate has higher EI —
        // the exploration half of the explore/exploit balance.
        let uncertain = expected_improvement(12.0, 5.0, 10.0, Goal::Minimize);
        let confident = expected_improvement(12.0, 0.1, 10.0, Goal::Minimize);
        assert!(uncertain > confident);
        assert!(confident < 1e-6);
    }

    #[test]
    fn ei_is_nonnegative_and_zero_sigma_degenerates() {
        assert_eq!(expected_improvement(12.0, 0.0, 10.0, Goal::Minimize), 0.0);
        assert_eq!(expected_improvement(7.0, 0.0, 10.0, Goal::Minimize), 3.0);
        assert_eq!(expected_improvement(13.0, 0.0, 10.0, Goal::Maximize), 3.0);
        for mu in [-5.0, 0.0, 5.0, 15.0] {
            for sigma in [0.0, 0.5, 2.0] {
                assert!(expected_improvement(mu, sigma, 10.0, Goal::Maximize) >= 0.0);
            }
        }
    }

    #[test]
    fn ei_maximization_mirrors_minimization() {
        let a = expected_improvement(12.0, 2.0, 10.0, Goal::Maximize);
        let b = expected_improvement(8.0, 2.0, 10.0, Goal::Minimize);
        assert!((a - b).abs() < 1e-12);
    }
}
