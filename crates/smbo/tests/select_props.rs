//! `Acquisition::select` under EI scores only the candidates that can win:
//! it skips a candidate whose `ei_upper_bound` is below the EI of the
//! candidate with the largest improvement. It must still return what an
//! exhaustive `max_by` over every candidate's EI returns — the same
//! candidate, the last of equal scores, and the same EI bits — on any
//! input, including what no ensemble produces: NaN and infinite means and
//! variances, ±0, variances at or below zero, σ at the 1e-12 threshold, and
//! improvements so much larger than σ that their ratio overflows. A second
//! generator draws the Gaussian tail, where the improvement is below zero
//! and the bound falls as `1 / (1 + x + x²/2)` with `x = u²/2`.

use proptest::prelude::*;
use smbo::{ei_upper_bound, expected_improvement, norm_pdf, Acquisition, Candidate, Goal};

/// One raw draw: per candidate `(mean kind, mean, variance kind, variance)`,
/// the incumbent as `(kind, value)`, and the goal.
type Draw = (Vec<(u8, f64, u8, f64)>, (u8, f64), u8);

fn draws() -> impl Strategy<Value = Draw> {
    (
        prop::collection::vec((0u8..15, -3.0..3.0, 0u8..15, -1.0..4.0), 1..40),
        (0u8..15, -3.0..3.0),
        0u8..2,
    )
}

/// `x`, or a value of kind `kind` made from it: a coarse grid (so that
/// candidates tie), ±0, NaN, ±∞, and magnitudes near the ends of `f64`.
fn pick(kind: u8, x: f64) -> f64 {
    match kind {
        0..=3 => x,
        4..=6 => (x * 2.0).round() / 2.0,
        7 => 0.0,
        8 => -0.0,
        9 => f64::NAN,
        10 => f64::INFINITY,
        11 => f64::NEG_INFINITY,
        12 => x * 1e300,
        // As a variance: σ within a factor of two of the 1e-12 threshold.
        13 => x * 1e-24,
        _ => x * 1e-300,
    }
}

fn decode((raw, (best_kind, best), goal): &Draw) -> (Vec<Candidate>, f64, Goal) {
    let candidates = raw
        .iter()
        .enumerate()
        .map(|(index, &(mk, mu, sk, s2))| Candidate {
            index,
            mu: pick(mk, mu),
            sigma2: pick(sk, s2),
        })
        .collect();
    let goal = [Goal::Maximize, Goal::Minimize][*goal as usize];
    (candidates, pick(*best_kind, *best), goal)
}

fn ei(c: &Candidate, best: f64, goal: Goal) -> f64 {
    expected_improvement(c.mu, c.sigma2.max(0.0).sqrt(), best, goal)
}

fn bound(c: &Candidate, best: f64, goal: Goal) -> f64 {
    ei_upper_bound(c.mu, c.sigma2.max(0.0).sqrt(), best, goal)
}

/// What `select` returned before it pruned: every candidate scored, the
/// last of the highest scores (`max_by`'s rule).
fn exhaustive(candidates: &[Candidate], best: f64, goal: Goal) -> (usize, f64) {
    candidates
        .iter()
        .map(|c| (c.index, ei(c, best, goal)))
        .max_by(|a, b| a.1.total_cmp(&b.1))
        .expect("non-empty")
}

fn improvement(c: &Candidate, best: f64, goal: Goal) -> f64 {
    match goal {
        Goal::Maximize => c.mu - best,
        Goal::Minimize => best - c.mu,
    }
}

/// Every candidate's EI is at most its bound, and `select` returns the
/// exhaustive `max_by`'s candidate and EI bits. In the tail (`u < 0`) the
/// bound is proved against `σ·φ(u)` as computed, which EI's `u·Φ(u) ≤ 0`
/// keeps above EI: it must hold against that too, or it rests on a margin
/// nobody proved.
fn check_select(candidates: &[Candidate], best: f64, goal: Goal) -> Result<(), TestCaseError> {
    for c in candidates {
        let (e, b) = (ei(c, best, goal), bound(c, best, goal));
        prop_assert!(
            e <= b,
            "EI {e} above its bound {b} for {c:?}, best {best}, {goal:?}"
        );
        let sigma = c.sigma2.max(0.0).sqrt();
        let u = improvement(c, best, goal) / sigma;
        if sigma > 1e-12 && u < 0.0 {
            let pdf = sigma * norm_pdf(u);
            prop_assert!(
                pdf <= b,
                "σ·φ(u) {pdf} above the bound {b} for {c:?}, best {best}, {goal:?}"
            );
        }
    }
    let (want, want_ei) = exhaustive(candidates, best, goal);
    let (got, got_ei) = Acquisition::ExpectedImprovement
        .select(candidates, best, goal, &mut 1)
        .expect("non-empty");
    prop_assert_eq!(got.index, want, "best {}, {:?}", best, goal);
    prop_assert_eq!(got_ei.to_bits(), want_ei.to_bits());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    #[test]
    fn pruned_select_is_the_exhaustive_max(draw in draws()) {
        let (candidates, best, goal) = decode(&draw);
        check_select(&candidates, best, goal)?;
    }
}

/// One raw tail draw: per candidate `(u kind, log₁₀ x, σ kind, log₁₀ σ)`,
/// the incumbent, and the goal.
type TailDraw = (Vec<(u8, f64, u8, f64)>, f64, u8);

fn tail_draws() -> impl Strategy<Value = TailDraw> {
    (
        prop::collection::vec((0u8..10, -8.0..3.0, 0u8..8, -6.0..6.0), 1..24),
        -3.0..3.0,
        0u8..2,
    )
}

/// `u` for a `(kind, log₁₀ x)` draw: mostly the tail, `u = −√(2x)` with
/// `x` from 1e-8 to 1e3; a `u·u` that overflows; an `x` whose `x·x`
/// overflows; and `u ≥ 0` for a leader above the tail.
fn tail_u(kind: u8, lx: f64) -> f64 {
    match kind {
        0..=5 => -(2.0 * 10f64.powf(lx)).sqrt(),
        6 => -10f64.powf(160.0 + lx.abs()),
        7 => -10f64.powf(80.0 + 7.0 * lx.abs()),
        _ => (2.0 * 10f64.powf(lx)).sqrt(),
    }
}

fn decode_tail((raw, best, goal): &TailDraw) -> (Vec<Candidate>, f64, Goal) {
    let goal = [Goal::Maximize, Goal::Minimize][*goal as usize];
    let candidates = raw
        .iter()
        .enumerate()
        .map(|(index, &(uk, lx, sk, ls))| {
            let sigma = match sk {
                0..=5 => 10f64.powf(ls),
                6 => f64::INFINITY,
                _ => 1e-12 * (1.0 + ls.abs() / 6.0),
            };
            // An infinite σ keeps a finite improvement: `u` is then ±0.
            let improvement = tail_u(uk, lx) * sigma.min(1e300);
            let mu = match goal {
                Goal::Maximize => best + improvement,
                Goal::Minimize => best - improvement,
            };
            Candidate {
                index,
                mu,
                sigma2: sigma * sigma,
            }
        })
        .collect();
    (candidates, *best, goal)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4000))]

    #[test]
    fn the_tail_bound_holds_and_select_is_the_exhaustive_max(draw in tail_draws()) {
        let (candidates, best, goal) = decode_tail(&draw);
        check_select(&candidates, best, goal)?;
    }
}

/// What the tail draws are there to cover, counted over a fixed sample.
#[test]
fn the_tail_draws_cover_every_decade_and_the_overflows() {
    let mut rng = proptest::rng_for("select_props::tail_coverage");
    let strategy = tail_draws();
    let names = [
        "maximize",
        "minimize",
        "x in [1e-8, 1e-6)",
        "x in [1e-6, 1e-3)",
        "x in [1e-3, 1)",
        "x in [1, 1e3]",
        "u·u = ∞",
        "x·x = ∞, x finite",
        "σ = ∞",
        "pruned by the tail, not by σ·φ(0)",
    ];
    let mut seen = [0usize; 10];
    for _ in 0..4000 {
        let (candidates, best, goal) = decode_tail(&strategy.generate(&mut rng));
        let sigma = |c: &Candidate| c.sigma2.max(0.0).sqrt();
        // `u` as `select` computes it.
        let u = |c: &Candidate| improvement(c, best, goal) / sigma(c);
        let x = |c: &Candidate| (sigma(c) > 1e-12 && u(c) < 0.0).then(|| u(c) * u(c) / 2.0);
        let in_x = |lo: f64, hi: f64| {
            candidates
                .iter()
                .any(|c| x(c).is_some_and(|x| (lo..hi).contains(&x)))
        };
        let lead = candidates
            .iter()
            .max_by(|a, b| improvement(a, best, goal).total_cmp(&improvement(b, best, goal)))
            .expect("non-empty");
        let bar = ei(lead, best, goal);
        let cover = [
            goal == Goal::Maximize,
            goal == Goal::Minimize,
            in_x(1e-8, 1e-6),
            in_x(1e-6, 1e-3),
            in_x(1e-3, 1.0),
            in_x(1.0, 1e3 * (1.0 + 1e-9)),
            candidates
                .iter()
                .any(|c| sigma(c) > 1e-12 && u(c).is_finite() && (u(c) * u(c)).is_infinite()),
            candidates
                .iter()
                .any(|c| x(c).is_some_and(|x| x.is_finite() && (x * x).is_infinite())),
            candidates.iter().any(|c| c.sigma2 == f64::INFINITY),
            candidates.iter().any(|c| {
                x(c).is_some()
                    && bound(c, best, goal) < bar
                    && sigma(c) * 0.398_942_280_401_432_7 >= bar
            }),
        ];
        for (n, hit) in seen.iter_mut().zip(cover) {
            *n += usize::from(hit);
        }
    }
    for (name, n) in names.iter().zip(seen) {
        assert!(n >= 1000, "{name} in only {n} of 4000 draws ({seen:?})");
    }
}

/// What the draws are there to cover, counted over a fixed sample so that
/// a change to the generator cannot silently stop covering it.
#[test]
fn the_draws_cover_pruning_ties_and_the_special_values() {
    let mut rng = proptest::rng_for("select_props::coverage");
    let strategy = draws();
    let mut seen = [0usize; 9];
    for _ in 0..2000 {
        let (candidates, best, goal) = decode(&strategy.generate(&mut rng));
        let lead = candidates
            .iter()
            .max_by(|a, b| improvement(a, best, goal).total_cmp(&improvement(b, best, goal)))
            .expect("non-empty");
        let bar = ei(lead, best, goal);
        let (_, top) = exhaustive(&candidates, best, goal);
        let any = |f: &dyn Fn(&Candidate) -> bool| candidates.iter().any(f);
        let cover = [
            goal == Goal::Maximize,
            goal == Goal::Minimize,
            // Pruned: some candidate is not scored.
            any(&|c| bound(c, best, goal) < bar),
            // Tied: the winner is the last of several equal scores.
            candidates
                .iter()
                .filter(|c| ei(c, best, goal).to_bits() == top.to_bits())
                .count()
                > 1
                && top > 0.0,
            any(&|c| c.sigma2 <= 0.0),
            any(&|c| c.sigma2 == f64::INFINITY),
            any(&|c| c.mu.is_nan() || c.sigma2.is_nan()),
            any(&|c| {
                c.mu.to_bits() == (-0.0f64).to_bits() || best.to_bits() == (-0.0f64).to_bits()
            }),
            // An improvement over σ that overflows or is beyond 1e12.
            any(&|c| {
                let sigma = c.sigma2.max(0.0).sqrt();
                sigma > 1e-12 && (improvement(c, best, goal) / sigma).abs() > 1e12
            }),
        ];
        for (n, hit) in seen.iter_mut().zip(cover) {
            *n += usize::from(hit);
        }
    }
    let names = [
        "maximize",
        "minimize",
        "pruned",
        "tied",
        "σ² ≤ 0",
        "σ² = ∞",
        "NaN",
        "-0.0",
        "u > 1e12",
    ];
    for (name, n) in names.iter().zip(seen) {
        assert!(n >= 200, "{name} in only {n} of 2000 draws ({seen:?})");
    }
}
