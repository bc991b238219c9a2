//! Adversarial property tests for the Monitor's sanitized `observe` path.
//!
//! The Monitor sits downstream of whatever KPI probe the deployment wires
//! in, so it must absorb the full range of garbage a broken probe can
//! emit — NaN, infinities, absurd magnitudes, sign-flipping extremes —
//! without panicking, without a false-alarm storm, and without letting the
//! garbage poison its baseline estimates.

use proptest::prelude::*;
use rectm::Monitor;

/// Warm the detector to a quiet baseline around 100.
fn warmed() -> Monitor {
    let mut m = Monitor::with_defaults();
    for i in 0..30 {
        assert!(!m.observe(100.0 + (i % 3) as f64 * 0.5));
    }
    m
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Any mixture of finite and non-finite samples is survivable: no
    /// panic, every non-finite sample is dropped (and accounted), and the
    /// detector remains functional enough to catch a genuine shift
    /// afterwards.
    #[test]
    fn arbitrary_garbage_streams_are_survivable(
        stream in prop::collection::vec((0u8..6, -1e6f64..1e6), 1..250)
    ) {
        let mut m = warmed();
        let mut fed_nonfinite = 0u64;
        for &(class, v) in &stream {
            let x = match class {
                0 => f64::NAN,
                1 => f64::INFINITY,
                2 => f64::NEG_INFINITY,
                _ => v,
            };
            if !x.is_finite() {
                fed_nonfinite += 1;
            }
            m.observe(x);
        }
        prop_assert_eq!(m.dropped_samples(), fed_nonfinite);
        // The detector still works afterwards. The garbage may have
        // legitimately inflated the variance estimate by orders of
        // magnitude, so give the EWMA a settling stretch long enough to
        // re-converge (alarms during settling are fine — each one resets
        // and re-warms the baseline), then a 20x shift must be caught.
        for _ in 0..600 {
            m.observe(100.0);
        }
        let caught = (0..40).any(|_| m.observe(2000.0));
        prop_assert!(caught, "detector broken after garbage stream");
    }

    /// Strictly alternating-sign extremes never alarm, whatever their
    /// amplitude: winsorization caps each standardized deviation at
    /// `clamp_z`, and the sign flip resets the opposing CUSUM sum before it
    /// can accumulate past the threshold.
    #[test]
    fn alternating_sign_extremes_never_alarm(
        amp in 1e3f64..1e12,
        n in 1usize..200,
    ) {
        let mut m = warmed();
        for i in 0..n {
            let x = if i % 2 == 0 { 100.0 + amp } else { 100.0 - amp };
            prop_assert!(
                !m.observe(x),
                "alarm on alternating extreme #{} (amp {amp})", i
            );
        }
    }

    /// Isolated outliers — one wild sample followed by a stretch of normal
    /// traffic — never alarm, no matter how large the spike, because a
    /// single winsorized sample contributes at most `clamp_z − slack_k`
    /// and the quiet stretch drains it before the next spike.
    #[test]
    fn isolated_outliers_never_alarm(
        amp in 1e6f64..1e9,
        gap in 9usize..25,
        spikes in 1usize..12,
    ) {
        let mut m = warmed();
        for s in 0..spikes {
            prop_assert!(!m.observe(100.0 + amp), "alarm on isolated spike #{s}");
            for _ in 0..gap {
                prop_assert!(!m.observe(100.0), "alarm on quiet sample after spike #{s}");
            }
        }
        prop_assert_eq!(m.clamped_samples(), spikes as u64);
    }

    /// A constant stream — any finite level, including zero and negative
    /// KPIs — never alarms: with zero variance the sigma floor keeps every
    /// standardized deviation at exactly zero.
    #[test]
    fn constant_streams_never_alarm(c in -1e15f64..1e15, n in 20usize..300) {
        let mut m = Monitor::with_defaults();
        for i in 0..n {
            prop_assert!(!m.observe(c), "alarm on constant stream at #{i}");
        }
        prop_assert_eq!(m.dropped_samples(), 0);
    }

    /// Non-finite poison scattered through a stable stream neither alarms
    /// nor perturbs: the detector ends in the same state as if the poison
    /// had never been sent.
    #[test]
    fn poison_is_invisible_to_the_baseline(
        positions in prop::collection::vec((0usize..80, 0u8..3), 1..20)
    ) {
        let mut poisoned = warmed();
        let mut clean = warmed();
        for i in 0..80usize {
            for &(pos, class) in &positions {
                if pos == i {
                    let bad = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY][class as usize];
                    prop_assert!(!poisoned.observe(bad));
                }
            }
            let x = 100.0 + (i % 5) as f64 * 0.4;
            prop_assert!(!poisoned.observe(x));
            prop_assert!(!clean.observe(x));
        }
        prop_assert_eq!(poisoned.samples(), clean.samples());
        prop_assert_eq!(poisoned.dropped_samples(), positions.len() as u64);
        // Both detectors must now agree on what counts as a shift, and on
        // when: feed the same step and compare detection latency.
        let mut hit_p = None;
        let mut hit_c = None;
        for i in 0..40 {
            if poisoned.observe(55.0) && hit_p.is_none() {
                hit_p = Some(i);
            }
            if clean.observe(55.0) && hit_c.is_none() {
                hit_c = Some(i);
            }
        }
        prop_assert_eq!(hit_p, hit_c, "poison changed detection behaviour");
    }
}
