//! The Monitor: lightweight workload-change detection via Adaptive CUSUM
//! (paper §5.3).
//!
//! The Monitor periodically samples the optimized KPI and flags deviations
//! from the recently observed mean. CUSUM accumulates standardized
//! deviations above a slack `k`, alarming when either one-sided sum exceeds
//! the threshold `h`; the *adaptive* part re-estimates the mean and
//! variance with an EWMA so slow drifts do not trip the alarm while abrupt
//! or sustained shifts do. Environmental changes (CPU hogs, VM migration)
//! are indistinguishable from workload changes — by design.

/// Detection knobs (in units of the estimated standard deviation).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MonitorSettings {
    /// CUSUM slack: deviations below `k`·σ accumulate nothing.
    pub slack_k: f64,
    /// Alarm threshold: accumulate past `h`·σ and a change is declared.
    pub threshold_h: f64,
    /// EWMA weight used to adapt the mean/variance estimates.
    pub ewma_alpha: f64,
    /// Samples used to (re)estimate the baseline after a reset.
    pub warmup: usize,
    /// Winsorization bound: a standardized deviation beyond `clamp_z`·σ is
    /// clamped before it touches the CUSUM sums or the EWMA baseline, so a
    /// single corrupt sample cannot trip the alarm or poison the
    /// estimates (set it non-positive to disable clamping). Must stay
    /// below `threshold_h + slack_k` for one-sample immunity and above the
    /// per-sample drift a genuine shift produces, or detection suffers.
    pub clamp_z: f64,
}

impl Default for MonitorSettings {
    fn default() -> Self {
        MonitorSettings {
            slack_k: 0.5,
            threshold_h: 5.0,
            ewma_alpha: 0.05,
            warmup: 10,
            // One clamped outlier adds 4.0 − 0.5 = 3.5 < h = 5 (immune);
            // two consecutive ones add 7 > 5 (a real shift still alarms
            // within two samples).
            clamp_z: 4.0,
        }
    }
}

/// Adaptive-CUSUM change detector over a KPI stream.
#[derive(Debug, Clone)]
pub struct Monitor {
    settings: MonitorSettings,
    mean: f64,
    /// Mean squared deviation (σ² estimate).
    var: f64,
    /// Welford sum of squared deviations, used during warm-up only.
    m2: f64,
    seen: usize,
    g_pos: f64,
    g_neg: f64,
    /// Non-finite samples dropped since construction (never reset).
    dropped: u64,
    /// Outlier samples winsorized since construction (never reset).
    clamped: u64,
    /// Id of the open `monitor.window` detached span (0 = none). A window
    /// opens when warm-up completes and closes at the next alarm or
    /// external reset, so it brackets every sample the CUSUM judged
    /// against one baseline. Detached because it spans many `observe`
    /// calls (see `obs::span_begin_detached`). The Monitor is driven from
    /// serial code, so emitting here is within the determinism contract.
    window: u64,
}

impl Monitor {
    /// A detector with the given settings.
    pub fn new(settings: MonitorSettings) -> Self {
        Monitor {
            settings,
            mean: 0.0,
            var: 0.0,
            m2: 0.0,
            seen: 0,
            g_pos: 0.0,
            g_neg: 0.0,
            dropped: 0,
            clamped: 0,
            window: 0,
        }
    }

    /// A detector with the paper-like defaults.
    pub fn with_defaults() -> Self {
        Monitor::new(MonitorSettings::default())
    }

    /// Restart baseline estimation (called automatically on detection, and
    /// externally after a re-optimization settles on a new configuration).
    pub fn reset(&mut self) {
        if self.window != 0 {
            // An externally requested reset ends the window without an
            // alarm (the alarm path closes it itself, before calling us).
            obs::span_end_detached(
                self.window,
                vec![
                    ("name", obs::Value::from("monitor.window")),
                    ("alarmed", obs::Value::from(false)),
                    ("samples", obs::Value::from(self.seen)),
                ],
            );
            self.window = 0;
        }
        obs::event!("cusum.reset", "seen" => self.seen);
        self.mean = 0.0;
        self.var = 0.0;
        self.m2 = 0.0;
        self.seen = 0;
        self.g_pos = 0.0;
        self.g_neg = 0.0;
    }

    /// Feed one KPI sample; returns `true` when a behaviour change is
    /// detected (the detector resets itself in that case).
    ///
    /// The sample is sanitized first: non-finite values (a crashed probe, a
    /// division by a zero window) are dropped and
    /// counted, and finite outliers beyond [`MonitorSettings::clamp_z`]
    /// standard deviations are winsorized, so corrupt telemetry degrades
    /// detection latency instead of poisoning the detector state or
    /// triggering a false-alarm storm.
    pub fn observe(&mut self, x: f64) -> bool {
        let s = self.settings;
        if !x.is_finite() {
            self.dropped += 1;
            obs::event!("kpi.sanitized", "reason" => "nonfinite", "seen" => self.seen);
            return false;
        }
        if self.seen < s.warmup {
            // Welford running estimate during warm-up.
            self.seen += 1;
            let delta = x - self.mean;
            self.mean += delta / self.seen as f64;
            self.m2 += delta * (x - self.mean);
            if self.seen == s.warmup {
                self.var = self.m2 / self.seen as f64;
                if obs::enabled() {
                    self.window = obs::span_begin_detached(vec![
                        ("name", obs::Value::from("monitor.window")),
                        ("mean", obs::Value::from(self.mean)),
                    ]);
                }
            }
            return false;
        }
        let sigma = self.var.sqrt().max(self.mean.abs() * 0.02).max(1e-12);
        let mut z = (x - self.mean) / sigma;
        if s.clamp_z > 0.0 && z.abs() > s.clamp_z {
            self.clamped += 1;
            obs::event!(
                "kpi.sanitized",
                "reason" => "outlier",
                "z" => z,
                "clamp" => s.clamp_z,
                "seen" => self.seen,
            );
            z = z.signum() * s.clamp_z;
        }
        // The winsorized sample: what the CUSUM sums and the EWMA baseline
        // below actually see (equals `x` when nothing was clamped).
        let x = self.mean + z * sigma;
        self.g_pos = (self.g_pos + z - s.slack_k).max(0.0);
        self.g_neg = (self.g_neg - z - s.slack_k).max(0.0);
        if self.g_pos > s.threshold_h || self.g_neg > s.threshold_h {
            obs::event!(
                "cusum.alarm",
                "sample" => x,
                "g_pos" => self.g_pos,
                "g_neg" => self.g_neg,
                "mean" => self.mean,
                "seen" => self.seen,
            );
            if self.window != 0 {
                obs::span_end_detached(
                    self.window,
                    vec![
                        ("name", obs::Value::from("monitor.window")),
                        ("alarmed", obs::Value::from(true)),
                        ("samples", obs::Value::from(self.seen)),
                    ],
                );
                self.window = 0;
            }
            self.reset();
            return true;
        }
        // Adapt the baseline slowly (the "adaptive" in Adaptive CUSUM).
        let delta = x - self.mean;
        self.mean += s.ewma_alpha * delta;
        self.var += s.ewma_alpha * (delta * delta - self.var);
        false
    }

    /// Number of samples since the last reset.
    pub fn samples(&self) -> usize {
        self.seen
    }

    /// Non-finite samples dropped over the detector's lifetime.
    pub fn dropped_samples(&self) -> u64 {
        self.dropped
    }

    /// Outlier samples winsorized over the detector's lifetime.
    pub fn clamped_samples(&self) -> u64 {
        self.clamped
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn feed(m: &mut Monitor, values: impl IntoIterator<Item = f64>) -> Option<usize> {
        for (i, v) in values.into_iter().enumerate() {
            if m.observe(v) {
                return Some(i);
            }
        }
        None
    }

    #[test]
    fn stable_stream_never_alarms() {
        let _serial = crate::serial();
        let mut m = Monitor::with_defaults();
        let vals = (0..200).map(|i| 100.0 + ((i * 7919) % 13) as f64 * 0.3);
        assert_eq!(feed(&mut m, vals), None);
    }

    #[test]
    fn abrupt_drop_is_detected_quickly() {
        let _serial = crate::serial();
        let mut m = Monitor::with_defaults();
        let stable = (0..30).map(|i| 100.0 + (i % 3) as f64);
        assert_eq!(feed(&mut m, stable), None);
        let dropped = (0..20).map(|_| 40.0);
        let hit = feed(&mut m, dropped);
        assert!(hit.is_some(), "a 60% drop must alarm");
        assert!(hit.unwrap() < 8, "detection should be fast, took {hit:?}");
    }

    #[test]
    fn abrupt_rise_is_detected_too() {
        let _serial = crate::serial();
        let mut m = Monitor::with_defaults();
        feed(&mut m, (0..30).map(|i| 10.0 + (i % 2) as f64 * 0.1));
        assert!(feed(&mut m, (0..20).map(|_| 25.0)).is_some());
    }

    #[test]
    fn smooth_sustained_degradation_is_detected() {
        let _serial = crate::serial();
        let mut m = Monitor::with_defaults();
        feed(&mut m, (0..30).map(|i| 100.0 + (i % 3) as f64));
        // 1.5% degradation per sample: slow but relentless.
        let drift = (0..200).map(|i| 100.0 * (1.0 - 0.015 * i as f64).max(0.2));
        assert!(feed(&mut m, drift).is_some());
    }

    #[test]
    fn detector_resets_after_alarm_and_relearns() {
        let _serial = crate::serial();
        let mut m = Monitor::with_defaults();
        feed(&mut m, (0..30).map(|_| 100.0));
        assert!(feed(&mut m, (0..30).map(|_| 30.0)).is_some());
        // After the alarm the detector re-learns the new level: feeding the
        // same new level must not alarm again.
        assert_eq!(m.samples(), 0);
        assert_eq!(feed(&mut m, (0..100).map(|_| 30.0)), None);
    }

    #[test]
    fn nonfinite_samples_are_dropped_not_learned() {
        let _serial = crate::serial();
        let mut m = Monitor::with_defaults();
        feed(&mut m, (0..30).map(|_| 100.0));
        let baseline_seen = m.samples();
        for poison in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert!(!m.observe(poison), "poison must never alarm");
        }
        assert_eq!(m.dropped_samples(), 3);
        assert_eq!(m.samples(), baseline_seen, "dropped samples don't count");
        // The detector state is intact: a clean stream stays quiet and a
        // real shift is still caught.
        assert_eq!(feed(&mut m, (0..50).map(|_| 100.0)), None);
        assert!(feed(&mut m, (0..20).map(|_| 40.0)).is_some());
    }

    #[test]
    fn single_outlier_is_clamped_without_alarm() {
        let _serial = crate::serial();
        let mut m = Monitor::with_defaults();
        feed(&mut m, (0..30).map(|i| 100.0 + (i % 3) as f64));
        // A lone wild sample (sensor glitch): winsorized, no alarm.
        assert!(!m.observe(1e12));
        assert_eq!(m.clamped_samples(), 1);
        // And it did not drag the baseline: the old level is still normal.
        assert_eq!(feed(&mut m, (0..50).map(|i| 100.0 + (i % 3) as f64)), None);
    }

    #[test]
    fn sustained_extreme_shift_still_alarms_through_the_clamp() {
        let _serial = crate::serial();
        let mut m = Monitor::with_defaults();
        feed(&mut m, (0..30).map(|_| 100.0));
        // Clamped to ±4σ per sample, two samples exceed h = 5.
        let hit = feed(&mut m, (0..10).map(|_| 1e9));
        assert!(
            hit.is_some() && hit.unwrap() <= 2,
            "clamp must not mask a real shift"
        );
    }

    #[test]
    fn alarm_windows_are_bracketed_by_detached_spans() {
        let _serial = crate::serial();
        let ((), bytes) = obs::capture_trace(|| {
            let mut m = Monitor::with_defaults();
            feed(&mut m, (0..30).map(|_| 100.0));
            assert!(feed(&mut m, (0..30).map(|_| 30.0)).is_some());
            // The post-alarm window re-opens after warm-up and closes
            // unalarmed on an external reset.
            feed(&mut m, (0..15).map(|_| 30.0));
            m.reset();
        });
        let text = String::from_utf8(bytes).unwrap();
        assert_eq!(text.matches("\"name\":\"monitor.window\"").count(), 4);
        assert!(text.contains("\"alarmed\":true"));
        assert!(text.contains("\"alarmed\":false"));
    }

    #[test]
    fn noise_tolerance_scales_with_variance() {
        let _serial = crate::serial();
        // A noisy-but-stationary stream with ±20% swings must not alarm.
        let mut m = Monitor::with_defaults();
        // splitmix64 finalizer: well-mixed stationary noise.
        let noisy = (0..300u64).map(|i| {
            let mut z = i.wrapping_add(0x9E37_79B9_7F4A_7C15);
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            100.0 + (z % 40) as f64 - 20.0
        });
        assert_eq!(feed(&mut m, noisy), None);
    }
}
