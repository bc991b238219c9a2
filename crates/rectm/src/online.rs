//! The on-line phase (Algorithm 2, Fig. 2): optimize, let the Monitor
//! watch, and re-optimize when it flags a behaviour change.

use crate::controller::Controller;
use crate::monitor::Monitor;

/// One tick of [`Controller::run_online`]; its index in the record is its
/// tick.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tick {
    /// The configuration (column index) that ran in this tick.
    pub config: usize,
    /// The KPI `measure` returned, kept even if the Controller discarded it.
    pub kpi: f64,
    /// Whether a round explored `config` (otherwise the Monitor sampled the
    /// last round's recommendation).
    pub exploring: bool,
    /// Whether the Monitor flagged a change; the next tick starts a round.
    pub alarm: bool,
}

impl Controller {
    /// The on-line loop: a round first, then Monitor samples of its
    /// recommendation, and a new round after every alarm.
    ///
    /// `measure(config, tick)` runs the workload in `config` for one tick
    /// and returns its KPI. Every call costs one tick, a sample the
    /// Controller discards included. A round that starts before `ticks`
    /// runs to its end, so the record may be longer than `ticks`. After
    /// each round the loop replays its trace and resets `monitor`, so call
    /// it from serial driver code only (DESIGN.md §7).
    pub fn run_online(
        &self,
        monitor: &mut Monitor,
        ticks: usize,
        measure: &mut dyn FnMut(usize, usize) -> f64,
    ) -> Vec<Tick> {
        let mut record: Vec<Tick> = Vec::with_capacity(ticks);
        while record.len() < ticks {
            let round = self.optimize(&mut |config| {
                let kpi = measure(config, record.len());
                record.push(Tick {
                    config,
                    kpi,
                    exploring: true,
                    alarm: false,
                });
                kpi
            });
            round.emit_trace();
            monitor.reset();
            let config = round.recommended;
            let mut alarm = false;
            while !alarm && record.len() < ticks {
                let kpi = measure(config, record.len());
                alarm = monitor.observe(kpi);
                record.push(Tick {
                    config,
                    kpi,
                    exploring: false,
                    alarm,
                });
            }
        }
        record
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controller::tests::{controller, truth};
    use crate::ControllerSettings;

    /// The regime after the flip: the optimum moves from column 5 to 1.
    fn flipped(c: usize) -> f64 {
        3.3 * (10.0 - (c as f64 - 1.0).powi(2)).max(0.5)
    }

    /// The KPI of `config` at `tick` when the workload flips at `at`.
    fn kpi(config: usize, tick: usize, at: usize) -> f64 {
        if tick < at {
            truth(config)
        } else {
            flipped(config)
        }
    }

    /// A round that straddles a change measures each exploration in the
    /// tick it runs in, not in the tick the round started in.
    #[test]
    fn a_round_measures_each_exploration_at_its_own_tick() {
        let _serial = crate::serial();
        let ctl = controller(ControllerSettings::default());
        const FLIP: usize = 2;
        let mut seen = Vec::new();
        let record = ctl.run_online(&mut Monitor::with_defaults(), 40, &mut |c, t| {
            seen.push(t);
            kpi(c, t, FLIP)
        });
        assert_eq!(seen, (0..record.len()).collect::<Vec<_>>());
        assert!(
            record[..=FLIP].iter().all(|t| t.exploring),
            "the first round must straddle the flip: {record:?}"
        );
        for (t, tick) in record.iter().enumerate() {
            assert_eq!(tick.kpi, kpi(tick.config, t, FLIP), "tick {t}");
        }
    }

    /// A corrupt sample is discarded by the Controller but still costs
    /// the tick it ran in.
    #[test]
    fn a_discarded_sample_costs_one_tick() {
        let _serial = crate::serial();
        let ctl = controller(ControllerSettings::default());
        let mut calls = 0;
        let record = ctl.run_online(&mut Monitor::with_defaults(), 30, &mut |c, t| {
            calls += 1;
            match t {
                0 => f64::NAN,
                2 => 1e301,
                _ => truth(c),
            }
        });
        assert_eq!(calls, record.len());
        assert!(record.len() >= 30);
        assert!(record[0].exploring && record[0].kpi.is_nan());
        assert!(record[2].exploring && record[2].kpi == 1e301);
        // The NaN reference was taken again at tick 1.
        assert_eq!(record[1].config, ctl.first_config());
    }

    /// Every alarm starts a round on the next tick, and the steady ticks
    /// after a round run one configuration that round explored.
    #[test]
    fn every_alarm_starts_a_round() {
        let _serial = crate::serial();
        let ctl = controller(ControllerSettings::default());
        let record = ctl.run_online(&mut Monitor::with_defaults(), 120, &mut |c, t| {
            kpi(c, t, 60)
        });
        assert!(record.iter().any(|t| t.alarm), "the flip must alarm");
        for (i, pair) in record.windows(2).enumerate() {
            if pair[0].alarm {
                assert!(pair[1].exploring, "alarm at tick {i} starts no round");
            }
            if pair[0].exploring && !pair[1].exploring {
                let round_start = record[..=i].iter().rposition(|t| !t.exploring);
                let round = &record[round_start.map_or(0, |s| s + 1)..=i];
                assert!(round.iter().any(|t| t.config == pair[1].config));
            }
        }
    }
}
