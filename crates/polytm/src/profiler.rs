//! Lightweight KPI profiling (the data source for RecTM's Monitor).

use crate::energy::EnergyModel;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};
use txcore::{AbortCode, StatsSnapshot, ThreadStats};

/// KPIs observed over one monitoring window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowKpis {
    /// Window length.
    pub elapsed: Duration,
    /// Committed transactions in the window.
    pub commits: u64,
    /// Aborted attempts in the window.
    pub aborts: u64,
    /// Commits per second.
    pub throughput: f64,
    /// Fraction of attempts aborted.
    pub abort_rate: f64,
    /// Modelled energy consumed (joules).
    pub energy_joules: f64,
    /// Throughput per joule (Fig. 1a's KPI).
    pub throughput_per_joule: f64,
}

/// Samples per-thread counters and derives windowed KPIs.
///
/// A probe is cheap to create and sample; the Monitor samples it once per
/// second in the paper's setup.
#[derive(Debug)]
pub struct KpiProbe {
    stats: Vec<Arc<ThreadStats>>,
    energy: EnergyModel,
    last: StatsSnapshot,
    last_at: Instant,
    /// Per-backend commit counters (`tx.commit.*`) at the previous sample,
    /// for the commit-mix time-series deltas.
    last_commit_mix: BTreeMap<String, u64>,
}

impl KpiProbe {
    /// A probe over the given per-thread counters.
    pub fn new(stats: Vec<Arc<ThreadStats>>, energy: EnergyModel) -> Self {
        let last = aggregate(&stats);
        KpiProbe {
            stats,
            energy,
            last,
            last_at: Instant::now(),
            last_commit_mix: BTreeMap::new(),
        }
    }

    /// Cumulative counters since the threads started.
    pub fn total(&self) -> StatsSnapshot {
        aggregate(&self.stats)
    }

    /// KPIs accumulated since the previous `sample` (or construction).
    ///
    /// `active_threads` is the current parallelism degree, needed by the
    /// energy model.
    pub fn sample(&mut self, active_threads: usize) -> WindowKpis {
        let now = Instant::now();
        let snap = aggregate(&self.stats);
        let delta = snap.since(&self.last);
        let elapsed = now.duration_since(self.last_at);
        self.last = snap;
        self.last_at = now;
        let secs = elapsed.as_secs_f64().max(1e-9);
        let throughput = delta.commits as f64 / secs;
        let energy = self.energy.energy_joules(elapsed, active_threads);
        if obs::enabled() {
            obs::event!(
                "kpi.sample",
                "commits" => delta.commits,
                "aborts" => delta.total_aborts(),
                "threads" => active_threads,
            );
            // Flight recorder: the probe is sampled from the serial
            // monitoring loop, so it doubles as the KPI sample tick
            // (DESIGN.md §7). Throughput is wall-clock-derived, which is
            // allowed here — this is a serial protocol path, like the
            // switch-latency carve-out.
            obs::ts_record("kpi.throughput", throughput);
            obs::ts_record("kpi.abort_rate", delta.abort_rate());
            obs::ts_record("kpi.commits", delta.commits as f64);
            for (name, total) in obs::metrics::counters_with_prefix("tx.commit.") {
                let prev = self.last_commit_mix.insert(name.clone(), total);
                // saturating: the registry zeroes at trace start, which can
                // put `total` below a stale pre-trace snapshot.
                let d = total.saturating_sub(prev.unwrap_or(0));
                if d > 0 {
                    let backend = name.rsplit('.').next().unwrap_or(&name);
                    obs::ts_record(&format!("kpi.commit_mix.{backend}"), d as f64);
                }
            }
            // Conflict observatory (DESIGN.md §12): per-cause abort
            // breakdown, wasted work and goodput over the same window, and
            // the hottest stripe.
            for code in AbortCode::ALL {
                let n = delta.aborts_of(code);
                if n > 0 {
                    obs::ts_record(&format!("abort.cause.{}", code.slug()), n as f64);
                }
            }
            obs::ts_record("wasted.ops", delta.wasted_ops() as f64);
            obs::ts_record("goodput.ratio", delta.goodput_ratio());
            let top = txcore::conflict::top_stripes(3);
            if let Some(&(stripe, _)) = top.first() {
                obs::ts_record("conflict.stripe_topk", stripe as f64);
            }
            obs::ts_tick();
        }
        WindowKpis {
            elapsed,
            commits: delta.commits,
            aborts: delta.total_aborts(),
            throughput,
            abort_rate: delta.abort_rate(),
            energy_joules: energy,
            throughput_per_joule: if energy > 0.0 {
                delta.commits as f64 / energy
            } else {
                0.0
            },
        }
    }
}

pub(crate) fn aggregate(stats: &[Arc<ThreadStats>]) -> StatsSnapshot {
    stats
        .iter()
        .map(|s| s.snapshot())
        .fold(StatsSnapshot::default(), |acc, s| acc.merge(&s))
}

#[cfg(test)]
mod tests {
    use super::*;
    use txcore::AbortCode;

    #[test]
    fn windows_report_deltas_not_totals() {
        let stats: Vec<Arc<ThreadStats>> = (0..2).map(|_| Arc::new(ThreadStats::new())).collect();
        let mut probe = KpiProbe::new(stats.clone(), EnergyModel::default());
        stats[0].record_commit(false);
        stats[1].record_commit(false);
        stats[1].record_abort(AbortCode::Conflict);
        let w1 = probe.sample(2);
        assert_eq!(w1.commits, 2);
        assert_eq!(w1.aborts, 1);
        let w2 = probe.sample(2);
        assert_eq!(w2.commits, 0, "second window must not re-count");
    }

    #[test]
    fn throughput_and_energy_are_positive_under_load() {
        let stats: Vec<Arc<ThreadStats>> = vec![Arc::new(ThreadStats::new())];
        let mut probe = KpiProbe::new(stats.clone(), EnergyModel::default());
        for _ in 0..100 {
            stats[0].record_commit(false);
        }
        std::thread::sleep(Duration::from_millis(5));
        let w = probe.sample(1);
        assert!(w.throughput > 0.0);
        assert!(w.energy_joules > 0.0);
        assert!(w.throughput_per_joule > 0.0);
    }
}
