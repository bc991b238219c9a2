//! Dynamic-workload scenarios: phased applications (Fig. 8) and external
//! resource interference (Fig. 9, substituting the `stress` Unix tool).

use crate::workload::WorkloadSpec;

/// An application whose workload changes over (virtual) time: a sequence of
/// phases, each holding a workload for a duration in seconds.
#[derive(Debug, Clone, PartialEq)]
pub struct PhasedApp {
    /// Application name (e.g. `red-black-tree`).
    pub name: String,
    /// `(duration_seconds, workload)` phases, in order.
    pub phases: Vec<(f64, WorkloadSpec)>,
}

impl PhasedApp {
    /// Total duration of all phases.
    pub fn total_duration(&self) -> f64 {
        self.phases.iter().map(|(d, _)| d).sum()
    }

    /// The workload active at virtual time `t` (clamped to the last phase).
    pub fn workload_at(&self, t: f64) -> &WorkloadSpec {
        let mut acc = 0.0;
        for (d, w) in &self.phases {
            acc += d;
            if t < acc {
                return w;
            }
        }
        &self.phases.last().expect("phases must be non-empty").1
    }

    /// Index of the phase active at virtual time `t`.
    pub fn phase_at(&self, t: f64) -> usize {
        let mut acc = 0.0;
        for (i, (d, _)) in self.phases.iter().enumerate() {
            acc += d;
            if t < acc {
                return i;
            }
        }
        self.phases.len() - 1
    }
}

/// External machine pressure (the Fig. 9 scenario): competing CPU load,
/// memory-bandwidth pressure and I/O interrupt load, each in `[0, 1]`.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Interference {
    /// Fraction of CPU stolen by a competing process.
    pub cpu: f64,
    /// Memory-bandwidth contention level.
    pub mem: f64,
    /// I/O interrupt pressure.
    pub io: f64,
}

impl Interference {
    /// No interference.
    pub const NONE: Interference = Interference {
        cpu: 0.0,
        mem: 0.0,
        io: 0.0,
    };

    /// Heavy competing CPU hog (like `stress -c`).
    pub fn cpu_hog(level: f64) -> Self {
        Interference {
            cpu: level,
            ..Self::NONE
        }
    }

    /// Memory-bandwidth pressure (like `stress -m`).
    pub fn mem_pressure(level: f64) -> Self {
        Interference {
            mem: level,
            ..Self::NONE
        }
    }

    /// I/O pressure (like `stress -i`).
    pub fn io_pressure(level: f64) -> Self {
        Interference {
            io: level,
            ..Self::NONE
        }
    }

    /// Multiplicative throughput factor (≤ 1). CPU theft hurts high thread
    /// counts disproportionately (more preemption victims); memory pressure
    /// stretches every memory-bound transaction; I/O adds fixed jitter.
    pub fn throughput_factor(&self, threads: usize, machine_threads: usize) -> f64 {
        let occupancy = threads as f64 / machine_threads.max(1) as f64;
        let cpu_f = 1.0 / (1.0 + self.cpu * (0.4 + 1.2 * occupancy));
        let mem_f = 1.0 / (1.0 + 0.8 * self.mem);
        let io_f = 1.0 / (1.0 + 0.3 * self.io);
        cpu_f * mem_f * io_f
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::WorkloadFamily;

    fn app() -> PhasedApp {
        let a = WorkloadFamily::RedBlackTree.base_spec();
        let mut b = a;
        b.update_frac = 0.9;
        let mut c = a;
        c.contention = 0.8;
        PhasedApp {
            name: "rbt".into(),
            phases: vec![(30.0, a), (30.0, b), (30.0, c)],
        }
    }

    #[test]
    fn phases_switch_at_boundaries() {
        let app = app();
        assert_eq!(app.total_duration(), 90.0);
        assert_eq!(app.phase_at(0.0), 0);
        assert_eq!(app.phase_at(29.9), 0);
        assert_eq!(app.phase_at(30.1), 1);
        assert_eq!(app.phase_at(89.9), 2);
        assert_eq!(app.phase_at(1000.0), 2, "clamped to last phase");
        assert_eq!(app.workload_at(45.0).update_frac, 0.9);
    }

    #[test]
    fn interference_reduces_throughput_monotonically() {
        let none = Interference::NONE.throughput_factor(8, 8);
        assert!((none - 1.0).abs() < 1e-12);
        let light = Interference::cpu_hog(0.3).throughput_factor(8, 8);
        let heavy = Interference::cpu_hog(0.9).throughput_factor(8, 8);
        assert!(light < 1.0 && heavy < light);
    }

    #[test]
    fn cpu_theft_hurts_full_occupancy_more() {
        let hog = Interference::cpu_hog(0.8);
        assert!(hog.throughput_factor(8, 8) < hog.throughput_factor(2, 8));
    }

    #[test]
    fn all_pressure_kinds_have_effect() {
        for i in [
            Interference::cpu_hog(0.5),
            Interference::mem_pressure(0.5),
            Interference::io_pressure(0.5),
        ] {
            assert!(i.throughput_factor(4, 8) < 1.0);
        }
    }
}
