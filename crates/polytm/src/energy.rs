//! An analytical CPU power model substituting for RAPL (see DESIGN.md §2).
//!
//! The paper measures energy with Intel RAPL, which is only meaningful on
//! bare-metal Intel hardware. For the EDP KPI we model package power as a
//! static base plus a per-active-thread dynamic component — the structure
//! that makes EDP a *different* optimization target from throughput (more
//! threads can raise throughput while hurting energy efficiency).

/// Linear package-power model: `P = base + per_thread · active`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyModel {
    /// Idle/package base power in watts.
    pub base_watts: f64,
    /// Additional power per active thread in watts.
    pub per_thread_watts: f64,
}

impl EnergyModel {
    /// Roughly a Haswell Xeon E3 (Machine A): ~20 W base, ~3.5 W/thread.
    pub const HASWELL_LIKE: EnergyModel = EnergyModel {
        base_watts: 20.0,
        per_thread_watts: 3.5,
    };

    /// Roughly a 4-socket Opteron (Machine B): high base, cheaper threads.
    pub const OPTERON_LIKE: EnergyModel = EnergyModel {
        base_watts: 90.0,
        per_thread_watts: 2.4,
    };

    /// Package power with `active_threads` runnable threads.
    pub fn power_watts(&self, active_threads: usize) -> f64 {
        self.base_watts + self.per_thread_watts * active_threads as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn power_scales_with_threads() {
        let m = EnergyModel::HASWELL_LIKE;
        assert!(m.power_watts(8) > m.power_watts(1));
        assert!((m.power_watts(0) - 20.0).abs() < 1e-9);
    }
}
