//! Tunable contention-management parameters and simulated cache geometry.

use std::fmt;
use std::sync::atomic::{AtomicU32, AtomicU8, Ordering};
use txcore::{Abort, AbortCode, ThreadCtx};

/// What to do with the retry budget when a *capacity* abort occurs
/// (Table 3's "HTM Capacity Abort Policy").
///
/// Capacity aborts are often deterministic — retrying an over-sized
/// transaction speculatively is wasted work — but can also be transient
/// (cache pressure from other threads). The best policy is workload
/// dependent, which is exactly why ProteusTM tunes it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum CapacityPolicy {
    /// Set the budget to zero: fall back immediately.
    GiveUp,
    /// Decrease the budget by one, like any other abort.
    Decrease,
    /// Halve the budget.
    Halve,
}

impl CapacityPolicy {
    /// All policies, in Table 3's order.
    pub const ALL: [CapacityPolicy; 3] = [
        CapacityPolicy::GiveUp,
        CapacityPolicy::Decrease,
        CapacityPolicy::Halve,
    ];

    /// Apply this policy to a remaining budget after a capacity abort.
    #[inline]
    pub fn apply(self, budget: u32) -> u32 {
        match self {
            CapacityPolicy::GiveUp => 0,
            CapacityPolicy::Decrease => budget.saturating_sub(1),
            CapacityPolicy::Halve => budget / 2,
        }
    }

    fn to_u8(self) -> u8 {
        match self {
            CapacityPolicy::GiveUp => 0,
            CapacityPolicy::Decrease => 1,
            CapacityPolicy::Halve => 2,
        }
    }

    fn from_u8(v: u8) -> Self {
        match v {
            0 => CapacityPolicy::GiveUp,
            1 => CapacityPolicy::Decrease,
            _ => CapacityPolicy::Halve,
        }
    }
}

impl fmt::Display for CapacityPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            CapacityPolicy::GiveUp => "giveup",
            CapacityPolicy::Decrease => "decrease",
            CapacityPolicy::Halve => "halve",
        })
    }
}

/// The live-tunable contention manager of an HTM backend.
///
/// Different policies can coexist without affecting correctness (paper
/// §4.3), so PolyTM updates these values *without any synchronization* —
/// they are plain atomics read at transaction begin.
#[derive(Debug)]
pub struct TunableCm {
    budget: AtomicU32,
    policy: AtomicU8,
}

impl TunableCm {
    /// A contention manager with the given initial settings.
    pub fn new(budget: u32, policy: CapacityPolicy) -> Self {
        TunableCm {
            budget: AtomicU32::new(budget),
            policy: AtomicU8::new(policy.to_u8()),
        }
    }

    /// The speculative retry budget granted to each atomic block.
    #[inline]
    pub fn budget(&self) -> u32 {
        self.budget.load(Ordering::Relaxed)
    }

    /// The capacity-abort policy.
    #[inline]
    pub fn policy(&self) -> CapacityPolicy {
        CapacityPolicy::from_u8(self.policy.load(Ordering::Relaxed))
    }

    /// Retune both parameters (lock-free; takes effect on the next begin).
    pub fn set(&self, budget: u32, policy: CapacityPolicy) {
        self.budget.store(budget, Ordering::Relaxed);
        self.policy.store(policy.to_u8(), Ordering::Relaxed);
    }

    /// Charge `abort`, which the backend is about to raise from its
    /// speculative path, against the block's remaining budget, and hand it
    /// back: a capacity abort costs what the policy says, any other cause
    /// one attempt. Called where the abort is raised — never around an
    /// access that succeeded — and cold, so the success path carries none
    /// of it.
    #[cold]
    pub(crate) fn charge(&self, ctx: &mut ThreadCtx, abort: Abort) -> Abort {
        ctx.htm_budget = match abort.code() {
            AbortCode::Capacity => self.policy().apply(ctx.htm_budget),
            _ => ctx.htm_budget.saturating_sub(1),
        };
        abort
    }
}

impl Default for TunableCm {
    /// The common TSX setting: 5 linear retries (paper §6.2).
    fn default() -> Self {
        TunableCm::new(5, CapacityPolicy::Decrease)
    }
}

/// Geometry of the simulated speculative cache.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HtmGeometry {
    /// Maximum distinct cache lines a transaction may read.
    pub read_capacity: usize,
    /// Maximum distinct cache lines a transaction may write.
    pub write_capacity: usize,
    /// Probability that a commit spuriously aborts (models interrupts and
    /// evictions on real best-effort hardware). Zero keeps tests
    /// deterministic.
    pub spurious_abort_prob: f64,
}

impl HtmGeometry {
    /// Roughly an L1d of 32 KiB for reads and an L1 write buffer of 8 KiB,
    /// matching the Haswell machine the paper's Machine A uses.
    pub const HASWELL_LIKE: HtmGeometry = HtmGeometry {
        read_capacity: 512,
        write_capacity: 128,
        spurious_abort_prob: 0.0,
    };

    /// A deliberately tiny geometry for tests that must trigger capacity
    /// aborts with small transactions.
    pub const TINY_FOR_TESTS: HtmGeometry = HtmGeometry {
        read_capacity: 8,
        write_capacity: 4,
        spurious_abort_prob: 0.0,
    };
}

impl Default for HtmGeometry {
    fn default() -> Self {
        HtmGeometry::HASWELL_LIKE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policies_apply_correctly() {
        assert_eq!(CapacityPolicy::GiveUp.apply(7), 0);
        assert_eq!(CapacityPolicy::Decrease.apply(7), 6);
        assert_eq!(CapacityPolicy::Decrease.apply(0), 0);
        assert_eq!(CapacityPolicy::Halve.apply(7), 3);
        assert_eq!(CapacityPolicy::Halve.apply(1), 0);
    }

    #[test]
    fn tunable_cm_roundtrips_all_policies() {
        let cm = TunableCm::default();
        assert_eq!(cm.budget(), 5);
        assert_eq!(cm.policy(), CapacityPolicy::Decrease);
        for p in CapacityPolicy::ALL {
            cm.set(16, p);
            assert_eq!(cm.budget(), 16);
            assert_eq!(cm.policy(), p);
        }
    }

    #[test]
    fn policy_display() {
        assert_eq!(CapacityPolicy::GiveUp.to_string(), "giveup");
        assert_eq!(CapacityPolicy::Halve.to_string(), "halve");
    }
}
