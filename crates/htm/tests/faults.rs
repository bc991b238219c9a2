//! Fault-injection tests for the HTM backends.
//!
//! These live in their own integration binary (a separate process from the
//! crate's unit tests): `faultsim::with_plan` arms a process-global
//! injector, and unit tests asserting exact abort counts must never share a
//! process with an armed plan.

use htm::{CapacityPolicy, HtmGeometry, HtmSim, HybridNOrec, HybridTl2};
use std::sync::Arc;
use txcore::{run_tx, Abort, AbortCode, ThreadCtx, TmBackend, TmSystem};

#[test]
fn injected_spurious_aborts_drain_budget_into_fallback() {
    if !faultsim::enabled() {
        return;
    }
    let sys = Arc::new(TmSystem::new(1 << 16));
    let tm = HtmSim::with_geometry(Arc::clone(&sys), HtmGeometry::TINY_FOR_TESTS);
    let mut ctx = ThreadCtx::new(0);
    tm.cm().set(3, CapacityPolicy::GiveUp);
    let a = sys.heap.alloc(1);
    let plan = faultsim::FaultPlan::new(7)
        .with(faultsim::Site::HtmSpurious, faultsim::FaultSpec::always());
    faultsim::with_plan(plan, || {
        run_tx(&tm, &mut ctx, |tx| {
            let v = tx.read(a)?;
            tx.write(a, v + 1)
        });
    });
    assert_eq!(sys.heap.read_raw(a), 1, "block still commits");
    let snap = ctx.stats.snapshot();
    assert_eq!(
        snap.aborts_of(AbortCode::Spurious),
        3,
        "one per budget unit"
    );
    assert_eq!(snap.fallback_commits, 1, "budget drained into the fallback");
}

#[test]
fn hybrid_degrades_to_software_path_under_spurious_storm() {
    if !faultsim::enabled() {
        return;
    }
    let sys = Arc::new(TmSystem::new(1 << 16));
    let tm = HybridNOrec::new(Arc::clone(&sys));
    let mut ctx = ThreadCtx::new(0);
    tm.cm().set(4, CapacityPolicy::GiveUp);
    let a = sys.heap.alloc(1);
    let plan = faultsim::FaultPlan::new(3)
        .with(faultsim::Site::HtmSpurious, faultsim::FaultSpec::always());
    faultsim::with_plan(plan, || {
        run_tx(&tm, &mut ctx, |tx| {
            let v = tx.read(a)?;
            tx.write(a, v + 1)
        });
    });
    assert_eq!(sys.heap.read_raw(a), 1);
    let snap = ctx.stats.snapshot();
    assert_eq!(
        snap.aborts_of(AbortCode::Spurious),
        4,
        "budget of 4 drained"
    );
    assert_eq!(snap.fallback_commits, 1, "committed on the NOrec slow path");
}

#[test]
fn probabilistic_plans_replay_identically() {
    if !faultsim::enabled() {
        return;
    }
    let run = || {
        let sys = Arc::new(TmSystem::new(1 << 16));
        let tm = HtmSim::new(Arc::clone(&sys));
        let mut ctx = ThreadCtx::new(0);
        let a = sys.heap.alloc(1);
        let plan = faultsim::FaultPlan::new(42).with(
            faultsim::Site::HtmSpurious,
            faultsim::FaultSpec::with_probability(0.3),
        );
        faultsim::with_plan(plan, || {
            for _ in 0..200 {
                run_tx(&tm, &mut ctx, |tx| {
                    let v = tx.read(a)?;
                    tx.write(a, v + 1)
                });
            }
        });
        assert_eq!(
            sys.heap.read_raw(a),
            200,
            "all blocks commit despite faults"
        );
        ctx.stats.snapshot().aborts_of(AbortCode::Spurious)
    };
    let first = run();
    assert!(first > 0, "a 30% plan over 200 transactions must fire");
    assert_eq!(first, run(), "same seed, same fault schedule");
}

/// The begin-time rung of `budget.rs`'s ladder, here because it needs an
/// armed plan: a spurious abort injected into `begin` costs one budget
/// unit on every backend whatever the capacity policy, and is charged by
/// `begin` itself (the driver never rolls a failed `begin` back).
#[test]
fn begin_time_spurious_abort_costs_one_unit_under_every_policy() {
    if !faultsim::enabled() {
        return;
    }
    for policy in CapacityPolicy::ALL {
        let sys = Arc::new(TmSystem::new(1 << 12));
        let (htm, hynorec, hytl2) = (
            HtmSim::new(Arc::clone(&sys)),
            HybridNOrec::new(Arc::clone(&sys)),
            HybridTl2::new(Arc::clone(&sys)),
        );
        htm.cm().set(6, policy);
        hynorec.cm().set(6, policy);
        hytl2.cm().set(6, policy);
        let backends: [&dyn TmBackend; 3] = [&htm, &hynorec, &hytl2];
        for tm in backends {
            let mut ctx = ThreadCtx::new(0);
            let plan = faultsim::FaultPlan::new(11)
                .with(faultsim::Site::HtmSpurious, faultsim::FaultSpec::always());
            faultsim::with_plan(plan, || {
                for (attempt, left) in [(0, 5), (1, 4), (2, 3)] {
                    ctx.attempt = attempt;
                    assert_eq!(tm.begin(&mut ctx), Err(Abort::SPURIOUS), "{}", tm.name());
                    assert_eq!(ctx.htm_budget, left, "{} {policy:?}", tm.name());
                }
            });
            // Disarmed again, the next attempt begins speculatively on
            // what the storm left of the budget.
            ctx.attempt = 3;
            tm.begin(&mut ctx).unwrap();
            assert!(!ctx.in_fallback, "{}", tm.name());
            assert_eq!(ctx.htm_budget, 3, "{}", tm.name());
            tm.rollback(&mut ctx);
        }
    }
}
