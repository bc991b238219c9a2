//! Abort-attribution regression tests for the HTM backends (DESIGN.md §12).
//!
//! Companion to `crates/stm/tests/abort_attribution.rs`: the hardware
//! paths have abort causes software never produces — `Capacity` when a
//! footprint overflows the simulated read/write sets — and those must
//! reach the `run_tx` telemetry under their own code, never collapsed
//! into `Conflict`.

use htm::{CapacityPolicy, HtmGeometry, HtmSim, HybridNOrec, LINE_WORDS};
use std::sync::Arc;
use txcore::{run_tx, AbortCode, ThreadCtx, TmBackend, TmSystem};

/// A footprint wider than the geometry is a `Capacity` abort — and under
/// the `GiveUp` policy exactly one, draining the budget straight into a
/// fallback commit.
#[test]
fn capacity_overflow_is_attributed_as_capacity() {
    let sys = Arc::new(TmSystem::new(1 << 16));
    let tm = HtmSim::with_geometry(Arc::clone(&sys), HtmGeometry::TINY_FOR_TESTS);
    let mut ctx = ThreadCtx::new(0);
    tm.cm().set(3, CapacityPolicy::GiveUp);
    let lines = HtmGeometry::TINY_FOR_TESTS.write_capacity + 1;
    let base = sys.heap.alloc(LINE_WORDS * lines);

    run_tx(&tm, &mut ctx, |tx| {
        for i in 0..lines {
            tx.write(base.field((i * LINE_WORDS) as u32), i as u64 + 1)?;
        }
        Ok(())
    });

    ctx.flush_work();
    let snap = ctx.stats.snapshot();
    assert_eq!(
        snap.aborts_of(AbortCode::Capacity),
        1,
        "the overflow is one Capacity abort: {snap:?}"
    );
    assert_eq!(
        snap.total_aborts(),
        1,
        "capacity must not be double-counted as Conflict"
    );
    assert_eq!(snap.fallback_commits, 1, "GiveUp drains into the fallback");
    assert!(
        snap.wasted_ops() >= 1,
        "the overflowing attempt's writes are wasted work"
    );
    assert_eq!(sys.heap.read_raw(base.field(0)), 1, "fallback committed");
}

/// Under the `Decrease` policy the same footprint burns the whole budget
/// one `Capacity` abort at a time — every rung of the ladder keeps the
/// code.
#[test]
fn capacity_retries_keep_their_code_down_the_ladder() {
    let sys = Arc::new(TmSystem::new(1 << 16));
    let tm = HtmSim::with_geometry(Arc::clone(&sys), HtmGeometry::TINY_FOR_TESTS);
    let mut ctx = ThreadCtx::new(0);
    tm.cm().set(3, CapacityPolicy::Decrease);
    let lines = HtmGeometry::TINY_FOR_TESTS.write_capacity + 1;
    let base = sys.heap.alloc(LINE_WORDS * lines);

    run_tx(&tm, &mut ctx, |tx| {
        for i in 0..lines {
            tx.write(base.field((i * LINE_WORDS) as u32), i as u64 + 1)?;
        }
        Ok(())
    });

    ctx.flush_work();
    let snap = ctx.stats.snapshot();
    assert_eq!(
        snap.aborts_of(AbortCode::Capacity),
        3,
        "one Capacity abort per budget unit: {snap:?}"
    );
    assert_eq!(snap.total_aborts(), 3, "no rung relabels the cause");
    assert_eq!(snap.fallback_commits, 1);
}

/// A hardware conflict (line version bumped by a rival commit between the
/// victim's read and its commit) is attributed as `Conflict` with the
/// clashing stripe — exactly like the software backends, so cross-backend
/// heatmaps compose.
#[test]
fn htm_conflicts_carry_the_clashing_stripe() {
    let sys = Arc::new(TmSystem::new(1 << 16));
    let tm = Arc::new(HtmSim::new(Arc::clone(&sys)));
    let mut victim = ThreadCtx::new(0);
    let mut rival = ThreadCtx::new(1);
    // Allocate a full line for `a` so `b` lands on the next line: the
    // victim's eager write-lock on b's line must not cover `a` (false
    // sharing would turn the rival's read into a lock conflict).
    let a = sys.heap.alloc(LINE_WORDS);
    let b = sys.heap.alloc(1);

    // The rival's hardware commit leaves the subscription seqlock alone, so
    // wherever it lands the victim reaches commit-time line validation.
    let rival_tm = Arc::clone(&tm);
    run_tx(tm.as_ref(), &mut victim, |tx| {
        let v = tx.read(a)?;
        tx.write(b, v + 1)?;
        if tx.attempt() == 0 {
            run_tx(rival_tm.as_ref(), &mut rival, |rtx| {
                let rv = rtx.read(a)?;
                rtx.write(a, rv + 100)
            });
        }
        Ok(())
    });

    victim.flush_work();
    let snap = victim.stats.snapshot();
    assert!(
        snap.aborts_of(AbortCode::Conflict) >= 1,
        "the interfered attempt is a Conflict: {snap:?}"
    );
    assert_eq!(
        snap.total_aborts(),
        snap.aborts_of(AbortCode::Conflict),
        "hardware conflicts must not leak into Capacity/Spurious"
    );
    assert_eq!(snap.commits, 1);
    assert_eq!(sys.heap.read_raw(b), 101, "retry saw the rival's value");
}

/// Hardware–hardware interference on HybridNOrec is localized like on
/// `HtmSim`: a hardware commit leaves the subscribed sequence lock alone,
/// so the victim's abort is a `Conflict` on the line. The hybrid has no
/// per-line view of *software* commits: one bumps the global sequence lock,
/// and the victim's abort is attributed to the fallback channel, not
/// mislabelled as a stripe conflict it cannot actually localize.
#[test]
fn hybrid_norec_attributes_seqlock_interference_as_fallback() {
    let sys = Arc::new(TmSystem::new(1 << 16));
    let tm = Arc::new(HybridNOrec::new(Arc::clone(&sys)));
    let a = sys.heap.alloc(LINE_WORDS); // full line: keep b off a's line
    let b = sys.heap.alloc(1);

    for (software_rival, cause, other) in [
        (false, AbortCode::Conflict, AbortCode::Fallback),
        (true, AbortCode::Fallback, AbortCode::Conflict),
    ] {
        let mut victim = ThreadCtx::new(0);
        let mut rival = ThreadCtx::new(1);
        let before = sys.heap.read_raw(a);
        run_tx(tm.as_ref(), &mut victim, |tx| {
            let v = tx.read(a)?;
            if tx.attempt() == 0 {
                if software_rival {
                    // A drained budget: the rival commits as plain NOrec.
                    rival.attempt = 1;
                    rival.htm_budget = 0;
                    tm.begin(&mut rival).unwrap();
                    let rv = tm.read(&mut rival, a).unwrap();
                    tm.write(&mut rival, a, rv + 100).unwrap();
                    tm.commit(&mut rival).unwrap();
                } else {
                    run_tx(tm.as_ref(), &mut rival, |rtx| {
                        let rv = rtx.read(a)?;
                        rtx.write(a, rv + 100)
                    });
                }
            }
            tx.write(b, v + 1)
        });

        victim.flush_work();
        let snap = victim.stats.snapshot();
        assert_eq!(
            (snap.aborts_of(cause), snap.aborts_of(other)),
            (1, 0),
            "software rival: {software_rival}: {snap:?}"
        );
        assert_eq!(snap.total_aborts(), 1, "no other cause is fabricated");
        assert_eq!(snap.commits, 1);
        assert_eq!(
            sys.heap.read_raw(b),
            before + 101,
            "retry saw the rival's value"
        );
    }
}
