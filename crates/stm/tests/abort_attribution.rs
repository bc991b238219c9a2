//! Abort-attribution regression tests (DESIGN.md §12).
//!
//! Every backend must surface its *specific* abort cause through the
//! `run_tx` telemetry — a conflict must stay `Conflict` (with the clashing
//! stripe), an explicit retry must stay `Explicit`, and journal pressure
//! must stay `Journal`. The retry ladder
//! is not allowed to collapse or overwrite codes on the way to the
//! per-thread stats, so each test pins `total_aborts()` to the one code it
//! provoked.

use std::sync::Arc;
use txcore::{run_tx, try_run_tx, AbortCode, ThreadCtx, TmBackend, TmSystem};

type MakeBackend = fn(Arc<TmSystem>) -> Arc<dyn TmBackend>;

const BACKENDS: [MakeBackend; 4] = [
    |sys| Arc::new(stm::Tl2::new(sys)),
    |sys| Arc::new(stm::TinyStm::new(sys)),
    |sys| Arc::new(stm::NOrec::new(sys)),
    |sys| Arc::new(stm::SwissTm::new(sys)),
];

/// A single deterministic conflict per backend: the first attempt reads
/// `a`, an interfering transaction on a second thread context then commits
/// a write to `a`, and the victim must abort with `Conflict` — attributed
/// to `a`'s stripe — before succeeding on retry. The attempt is driven by
/// hand first, so the stripe is read off the abort itself, then through
/// `run_tx` for the ladder's books.
#[test]
fn every_stm_attributes_conflicts_to_the_clashing_stripe() {
    for make in BACKENDS {
        let sys = Arc::new(TmSystem::new(1 << 16));
        let backend = make(Arc::clone(&sys));
        let mut victim = ThreadCtx::new(0);
        let mut rival = ThreadCtx::new(1);
        let a = sys.heap.alloc(1);
        sys.heap.alloc(64);
        let b = sys.heap.alloc(1);
        let stripe = |x| sys.orecs.index_for(x) as u32;
        assert_ne!(stripe(a), stripe(b));
        let name = backend.name();

        backend.begin(&mut victim).unwrap();
        let v = backend.read(&mut victim, a).unwrap();
        run_tx(backend.as_ref(), &mut rival, |rtx| {
            let rv = rtx.read(a)?;
            rtx.write(a, rv + 1)
        });
        // An encounter-time backend may already refuse the write.
        let abort = backend
            .write(&mut victim, b, v + 1)
            .and_then(|()| backend.commit(&mut victim))
            .expect_err("committed over a foreign write to a");
        backend.rollback(&mut victim);
        assert_eq!(
            (abort.code(), abort.stripe()),
            (AbortCode::Conflict, Some(stripe(a))),
            "{name}: the conflict names a's stripe"
        );
        assert_eq!(sys.heap.read_raw(b), 0, "{name}: nothing written back");

        let rival_backend = Arc::clone(&backend);
        run_tx(backend.as_ref(), &mut victim, |tx| {
            let v = tx.read(a)?;
            if tx.attempt() == 0 {
                run_tx(rival_backend.as_ref(), &mut rival, |rtx| {
                    let rv = rtx.read(a)?;
                    rtx.write(a, rv + 100)
                });
            }
            tx.write(b, v + 1)
        });

        victim.flush_work();
        let snap = victim.stats.snapshot();
        assert!(
            snap.aborts_of(AbortCode::Conflict) >= 1,
            "{name}: the interfered attempt must abort as Conflict, got {snap:?}"
        );
        assert_eq!(
            snap.total_aborts(),
            snap.aborts_of(AbortCode::Conflict),
            "{name}: no conflict abort may be relabelled on the ladder"
        );
        assert_eq!(snap.commits, 1, "{name}: the block still commits");
        assert!(
            snap.wasted_ops() >= 1,
            "{name}: the rolled-back attempt's ops are wasted work"
        );
        assert!(
            snap.goodput_ratio() < 1.0,
            "{name}: wasted work must dent the goodput ratio"
        );
        // The retried block read the rival's committed value.
        assert_eq!(sys.heap.read_raw(b), 102, "{name}: retry saw the new value");
    }
}

/// The read log keeps a location read again after another read (x, y, x
/// logs x twice), and commit validation must still catch a foreign commit
/// to x — as a `Conflict` naming x's stripe, the first entry that fails.
/// With no foreign commit the same transaction commits.
#[test]
fn validation_covers_a_location_logged_twice() {
    for staged in [true, false] {
        for make in BACKENDS {
            let sys = Arc::new(TmSystem::new(1 << 16));
            let backend = make(Arc::clone(&sys));
            let name = backend.name();
            let (mut victim, mut rival) = (ThreadCtx::new(0), ThreadCtx::new(1));
            let x = sys.heap.alloc(1);
            sys.heap.alloc(64);
            let y = sys.heap.alloc(1);
            sys.heap.alloc(64);
            let z = sys.heap.alloc(1);
            let stripe = |a| sys.orecs.index_for(a);
            assert!(stripe(x) != stripe(y) && stripe(y) != stripe(z) && stripe(x) != stripe(z));

            backend.begin(&mut victim).unwrap();
            for a in [x, y, x] {
                backend.read(&mut victim, a).unwrap();
            }
            assert_eq!(victim.read_set.len(), 3, "{name}: x is logged twice");
            backend.write(&mut victim, z, 1).unwrap();
            if staged {
                run_tx(backend.as_ref(), &mut rival, |tx| tx.write(x, 77));
            }
            match backend.commit(&mut victim) {
                Ok(()) => {
                    assert!(!staged, "{name}: committed over a foreign write to x");
                    assert_eq!(sys.heap.read_raw(z), 1, "{name}: z written back");
                }
                Err(abort) => {
                    backend.rollback(&mut victim);
                    assert!(staged, "{name}: aborted with nothing staged: {abort:?}");
                    assert_eq!(
                        (abort.code(), abort.stripe()),
                        (AbortCode::Conflict, Some(stripe(x) as u32)),
                        "{name}: the conflict names x's stripe"
                    );
                    assert_eq!(sys.heap.read_raw(z), 0, "{name}: nothing written back");
                }
            }
        }
    }
}

/// `Tx::retry` is the programmer-requested abort: it must be attributed as
/// `Explicit` on every backend — never folded into `Conflict`.
#[test]
fn explicit_retry_is_attributed_as_explicit_everywhere() {
    for make in BACKENDS {
        let sys = Arc::new(TmSystem::new(1 << 16));
        let backend = make(Arc::clone(&sys));
        let mut ctx = ThreadCtx::new(0);
        let a = sys.heap.alloc(1);

        run_tx(backend.as_ref(), &mut ctx, |tx| {
            if tx.attempt() == 0 {
                return tx.retry();
            }
            tx.write(a, 7)
        });

        ctx.flush_work();
        let snap = ctx.stats.snapshot();
        let name = backend.name();
        assert_eq!(
            snap.aborts_of(AbortCode::Explicit),
            1,
            "{name}: one explicit retry, attributed as Explicit: {snap:?}"
        );
        assert_eq!(snap.total_aborts(), 1, "{name}: and nothing else");
        assert_eq!(sys.heap.read_raw(a), 7, "{name}: second attempt commits");
    }
}

/// Once the persistent heap has crashed, Durable refuses service with
/// `Journal` aborts — pressure from the journal must never masquerade as
/// contention. `try_run_tx` bounds the ladder so the refusal is observable.
#[test]
fn durable_journal_pressure_is_attributed_as_journal() {
    let sys = Arc::new(TmSystem::new(1 << 16));
    let tm = stm::Durable::with_new_pheap(Arc::clone(&sys));
    let mut ctx = ThreadCtx::new(0);
    let a = sys.heap.alloc(1);

    // A healthy commit first, so the failure below is cleanly isolated.
    run_tx(&tm, &mut ctx, |tx| tx.write(a, 1));
    // Die at the next persistence step: the in-flight commit's journal
    // append fails, and every later begin refuses on the dead heap.
    tm.pheap().set_crash_at(tm.pheap().steps() + 1);
    let out = try_run_tx(&tm, &mut ctx, 4, |tx| {
        let v = tx.read(a)?;
        tx.write(a, v + 1)
    });

    ctx.flush_work();
    let snap = ctx.stats.snapshot();
    assert!(out.is_none(), "no commit is possible on a crashed journal");
    assert_eq!(
        snap.aborts_of(AbortCode::Journal),
        4,
        "every attempt in the budget is a Journal abort: {snap:?}"
    );
    assert_eq!(
        snap.total_aborts(),
        snap.aborts_of(AbortCode::Journal),
        "journal pressure must not be relabelled as Conflict"
    );
    assert_eq!(snap.commits, 1, "only the pre-crash commit counts");
    assert_eq!(
        sys.heap.read_raw(a),
        1,
        "the failed block never reached the volatile heap"
    );
}
