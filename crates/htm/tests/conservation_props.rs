//! The conservation law of the wasted-work ledger (DESIGN.md §12):
//!
//! > attributed wasted ops + committed ops == total issued ops,
//!
//! per thread and per backend, no matter how attempts die. Ops are counted
//! as *issued* the moment `Tx::read`/`Tx::write` is called — a partially
//! executed attempt that aborts mid-footprint wastes exactly the prefix it
//! issued. The properties drive contended, capacity-hostile, and
//! crash-prone workloads — spurious hardware aborts at a seeded rate
//! (`HtmGeometry::spurious_abort_prob`), and a persistent heap that dies at
//! a chosen step (`PHeap::set_crash_at`) — and check the ledger books
//! balance to the op.

use htm::{CapacityPolicy, HtmGeometry, HtmSim, HybridNOrec, LINE_WORDS};
use proptest::prelude::*;
use std::sync::Arc;
use txcore::util::XorShift64;
use txcore::{run_tx, try_run_tx, ThreadCtx, TmBackend, TmSystem};

/// Flush the pending ledgers and check the books for one thread.
fn assert_conserved(name: &str, ctx: &mut ThreadCtx, issued: u64) {
    ctx.flush_work();
    let snap = ctx.stats.snapshot();
    assert_eq!(
        snap.committed_ops() + snap.wasted_ops(),
        issued,
        "{name}: committed + wasted must equal issued ops: {snap:?}"
    );
    if snap.total_aborts() == 0 {
        assert_eq!(
            snap.wasted_ops(),
            0,
            "{name}: an abort-free thread wastes nothing"
        );
    }
}

/// Two serially interleaved thread contexts on one backend: the victim's
/// first attempt is interfered with by a rival commit on a shared line
/// every third transaction, and every fifth transaction is a wide
/// footprint that overflows the tiny HTM geometry (a no-op stressor for
/// the STMs). `seed` drives both contexts' random streams, which is where
/// spurious hardware aborts are drawn. Returns nothing — conservation is
/// asserted per context.
fn drive_contended(tm: Arc<dyn TmBackend>, sys: Arc<TmSystem>, txs: usize, seed: u64) {
    let mut victim = ThreadCtx::new(0);
    let mut rival = ThreadCtx::new(1);
    victim.rng = XorShift64::new(seed);
    rival.rng = XorShift64::new(!seed);
    let a = sys.heap.alloc(LINE_WORDS);
    let b = sys.heap.alloc(1);
    let wide = sys.heap.alloc(LINE_WORDS * 6);
    let mut issued_v = 0u64;
    let mut issued_r = 0u64;

    for i in 0..txs {
        let rival_tm = Arc::clone(&tm);
        if i % 5 == 4 {
            // Wide footprint: six distinct lines, capacity-hostile on the
            // TINY_FOR_TESTS geometry. Counts each issued write even when
            // the attempt dies mid-loop.
            run_tx(tm.as_ref(), &mut victim, |tx| {
                for j in 0..6u32 {
                    issued_v += 1;
                    tx.write(wide.field(j * LINE_WORDS as u32), u64::from(j))?;
                }
                Ok(())
            });
            continue;
        }
        run_tx(tm.as_ref(), &mut victim, |tx| {
            issued_v += 1;
            let v = tx.read(a)?;
            issued_v += 1;
            tx.write(b, v + 1)?;
            if tx.attempt() == 0 && i % 3 == 0 {
                run_tx(rival_tm.as_ref(), &mut rival, |rtx| {
                    issued_r += 1;
                    let rv = rtx.read(a)?;
                    issued_r += 1;
                    rtx.write(a, rv + 1)
                });
            }
            Ok(())
        });
    }

    let name = tm.name();
    assert_conserved(&format!("{name}/victim"), &mut victim, issued_v);
    assert_conserved(&format!("{name}/rival"), &mut rival, issued_r);
}

/// A Durable backend whose journal dies mid-run, at the persistence step
/// `crash_after` steps from now. Attempts that die in the
/// journal — and begin-refusals on the dead heap, which issue zero ops —
/// must keep the books balanced.
fn drive_durable(crash_after: u64, txs: usize) {
    let sys = Arc::new(TmSystem::new(1 << 12));
    let tm = stm::Durable::with_new_pheap(Arc::clone(&sys));
    let mut ctx = ThreadCtx::new(0);
    let a = sys.heap.alloc(1);
    let mut issued = 0u64;

    tm.pheap().set_crash_at(tm.pheap().steps() + crash_after);
    for _ in 0..txs {
        // Bounded ladder: once the heap is dead every attempt is a
        // Journal abort and the budget runs out.
        let _ = try_run_tx(&tm, &mut ctx, 3, |tx| {
            issued += 1;
            let v = tx.read(a)?;
            issued += 1;
            tx.write(a, v + 1)
        });
    }

    assert_conserved("durable/crash", &mut ctx, issued);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Conservation across every backend family, with spurious hardware
    /// aborts at an arbitrary rate and seed.
    #[test]
    fn ledger_balances_under_spurious_aborts(
        seed in 0u64..1_000_000,
        spurious in 0.0f64..0.9,
        txs in 6usize..30,
    ) {
        let storm = |geom: HtmGeometry| HtmGeometry { spurious_abort_prob: spurious, ..geom };

        let sys = Arc::new(TmSystem::new(1 << 12));
        let tm = HtmSim::with_geometry(Arc::clone(&sys), storm(HtmGeometry::TINY_FOR_TESTS));
        tm.cm().set(3, CapacityPolicy::Decrease);
        drive_contended(Arc::new(tm), sys, txs, seed);

        let sys = Arc::new(TmSystem::new(1 << 12));
        let tm = HybridNOrec::with_geometry(Arc::clone(&sys), storm(HtmGeometry::default()));
        drive_contended(Arc::new(tm), sys, txs, seed);

        let sys = Arc::new(TmSystem::new(1 << 12));
        let tm = Arc::new(stm::Tl2::new(Arc::clone(&sys)));
        drive_contended(tm, sys, txs, seed);

        let sys = Arc::new(TmSystem::new(1 << 12));
        let tm = Arc::new(stm::NOrec::new(Arc::clone(&sys)));
        drive_contended(tm, sys, txs, seed);
    }

    /// Conservation on the durable backend across seeded crash points:
    /// the journal may die on any persistence step, including before the
    /// first commit.
    #[test]
    fn ledger_balances_across_crash_points(
        crash_after in 1u64..40,
        txs in 4usize..20,
    ) {
        drive_durable(crash_after, txs);
    }
}
