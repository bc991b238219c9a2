//! TL2: Transactional Locking II (Dice, Shalev, Shavit — DISC 2006).
//!
//! Commit-time locking with write-back and a global version clock:
//!
//! * `begin` samples the clock into the read version `rv`;
//! * every read post-validates its stripe's orec (unlocked, version ≤ `rv`,
//!   unchanged across the value load) — giving opacity without logs of
//!   values;
//! * writes are buffered;
//! * `commit` locks the write-set stripes in write order, increments the
//!   clock to obtain `wv`, validates the read set against `rv`, writes
//!   back, and releases the locks stamped with `wv`.
//!
//! The commit needs no lock order: `try_lock` never waits, and a committer
//! that finds a stripe busy releases what it took before it aborts, so two
//! crossed write sets cannot wait on each other (Kuznetsov & Ravi,
//! PAPERS.md). "Locked by me" is a stripe an earlier entry took. The stripe
//! a commit-time `Conflict` names is the first busy one in write order.

use crate::common::{release_locks_with, release_saved_locks, saved_version};
use std::sync::Arc;
use txcore::{Abort, Addr, BackendKind, OrecTable, ThreadCtx, TmBackend, TmSystem, TxResult};

/// The TL2 backend. See the module docs for the algorithm.
#[derive(Debug)]
pub struct Tl2 {
    sys: Arc<TmSystem>,
}

impl Tl2 {
    /// A TL2 instance operating on `sys`.
    pub fn new(sys: Arc<TmSystem>) -> Self {
        Tl2 { sys }
    }

    fn orecs(&self) -> &OrecTable {
        &self.sys.orecs
    }

    /// Read-set validation at commit: every stripe read must still be
    /// unlocked at a version ≤ `rv`, or locked by us at a saved version ≤
    /// `rv` (it may be in our write set). On failure, names the stripe
    /// that invalidated the read set (conflict attribution, DESIGN.md §12).
    fn validate_read_set(&self, ctx: &ThreadCtx) -> Result<(), usize> {
        let me = ctx.owner_tag();
        for &(idx, _) in ctx.read_set.orecs() {
            let idx = idx as usize;
            match self.orecs().load(idx) {
                txcore::OrecState::Version(v) => {
                    if v > ctx.rv {
                        return Err(idx);
                    }
                }
                txcore::OrecState::Locked(o) => {
                    if o != me {
                        return Err(idx);
                    }
                    match saved_version(ctx, idx) {
                        Some(prev) if prev <= ctx.rv => {}
                        _ => return Err(idx),
                    }
                }
            }
        }
        Ok(())
    }
}

impl TmBackend for Tl2 {
    fn name(&self) -> &'static str {
        "tl2"
    }

    fn kind(&self) -> BackendKind {
        BackendKind::Stm
    }

    fn begin(&self, ctx: &mut ThreadCtx) -> TxResult<()> {
        ctx.reset_logs();
        ctx.rv = self.sys.clock.now();
        Ok(())
    }

    fn read(&self, ctx: &mut ThreadCtx, addr: Addr) -> TxResult<u64> {
        if let Some(v) = ctx.write_set.get(addr) {
            return Ok(v);
        }
        let idx = self.orecs().index_for(addr);
        let before = self.orecs().load(idx);
        let txcore::OrecState::Version(v1) = before else {
            return Err(Abort::conflict_at(idx));
        };
        let val = self.sys.heap.read_raw(addr);
        let after = self.orecs().load(idx);
        if after != before || v1 > ctx.rv {
            return Err(Abort::conflict_at(idx));
        }
        ctx.read_set.push_orec(idx, v1);
        Ok(val)
    }

    fn write(&self, ctx: &mut ThreadCtx, addr: Addr, val: u64) -> TxResult<()> {
        ctx.write_set.insert(addr, val);
        Ok(())
    }

    fn commit(&self, ctx: &mut ThreadCtx) -> TxResult<()> {
        if ctx.write_set.is_empty() {
            // Read-only: every read was validated against rv when performed.
            ctx.reset_logs();
            return Ok(());
        }
        let me = ctx.owner_tag();
        for &(a, _) in ctx.write_set.entries() {
            let idx = self.orecs().index_for(a);
            // `Ok` also when an earlier entry already took this stripe.
            if let Err(abort) = self.orecs().acquire(idx, me, &mut ctx.locks) {
                release_saved_locks(ctx, self.orecs());
                return Err(abort);
            }
        }
        let wv = self.sys.clock.tick();
        // TL2 fast path: if wv == rv + 1 nobody committed since we started,
        // so the read set cannot have been invalidated.
        if wv != ctx.rv + 1 {
            if let Err(stripe) = self.validate_read_set(ctx) {
                release_saved_locks(ctx, self.orecs());
                return Err(Abort::conflict_at(stripe));
            }
        }
        for &(a, v) in ctx.write_set.entries() {
            self.sys.heap.write_raw(a, v);
        }
        release_locks_with(ctx, self.orecs(), wv);
        ctx.reset_logs();
        Ok(())
    }

    fn rollback(&self, ctx: &mut ThreadCtx) {
        release_saved_locks(ctx, self.orecs());
        ctx.reset_logs();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use txcore::{run_tx, OrecState};

    fn setup() -> (Arc<TmSystem>, Tl2, ThreadCtx) {
        let sys = Arc::new(TmSystem::new(1024));
        let tm = Tl2::new(Arc::clone(&sys));
        (sys, tm, ThreadCtx::new(0))
    }

    #[test]
    fn read_write_commit() {
        let (sys, tm, mut ctx) = setup();
        let a = sys.heap.alloc(2);
        run_tx(&tm, &mut ctx, |tx| {
            tx.write(a, 7)?;
            tx.write(a.field(1), 8)
        });
        assert_eq!(sys.heap.read_raw(a), 7);
        assert_eq!(sys.heap.read_raw(a.field(1)), 8);
    }

    #[test]
    fn read_after_write_sees_buffered_value() {
        let (sys, tm, mut ctx) = setup();
        let a = sys.heap.alloc(1);
        sys.heap.write_raw(a, 1);
        let seen = run_tx(&tm, &mut ctx, |tx| {
            tx.write(a, 42)?;
            tx.read(a)
        });
        assert_eq!(seen, 42);
    }

    #[test]
    fn aborted_attempt_leaves_no_effects() {
        let (sys, tm, mut ctx) = setup();
        let a = sys.heap.alloc(1);
        run_tx(&tm, &mut ctx, |tx| {
            tx.write(a, 99)?;
            if tx.attempt() == 0 {
                return tx.retry();
            }
            Ok(())
        });
        // First attempt wrote 99 but aborted; only the retried attempt's
        // write must be visible — which is also 99; instead check the clock
        // bumped once (one commit), and the stats recorded one abort.
        assert_eq!(sys.heap.read_raw(a), 99);
        assert_eq!(ctx.stats.snapshot().total_aborts(), 1);
        assert_eq!(ctx.stats.snapshot().commits, 1);
    }

    #[test]
    fn stale_read_conflicts_with_concurrent_commit() {
        let (sys, tm, mut ctx) = setup();
        let a = sys.heap.alloc(1);
        // Another "thread" commits between our begin and our read by
        // manipulating the orec/clock directly.
        let idx = sys.orecs.index_for(a);
        tm.begin(&mut ctx).unwrap();
        let wv = sys.clock.tick();
        sys.heap.write_raw(a, 5);
        sys.orecs.store_version(idx, wv);
        assert_eq!(tm.read(&mut ctx, a), Err(Abort::CONFLICT));
        tm.rollback(&mut ctx);
    }

    #[test]
    fn locked_stripe_aborts_reader() {
        let (sys, tm, mut ctx) = setup();
        let a = sys.heap.alloc(1);
        let idx = sys.orecs.index_for(a);
        sys.orecs.try_lock(idx, txcore::OwnerTag(99), None).unwrap();
        tm.begin(&mut ctx).unwrap();
        assert_eq!(tm.read(&mut ctx, a), Err(Abort::CONFLICT));
        tm.rollback(&mut ctx);
        sys.orecs.unlock(idx, 0);
    }

    #[test]
    fn write_set_stripe_locked_by_other_aborts_commit() {
        let (sys, tm, mut ctx) = setup();
        let a = sys.heap.alloc(1);
        let idx = sys.orecs.index_for(a);
        tm.begin(&mut ctx).unwrap();
        tm.write(&mut ctx, a, 1).unwrap();
        sys.orecs.try_lock(idx, txcore::OwnerTag(99), None).unwrap();
        assert_eq!(tm.commit(&mut ctx), Err(Abort::CONFLICT));
        tm.rollback(&mut ctx);
        sys.orecs.unlock(idx, 0);
        // Heap untouched by the failed commit.
        assert_eq!(sys.heap.read_raw(a), 0);
    }

    /// Words of three distinct stripes out of one allocation: `x0`/`x1`
    /// share a stripe, `y` and `z` have one each.
    fn three_stripes(sys: &TmSystem) -> ([Addr; 4], [usize; 3]) {
        let base = sys.heap.alloc(64);
        let [x0, x1, y, z] = [0, 1, 16, 32].map(|w| base.field(w));
        let [sx, sy, sz] = [x0, y, z].map(|a| sys.orecs.index_for(a));
        assert_eq!(sys.orecs.index_for(x1), sx);
        assert!(sx != sy && sy != sz && sx != sz);
        ([x0, x1, y, z], [sx, sy, sz])
    }

    #[test]
    fn a_stripe_two_entries_share_is_locked_once_and_released_once_at_wv() {
        let (sys, tm, mut ctx) = setup();
        let ([x0, x1, y, _], [sx, sy, _]) = three_stripes(&sys);
        sys.orecs.store_version(sx, 5);
        tm.begin(&mut ctx).unwrap();
        // Write order x0, y, x1: the shared stripe comes back after another.
        tm.write(&mut ctx, x0, 1).unwrap();
        tm.write(&mut ctx, y, 2).unwrap();
        tm.write(&mut ctx, x1, 3).unwrap();
        tm.commit(&mut ctx).unwrap();
        let wv = sys.clock.now();
        assert_eq!(wv, 1, "one commit, one tick");
        assert_eq!(sys.orecs.load(sx), OrecState::Version(wv));
        assert_eq!(sys.orecs.load(sy), OrecState::Version(wv));
        assert!(ctx.locks.is_empty());
        assert_eq!([x0, y, x1].map(|a| sys.heap.read_raw(a)), [1, 2, 3]);
    }

    #[test]
    fn a_foreign_lock_on_the_kth_stripe_names_it_and_restores_the_rest() {
        let (sys, tm, mut ctx) = setup();
        let ([x0, x1, y, z], [sx, sy, sz]) = three_stripes(&sys);
        sys.orecs.store_version(sx, 5);
        sys.orecs.store_version(sy, 7);
        sys.orecs.try_lock(sz, txcore::OwnerTag(99), None).unwrap();
        tm.begin(&mut ctx).unwrap();
        for (a, v) in [(x0, 1), (y, 2), (x1, 3), (z, 4)] {
            tm.write(&mut ctx, a, v).unwrap();
        }
        let abort = tm.commit(&mut ctx).unwrap_err();
        assert_eq!(abort, Abort::CONFLICT);
        assert_eq!(abort.stripe(), Some(sz as u32));
        assert!(ctx.locks.is_empty(), "every taken lock was given back");
        tm.rollback(&mut ctx);
        assert_eq!(sys.orecs.load(sx), OrecState::Version(5));
        assert_eq!(sys.orecs.load(sy), OrecState::Version(7));
        assert_eq!(
            sys.orecs.load(sz),
            OrecState::Locked(txcore::OwnerTag(99)),
            "the foreign lock is not ours to release"
        );
        assert_eq!(sys.clock.now(), 0, "no version was drawn");
        assert_eq!([x0, y, x1, z].map(|a| sys.heap.read_raw(a)), [0; 4]);
    }

    /// Takes the first lock of `ctx`'s commit by hand — what the first turn
    /// of the commit loop does — so two commits can be interleaved lock by
    /// lock. The real `commit` then finds the stripe "locked by me" and
    /// carries on from the second entry.
    fn take_first_lock(sys: &TmSystem, ctx: &mut ThreadCtx) -> usize {
        let idx = sys.orecs.index_for(ctx.write_set.entries()[0].0);
        let prev = sys.orecs.try_lock(idx, ctx.owner_tag(), None).unwrap();
        ctx.locks.push((idx as u32, prev));
        idx
    }

    #[test]
    fn crossed_write_orders_neither_hang_nor_leak_a_lock() {
        let (sys, tm, mut a) = setup();
        let mut b = ThreadCtx::new(1);
        let ([x, _, y, _], [sx, sy, _]) = three_stripes(&sys);
        let write_all = |ctx: &mut ThreadCtx, order: [Addr; 2], v: u64| {
            tm.begin(ctx).unwrap();
            for addr in order {
                tm.write(ctx, addr, v).unwrap();
            }
        };
        // A writes x then y, B writes y then x.
        for b_moves_first in [false, true] {
            write_all(&mut a, [x, y], 10);
            write_all(&mut b, [y, x], 20);
            // Each takes its first stripe: A holds x, B holds y — the state
            // in which ordered *waiting* acquisition would deadlock.
            assert_eq!(take_first_lock(&sys, &mut a), sx);
            assert_eq!(take_first_lock(&sys, &mut b), sy);
            let (first, second, held_by_second) = if b_moves_first {
                (&mut b, &mut a, sx)
            } else {
                (&mut a, &mut b, sy)
            };
            // Whoever reaches for its second stripe first finds it busy,
            // gives back what it holds and aborts; the other then commits.
            let abort = tm.commit(first).unwrap_err();
            assert_eq!(abort.stripe(), Some(held_by_second as u32));
            assert!(first.locks.is_empty());
            tm.rollback(first);
            tm.commit(second).unwrap();
            assert!(second.locks.is_empty());
            // ... and the loser commits on its retry.
            let (order, v) = if b_moves_first {
                ([y, x], 20)
            } else {
                ([x, y], 10)
            };
            write_all(first, order, v);
            tm.commit(first).unwrap();
            let now = sys.clock.now();
            assert_eq!(sys.orecs.load(sx), OrecState::Version(now));
            assert_eq!(sys.orecs.load(sy), OrecState::Version(now));
            assert_eq!([sys.heap.read_raw(x), sys.heap.read_raw(y)], [v, v]);
        }
    }
}
