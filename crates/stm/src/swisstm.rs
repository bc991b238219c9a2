//! SwissTM: eager write/write and lazy read/write conflict detection
//! (Dragojević, Guerraoui, Kapalka — PLDI 2009).
//!
//! SwissTM pairs every stripe with *two* ownership records:
//!
//! * a **write orec** (`TmSystem::orecs`), acquired eagerly at the first
//!   write so doomed W-W conflicts are caught immediately;
//! * a **read orec** (`TmSystem::read_vers`), carrying the commit version
//!   consulted by invisible readers; it is locked by its write-lock holder,
//!   by store, for the write-back window (one stripe, one index in both).
//!
//! Because writes are buffered, readers may freely read stripes whose write
//! orec is held by a live writer — R-W conflicts are detected lazily at
//! commit, which is what lets SwissTM excel on mixed workloads. The
//! published two-phase greedy contention manager is simplified here to
//! suicide-with-backoff; the performance impact of CM choices is modelled
//! in the `tmsim` crate (see DESIGN.md).

use crate::common::{release_locks_with, release_saved_locks};
use std::sync::Arc;
use txcore::{
    Abort, Addr, BackendKind, OrecState, OrecTable, ThreadCtx, TmBackend, TmSystem, TxResult,
};

/// The SwissTM backend. See the module docs for the algorithm.
#[derive(Debug)]
pub struct SwissTm {
    sys: Arc<TmSystem>,
}

impl SwissTm {
    /// A SwissTM instance operating on `sys`.
    pub fn new(sys: Arc<TmSystem>) -> Self {
        // One stripe, one index in both tables: `commit` relies on it.
        let a = Addr(12345);
        debug_assert_eq!(sys.orecs.len(), sys.read_vers.len());
        debug_assert_eq!(sys.orecs.index_for(a), sys.read_vers.index_for(a));
        SwissTm { sys }
    }

    fn wlocks(&self) -> &OrecTable {
        &self.sys.orecs
    }

    fn rvers(&self) -> &OrecTable {
        &self.sys.read_vers
    }

    /// Read-set validation against the read-orec table. `r_locks` carries
    /// the pre-lock versions of read orecs we hold during commit write-back.
    /// On failure, names the invalidated stripe (conflict attribution,
    /// DESIGN.md §12).
    fn read_set_intact(&self, ctx: &ThreadCtx, r_locks: &[(u32, u64)]) -> Result<(), usize> {
        let me = ctx.owner_tag();
        for &(idx, observed) in ctx.read_set.orecs() {
            let intact = match self.rvers().load(idx as usize) {
                OrecState::Version(v) => v == observed,
                // Extension holds no read orec (`r_locks` is empty): any
                // lock is foreign. In commit, ours hides a saved version.
                OrecState::Locked(o) => {
                    !r_locks.is_empty()
                        && o == me
                        && r_locks.iter().any(|&(i, v)| i == idx && v == observed)
                }
            };
            if !intact {
                return Err(idx as usize);
            }
        }
        Ok(())
    }

    fn try_extend(&self, ctx: &mut ThreadCtx) -> Result<(), usize> {
        let now = self.sys.clock.now();
        self.read_set_intact(ctx, &[])?;
        ctx.rv = now;
        Ok(())
    }
}

impl TmBackend for SwissTm {
    fn name(&self) -> &'static str {
        "swisstm"
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
        // Reading a stripe whose write orec we hold: memory still has the
        // last committed value (writes are buffered) and nobody else can
        // commit it — stable without logging. A transaction that has not
        // written holds none, and does not touch the write-orec table.
        // (`idx` is the stripe's index in both tables.)
        let mine = OrecState::Locked(ctx.owner_tag());
        let idx = self.rvers().index_for(addr);
        if !ctx.locks.is_empty() && self.wlocks().load(idx) == mine {
            return Ok(self.sys.heap.read_raw(addr));
        }
        let before = self.rvers().load(idx);
        let OrecState::Version(v1) = before else {
            // A committer is writing this stripe back right now.
            return Err(Abort::conflict_at(idx));
        };
        let val = self.sys.heap.read_raw(addr);
        if self.rvers().load(idx) != before {
            return Err(Abort::conflict_at(idx));
        }
        if v1 > ctx.rv {
            if let Err(stale) = self.try_extend(ctx) {
                return Err(Abort::conflict_at(stale));
            }
            if self.rvers().load(idx) != before || v1 > ctx.rv {
                return Err(Abort::conflict_at(idx));
            }
        }
        ctx.read_set.push_orec(idx, v1);
        Ok(val)
    }

    fn write(&self, ctx: &mut ThreadCtx, addr: Addr, val: u64) -> TxResult<()> {
        let idx = self.wlocks().index_for(addr);
        self.wlocks()
            .acquire(idx, ctx.owner_tag(), &mut ctx.locks)?;
        ctx.write_set.insert(addr, val);
        Ok(())
    }

    fn commit(&self, ctx: &mut ThreadCtx) -> TxResult<()> {
        if ctx.write_set.is_empty() {
            ctx.reset_logs();
            return Ok(());
        }
        let me = ctx.owner_tag();
        // Lock the read orecs of the stripes we write back — `ctx.locks`:
        // holding a stripe's write orec entitles us to its read orec, so a
        // store does it: no CAS, no waiting, no order (DESIGN.md §9). The
        // saved versions go to the context's scratch: no allocation.
        ctx.scratch.clear();
        for &(idx, _) in &ctx.locks {
            let prev = self.rvers().lock_held(idx as usize, me);
            ctx.scratch.push((idx, prev));
        }
        let wv = self.sys.clock.tick();
        if wv != ctx.rv + 1 {
            if let Err(stale) = self.read_set_intact(ctx, &ctx.scratch) {
                for &(idx, prev) in &ctx.scratch {
                    self.rvers().unlock(idx as usize, prev);
                }
                release_saved_locks(ctx, self.wlocks());
                return Err(Abort::conflict_at(stale));
            }
        }
        for &(a, v) in ctx.write_set.entries() {
            self.sys.heap.write_raw(a, v);
        }
        for &(idx, _) in &ctx.scratch {
            self.rvers().unlock(idx as usize, wv);
        }
        release_locks_with(ctx, self.wlocks(), wv);
        ctx.reset_logs();
        Ok(())
    }

    fn rollback(&self, ctx: &mut ThreadCtx) {
        release_saved_locks(ctx, self.wlocks());
        ctx.reset_logs();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use txcore::{run_tx, OwnerTag};

    fn setup() -> (Arc<TmSystem>, SwissTm, ThreadCtx) {
        let sys = Arc::new(TmSystem::new(4096));
        let tm = SwissTm::new(Arc::clone(&sys));
        (sys, tm, ThreadCtx::new(0))
    }

    #[test]
    fn basic_read_write_commit() {
        let (sys, tm, mut ctx) = setup();
        let a = sys.heap.alloc(1);
        run_tx(&tm, &mut ctx, |tx| {
            let v = tx.read(a)?;
            tx.write(a, v + 41)
        });
        assert_eq!(sys.heap.read_raw(a), 41);
    }

    #[test]
    fn reader_ignores_live_writers_write_lock() {
        let (sys, tm, mut ctx) = setup();
        let a = sys.heap.alloc(1);
        sys.heap.write_raw(a, 5);
        // Another transaction holds the *write* orec (it buffers its write),
        // which must not block a reader.
        let w_idx = sys.orecs.index_for(a);
        sys.orecs.try_lock(w_idx, OwnerTag(9), None).unwrap();
        tm.begin(&mut ctx).unwrap();
        assert_eq!(tm.read(&mut ctx, a).unwrap(), 5);
        assert!(tm.commit(&mut ctx).is_ok());
        sys.orecs.unlock(w_idx, 0);
    }

    #[test]
    fn reader_aborts_during_write_back() {
        let (sys, tm, mut ctx) = setup();
        let a = sys.heap.alloc(1);
        // A committer holds the *read* orec (write-back window).
        let r_idx = sys.read_vers.index_for(a);
        sys.read_vers.try_lock(r_idx, OwnerTag(9), None).unwrap();
        tm.begin(&mut ctx).unwrap();
        assert_eq!(tm.read(&mut ctx, a), Err(Abort::CONFLICT));
        tm.rollback(&mut ctx);
        sys.read_vers.unlock(r_idx, 0);
    }

    #[test]
    fn eager_ww_conflict_aborts_second_writer() {
        let (sys, tm, mut ctx) = setup();
        let a = sys.heap.alloc(1);
        let w_idx = sys.orecs.index_for(a);
        sys.orecs.try_lock(w_idx, OwnerTag(9), None).unwrap();
        tm.begin(&mut ctx).unwrap();
        assert_eq!(tm.write(&mut ctx, a, 1), Err(Abort::CONFLICT));
        tm.rollback(&mut ctx);
        sys.orecs.unlock(w_idx, 0);
    }

    #[test]
    fn commit_validates_against_read_orecs() {
        let (sys, tm, mut ctx) = setup();
        let a = sys.heap.alloc(1);
        sys.heap.alloc(64);
        let b = sys.heap.alloc(1);
        tm.begin(&mut ctx).unwrap();
        assert_eq!(tm.read(&mut ctx, a).unwrap(), 0);
        // Distinct pre-lock versions, so a restore that crossed the tables
        // would show.
        let sb = sys.orecs.index_for(b);
        sys.orecs.store_version(sb, 21);
        sys.read_vers.store_version(sb, 22);
        tm.write(&mut ctx, b, 1).unwrap();
        // Concurrent commit invalidates our read of a (bump the read orec).
        let wv = sys.clock.tick();
        sys.heap.write_raw(a, 9);
        sys.read_vers.store_version(sys.read_vers.index_for(a), wv);
        assert_eq!(tm.commit(&mut ctx), Err(Abort::CONFLICT));
        tm.rollback(&mut ctx);
        assert_eq!(sys.heap.read_raw(b), 0);
        // The failed commit left neither of b's records locked.
        assert_eq!(sys.orecs.load(sb), OrecState::Version(21));
        assert_eq!(sys.read_vers.load(sb), OrecState::Version(22));
    }

    #[test]
    fn commit_stamps_both_orec_tables() {
        let (sys, tm, mut ctx) = setup();
        let a = sys.heap.alloc(2); // two words, one stripe
        sys.heap.alloc(64);
        let b = sys.heap.alloc(1);
        sys.heap.alloc(64);
        let c = sys.heap.alloc(1); // never written
        let [sa, sb, sc] = [a, b, c].map(|x| sys.orecs.index_for(x));
        assert_eq!(sys.orecs.index_for(a.field(1)), sa);
        assert!(sa != sb && sa != sc && sb != sc);
        run_tx(&tm, &mut ctx, |tx| {
            tx.write(a, 2)?;
            tx.write(b, 3)?;
            tx.write(a.field(1), 4)
        });
        let wv = sys.clock.now();
        assert!(wv > 0);
        for table in [&sys.orecs, &sys.read_vers] {
            assert_eq!(table.load(sa), OrecState::Version(wv));
            assert_eq!(table.load(sb), OrecState::Version(wv));
            assert_eq!(table.load(sc), OrecState::Version(0));
        }
    }

    #[test]
    fn snapshot_extension_on_fresh_read_orec() {
        let (sys, tm, mut ctx) = setup();
        let a = sys.heap.alloc(1);
        sys.heap.alloc(64);
        let b = sys.heap.alloc(1);
        tm.begin(&mut ctx).unwrap();
        assert_eq!(tm.read(&mut ctx, a).unwrap(), 0);
        let wv = sys.clock.tick();
        sys.heap.write_raw(b, 3);
        sys.read_vers.store_version(sys.read_vers.index_for(b), wv);
        assert_eq!(tm.read(&mut ctx, b).unwrap(), 3);
        assert_eq!(ctx.rv, wv);
        assert!(tm.commit(&mut ctx).is_ok());
    }

    #[test]
    fn ownership_is_read_off_the_orec_word() {
        let (sys, tm, mut ctx) = setup();
        let a = sys.heap.alloc(2); // two words, one stripe
        sys.heap.alloc(64);
        let b = sys.heap.alloc(1);
        let (sa, sb) = (sys.orecs.index_for(a), sys.orecs.index_for(b));
        assert_eq!(sys.orecs.index_for(a.field(1)), sa);
        assert_ne!(sa, sb);
        sys.heap.write_raw(a.field(1), 55);
        sys.orecs.store_version(sa, 33);
        sys.orecs.try_lock(sb, OwnerTag(9), None).unwrap();
        tm.begin(&mut ctx).unwrap();
        tm.write(&mut ctx, a, 1).unwrap();
        // The neighbouring word of a stripe we own reads from memory,
        // unlogged; writing it takes no second lock.
        assert_eq!(tm.read(&mut ctx, a.field(1)).unwrap(), 55);
        assert!(ctx.read_set.is_empty());
        tm.write(&mut ctx, a.field(1), 2).unwrap();
        assert_eq!(ctx.locks, [(sa as u32, 33)]);
        // A write orec somebody else owns: readable (logged against the
        // read orec), not writable — and the abort names it.
        assert_eq!(tm.read(&mut ctx, b).unwrap(), 0);
        assert_eq!(ctx.read_set.orecs().len(), 1);
        let abort = tm.write(&mut ctx, b, 4).unwrap_err();
        assert_eq!((abort, abort.stripe()), (Abort::CONFLICT, Some(sb as u32)));
        tm.rollback(&mut ctx);
        assert_eq!(sys.orecs.load(sa), OrecState::Version(33));
        assert_eq!(sys.orecs.load(sb), OrecState::Locked(OwnerTag(9)));
        assert!(ctx.locks.is_empty());
    }
}
