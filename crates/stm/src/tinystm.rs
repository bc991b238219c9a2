//! TinySTM: word-based STM with encounter-time locking and timestamp
//! extension (Felber, Fetzer, Riegel — PPoPP 2008).
//!
//! * writes acquire the stripe's orec *at encounter time* (eager W-W
//!   conflict detection) while buffering values (write-back);
//! * reads validate against the read snapshot `rv` and may *extend* the
//!   snapshot: when a stripe is fresher than `rv`, the whole read set is
//!   revalidated and, if intact, `rv` advances to the current clock instead
//!   of aborting;
//! * commit validates (unless no concurrent commit happened), writes back
//!   and stamps the released orecs with a fresh clock value.

use crate::common::{release_locks_with, release_saved_locks, saved_version};
use std::sync::Arc;
use txcore::{
    Abort, Addr, BackendKind, OrecState, OrecTable, ThreadCtx, TmBackend, TmSystem, TxResult,
};

/// The TinySTM backend. See the module docs for the algorithm.
#[derive(Debug)]
pub struct TinyStm {
    sys: Arc<TmSystem>,
}

impl TinyStm {
    /// A TinySTM instance operating on `sys`.
    pub fn new(sys: Arc<TmSystem>) -> Self {
        TinyStm { sys }
    }

    fn orecs(&self) -> &OrecTable {
        &self.sys.orecs
    }

    /// Whether every read-set entry still observes the exact version it was
    /// read at (stripes we locked ourselves validate against the saved
    /// pre-lock version). On failure, names the stale stripe (conflict
    /// attribution, DESIGN.md §12).
    fn read_set_intact(&self, ctx: &ThreadCtx) -> Result<(), usize> {
        let me = ctx.owner_tag();
        for &(idx, observed) in ctx.read_set.orecs() {
            match self.orecs().load(idx as usize) {
                OrecState::Version(v) => {
                    if v != observed {
                        return Err(idx as usize);
                    }
                }
                OrecState::Locked(o) => {
                    if o != me || saved_version(ctx, idx as usize) != Some(observed) {
                        return Err(idx as usize);
                    }
                }
            }
        }
        Ok(())
    }

    /// Timestamp extension: adopt the current clock as the new snapshot if
    /// the read set is still intact; otherwise name the stale stripe.
    fn try_extend(&self, ctx: &mut ThreadCtx) -> Result<(), usize> {
        let now = self.sys.clock.now();
        self.read_set_intact(ctx)?;
        ctx.rv = now;
        Ok(())
    }
}

impl TmBackend for TinyStm {
    fn name(&self) -> &'static str {
        "tinystm"
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
        match self.orecs().load(idx) {
            OrecState::Locked(o) if o == ctx.owner_tag() => {
                // We own the stripe (wrote a neighbouring word): memory still
                // holds the last committed value, stable under our lock.
                Ok(self.sys.heap.read_raw(addr))
            }
            OrecState::Locked(_) => Err(Abort::conflict_at(idx)),
            OrecState::Version(v1) => {
                let val = self.sys.heap.read_raw(addr);
                if self.orecs().load(idx) != OrecState::Version(v1) {
                    return Err(Abort::conflict_at(idx));
                }
                if v1 > ctx.rv {
                    // The stripe is fresher than our snapshot: extend.
                    if let Err(stale) = self.try_extend(ctx) {
                        return Err(Abort::conflict_at(stale));
                    }
                    // Re-check the stripe after extension.
                    if self.orecs().load(idx) != OrecState::Version(v1) || v1 > ctx.rv {
                        return Err(Abort::conflict_at(idx));
                    }
                }
                ctx.read_set.push_orec(idx, v1);
                Ok(val)
            }
        }
    }

    fn write(&self, ctx: &mut ThreadCtx, addr: Addr, val: u64) -> TxResult<()> {
        let idx = self.orecs().index_for(addr);
        // Encounter-time W-W conflict: the suicide contention manager
        // aborts self (the driver backs off before retrying).
        self.orecs().acquire(idx, ctx.owner_tag(), &mut ctx.locks)?;
        ctx.write_set.insert(addr, val);
        Ok(())
    }

    fn commit(&self, ctx: &mut ThreadCtx) -> TxResult<()> {
        if ctx.write_set.is_empty() {
            ctx.reset_logs();
            return Ok(());
        }
        let wv = self.sys.clock.tick();
        if wv != ctx.rv + 1 {
            if let Err(stale) = self.read_set_intact(ctx) {
                release_saved_locks(ctx, self.orecs());
                return Err(Abort::conflict_at(stale));
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
    use txcore::{run_tx, OwnerTag};

    fn setup() -> (Arc<TmSystem>, TinyStm, ThreadCtx) {
        let sys = Arc::new(TmSystem::new(1024));
        let tm = TinyStm::new(Arc::clone(&sys));
        (sys, tm, ThreadCtx::new(0))
    }

    #[test]
    fn write_locks_at_encounter_time() {
        let (sys, tm, mut ctx) = setup();
        let a = sys.heap.alloc(1);
        let idx = sys.orecs.index_for(a);
        tm.begin(&mut ctx).unwrap();
        tm.write(&mut ctx, a, 1).unwrap();
        assert_eq!(sys.orecs.load(idx), OrecState::Locked(OwnerTag(0)));
        tm.commit(&mut ctx).unwrap();
        assert!(matches!(sys.orecs.load(idx), OrecState::Version(_)));
        assert_eq!(sys.heap.read_raw(a), 1);
    }

    #[test]
    fn conflicting_writer_aborts_immediately() {
        let (sys, tm, mut ctx) = setup();
        let a = sys.heap.alloc(1);
        let idx = sys.orecs.index_for(a);
        sys.orecs.try_lock(idx, OwnerTag(9), None).unwrap();
        tm.begin(&mut ctx).unwrap();
        assert_eq!(tm.write(&mut ctx, a, 1), Err(Abort::CONFLICT));
        tm.rollback(&mut ctx);
        sys.orecs.unlock(idx, 0);
    }

    #[test]
    fn rollback_restores_pre_lock_version() {
        let (sys, tm, mut ctx) = setup();
        let a = sys.heap.alloc(1);
        let idx = sys.orecs.index_for(a);
        sys.orecs.store_version(idx, 33);
        tm.begin(&mut ctx).unwrap();
        // rv = 0 < 33 but writing a fresher stripe is fine.
        tm.write(&mut ctx, a, 1).unwrap();
        tm.rollback(&mut ctx);
        assert_eq!(sys.orecs.load(idx), OrecState::Version(33));
        assert_eq!(sys.heap.read_raw(a), 0);
    }

    #[test]
    fn snapshot_extension_allows_reading_fresh_stripes() {
        let (sys, tm, mut ctx) = setup();
        let a = sys.heap.alloc(1);
        sys.heap.alloc(64);
        let b = sys.heap.alloc(1); // different stripe
        tm.begin(&mut ctx).unwrap();
        assert_eq!(tm.read(&mut ctx, a).unwrap(), 0);
        // A concurrent committer bumps b's stripe past our snapshot without
        // touching a.
        let wv = sys.clock.tick();
        sys.heap.write_raw(b, 8);
        sys.orecs.store_version(sys.orecs.index_for(b), wv);
        // Reading b extends the snapshot instead of aborting.
        assert_eq!(tm.read(&mut ctx, b).unwrap(), 8);
        assert_eq!(ctx.rv, wv);
        assert!(tm.commit(&mut ctx).is_ok());
    }

    #[test]
    fn extension_fails_when_read_set_invalidated() {
        let (sys, tm, mut ctx) = setup();
        let a = sys.heap.alloc(1);
        sys.heap.alloc(64);
        let b = sys.heap.alloc(1);
        tm.begin(&mut ctx).unwrap();
        assert_eq!(tm.read(&mut ctx, a).unwrap(), 0);
        // Concurrent commits touch BOTH stripes: a's version changes, so
        // the extension attempted while reading b must fail.
        let wv1 = sys.clock.tick();
        sys.heap.write_raw(a, 7);
        sys.orecs.store_version(sys.orecs.index_for(a), wv1);
        let wv2 = sys.clock.tick();
        sys.heap.write_raw(b, 8);
        sys.orecs.store_version(sys.orecs.index_for(b), wv2);
        assert_eq!(tm.read(&mut ctx, b), Err(Abort::CONFLICT));
        tm.rollback(&mut ctx);
    }

    #[test]
    fn read_own_locked_stripe_neighbour_word() {
        let (sys, tm, mut ctx) = setup();
        let a = sys.heap.alloc(2); // two words in the same stripe
        sys.heap.write_raw(a.field(1), 55);
        tm.begin(&mut ctx).unwrap();
        tm.write(&mut ctx, a, 1).unwrap();
        // a.field(1) shares the stripe we locked but is not in the write set.
        assert_eq!(tm.read(&mut ctx, a.field(1)).unwrap(), 55);
        tm.commit(&mut ctx).unwrap();
    }

    #[test]
    fn counter_increments_via_driver() {
        let (sys, tm, mut ctx) = setup();
        let a = sys.heap.alloc(1);
        for _ in 0..10 {
            run_tx(&tm, &mut ctx, |tx| {
                let v = tx.read(a)?;
                tx.write(a, v + 1)
            });
        }
        assert_eq!(sys.heap.read_raw(a), 10);
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
        sys.orecs.store_version(sa, 33);
        sys.orecs.try_lock(sb, OwnerTag(9), None).unwrap();
        tm.begin(&mut ctx).unwrap();
        tm.write(&mut ctx, a, 1).unwrap();
        // A second word of the stripe we own: no second lock entry.
        tm.write(&mut ctx, a.field(1), 2).unwrap();
        tm.write(&mut ctx, a, 3).unwrap();
        assert_eq!(ctx.locks, [(sa as u32, 33)]);
        assert_eq!(ctx.write_set.len(), 2);
        // A stripe somebody else owns still aborts, and names itself.
        let abort = tm.write(&mut ctx, b, 4).unwrap_err();
        assert_eq!((abort, abort.stripe()), (Abort::CONFLICT, Some(sb as u32)));
        tm.rollback(&mut ctx);
        assert_eq!(sys.orecs.load(sa), OrecState::Version(33));
        assert_eq!(sys.orecs.load(sb), OrecState::Locked(OwnerTag(9)));
        assert!(ctx.locks.is_empty());
    }
}
