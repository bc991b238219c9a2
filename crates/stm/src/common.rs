//! Helpers shared by the lock-based STM backends.

use txcore::{OrecTable, ThreadCtx};

/// Release every orec lock recorded in `ctx.locks`, restoring the saved
/// pre-lock versions (the abort path of encounter- and commit-time locking).
pub(crate) fn release_saved_locks(ctx: &mut ThreadCtx, table: &OrecTable) {
    for &(idx, prev) in &ctx.locks {
        table.unlock(idx as usize, prev);
    }
    ctx.locks.clear();
}

/// Release every orec lock recorded in `ctx.locks`, installing the commit
/// version `wv` (the commit path).
pub(crate) fn release_locks_with(ctx: &mut ThreadCtx, table: &OrecTable, wv: u64) {
    for &(idx, _) in &ctx.locks {
        table.unlock(idx as usize, wv);
    }
    ctx.locks.clear();
}

/// The saved pre-lock version for a record this transaction locked.
#[inline]
pub(crate) fn saved_version(ctx: &ThreadCtx, idx: usize) -> Option<u64> {
    ctx.locks
        .iter()
        .find(|&&(i, _)| i as usize == idx)
        .map(|&(_, v)| v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use txcore::{OrecTable, OwnerTag};

    #[test]
    fn saved_locks_restore_versions() {
        let t = OrecTable::new(8, 1);
        let mut ctx = ThreadCtx::new(1);
        t.store_version(0, 5);
        let prev = t.try_lock(0, OwnerTag(1), None).unwrap();
        ctx.locks.push((0, prev));
        assert_eq!(saved_version(&ctx, 0), Some(5));
        release_saved_locks(&mut ctx, &t);
        assert!(ctx.locks.is_empty());
        assert!(t.validate(0, 5, OwnerTag(9)));
    }

    #[test]
    fn commit_release_installs_wv() {
        let t = OrecTable::new(8, 1);
        let mut ctx = ThreadCtx::new(1);
        let prev = t.try_lock(2, OwnerTag(1), None).unwrap();
        ctx.locks.push((2, prev));
        release_locks_with(&mut ctx, &t, 77);
        assert!(t.validate(2, 77, OwnerTag(9)));
        assert!(!t.validate(2, 76, OwnerTag(9)));
    }
}
