//! Durable: a crash-recoverable redo-log STM.
//!
//! Concurrency control is NOrec's single global sequence lock with
//! value-based validation (see [`crate::NOrec`]); what Durable adds is a
//! *durability* phase inside the commit critical section. While the
//! sequence lock is held odd, the write set is appended as one framed,
//! checksummed record to a [`txcore::PHeap`] redo log — write-ahead of the
//! volatile write-back — and the log is fsynced on a cadence set by the
//! [`DurabilityMode`]:
//!
//! * [`DurabilityMode::Strict`] — one modeled fsync per commit; a commit
//!   acknowledged to the caller is durable.
//! * [`DurabilityMode::Buffered`] — group commit: one fsync every
//!   [`GROUP_COMMIT_TXS`] transactions; a crash may lose the unsynced tail,
//!   but never tears a transaction (the log record is complete or it is
//!   discarded by recovery).
//! * [`DurabilityMode::Volatile`] — logging disabled; Durable degenerates
//!   to plain NOrec. PolyTM uses this as the parked state of the backend.
//!
//! Every [`CHECKPOINT_EVERY_TXS`] commits the log is folded into the
//! persisted image and truncated, bounding replay work at recovery.
//!
//! The persistent heap dies at numbered persistence steps
//! ([`txcore::PHeap::set_crash_at`]).
//! Once the heap has crashed the backend refuses to begin or commit — the
//! process model is dead; the recovery driver reboots it with
//! [`txcore::PHeap::restart`] + [`txcore::PHeap::recover`] and the checker
//! in `bench` verifies atomicity and durability invariants at every step.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use txcore::util::spin_until;
use txcore::{
    Abort, Addr, BackendKind, DurabilityMode, PHeap, ThreadCtx, TmBackend, TmSystem, TxResult,
    CHECKPOINT_EVERY_TXS, GROUP_COMMIT_TXS,
};

/// The Durable backend. See the module docs for the algorithm.
#[derive(Debug)]
pub struct Durable {
    sys: Arc<TmSystem>,
    pheap: Arc<PHeap>,
    /// Current [`DurabilityMode`], stored by index (seqlock-free: writes
    /// only happen under PolyTM's quiescence fence or in tests).
    mode: AtomicUsize,
    /// Commits appended since the last fsync (group-commit counter).
    /// Only mutated inside the commit critical section, so plain
    /// relaxed atomics suffice.
    unsynced: AtomicU64,
    /// Commits appended since the last checkpoint.
    since_checkpoint: AtomicU64,
}

impl Durable {
    /// A Durable instance journaling to `pheap`, in [`DurabilityMode::Strict`].
    pub fn new(sys: Arc<TmSystem>, pheap: Arc<PHeap>) -> Self {
        Durable {
            sys,
            pheap,
            mode: AtomicUsize::new(DurabilityMode::Strict.index()),
            unsynced: AtomicU64::new(0),
            since_checkpoint: AtomicU64::new(0),
        }
    }

    /// A Durable instance with a fresh persistent heap sized to the
    /// system's volatile heap.
    pub fn with_new_pheap(sys: Arc<TmSystem>) -> Self {
        let pheap = Arc::new(PHeap::new(sys.heap.capacity()));
        Self::new(sys, pheap)
    }

    /// The persistent heap this backend journals to.
    pub fn pheap(&self) -> &Arc<PHeap> {
        &self.pheap
    }

    /// The active durability mode.
    pub fn mode(&self) -> DurabilityMode {
        DurabilityMode::from_index(self.mode.load(Ordering::Acquire))
            .expect("mode index is always valid")
    }

    /// Switch the durability mode. Callers must guarantee no commit is in
    /// flight (PolyTM switches under its quiescence fence); the new cadence
    /// applies from the next commit.
    pub fn set_mode(&self, mode: DurabilityMode) {
        self.mode.store(mode.index(), Ordering::Release);
    }

    /// Drain the redo log into the persisted image (fsync + apply +
    /// truncate). PolyTM calls this under the quiescence fence before
    /// switching away from the Durable backend or changing mode, so no
    /// committed-but-unsynced tail outlives a reconfiguration.
    pub fn drain(&self) -> Result<(), txcore::Crashed> {
        if self.pheap.log_snapshot().0.is_empty() {
            return Ok(());
        }
        self.pheap.checkpoint()?;
        self.unsynced.store(0, Ordering::Relaxed);
        self.since_checkpoint.store(0, Ordering::Relaxed);
        Ok(())
    }

    /// Spin until the sequence lock is even and return its value.
    fn wait_even(&self) -> u64 {
        spin_until(|| {
            let s = self.sys.norec_seq.load(Ordering::Acquire);
            (s & 1 == 0).then_some(s)
        })
    }

    /// Value-based revalidation, exactly as NOrec — including the stripe
    /// attribution of the clashing address (DESIGN.md §12).
    fn revalidate(&self, ctx: &ThreadCtx) -> Result<u64, Abort> {
        loop {
            let s = self.wait_even();
            let mut clash = None;
            for &(a, v) in ctx.read_set.values() {
                if self.sys.heap.read_raw(a) != v {
                    clash = Some(a);
                    break;
                }
            }
            if self.sys.norec_seq.load(Ordering::Acquire) == s {
                return match clash {
                    None => Ok(s),
                    Some(a) => Err(Abort::conflict_at(self.sys.orecs.index_for(a))),
                };
            }
        }
    }

    /// The durability phase of a commit, run while the sequence lock is
    /// held: write-ahead log append, then fsync/checkpoint per cadence.
    fn persist(&self, writes: &[(Addr, u64)]) -> Result<(), txcore::Crashed> {
        let mode = self.mode();
        if !mode.is_durable() {
            return Ok(());
        }
        self.pheap.append_commit(writes)?;
        let unsynced = self.unsynced.fetch_add(1, Ordering::Relaxed) + 1;
        if mode == DurabilityMode::Strict || unsynced >= GROUP_COMMIT_TXS {
            self.pheap.fsync()?;
            self.unsynced.store(0, Ordering::Relaxed);
        }
        let since = self.since_checkpoint.fetch_add(1, Ordering::Relaxed) + 1;
        if since >= CHECKPOINT_EVERY_TXS {
            self.pheap.checkpoint()?;
            self.unsynced.store(0, Ordering::Relaxed);
            self.since_checkpoint.store(0, Ordering::Relaxed);
        }
        Ok(())
    }
}

impl TmBackend for Durable {
    fn name(&self) -> &'static str {
        "durable"
    }

    fn kind(&self) -> BackendKind {
        BackendKind::Stm
    }

    fn begin(&self, ctx: &mut ThreadCtx) -> TxResult<()> {
        if self.pheap.crashed() {
            return Err(Abort::JOURNAL);
        }
        ctx.reset_logs();
        ctx.start_seq = self.wait_even();
        Ok(())
    }

    fn read(&self, ctx: &mut ThreadCtx, addr: Addr) -> TxResult<u64> {
        if let Some(v) = ctx.write_set.get(addr) {
            return Ok(v);
        }
        let mut val = self.sys.heap.read_raw(addr);
        while self.sys.norec_seq.load(Ordering::Acquire) != ctx.start_seq {
            ctx.start_seq = self.revalidate(ctx)?;
            val = self.sys.heap.read_raw(addr);
        }
        ctx.read_set.push_value(addr, val);
        Ok(val)
    }

    fn write(&self, ctx: &mut ThreadCtx, addr: Addr, val: u64) -> TxResult<()> {
        ctx.write_set.insert(addr, val);
        Ok(())
    }

    fn commit(&self, ctx: &mut ThreadCtx) -> TxResult<()> {
        if ctx.write_set.is_empty() {
            ctx.reset_logs();
            return Ok(());
        }
        if self.pheap.crashed() {
            ctx.reset_logs();
            return Err(Abort::JOURNAL);
        }
        loop {
            match self.sys.norec_seq.compare_exchange(
                ctx.start_seq,
                ctx.start_seq + 1,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => break,
                Err(_) => {
                    ctx.start_seq = self.revalidate(ctx)?;
                }
            }
        }
        // Write-ahead: journal before any volatile write-back. On a crash
        // the volatile image is untouched; the commit's fate is decided by
        // recovery (record complete and surviving → durable, else lost as
        // a unit). Release the lock without publishing so live readers of
        // the dead process model still see a consistent heap.
        if self.persist(ctx.write_set.entries()).is_err() {
            self.sys.norec_seq.store(ctx.start_seq, Ordering::Release);
            ctx.reset_logs();
            return Err(Abort::JOURNAL);
        }
        for &(a, v) in ctx.write_set.entries() {
            self.sys.heap.write_raw(a, v);
        }
        self.sys
            .norec_seq
            .store(ctx.start_seq + 2, Ordering::Release);
        ctx.reset_logs();
        Ok(())
    }

    fn rollback(&self, ctx: &mut ThreadCtx) {
        ctx.reset_logs();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use txcore::run_tx;

    fn setup(mode: DurabilityMode) -> (Arc<TmSystem>, Durable, ThreadCtx) {
        let sys = Arc::new(TmSystem::new(64));
        let tm = Durable::with_new_pheap(Arc::clone(&sys));
        tm.set_mode(mode);
        (sys, tm, ThreadCtx::new(0))
    }

    #[test]
    fn strict_commit_is_fsynced_per_transaction() {
        let (sys, tm, mut ctx) = setup(DurabilityMode::Strict);
        let a = sys.heap.alloc(1);
        run_tx(&tm, &mut ctx, |tx| tx.write(a, 3));
        run_tx(&tm, &mut ctx, |tx| tx.write(a, 4));
        let stats = tm.pheap().stats();
        assert_eq!(stats.appended_txs, 2);
        assert_eq!(stats.fsyncs, 2);
        assert_eq!(sys.heap.read_raw(a), 4);
    }

    #[test]
    fn buffered_commits_group_into_one_fsync() {
        let (sys, tm, mut ctx) = setup(DurabilityMode::Buffered);
        let a = sys.heap.alloc(1);
        for i in 0..GROUP_COMMIT_TXS {
            run_tx(&tm, &mut ctx, |tx| tx.write(a, i));
        }
        let stats = tm.pheap().stats();
        assert_eq!(stats.appended_txs, GROUP_COMMIT_TXS);
        assert_eq!(stats.fsyncs, 1, "one group fsync for the whole batch");
    }

    #[test]
    fn volatile_mode_is_plain_norec() {
        let (sys, tm, mut ctx) = setup(DurabilityMode::Volatile);
        let a = sys.heap.alloc(1);
        run_tx(&tm, &mut ctx, |tx| tx.write(a, 9));
        assert_eq!(tm.pheap().stats().log_words, 0, "no journaling");
        assert_eq!(sys.norec_seq.load(Ordering::Relaxed), 2);
        assert_eq!(sys.heap.read_raw(a), 9);
    }

    #[test]
    fn checkpoint_cadence_truncates_the_log() {
        let (sys, tm, mut ctx) = setup(DurabilityMode::Strict);
        let a = sys.heap.alloc(1);
        for i in 0..CHECKPOINT_EVERY_TXS {
            run_tx(&tm, &mut ctx, |tx| tx.write(a, i));
        }
        let stats = tm.pheap().stats();
        assert_eq!(stats.checkpoints, 1);
        let (log, _) = tm.pheap().log_snapshot();
        assert!(log.is_empty(), "checkpoint truncated the log");
        assert_eq!(
            tm.pheap().read_persisted(a),
            CHECKPOINT_EVERY_TXS - 1,
            "checkpoint folded the last committed value"
        );
    }

    #[test]
    fn strict_committed_value_survives_a_crash() {
        let (sys, tm, mut ctx) = setup(DurabilityMode::Strict);
        let a = sys.heap.alloc(1);
        let b = sys.heap.alloc(1);
        run_tx(&tm, &mut ctx, |tx| tx.write(a, 42));
        // The next commit dies on its first persistence step (header word).
        tm.pheap().set_crash_at(tm.pheap().steps() + 1);
        tm.begin(&mut ctx).unwrap();
        tm.write(&mut ctx, b, 7).unwrap();
        assert_eq!(tm.commit(&mut ctx), Err(Abort::JOURNAL));
        assert_eq!(sys.heap.read_raw(b), 0, "crashed commit never wrote back");
        assert!(tm.pheap().crashed());
        assert_eq!(tm.begin(&mut ctx), Err(Abort::JOURNAL), "dead model");

        tm.pheap().restart(&sys.heap);
        let report = tm.pheap().recover(&sys.heap).unwrap();
        assert_eq!(report.replayed_seqs, [1], "acked commit recovered");
        assert_eq!(sys.heap.read_raw(a), 42);
        assert_eq!(sys.heap.read_raw(b), 0, "torn commit discarded as a unit");
    }

    #[test]
    fn crashed_commit_releases_the_sequence_lock() {
        let (sys, tm, mut ctx) = setup(DurabilityMode::Strict);
        let a = sys.heap.alloc(1);
        tm.pheap().set_crash_at(1);
        tm.begin(&mut ctx).unwrap();
        tm.write(&mut ctx, a, 1).unwrap();
        assert_eq!(tm.commit(&mut ctx), Err(Abort::JOURNAL));
        let s = sys.norec_seq.load(Ordering::Relaxed);
        assert_eq!(s & 1, 0, "sequence lock must be released (even)");
        assert_eq!(s, 0, "crashed commit must not publish a new snapshot");
    }

    #[test]
    fn drain_folds_the_unsynced_tail() {
        let (sys, tm, mut ctx) = setup(DurabilityMode::Buffered);
        let a = sys.heap.alloc(1);
        run_tx(&tm, &mut ctx, |tx| tx.write(a, 5));
        assert_eq!(tm.pheap().stats().fsyncs, 0, "buffered: not yet synced");
        tm.drain().unwrap();
        assert_eq!(tm.pheap().read_persisted(a), 5, "drain persisted the tail");
        let (log, _) = tm.pheap().log_snapshot();
        assert!(log.is_empty());
        // Draining an empty log is free (no steps, no fsync).
        let steps = tm.pheap().steps();
        tm.drain().unwrap();
        assert_eq!(tm.pheap().steps(), steps);
    }

    #[test]
    fn conflicting_read_aborts_as_norec_would() {
        let (sys, tm, mut ctx) = setup(DurabilityMode::Strict);
        let a = sys.heap.alloc(1);
        tm.begin(&mut ctx).unwrap();
        assert_eq!(tm.read(&mut ctx, a).unwrap(), 0);
        sys.heap.write_raw(a, 9);
        sys.norec_seq.store(2, Ordering::Release);
        let b = sys.heap.alloc(1);
        assert_eq!(tm.read(&mut ctx, b), Err(Abort::CONFLICT));
        tm.rollback(&mut ctx);
    }
}
