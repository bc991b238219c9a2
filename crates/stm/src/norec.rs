//! NOrec: no ownership records (Dalessandro, Spear, Scott — PPoPP 2010).
//!
//! The entire TM is synchronized by one global sequence lock:
//!
//! * an even value means no writer is in its write-back phase; the value is
//!   also the snapshot timestamp;
//! * reads log `(address, value)` pairs and, whenever the sequence number
//!   moves, revalidate *by value* (re-reading every logged address);
//! * commit CASes the sequence lock odd, writes back, and releases it.
//!
//! NOrec has near-zero per-read overhead and no orec memory, but commits
//! serialize on the single lock — the classic trade-off ProteusTM exploits
//! when it selects NOrec for low-thread-count or read-dominated workloads.
//!
//! Built with [`NOrec::hybrid`] it is the slow path of `htm::HybridNOrec`.
//! Hardware commits do not touch the sequence lock; they tick
//! `TmSystem::hw_clock` and report their end on `hw_done` (DESIGN.md §9).
//! The snapshot is then the pair (sequence lock, hardware clock): taken
//! with no hardware commit in its window, re-checked after every value
//! load, and at commit the window is waited out under the lock. A plain
//! instance loads neither word.

use std::sync::atomic::Ordering;
use std::sync::Arc;
use txcore::util::spin_until;
use txcore::{Abort, Addr, BackendKind, ThreadCtx, TmBackend, TmSystem, TxResult};

/// The NOrec backend. See the module docs for the algorithm.
#[derive(Debug)]
pub struct NOrec {
    sys: Arc<TmSystem>,
    /// Whether simulated-hardware transactions run beside this instance.
    hybrid: bool,
}

impl NOrec {
    /// A NOrec instance operating on `sys`.
    pub fn new(sys: Arc<TmSystem>) -> Self {
        NOrec { sys, hybrid: false }
    }

    /// The instance a hybrid runs as its software slow path: its snapshots
    /// also cover the commits of the hardware fast path.
    pub fn hybrid(sys: Arc<TmSystem>) -> Self {
        NOrec { sys, hybrid: true }
    }

    /// Spin until the sequence lock is even (no write-back in progress) and
    /// return its value.
    fn wait_even(&self) -> u64 {
        spin_until(|| {
            let s = self.sys.norec_seq.load(Ordering::Acquire);
            (s & 1 == 0).then_some(s)
        })
    }

    /// The hardware half of a snapshot: `hw_clock` at a moment with no
    /// hardware commit in its window. Constant for a plain instance, whose
    /// `ctx.rv` therefore never differs from [`Self::hw_now`].
    fn hw_snapshot(&self) -> u64 {
        if self.hybrid {
            self.sys.hw_drain()
        } else {
            0
        }
    }

    /// `hw_clock` now. `Acquire` is enough after a value load: a hardware
    /// write-back is a `Release` store sequenced after its tick, so a load
    /// that saw the value makes this one see the tick.
    #[inline]
    fn hw_now(&self) -> u64 {
        if self.hybrid {
            self.sys.hw_clock.load(Ordering::Acquire)
        } else {
            0
        }
    }

    /// Whether a software or hardware commit may have landed since the
    /// snapshot `(ctx.start_seq, ctx.rv)`.
    #[inline]
    fn snapshot_moved(&self, ctx: &ThreadCtx) -> bool {
        self.sys.norec_seq.load(Ordering::Acquire) != ctx.start_seq || self.hw_now() != ctx.rv
    }

    /// The first logged location whose value changed, as the abort that
    /// names its stripe (NOrec has no orecs of its own, but the observatory
    /// heatmap is keyed by the shared stripe geometry so profiles compare
    /// across backends).
    fn clash(&self, ctx: &ThreadCtx) -> Option<Abort> {
        let changed = |&&(a, v): &&(Addr, u64)| self.sys.heap.read_raw(a) != v;
        let &(a, _) = ctx.read_set.values().iter().find(changed)?;
        Some(Abort::conflict_at(self.sys.orecs.index_for(a)))
    }

    /// Value-based revalidation: re-read every logged location and compare.
    /// On success the transaction adopts the fresh snapshot.
    fn revalidate(&self, ctx: &mut ThreadCtx) -> Result<(), Abort> {
        loop {
            let s = self.wait_even();
            let hw = self.hw_snapshot();
            let clash = self.clash(ctx);
            // The scan is only a snapshot if neither word moved while we
            // were re-reading.
            if self.sys.norec_seq.load(Ordering::Acquire) == s && self.hw_now() == hw {
                return match clash {
                    None => {
                        ctx.start_seq = s;
                        ctx.rv = hw;
                        Ok(())
                    }
                    Some(abort) => Err(abort),
                };
            }
        }
    }
}

impl TmBackend for NOrec {
    fn name(&self) -> &'static str {
        "norec"
    }

    fn kind(&self) -> BackendKind {
        BackendKind::Stm
    }

    fn begin(&self, ctx: &mut ThreadCtx) -> TxResult<()> {
        ctx.reset_logs();
        ctx.start_seq = self.wait_even();
        ctx.rv = self.hw_snapshot();
        Ok(())
    }

    fn read(&self, ctx: &mut ThreadCtx, addr: Addr) -> TxResult<u64> {
        if let Some(v) = ctx.write_set.get(addr) {
            return Ok(v);
        }
        let mut val = self.sys.heap.read_raw(addr);
        // If a writer committed since our snapshot, revalidate and re-read
        // until the value is consistent with the snapshot.
        while self.snapshot_moved(ctx) {
            self.revalidate(ctx)?;
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
        // Acquire the sequence lock at our snapshot; if someone committed
        // in between, revalidate and retry from the fresh snapshot. `SeqCst`
        // is the software half of the handshake with a hardware commit's
        // tick-then-load (`TmSystem::hw_drain`).
        while self
            .sys
            .norec_seq
            .compare_exchange(
                ctx.start_seq,
                ctx.start_seq + 1,
                Ordering::SeqCst,
                Ordering::Acquire,
            )
            .is_err()
        {
            self.revalidate(ctx)?;
        }
        // Hardware commits that ticked before the lock was ours finish
        // first; later ones see it odd and retreat. If any ticked since the
        // snapshot, one scan under the lock decides: nothing else writes.
        if self.hw_snapshot() != ctx.rv {
            if let Some(abort) = self.clash(ctx) {
                // Nothing was written, so the old value is the truth.
                self.sys.norec_seq.store(ctx.start_seq, Ordering::Release);
                return Err(abort);
            }
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

    fn setup() -> (Arc<TmSystem>, NOrec, ThreadCtx) {
        let sys = Arc::new(TmSystem::new(1024));
        let tm = NOrec::new(Arc::clone(&sys));
        (sys, tm, ThreadCtx::new(0))
    }

    #[test]
    fn commit_bumps_sequence_by_two() {
        let (sys, tm, mut ctx) = setup();
        let a = sys.heap.alloc(1);
        run_tx(&tm, &mut ctx, |tx| tx.write(a, 3));
        assert_eq!(sys.norec_seq.load(Ordering::Relaxed), 2);
        assert_eq!(sys.heap.read_raw(a), 3);
    }

    #[test]
    fn read_only_commit_does_not_touch_sequence() {
        let (sys, tm, mut ctx) = setup();
        let a = sys.heap.alloc(1);
        run_tx(&tm, &mut ctx, |tx| tx.read(a));
        assert_eq!(sys.norec_seq.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn value_based_validation_tolerates_aba() {
        let (sys, tm, mut ctx) = setup();
        let a = sys.heap.alloc(1);
        sys.heap.write_raw(a, 5);
        tm.begin(&mut ctx).unwrap();
        assert_eq!(tm.read(&mut ctx, a).unwrap(), 5);
        // A concurrent committer writes the *same* value back: sequence
        // moves but values match, so validation extends the snapshot.
        sys.norec_seq.store(2, Ordering::Release);
        let b = sys.heap.alloc(1);
        assert_eq!(tm.read(&mut ctx, b).unwrap(), 0);
        assert_eq!(ctx.start_seq, 2, "snapshot extended");
        tm.write(&mut ctx, b, 1).unwrap();
        assert!(tm.commit(&mut ctx).is_ok());
    }

    #[test]
    fn changed_value_aborts_validation() {
        let (sys, tm, mut ctx) = setup();
        let a = sys.heap.alloc(1);
        tm.begin(&mut ctx).unwrap();
        assert_eq!(tm.read(&mut ctx, a).unwrap(), 0);
        // Concurrent commit changes the value we read.
        sys.heap.write_raw(a, 9);
        sys.norec_seq.store(2, Ordering::Release);
        let b = sys.heap.alloc(1);
        assert_eq!(tm.read(&mut ctx, b), Err(Abort::CONFLICT));
        tm.rollback(&mut ctx);
    }

    #[test]
    fn commit_revalidates_on_sequence_movement() {
        let (sys, tm, mut ctx) = setup();
        let a = sys.heap.alloc(1);
        let b = sys.heap.alloc(1);
        tm.begin(&mut ctx).unwrap();
        assert_eq!(tm.read(&mut ctx, a).unwrap(), 0);
        tm.write(&mut ctx, b, 1).unwrap();
        // Concurrent disjoint commit: sequence moves, our read still valid.
        sys.norec_seq.store(2, Ordering::Release);
        assert!(tm.commit(&mut ctx).is_ok());
        assert_eq!(sys.norec_seq.load(Ordering::Relaxed), 4);
        assert_eq!(sys.heap.read_raw(b), 1);
    }

    #[test]
    fn commit_aborts_when_read_invalidated() {
        let (sys, tm, mut ctx) = setup();
        let a = sys.heap.alloc(1);
        let b = sys.heap.alloc(1);
        tm.begin(&mut ctx).unwrap();
        assert_eq!(tm.read(&mut ctx, a).unwrap(), 0);
        tm.write(&mut ctx, b, 1).unwrap();
        sys.heap.write_raw(a, 7);
        sys.norec_seq.store(2, Ordering::Release);
        assert_eq!(tm.commit(&mut ctx), Err(Abort::CONFLICT));
        tm.rollback(&mut ctx);
        assert_eq!(sys.heap.read_raw(b), 0, "failed commit must not write back");
    }
}
