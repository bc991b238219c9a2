//! The speculative execution core shared by the simulated HTM backends.
//!
//! The core behaves like real best-effort HTM as seen by the tuning layers:
//! cache-line-granularity eager conflict detection, bounded read/write
//! capacity, subscription to a software sequence lock, and all-or-nothing
//! visibility at commit. Internally it is an encounter-time-locking TM over
//! the system's line table (`TmSystem::hw_lines`, one versioned lock per
//! cache line, outside application memory), which gives those semantics in
//! safe portable code. Every HTM backend on one system locks and validates
//! in that one table, as hardware transactions on one processor share its
//! caches; no software path touches it.
//!
//! The subscription is read-only. Hardware transactions order themselves
//! through the line table and `TmSystem::hw_clock` alone; towards the
//! software path a commit announces itself by that same tick, reads the
//! subscribed sequence lock once more, and reports its end on
//! `TmSystem::hw_done` — the *hardware commit window* software waits out
//! after taking the lock (DESIGN.md §9). So a hardware commit never aborts
//! another hardware transaction it shares no line with.

use crate::params::{HtmGeometry, TunableCm};
use std::sync::atomic::{AtomicU64, Ordering};
use txcore::util::spin_until;
use txcore::{Abort, Addr, LineSet, OrecState, ThreadCtx, TmSystem, TxResult, LINE_WORDS};

/// Track the cache line of `addr` in `set`; false when that would exceed
/// `cap` distinct lines (a speculative overflow).
#[inline]
pub(crate) fn track(set: &mut LineSet, addr: Addr, cap: usize) -> bool {
    set.insert((addr.index() / LINE_WORDS) as u32, cap)
}

/// Speculative core state owned by one HTM backend instance.
///
/// Every abort the core raises is charged to the block's retry budget
/// where it is raised ([`TunableCm::charge`]), so the backends forward a
/// successful access untouched.
#[derive(Debug)]
pub(crate) struct SpecCore {
    geom: HtmGeometry,
    cm: TunableCm,
    /// When set, every speculative access performs the redundant value
    /// logging a fully-instrumented (STM) code path would — the
    /// "HTM-naive" configuration of the dual-code-path ablation.
    naive_instrumentation: bool,
}

impl SpecCore {
    pub(crate) fn new(geom: HtmGeometry, naive_instrumentation: bool) -> Self {
        SpecCore {
            geom,
            cm: TunableCm::default(),
            naive_instrumentation,
        }
    }

    pub(crate) fn geometry(&self) -> &HtmGeometry {
        &self.geom
    }

    pub(crate) fn cm(&self) -> &TunableCm {
        &self.cm
    }

    /// Begin a speculative attempt, subscribing to `seq` (the software
    /// fallback's sequence lock). Waits for any active software writer.
    pub(crate) fn begin(
        &self,
        sys: &TmSystem,
        ctx: &mut ThreadCtx,
        seq: &AtomicU64,
    ) -> TxResult<()> {
        ctx.reset_logs();
        ctx.start_seq = spin_until(|| {
            let s = seq.load(Ordering::Acquire);
            (s & 1 == 0).then_some(s)
        });
        ctx.rv = sys.hw_clock.load(Ordering::Acquire);
        Ok(())
    }

    /// Speculative read: subscription check, capacity tracking, and a
    /// version-consistent value load.
    pub(crate) fn read(
        &self,
        sys: &TmSystem,
        ctx: &mut ThreadCtx,
        seq: &AtomicU64,
        addr: Addr,
    ) -> TxResult<u64> {
        if let Some(v) = ctx.write_set.get(addr) {
            return Ok(v);
        }
        if seq.load(Ordering::Acquire) != ctx.start_seq {
            // The software path committed: our whole speculative state is
            // poisoned, like a cache-line invalidation of the elided lock.
            return Err(self.cm.charge(ctx, Abort::FALLBACK));
        }
        if !track(&mut ctx.read_lines, addr, self.geom.read_capacity) {
            return Err(self.cm.charge(ctx, Abort::CAPACITY));
        }
        let lines = &sys.hw_lines;
        let idx = lines.index_for(addr);
        match lines.load(idx) {
            OrecState::Locked(o) if o == ctx.owner_tag() => Ok(sys.heap.read_raw(addr)),
            // Conflict attribution uses the line-table index — the HTM
            // conflict granule is the cache line, and heatmaps are read per
            // backend (DESIGN.md §12).
            OrecState::Locked(_) => Err(self.cm.charge(ctx, Abort::conflict_at(idx))),
            OrecState::Version(v1) => {
                let val = sys.heap.read_raw(addr);
                if lines.load(idx) != OrecState::Version(v1) || v1 > ctx.rv {
                    return Err(self.cm.charge(ctx, Abort::conflict_at(idx)));
                }
                // Software committers do not touch the line orecs, so the
                // sequence lock must be re-checked after the value load
                // (seqlock pattern) to keep the speculative snapshot opaque.
                if seq.load(Ordering::Acquire) != ctx.start_seq {
                    return Err(self.cm.charge(ctx, Abort::FALLBACK));
                }
                ctx.read_set.push_orec(idx, v1);
                if self.naive_instrumentation {
                    // Redundant STM-style value logging (dual-path ablation).
                    ctx.read_set.push_value(addr, val);
                }
                Ok(val)
            }
        }
    }

    /// Speculative write: eager line ownership plus buffered value.
    pub(crate) fn write(
        &self,
        sys: &TmSystem,
        ctx: &mut ThreadCtx,
        seq: &AtomicU64,
        addr: Addr,
        val: u64,
    ) -> TxResult<()> {
        if seq.load(Ordering::Acquire) != ctx.start_seq {
            return Err(self.cm.charge(ctx, Abort::FALLBACK));
        }
        if !track(&mut ctx.write_lines, addr, self.geom.write_capacity) {
            return Err(self.cm.charge(ctx, Abort::CAPACITY));
        }
        let idx = sys.hw_lines.index_for(addr);
        if let Err(abort) = sys.hw_lines.acquire(idx, ctx.owner_tag(), &mut ctx.locks) {
            return Err(self.cm.charge(ctx, abort));
        }
        ctx.write_set.insert(addr, val);
        if self.naive_instrumentation {
            ctx.read_set.push_value(addr, val);
        }
        Ok(())
    }

    fn read_set_intact(sys: &TmSystem, ctx: &ThreadCtx) -> Result<(), usize> {
        let me = ctx.owner_tag();
        for &(idx, observed) in ctx.read_set.orecs() {
            match sys.hw_lines.load(idx as usize) {
                OrecState::Version(v) => {
                    if v != observed {
                        return Err(idx as usize);
                    }
                }
                OrecState::Locked(o) => {
                    let saved = ctx.locks.iter().find(|&&(i, _)| i == idx).map(|&(_, v)| v);
                    if o != me || saved != Some(observed) {
                        return Err(idx as usize);
                    }
                }
            }
        }
        Ok(())
    }

    /// Commit the speculative attempt.
    ///
    /// A writer ticks `hw_clock` — its version, and its announcement that a
    /// write-back may follow — validates its lines, and then reads `seq`:
    /// a software path that took the lock before the tick is seen here and
    /// the commit retreats; one that takes it after sees the tick and waits
    /// for the matching `hw_done` bump (`TmSystem::hw_drain`). Tick and
    /// load are `SeqCst`, as are the software side's lock RMW and clock
    /// load: the handshake is Dekker's, and needs the single total order.
    /// `seq` is never written here.
    pub(crate) fn commit(
        &self,
        sys: &TmSystem,
        ctx: &mut ThreadCtx,
        seq: &AtomicU64,
    ) -> TxResult<()> {
        if self.geom.spurious_abort_prob > 0.0 && ctx.rng.next_f64() < self.geom.spurious_abort_prob
        {
            return Err(self.cm.charge(ctx, Abort::SPURIOUS));
        }
        if ctx.write_set.is_empty() {
            if seq.load(Ordering::Acquire) != ctx.start_seq {
                return Err(self.cm.charge(ctx, Abort::FALLBACK));
            }
            ctx.reset_logs();
            return Ok(());
        }
        let wv = sys.hw_clock.fetch_add(1, Ordering::SeqCst) + 1;
        let intact = if wv == ctx.rv + 1 {
            Ok(())
        } else {
            Self::read_set_intact(sys, ctx)
        };
        let retreat = match intact {
            Err(line) => Some(Abort::conflict_at(line)),
            Ok(()) if seq.load(Ordering::SeqCst) != ctx.start_seq => Some(Abort::FALLBACK),
            Ok(()) => None,
        };
        if let Some(abort) = retreat {
            // Nothing was written; the lines go back in `rollback`.
            sys.hw_done.fetch_add(1, Ordering::Release);
            return Err(self.cm.charge(ctx, abort));
        }
        for &(a, v) in ctx.write_set.entries() {
            sys.heap.write_raw(a, v);
        }
        for &(idx, _) in &ctx.locks {
            sys.hw_lines.unlock(idx as usize, wv);
        }
        // `Release`: pairs with the `Acquire` load in `TmSystem::hw_quiet`,
        // which makes the write-back above visible to whoever drained.
        sys.hw_done.fetch_add(1, Ordering::Release);
        ctx.locks.clear();
        ctx.reset_logs();
        Ok(())
    }

    /// Abort path: restore line versions and drop logs.
    pub(crate) fn rollback(&self, sys: &TmSystem, ctx: &mut ThreadCtx) {
        for &(idx, prev) in &ctx.locks {
            sys.hw_lines.unlock(idx as usize, prev);
        }
        ctx.locks.clear();
        ctx.reset_logs();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::HtmGeometry;
    use std::sync::Arc;

    fn setup(geom: HtmGeometry) -> (Arc<TmSystem>, SpecCore, ThreadCtx, AtomicU64) {
        (
            Arc::new(TmSystem::new(1 << 14)),
            SpecCore::new(geom, false),
            ThreadCtx::new(0),
            AtomicU64::new(0),
        )
    }

    #[test]
    fn basic_commit_applies_writes() {
        let (sys, core, mut ctx, seq) = setup(HtmGeometry::TINY_FOR_TESTS);
        let a = sys.heap.alloc(1);
        core.begin(&sys, &mut ctx, &seq).unwrap();
        core.write(&sys, &mut ctx, &seq, a, 9).unwrap();
        core.commit(&sys, &mut ctx, &seq).unwrap();
        assert_eq!(sys.heap.read_raw(a), 9);
    }

    #[test]
    fn write_capacity_overflow_aborts() {
        let (sys, core, mut ctx, seq) = setup(HtmGeometry::TINY_FOR_TESTS);
        let base = sys.heap.alloc(LINE_WORDS * 16);
        core.begin(&sys, &mut ctx, &seq).unwrap();
        let mut result = Ok(());
        for i in 0..16 {
            result = core.write(&sys, &mut ctx, &seq, base.field((i * LINE_WORDS) as u32), 1);
            if result.is_err() {
                break;
            }
        }
        assert_eq!(result, Err(Abort::CAPACITY));
        core.rollback(&sys, &mut ctx);
    }

    #[test]
    fn read_capacity_overflow_aborts() {
        let (sys, core, mut ctx, seq) = setup(HtmGeometry::TINY_FOR_TESTS);
        let base = sys.heap.alloc(LINE_WORDS * 16);
        core.begin(&sys, &mut ctx, &seq).unwrap();
        let mut result = Ok(0);
        for i in 0..16 {
            result = core.read(&sys, &mut ctx, &seq, base.field((i * LINE_WORDS) as u32));
            if result.is_err() {
                break;
            }
        }
        assert_eq!(result, Err(Abort::CAPACITY));
        core.rollback(&sys, &mut ctx);
    }

    #[test]
    fn repeated_access_to_one_line_never_overflows() {
        let (sys, core, mut ctx, seq) = setup(HtmGeometry::TINY_FOR_TESTS);
        let a = sys.heap.alloc(2);
        core.begin(&sys, &mut ctx, &seq).unwrap();
        for _ in 0..100 {
            core.read(&sys, &mut ctx, &seq, a).unwrap();
            core.write(&sys, &mut ctx, &seq, a.field(1), 1).unwrap();
        }
        core.commit(&sys, &mut ctx, &seq).unwrap();
    }

    #[test]
    fn sequence_change_poisons_transaction() {
        let (sys, core, mut ctx, seq) = setup(HtmGeometry::TINY_FOR_TESTS);
        let a = sys.heap.alloc(1);
        core.begin(&sys, &mut ctx, &seq).unwrap();
        core.read(&sys, &mut ctx, &seq, a).unwrap();
        seq.store(2, Ordering::Release);
        let b = sys.heap.alloc(1);
        assert_eq!(core.read(&sys, &mut ctx, &seq, b), Err(Abort::FALLBACK));
        core.rollback(&sys, &mut ctx);
    }

    #[test]
    fn writing_commit_ticks_the_hardware_clock_and_only_reads_the_sequence() {
        let (sys, core, mut ctx, seq) = setup(HtmGeometry::TINY_FOR_TESTS);
        let a = sys.heap.alloc(1);
        core.begin(&sys, &mut ctx, &seq).unwrap();
        core.write(&sys, &mut ctx, &seq, a, 4).unwrap();
        core.commit(&sys, &mut ctx, &seq).unwrap();
        assert_eq!(seq.load(Ordering::Relaxed), 0, "subscription is read-only");
        assert_eq!(sys.hw_clock.load(Ordering::Relaxed), 1);
        assert_eq!(sys.hw_quiet(), Some(1), "the window closed behind it");
        assert_eq!(
            sys.hw_lines.load(sys.hw_lines.index_for(a)),
            OrecState::Version(1)
        );
        assert_eq!(sys.clock.now(), 0, "the STMs' clock is not ours");
    }

    #[test]
    fn spurious_aborts_fire_with_probability_one() {
        let geom = HtmGeometry {
            spurious_abort_prob: 1.0,
            ..HtmGeometry::TINY_FOR_TESTS
        };
        let (sys, core, mut ctx, seq) = setup(geom);
        let a = sys.heap.alloc(1);
        core.begin(&sys, &mut ctx, &seq).unwrap();
        core.write(&sys, &mut ctx, &seq, a, 1).unwrap();
        assert_eq!(core.commit(&sys, &mut ctx, &seq), Err(Abort::SPURIOUS));
        core.rollback(&sys, &mut ctx);
    }

    #[test]
    fn ownership_is_read_off_the_line_orec() {
        let (sys, core, mut ctx, seq) = setup(HtmGeometry::TINY_FOR_TESTS);
        let a = sys.heap.alloc(LINE_WORDS * 2);
        let b = a.field(LINE_WORDS as u32);
        let (la, lb) = (sys.hw_lines.index_for(a), sys.hw_lines.index_for(b));
        assert_eq!(sys.hw_lines.index_for(a.field(1)), la);
        assert_ne!(la, lb);
        sys.hw_lines.store_version(la, 33);
        sys.hw_lines
            .try_lock(lb, txcore::OwnerTag(9), None)
            .unwrap();
        core.begin(&sys, &mut ctx, &seq).unwrap();
        core.write(&sys, &mut ctx, &seq, a, 1).unwrap();
        // A second word of the line we own: no second lock entry.
        core.write(&sys, &mut ctx, &seq, a.field(1), 2).unwrap();
        assert_eq!(ctx.locks, [(la as u32, 33)]);
        // A line somebody else owns still aborts, and names itself.
        let abort = core.write(&sys, &mut ctx, &seq, b, 4).unwrap_err();
        assert_eq!((abort, abort.stripe()), (Abort::CONFLICT, Some(lb as u32)));
        core.rollback(&sys, &mut ctx);
        assert_eq!(sys.hw_lines.load(la), OrecState::Version(33));
        assert_eq!(
            sys.hw_lines.load(lb),
            OrecState::Locked(txcore::OwnerTag(9))
        );
        assert!(ctx.locks.is_empty());
    }

    proptest::proptest! {
        /// `track` over a `LineSet` against a `BTreeSet` of lines: the same
        /// accept/reject decision and the same distinct-line count after
        /// every access, whatever the capacity. The clear rate is drawn per
        /// case: rare clears give attempts of up to 200 distinct lines,
        /// which grow the table in mid-attempt; frequent ones give hundreds
        /// of attempts, each probing through the stale slots of the last.
        /// The decision is what places a `Capacity` abort, so it is what
        /// must not move.
        #[test]
        fn line_tracking_matches_a_set_model(
            cap in 0usize..160,
            clear_rate in 0u32..40,
            ops in proptest::collection::vec((0u32..256, 0u32..200 * LINE_WORDS as u32), 0..2500),
        ) {
            let mut set = LineSet::new();
            let mut model = std::collections::BTreeSet::new();
            for (op, word) in ops {
                if op < clear_rate {
                    set.clear();
                    model.clear();
                } else {
                    let line = word / LINE_WORDS as u32;
                    let fits = model.contains(&line) || model.len() < cap;
                    if fits {
                        model.insert(line);
                    }
                    proptest::prop_assert_eq!(track(&mut set, Addr(word), cap), fits);
                }
                proptest::prop_assert_eq!(set.len(), model.len());
            }
        }
    }
}
