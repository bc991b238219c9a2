//! Lightweight per-thread transaction statistics.
//!
//! PolyTM's Monitor reads these counters concurrently with the application
//! threads updating them (approximate freshness is fine for KPI sampling,
//! exactly as the paper's lightweight profiling).
//!
//! # Memory-ordering contract
//!
//! A [`ThreadStats`] has **one writer**: the thread owning the
//! [`ThreadCtx`](crate::ThreadCtx) it hangs off (`PolyTm::register_thread`
//! hands each slot to one thread at a time). So an increment is not an RMW
//! but a relaxed load of the writer's own last value and a relaxed store
//! of the sum — no locked instruction, and no update can be lost because
//! nobody else stores. Readers use relaxed loads; each field is one
//! aligned word, so a snapshot cannot tear a counter, and every field read
//! twice only ever grows.

use crate::abort::AbortCode;
use std::sync::atomic::{AtomicU64, Ordering};

/// Counters maintained by one application thread — and written by that
/// thread only: the `record_*` methods and [`ThreadStats::fold`] are
/// single-writer increments (module docs).
///
/// Cache-line aligned: the `Vec<Arc<ThreadStats>>` the Monitor walks must
/// not let two threads' counters share a line, or every fold becomes a
/// false-sharing ping-pong.
#[derive(Debug, Default)]
#[repr(align(64))]
pub struct ThreadStats {
    commits: AtomicU64,
    fallback_commits: AtomicU64,
    aborts: [AtomicU64; AbortCode::ALL.len()],
    committed_reads: AtomicU64,
    committed_writes: AtomicU64,
    wasted_reads: AtomicU64,
    wasted_writes: AtomicU64,
}

/// Add `n` to a counter only the calling thread writes: a load and a
/// store, not a locked RMW (see the module docs).
#[inline]
fn bump(counter: &AtomicU64, n: u64) {
    counter.store(counter.load(Ordering::Relaxed) + n, Ordering::Relaxed);
}

impl ThreadStats {
    /// Fresh zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a successful commit. `via_fallback` marks commits that ran
    /// under the HTM fallback lock rather than speculatively.
    #[inline]
    pub fn record_commit(&self, via_fallback: bool) {
        bump(&self.commits, 1);
        if via_fallback {
            bump(&self.fallback_commits, 1);
        }
    }

    /// Record an aborted attempt with its cause.
    #[inline]
    pub fn record_abort(&self, code: AbortCode) {
        bump(&self.aborts[code.index()], 1);
    }

    /// Fold a batch of work-ledger ops: `committed` ops retired by commits,
    /// `wasted` ops executed by attempts that later rolled back. Batched
    /// (the driver's pending ledger flushes every few transactions) so the
    /// first-try commit path never pays these stores per transaction.
    #[inline]
    pub fn record_work(&self, committed: (u64, u64), wasted: (u64, u64)) {
        if committed.0 > 0 {
            bump(&self.committed_reads, committed.0);
        }
        if committed.1 > 0 {
            bump(&self.committed_writes, committed.1);
        }
        if wasted.0 > 0 {
            bump(&self.wasted_reads, wasted.0);
        }
        if wasted.1 > 0 {
            bump(&self.wasted_writes, wasted.1);
        }
    }

    /// Consistent-enough snapshot of the counters.
    pub fn snapshot(&self) -> StatsSnapshot {
        let mut aborts = [0u64; AbortCode::ALL.len()];
        for (dst, src) in aborts.iter_mut().zip(self.aborts.iter()) {
            *dst = src.load(Ordering::Relaxed);
        }
        StatsSnapshot {
            commits: self.commits.load(Ordering::Relaxed),
            fallback_commits: self.fallback_commits.load(Ordering::Relaxed),
            aborts,
            committed_reads: self.committed_reads.load(Ordering::Relaxed),
            committed_writes: self.committed_writes.load(Ordering::Relaxed),
            wasted_reads: self.wasted_reads.load(Ordering::Relaxed),
            wasted_writes: self.wasted_writes.load(Ordering::Relaxed),
        }
    }

    /// Fold a transaction's locally-accumulated events into the shared
    /// counters: one single-writer increment per *nonzero* cell, instead
    /// of one per event. Called at transaction resolution (commit, rollback-exhausted)
    /// so the shared view is exact at every transaction boundary — which is
    /// when the Monitor samples.
    #[inline]
    pub fn fold(&self, local: &LocalStats) {
        if local.commits > 0 {
            bump(&self.commits, local.commits);
        }
        if local.fallback_commits > 0 {
            bump(&self.fallback_commits, local.fallback_commits);
        }
        for (dst, src) in self.aborts.iter().zip(local.aborts) {
            if src > 0 {
                bump(dst, src);
            }
        }
        self.record_work(
            (local.committed_reads, local.committed_writes),
            (local.wasted_reads, local.wasted_writes),
        );
    }
}

/// Plain (non-atomic) per-transaction accumulator.
///
/// The retry ladder of one transaction records its commits/aborts here —
/// ordinary integer adds in registers or the local stack frame, no shared
/// cache lines — and the driver folds the whole ladder into the owning
/// [`ThreadStats`] exactly once at resolution via [`ThreadStats::fold`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LocalStats {
    /// Committed transactions (0 or 1 per ladder).
    pub commits: u64,
    /// Commits that ran under the HTM fallback lock.
    pub fallback_commits: u64,
    /// Aborted attempts, indexed by [`AbortCode::index`].
    pub aborts: [u64; AbortCode::ALL.len()],
    /// Transactional reads retired by the committing attempt.
    pub committed_reads: u64,
    /// Transactional writes retired by the committing attempt.
    pub committed_writes: u64,
    /// Transactional reads executed by attempts that rolled back.
    pub wasted_reads: u64,
    /// Transactional writes executed by attempts that rolled back.
    pub wasted_writes: u64,
}

impl LocalStats {
    /// Record a successful commit (see [`ThreadStats::record_commit`]).
    #[inline]
    pub fn record_commit(&mut self, via_fallback: bool) {
        self.commits += 1;
        if via_fallback {
            self.fallback_commits += 1;
        }
    }

    /// Record an aborted attempt with its cause.
    #[inline]
    pub fn record_abort(&mut self, code: AbortCode) {
        self.aborts[code.index()] += 1;
    }

    /// Record the ops an attempt executed before rolling back.
    #[inline]
    pub fn record_wasted(&mut self, reads: u64, writes: u64) {
        self.wasted_reads += reads;
        self.wasted_writes += writes;
    }

    /// Record the ops retired by the committing attempt.
    #[inline]
    pub fn record_committed(&mut self, reads: u64, writes: u64) {
        self.committed_reads += reads;
        self.committed_writes += writes;
    }

    /// Whether nothing has been recorded (folding would be a no-op).
    #[inline]
    pub fn is_empty(&self) -> bool {
        *self == LocalStats::default()
    }
}

/// A point-in-time copy of [`ThreadStats`], also used as an aggregate over
/// many threads.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Committed transactions.
    pub commits: u64,
    /// Commits that ran under the HTM fallback lock.
    pub fallback_commits: u64,
    /// Aborted attempts, indexed by [`AbortCode::index`].
    pub aborts: [u64; AbortCode::ALL.len()],
    /// Transactional reads retired by committed attempts.
    pub committed_reads: u64,
    /// Transactional writes retired by committed attempts.
    pub committed_writes: u64,
    /// Transactional reads discarded by rolled-back attempts.
    pub wasted_reads: u64,
    /// Transactional writes discarded by rolled-back attempts.
    pub wasted_writes: u64,
}

impl StatsSnapshot {
    /// Total aborted attempts across all causes.
    pub fn total_aborts(&self) -> u64 {
        self.aborts.iter().sum()
    }

    /// Aborts with the given cause.
    pub fn aborts_of(&self, code: AbortCode) -> u64 {
        self.aborts[code.index()]
    }

    /// Ops retired by committed attempts (goodput numerator).
    pub fn committed_ops(&self) -> u64 {
        self.committed_reads + self.committed_writes
    }

    /// Ops executed and then discarded by rolled-back attempts.
    pub fn wasted_ops(&self) -> u64 {
        self.wasted_reads + self.wasted_writes
    }

    /// Every transactional op executed, kept or not.
    pub fn total_ops(&self) -> u64 {
        self.committed_ops() + self.wasted_ops()
    }

    /// Committed work / total work, in `[0, 1]`; `1.0` when idle (no work
    /// executed means none was wasted).
    pub fn goodput_ratio(&self) -> f64 {
        let total = self.total_ops();
        if total == 0 {
            1.0
        } else {
            self.committed_ops() as f64 / total as f64
        }
    }

    /// Fraction of attempts that aborted, in `[0, 1]`; zero when idle.
    pub fn abort_rate(&self) -> f64 {
        let attempts = self.commits + self.total_aborts();
        if attempts == 0 {
            0.0
        } else {
            self.total_aborts() as f64 / attempts as f64
        }
    }

    /// Element-wise difference `self - earlier` (for windowed KPIs).
    pub fn since(&self, earlier: &StatsSnapshot) -> StatsSnapshot {
        let mut aborts = [0u64; AbortCode::ALL.len()];
        for (a, (now, then)) in aborts
            .iter_mut()
            .zip(self.aborts.iter().zip(&earlier.aborts))
        {
            *a = now.saturating_sub(*then);
        }
        StatsSnapshot {
            commits: self.commits.saturating_sub(earlier.commits),
            fallback_commits: self
                .fallback_commits
                .saturating_sub(earlier.fallback_commits),
            aborts,
            committed_reads: self.committed_reads.saturating_sub(earlier.committed_reads),
            committed_writes: self
                .committed_writes
                .saturating_sub(earlier.committed_writes),
            wasted_reads: self.wasted_reads.saturating_sub(earlier.wasted_reads),
            wasted_writes: self.wasted_writes.saturating_sub(earlier.wasted_writes),
        }
    }

    /// Element-wise sum (for aggregating threads).
    pub fn merge(&self, other: &StatsSnapshot) -> StatsSnapshot {
        let mut aborts = [0u64; AbortCode::ALL.len()];
        for (a, (x, y)) in aborts.iter_mut().zip(self.aborts.iter().zip(&other.aborts)) {
            *a = x + y;
        }
        StatsSnapshot {
            commits: self.commits + other.commits,
            fallback_commits: self.fallback_commits + other.fallback_commits,
            aborts,
            committed_reads: self.committed_reads + other.committed_reads,
            committed_writes: self.committed_writes + other.committed_writes,
            wasted_reads: self.wasted_reads + other.wasted_reads,
            wasted_writes: self.wasted_writes + other.wasted_writes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_snapshot() {
        let s = ThreadStats::new();
        s.record_commit(false);
        s.record_commit(true);
        s.record_abort(AbortCode::Conflict);
        s.record_abort(AbortCode::Capacity);
        s.record_abort(AbortCode::Conflict);
        let snap = s.snapshot();
        assert_eq!(snap.commits, 2);
        assert_eq!(snap.fallback_commits, 1);
        assert_eq!(snap.aborts_of(AbortCode::Conflict), 2);
        assert_eq!(snap.aborts_of(AbortCode::Capacity), 1);
        assert_eq!(snap.total_aborts(), 3);
    }

    #[test]
    fn abort_rate_bounds() {
        let empty = StatsSnapshot::default();
        assert_eq!(empty.abort_rate(), 0.0);
        let s = ThreadStats::new();
        s.record_commit(false);
        s.record_abort(AbortCode::Conflict);
        let rate = s.snapshot().abort_rate();
        assert!((rate - 0.5).abs() < 1e-12);
    }

    #[test]
    fn since_and_merge() {
        let s = ThreadStats::new();
        s.record_commit(false);
        let early = s.snapshot();
        s.record_commit(false);
        s.record_abort(AbortCode::Explicit);
        let late = s.snapshot();
        let d = late.since(&early);
        assert_eq!(d.commits, 1);
        assert_eq!(d.aborts_of(AbortCode::Explicit), 1);
        let m = d.merge(&d);
        assert_eq!(m.commits, 2);
        assert_eq!(m.total_aborts(), 2);
    }

    #[test]
    fn counters_read_monotone_under_a_concurrent_reader() {
        // One writer, one reader: every snapshot is monotone per field
        // (a load-plus-store increment never publishes a smaller value),
        // and once the writer is done the counts are exact.
        const N: u64 = 1_000_000;
        let s = ThreadStats::new();
        let done = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                let mut local = LocalStats::default();
                for i in 0..N {
                    if i % 2 == 0 {
                        s.record_commit(i % 8 == 0);
                        s.record_abort(AbortCode::Conflict);
                    } else {
                        local.record_commit(false);
                        local.record_abort(AbortCode::Capacity);
                        s.fold(&local);
                        local = LocalStats::default();
                    }
                }
                done.store(true, Ordering::Release);
            });
            let mut last = StatsSnapshot::default();
            loop {
                let finished = done.load(Ordering::Acquire);
                let now = s.snapshot();
                assert!(now.commits >= last.commits, "commits went back");
                assert!(now.fallback_commits >= last.fallback_commits);
                for (n, l) in now.aborts.iter().zip(&last.aborts) {
                    assert!(n >= l, "an abort counter went back");
                }
                last = now;
                if finished {
                    break;
                }
            }
        });
        let snap = s.snapshot();
        assert_eq!(snap.commits, N);
        assert_eq!(snap.fallback_commits, N / 8);
        assert_eq!(snap.aborts_of(AbortCode::Conflict), N / 2);
        assert_eq!(snap.aborts_of(AbortCode::Capacity), N / 2);
        assert_eq!(snap.total_aborts(), N);
    }

    #[test]
    fn fold_matches_per_event_recording() {
        let per_event = ThreadStats::new();
        per_event.record_commit(true);
        per_event.record_abort(AbortCode::Conflict);
        per_event.record_abort(AbortCode::Conflict);
        per_event.record_abort(AbortCode::Capacity);

        let folded = ThreadStats::new();
        let mut local = LocalStats::default();
        assert!(local.is_empty());
        local.record_commit(true);
        local.record_abort(AbortCode::Conflict);
        local.record_abort(AbortCode::Conflict);
        local.record_abort(AbortCode::Capacity);
        assert!(!local.is_empty());
        folded.fold(&local);

        assert_eq!(folded.snapshot(), per_event.snapshot());
        // Folding twice doubles; folding an empty ladder is a no-op.
        folded.fold(&local);
        assert_eq!(folded.snapshot().commits, 2);
        folded.fold(&LocalStats::default());
        assert_eq!(folded.snapshot().commits, 2);
    }

    #[test]
    fn thread_stats_are_cache_line_aligned() {
        assert_eq!(std::mem::align_of::<ThreadStats>(), 64);
    }

    #[test]
    fn work_ledger_folds_and_derives_goodput() {
        let s = ThreadStats::new();
        s.record_work((6, 2), (3, 1));
        let mut local = LocalStats::default();
        local.record_committed(4, 0);
        local.record_wasted(0, 2);
        s.fold(&local);
        let snap = s.snapshot();
        assert_eq!(snap.committed_ops(), 12);
        assert_eq!(snap.wasted_ops(), 6);
        assert_eq!(snap.total_ops(), 18);
        assert!((snap.goodput_ratio() - 12.0 / 18.0).abs() < 1e-12);
        // Deltas and merges carry the ledger.
        let d = snap.since(&StatsSnapshot::default());
        assert_eq!(d.total_ops(), 18);
        assert_eq!(snap.merge(&snap).wasted_ops(), 12);
    }

    #[test]
    fn goodput_of_idle_stats_is_one() {
        assert_eq!(StatsSnapshot::default().goodput_ratio(), 1.0);
    }
}
