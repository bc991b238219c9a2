//! Shared TM system state and the per-thread transaction context.

use crate::clock::GlobalClock;
use crate::heap::Heap;
use crate::orec::{OrecTable, OwnerTag};
use crate::sets::{LineSet, ReadSet, WriteSet};
use crate::stats::ThreadStats;
use crate::util::{spin_until, CachePadded, XorShift64};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Default number of ownership records.
pub(crate) const DEFAULT_ORECS: usize = 1 << 16;
/// Default stripe width in words (fields of one small record share an orec).
pub(crate) const DEFAULT_STRIPE: usize = 4;

/// All state shared between threads and backends: the application heap plus
/// every piece of TM metadata.
///
/// Backends keep their metadata *here*, in regions separate from application
/// data — the property PolyTM requires from a backend to be switchable
/// (paper §4: "does not interfere with the original memory layout").
/// Because PolyTM quiesces all threads before switching algorithms, the
/// metadata tables can safely be shared by every backend.
pub struct TmSystem {
    /// The word-addressed application memory.
    pub heap: Heap,
    /// Versioned write-lock records (TL2 / TinySTM / SwissTM write locks).
    pub orecs: OrecTable,
    /// SwissTM's read-version records: same geometry as `orecs`, by
    /// construction (`with_orecs` builds both) — its commit relies on it.
    pub read_vers: OrecTable,
    /// Global version clock for timestamp-based validation. Like every
    /// shared word below it sits on a cache line of its own: a tick or a
    /// seqlock flip must not evict the table headers above, which every
    /// access of every thread loads.
    pub clock: CachePadded<GlobalClock>,
    /// NOrec's single global sequence lock (even = free, odd = write-back in
    /// progress; the value doubles as the snapshot timestamp).
    pub norec_seq: CachePadded<AtomicU64>,
    /// The HTM fallback sequence lock (even = free). Hardware transactions
    /// subscribe to it and abort when a fallback path is active.
    pub fallback_seq: CachePadded<AtomicU64>,
    /// The simulated-HTM family's own version clock: the tick that orders a
    /// hardware commit is also its announcement to the software path.
    /// `hw_clock - hw_done` hardware commits are between their tick and the
    /// end of their write-back — the *hardware commit window* (DESIGN.md
    /// §9), which software waits out with [`TmSystem::hw_drain`].
    pub hw_clock: CachePadded<AtomicU64>,
    /// Hardware commits finished: bumped once per `hw_clock` tick, after
    /// the committer released its lines or retreated without writing.
    pub hw_done: CachePadded<AtomicU64>,
}

impl TmSystem {
    /// Create a system with a heap of `heap_words` words and default-sized
    /// metadata tables.
    pub fn new(heap_words: usize) -> Self {
        Self::with_orecs(heap_words, DEFAULT_ORECS, DEFAULT_STRIPE)
    }

    /// Create a system with explicit orec-table geometry.
    pub fn with_orecs(heap_words: usize, n_orecs: usize, stripe_words: usize) -> Self {
        TmSystem {
            heap: Heap::new(heap_words),
            orecs: OrecTable::new(n_orecs, stripe_words),
            read_vers: OrecTable::new(n_orecs, stripe_words),
            clock: CachePadded::new(GlobalClock::new()),
            norec_seq: CachePadded::new(AtomicU64::new(0)),
            fallback_seq: CachePadded::new(AtomicU64::new(0)),
            hw_clock: CachePadded::new(AtomicU64::new(0)),
            hw_done: CachePadded::new(AtomicU64::new(0)),
        }
    }

    /// `Some(hw_clock)` if no hardware commit is inside its window.
    ///
    /// `hw_done` is loaded first: `done(t1) <= clock(t1) <= clock(t2)`, so
    /// equal values mean every tick up to the returned one had finished at
    /// `t1` — and the `Acquire` load of `hw_done` pairs with the committers'
    /// `Release` bumps, so their write-backs are visible. The `SeqCst`
    /// clock load is the software half of the Dekker handshake with
    /// `SpecCore::commit`'s tick.
    #[inline]
    pub fn hw_quiet(&self) -> Option<u64> {
        let done = self.hw_done.load(Ordering::Acquire);
        (self.hw_clock.load(Ordering::SeqCst) == done).then_some(done)
    }

    /// Wait until the hardware commit window is empty; returns `hw_clock`.
    ///
    /// Called by a software path that has just made the subscribed sequence
    /// lock odd with a `SeqCst` RMW: a hardware committer either ticked
    /// before that (its tick is seen here and waited for) or reads the lock
    /// odd after its tick and retreats without writing.
    #[inline]
    pub fn hw_drain(&self) -> u64 {
        spin_until(|| self.hw_quiet())
    }
}

impl fmt::Debug for TmSystem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TmSystem")
            .field("heap", &self.heap)
            .field("orecs", &self.orecs)
            .finish()
    }
}

/// Per-thread transaction context: the access logs, snapshot timestamps and
/// scratch space one thread needs to run transactions on any backend.
///
/// A context is exclusively owned by its thread; the shared piece
/// ([`ThreadStats`]) is read by the Monitor but written only by this
/// context's thread.
pub struct ThreadCtx {
    /// Thread slot id within the runtime (also the lock owner tag).
    pub id: usize,
    /// The read log.
    pub read_set: ReadSet,
    /// The redo log.
    pub write_set: WriteSet,
    /// Orec locks currently held: `(record index, version to restore)`.
    pub locks: Vec<(u32, u64)>,
    /// Read snapshot of the global version clock.
    pub rv: u64,
    /// NOrec / fallback sequence-lock snapshot.
    pub start_seq: u64,
    /// Consecutive failed attempts of the current atomic block.
    pub attempt: u32,
    /// Whether the current attempt runs under the HTM fallback lock.
    pub in_fallback: bool,
    /// Cache lines touched speculatively (simulated HTM read set).
    pub read_lines: LineSet,
    /// Cache lines written speculatively (simulated HTM write set).
    pub write_lines: LineSet,
    /// Greedy contention-manager timestamp (SwissTM).
    pub greedy_ts: u64,
    /// Remaining speculative attempts for the current atomic block (HTM
    /// retry budget, managed by the contention manager).
    pub htm_budget: u32,
    /// Scratch buffer for commit-time lock acquisition: the pre-lock
    /// versions of SwissTM's read orecs, one per entry of `locks`. Owned
    /// here so the commit path never allocates.
    pub scratch: Vec<(u32, u64)>,
    /// Per-thread PRNG for backoff and simulated-capacity sampling.
    pub rng: XorShift64,
    /// Shared commit/abort counters read by the Monitor.
    pub stats: Arc<ThreadStats>,
    /// Cached `&'static` telemetry counter handles for the backend this
    /// thread last ran transactions on, so the traced commit/abort path
    /// never formats metric names or locks the registry.
    pub(crate) tx_counters: Option<crate::exec::TxCounters>,
    /// Transactional reads issued by the current attempt (driver-counted;
    /// reset at attempt start, classified committed/wasted at resolution).
    pub(crate) ops_reads: u64,
    /// Transactional writes issued by the current attempt.
    pub(crate) ops_writes: u64,
    /// Committed reads awaiting a ledger flush into [`ThreadStats`].
    pub(crate) pending_committed_reads: u64,
    /// Committed writes awaiting a ledger flush into [`ThreadStats`].
    pub(crate) pending_committed_writes: u64,
    /// First-try commits since the last ledger flush (flush cadence).
    pub(crate) pending_txs: u32,
}

/// First-try commits buffered in the pending work ledger before it folds
/// into the shared [`ThreadStats`] — the "window boundary" of the conflict
/// observatory's fast-path contract (DESIGN.md §12): the one-shot commit
/// path does plain per-thread adds only, and writes the shared counters
/// once per this many transactions (retried ladders flush exactly, at
/// resolution).
pub const WORK_FLUSH_EVERY: u32 = 64;

impl ThreadCtx {
    /// Context for thread slot `id`, with a deterministic per-thread RNG.
    pub fn new(id: usize) -> Self {
        ThreadCtx {
            id,
            read_set: ReadSet::new(),
            write_set: WriteSet::new(),
            locks: Vec::new(),
            rv: 0,
            start_seq: 0,
            attempt: 0,
            in_fallback: false,
            read_lines: LineSet::new(),
            write_lines: LineSet::new(),
            greedy_ts: 0,
            htm_budget: 0,
            scratch: Vec::new(),
            rng: XorShift64::new(0x5DEECE66D ^ ((id as u64 + 1) << 16)),
            stats: Arc::new(ThreadStats::new()),
            tx_counters: None,
            ops_reads: 0,
            ops_writes: 0,
            pending_committed_reads: 0,
            pending_committed_writes: 0,
            pending_txs: 0,
        }
    }

    /// Credit the just-committed attempt's ops to the pending ledger,
    /// folding into the shared stats every [`WORK_FLUSH_EVERY`] first-try
    /// commits. Plain adds plus one predictable branch — the whole cost
    /// the nanosecond fast path pays for the wasted-work ledger.
    #[inline]
    pub(crate) fn credit_committed_ops(&mut self) {
        self.pending_committed_reads += self.ops_reads;
        self.pending_committed_writes += self.ops_writes;
        self.pending_txs += 1;
        if self.pending_txs >= WORK_FLUSH_EVERY {
            self.flush_work();
        }
    }

    /// Fold the pending work ledger into the shared [`ThreadStats`].
    ///
    /// The driver flushes automatically at retry-ladder resolution and
    /// every [`WORK_FLUSH_EVERY`] first-try commits; serial drivers call
    /// this at window/sample boundaries (and before reading
    /// [`ThreadStats::snapshot`] for exact op accounting).
    pub fn flush_work(&mut self) {
        if self.pending_committed_reads | self.pending_committed_writes != 0 {
            self.stats.record_work(
                (self.pending_committed_reads, self.pending_committed_writes),
                (0, 0),
            );
            self.pending_committed_reads = 0;
            self.pending_committed_writes = 0;
        }
        self.pending_txs = 0;
    }

    /// The tag identifying this thread as a lock owner.
    #[inline]
    pub fn owner_tag(&self) -> OwnerTag {
        OwnerTag(self.id as u64)
    }

    /// Clear all per-attempt logs (called by backends on begin/rollback).
    #[inline]
    pub fn reset_logs(&mut self) {
        self.read_set.clear();
        self.write_set.clear();
        self.locks.clear();
        self.read_lines.clear();
        self.write_lines.clear();
        self.in_fallback = false;
    }
}

impl fmt::Debug for ThreadCtx {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ThreadCtx")
            .field("id", &self.id)
            .field("rv", &self.rv)
            .field("reads", &self.read_set.len())
            .field("writes", &self.write_set.len())
            .field("attempt", &self.attempt)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ctx_reset_clears_logs() {
        let mut ctx = ThreadCtx::new(3);
        ctx.read_set.push_orec(1, 1);
        ctx.write_set.insert(crate::Addr(0), 1);
        ctx.locks.push((0, 0));
        ctx.read_lines.insert(1, 8);
        ctx.in_fallback = true;
        ctx.reset_logs();
        assert!(ctx.read_set.is_empty());
        assert!(ctx.write_set.is_empty());
        assert!(ctx.locks.is_empty());
        assert!(ctx.read_lines.is_empty());
        assert!(!ctx.in_fallback);
        assert_eq!(ctx.owner_tag().0, 3);
    }

    #[test]
    fn system_components_are_wired() {
        let sys = TmSystem::new(128);
        assert_eq!(sys.heap.capacity(), 128);
        assert!(sys.orecs.len() >= 2);
        assert_eq!(sys.clock.now(), 0);
    }

    #[test]
    fn both_orec_tables_share_one_geometry() {
        for sys in [
            TmSystem::new(8),
            TmSystem::with_orecs(8, 2, 1),
            TmSystem::with_orecs(8, 1 << 10, 8),
        ] {
            assert_eq!(sys.orecs.len(), sys.read_vers.len());
            // Consecutive words (stripe boundaries) and far-apart ones.
            for a in (0..4096).chain((0..1024).map(|i| i * 7919 + (1 << 20))) {
                let a = crate::Addr(a);
                assert_eq!(sys.orecs.index_for(a), sys.read_vers.index_for(a));
            }
        }
    }

    #[test]
    fn system_is_send_sync() {
        fn assert_ss<T: Send + Sync>() {}
        assert_ss::<TmSystem>();
    }
}
