//! The transaction driver: runs an atomic block until it commits.

use crate::abort::{Abort, AbortCode, TxResult};
use crate::backend::TmBackend;
use crate::heap::Addr;
use crate::stats::LocalStats;
use crate::system::ThreadCtx;
use crate::util::backoff;

/// Pre-registered `tx.commit.<backend>` / `tx.abort.<backend>.<cause>`
/// counter handles for one backend.
///
/// Resolved once per (thread, backend) and cached in [`ThreadCtx`], so the
/// traced per-transaction path updates counters with single relaxed RMWs —
/// no name formatting and no metrics-registry lock, which would otherwise
/// serialize every TM worker thread on the hottest path and distort the
/// very KPIs a trace is meant to measure. The registry zeroes but never
/// drops registrations ([`obs::metrics`]), so the cached `&'static`
/// handles stay valid across traces.
#[derive(Debug, Clone, Copy)]
pub(crate) struct TxCounters {
    backend: &'static str,
    commit: &'static obs::Counter,
    commit_fallback: &'static obs::Counter,
    aborts: [&'static obs::Counter; AbortCode::ALL.len()],
    /// Ladders that ran out of budget (the caller's serial-escape signal).
    ladder_exhausted: &'static obs::Counter,
    /// Ops retired by committed attempts (`tx.work.<backend>.ops`).
    work_ops: &'static obs::Counter,
    /// Ops discarded by rolled-back attempts (`tx.wasted.<backend>.ops`).
    wasted_ops: &'static obs::Counter,
}

impl TxCounters {
    /// Register (or look up) the handles for `backend`. The only place on
    /// the transaction path that formats names or locks the registry.
    #[cold]
    fn register(backend: &'static str) -> Self {
        TxCounters {
            backend,
            commit: obs::counter(&format!("tx.commit.{backend}")),
            commit_fallback: obs::counter(&format!("tx.commit.{backend}.fallback")),
            aborts: AbortCode::ALL
                .map(|code| obs::counter(&format!("tx.abort.{backend}.{}", code.slug()))),
            ladder_exhausted: obs::counter(&format!("tx.ladder.{backend}.exhausted")),
            work_ops: obs::counter(&format!("tx.work.{backend}.ops")),
            wasted_ops: obs::counter(&format!("tx.wasted.{backend}.ops")),
        }
    }
}

/// The cached counter handles for `backend`, registering on first use (and
/// after this thread migrates to a different backend, e.g. across a PolyTM
/// config switch — rare by construction).
#[inline]
fn counters(ctx: &mut ThreadCtx, backend: &dyn TmBackend) -> TxCounters {
    let name = backend.name();
    match ctx.tx_counters {
        Some(c) if c.backend == name => c,
        _ => {
            let c = TxCounters::register(name);
            ctx.tx_counters = Some(c);
            c
        }
    }
}

/// Attempts after which the driver assumes a livelock caused by a backend
/// bug and panics instead of spinning forever. Real workloads stay many
/// orders of magnitude below this.
const LIVELOCK_LIMIT: u32 = 50_000_000;

/// Handle through which an atomic block performs its memory accesses.
///
/// Obtained from [`run_tx`]; mirrors the instrumented loads/stores the GCC
/// TM ABI would emit for the block's body.
pub struct Tx<'a> {
    backend: &'a dyn TmBackend,
    ctx: &'a mut ThreadCtx,
}

impl Tx<'_> {
    /// Transactionally read the word at `addr`.
    ///
    /// # Errors
    ///
    /// Returns an [`Abort`] that must be propagated (with `?`) so the driver
    /// can retry the block.
    #[inline]
    pub fn read(&mut self, addr: Addr) -> TxResult<u64> {
        // Wasted-work ledger: count the op as *issued* (even if it aborts,
        // the attempt executed it before rolling back). A plain add on an
        // already-hot struct — the fast path's whole ledger cost.
        self.ctx.ops_reads += 1;
        self.backend.read(self.ctx, addr)
    }

    /// Transactionally write `val` to `addr`.
    ///
    /// # Errors
    ///
    /// Returns an [`Abort`] that must be propagated (with `?`).
    #[inline]
    pub fn write(&mut self, addr: Addr, val: u64) -> TxResult<()> {
        self.ctx.ops_writes += 1;
        self.backend.write(self.ctx, addr, val)
    }

    /// Request an explicit abort-and-retry of the block (TM `retry`).
    ///
    /// # Errors
    ///
    /// Always returns [`Abort::EXPLICIT`]; propagate it with `?`.
    #[inline]
    pub fn retry<T>(&mut self) -> TxResult<T> {
        Err(Abort::EXPLICIT)
    }

    /// Which attempt of this block is running (0 on the first try).
    #[inline]
    pub fn attempt(&self) -> u32 {
        self.ctx.attempt
    }
}

/// Execute `f` as an atomic transaction on `backend`, retrying until it
/// commits, and return the block's result.
///
/// The closure may run many times; it must confine its side effects to
/// transactional reads/writes through [`Tx`] (the classic TM restriction on
/// side effects, which the paper also leaves to the programmer).
///
/// # Panics
///
/// Panics if the block fails to commit after an implausibly large number of
/// attempts (indicating a backend livelock bug).
pub fn run_tx<T>(
    backend: &dyn TmBackend,
    ctx: &mut ThreadCtx,
    mut f: impl FnMut(&mut Tx<'_>) -> TxResult<T>,
) -> T {
    match try_run_tx(backend, ctx, LIVELOCK_LIMIT, &mut f) {
        Some(value) => value,
        None => panic!("transaction livelock on backend {}", backend.name()),
    }
}

/// Like [`run_tx`], but give up after `budget` failed attempts instead of
/// retrying forever.
///
/// Returns `None` when the block did not commit within `budget` attempts;
/// the transaction is rolled back, so the heap is untouched and the caller
/// may re-run the block under a different regime (PolyTM uses this to
/// escape to serial-irrevocable execution when a block starves). A budget
/// of `0` fails without running the closure at all.
pub fn try_run_tx<T>(
    backend: &dyn TmBackend,
    ctx: &mut ThreadCtx,
    budget: u32,
    mut f: impl FnMut(&mut Tx<'_>) -> TxResult<T>,
) -> Option<T> {
    ctx.attempt = 0;
    // One telemetry check per transaction, not one per event: all shared
    // counters are folded at resolution anyway, so a trace cannot observe a
    // half-recorded ladder either way. The serial drivers only start/stop
    // traces between transactions, which keeps trace bytes identical.
    let telemetry = obs::enabled();
    // First attempt, specialized: a first-try commit — the overwhelming
    // majority of transactions — resolves with one single-writer counter
    // increment (a load and a store) and never touches the ladder
    // accumulator, so the hot path neither zeroes
    // a `LocalStats` nor runs the loop's budget bookkeeping. Everything
    // else falls through to the out-of-line retry ladder with its first
    // abort pre-recorded; the backoff draw below keeps the rng sequence
    // identical to a ladder that ran the first attempt itself.
    let first_abort = if budget > 0 {
        match attempt_once(backend, ctx, &mut f) {
            Ok((value, via_fallback)) => {
                ctx.stats.record_commit(via_fallback);
                ctx.credit_committed_ops();
                if telemetry {
                    let c = counters(ctx, backend);
                    c.commit.inc();
                    if via_fallback {
                        c.commit_fallback.inc();
                    }
                    let ops = ctx.ops_reads + ctx.ops_writes;
                    if ops > 0 {
                        c.work_ops.add(ops);
                    }
                }
                return Some(value);
            }
            Err(a) => {
                ctx.attempt = 1;
                backoff(&mut ctx.rng, 1);
                Some(a)
            }
        }
    } else {
        None
    };
    retry_ladder(backend, ctx, budget, first_abort, telemetry, &mut f)
}

/// One full transaction attempt: begin, body, commit — rolling back on a
/// body or commit abort (a failed `begin` has nothing to roll back, as in
/// the ladder). Returns the committed value and whether the commit ran
/// under the HTM fallback lock.
#[inline(always)]
fn attempt_once<T>(
    backend: &dyn TmBackend,
    ctx: &mut ThreadCtx,
    f: &mut impl FnMut(&mut Tx<'_>) -> TxResult<T>,
) -> TxResult<(T, bool)> {
    ctx.ops_reads = 0;
    ctx.ops_writes = 0;
    backend.begin(ctx)?;
    let result = {
        let mut tx = Tx { backend, ctx };
        f(&mut tx)
    };
    match result {
        Ok(value) => {
            let via_fallback = ctx.in_fallback;
            match backend.commit(ctx) {
                Ok(()) => Ok((value, via_fallback)),
                Err(a) => {
                    backend.rollback(ctx);
                    Err(a)
                }
            }
        }
        Err(a) => {
            backend.rollback(ctx);
            Err(a)
        }
    }
}

/// The retry ladder behind [`try_run_tx`]'s first-attempt fast path:
/// entered only after a first-attempt abort (with that abort in
/// `first_abort`) or with a zero budget. Cold so its register and stack
/// traffic never burdens the one-shot commit path.
#[cold]
fn retry_ladder<T>(
    backend: &dyn TmBackend,
    ctx: &mut ThreadCtx,
    budget: u32,
    first_abort: Option<crate::Abort>,
    telemetry: bool,
    f: &mut impl FnMut(&mut Tx<'_>) -> TxResult<T>,
) -> Option<T> {
    // The whole retry ladder accumulates into these plain stack cells —
    // zero shared-memory traffic per attempt — and folds into the shared
    // `ThreadStats` / metrics registry exactly once, below the loop.
    let mut local = LocalStats::default();
    if let Some(a) = first_abort {
        // The fast path's aborted first attempt: its issued ops are still
        // in `ctx.ops_*` (nothing resets them between the abort and here).
        local.record_abort(a.code());
        local.record_wasted(ctx.ops_reads, ctx.ops_writes);
    }
    let outcome = loop {
        if ctx.attempt >= budget {
            break None;
        }
        ctx.ops_reads = 0;
        ctx.ops_writes = 0;
        if let Err(a) = backend.begin(ctx) {
            local.record_abort(a.code());
            ctx.attempt += 1;
            backoff(&mut ctx.rng, ctx.attempt);
            continue;
        }
        let result = {
            let mut tx = Tx { backend, ctx };
            f(&mut tx)
        };
        match result {
            Ok(value) => {
                let via_fallback = ctx.in_fallback;
                match backend.commit(ctx) {
                    Ok(()) => {
                        local.record_commit(via_fallback);
                        local.record_committed(ctx.ops_reads, ctx.ops_writes);
                        break Some(value);
                    }
                    Err(a) => {
                        backend.rollback(ctx);
                        local.record_abort(a.code());
                        local.record_wasted(ctx.ops_reads, ctx.ops_writes);
                    }
                }
            }
            Err(a) => {
                backend.rollback(ctx);
                local.record_abort(a.code());
                local.record_wasted(ctx.ops_reads, ctx.ops_writes);
            }
        }
        ctx.attempt += 1;
        backoff(&mut ctx.rng, ctx.attempt);
    };
    // Resolution: fold the ladder into shared state. The fast path (first-
    // try commit, no trace) pays one single-writer increment here on top
    // of the backend's own work; only retried ladders walk the full fold.
    if ctx.attempt == 0 && outcome.is_some() {
        ctx.stats.record_commit(local.fallback_commits > 0);
    } else {
        ctx.stats.fold(&local);
    }
    // Ladder resolution is a window boundary for the conflict observatory:
    // flush the pending fast-path ledger, so shared state is exact after
    // every retried transaction.
    ctx.flush_work();
    if telemetry {
        let c = counters(ctx, backend);
        for (n, counter) in local.aborts.iter().zip(c.aborts) {
            if *n > 0 {
                counter.add(*n);
            }
        }
        let wasted = local.wasted_reads + local.wasted_writes;
        if wasted > 0 {
            c.wasted_ops.add(wasted);
        }
        let committed = local.committed_reads + local.committed_writes;
        if committed > 0 {
            c.work_ops.add(committed);
        }
        if outcome.is_some() {
            c.commit.inc();
            if local.fallback_commits > 0 {
                c.commit_fallback.inc();
            }
        } else {
            c.ladder_exhausted.inc();
        }
    }
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::abort::AbortCode;
    use crate::backend::BackendKind;
    use crate::system::TmSystem;
    use std::sync::Arc;

    /// A trivially-correct single-lock "TM" used to test the driver itself.
    struct GlobalLockTm {
        sys: Arc<TmSystem>,
        lock: std::sync::atomic::AtomicBool,
        /// Telemetry counters are process-wide and keyed by this name.
        name: &'static str,
    }

    impl GlobalLockTm {
        fn new(sys: Arc<TmSystem>) -> Self {
            Self::named(sys, "test-global-lock")
        }

        fn named(sys: Arc<TmSystem>, name: &'static str) -> Self {
            GlobalLockTm {
                sys,
                lock: std::sync::atomic::AtomicBool::new(false),
                name,
            }
        }
    }

    impl TmBackend for GlobalLockTm {
        fn name(&self) -> &'static str {
            self.name
        }
        fn kind(&self) -> BackendKind {
            BackendKind::Stm
        }
        fn begin(&self, ctx: &mut ThreadCtx) -> TxResult<()> {
            ctx.reset_logs();
            while self
                .lock
                .compare_exchange(
                    false,
                    true,
                    std::sync::atomic::Ordering::AcqRel,
                    std::sync::atomic::Ordering::Acquire,
                )
                .is_err()
            {
                std::hint::spin_loop();
            }
            Ok(())
        }
        fn read(&self, _ctx: &mut ThreadCtx, addr: Addr) -> TxResult<u64> {
            Ok(self.sys.heap.read_raw(addr))
        }
        fn write(&self, _ctx: &mut ThreadCtx, addr: Addr, val: u64) -> TxResult<()> {
            self.sys.heap.write_raw(addr, val);
            Ok(())
        }
        fn commit(&self, _ctx: &mut ThreadCtx) -> TxResult<()> {
            self.lock.store(false, std::sync::atomic::Ordering::Release);
            Ok(())
        }
        fn rollback(&self, ctx: &mut ThreadCtx) {
            ctx.reset_logs();
            self.lock.store(false, std::sync::atomic::Ordering::Release);
        }
    }

    #[test]
    fn committed_value_is_returned_and_counted() {
        let sys = Arc::new(TmSystem::new(16));
        let tm = GlobalLockTm::new(Arc::clone(&sys));
        let a = sys.heap.alloc(1);
        let mut ctx = ThreadCtx::new(0);
        let out = run_tx(&tm, &mut ctx, |tx| {
            let v = tx.read(a)?;
            tx.write(a, v + 5)?;
            tx.read(a)
        });
        assert_eq!(out, 5);
        assert_eq!(ctx.stats.snapshot().commits, 1);
    }

    /// The cached-handle path must produce the same counter names and
    /// values the old per-transaction `format!` lookup did.
    ///
    /// The capture turns telemetry on process-wide, so this test's backend
    /// has a name no other test commits on: a sibling's commits would land
    /// in the counters asserted exactly below.
    #[test]
    fn telemetry_counters_track_commits_and_aborts() {
        let sys = Arc::new(TmSystem::new(16));
        let tm = GlobalLockTm::named(Arc::clone(&sys), "test-telemetry");
        let mut ctx = ThreadCtx::new(0);
        // Assert inside the capture: it holds the process-wide capture
        // lock, so no concurrent test can reset the registry under us.
        obs::capture_trace(|| {
            run_tx(&tm, &mut ctx, |tx| {
                if tx.attempt() < 2 {
                    return tx.retry();
                }
                Ok(())
            });
            assert_eq!(obs::counter("tx.commit.test-telemetry").get(), 1);
            assert_eq!(obs::counter("tx.abort.test-telemetry.explicit").get(), 2);
            assert_eq!(obs::counter("tx.abort.test-telemetry.conflict").get(), 0);
        });
    }

    #[test]
    fn budget_exhaustion_returns_none_and_rolls_back() {
        let sys = Arc::new(TmSystem::new(16));
        let tm = GlobalLockTm::new(Arc::clone(&sys));
        let a = sys.heap.alloc(1);
        let mut ctx = ThreadCtx::new(0);
        let out: Option<()> = try_run_tx(&tm, &mut ctx, 4, |tx| {
            tx.write(a, 99)?;
            tx.retry()
        });
        assert!(out.is_none());
        assert_eq!(ctx.stats.snapshot().aborts_of(AbortCode::Explicit), 4);
        // A zero budget never even runs the closure.
        let mut ran = false;
        let out: Option<()> = try_run_tx(&tm, &mut ctx, 0, |_tx| {
            ran = true;
            Ok(())
        });
        assert!(out.is_none());
        assert!(!ran);
    }

    #[test]
    fn budget_allows_commit_on_last_attempt() {
        let sys = Arc::new(TmSystem::new(16));
        let tm = GlobalLockTm::new(Arc::clone(&sys));
        let mut ctx = ThreadCtx::new(0);
        let out = try_run_tx(&tm, &mut ctx, 4, |tx| {
            if tx.attempt() < 3 {
                return tx.retry();
            }
            Ok(tx.attempt())
        });
        assert_eq!(out, Some(3));
    }

    #[test]
    fn work_ledger_splits_committed_and_wasted_ops() {
        let sys = Arc::new(TmSystem::new(16));
        let tm = GlobalLockTm::new(Arc::clone(&sys));
        let a = sys.heap.alloc(1);
        let mut ctx = ThreadCtx::new(0);
        // Two aborted attempts of 2 ops each, then a committing attempt
        // of 2 ops: 4 wasted, 2 committed.
        run_tx(&tm, &mut ctx, |tx| {
            let v = tx.read(a)?;
            tx.write(a, v + 1)?;
            if tx.attempt() < 2 {
                return tx.retry();
            }
            Ok(())
        });
        // First-try commits land in the pending ledger until flushed.
        for _ in 0..3 {
            run_tx(&tm, &mut ctx, |tx| tx.write(a, 7));
        }
        ctx.flush_work();
        let snap = ctx.stats.snapshot();
        assert_eq!(snap.wasted_reads, 2);
        assert_eq!(snap.wasted_writes, 2);
        assert_eq!(snap.committed_reads, 1);
        assert_eq!(snap.committed_writes, 1 + 3);
        assert_eq!(snap.total_ops(), 9);
    }

    #[test]
    fn pending_ledger_flushes_on_cadence() {
        let sys = Arc::new(TmSystem::new(16));
        let tm = GlobalLockTm::new(Arc::clone(&sys));
        let a = sys.heap.alloc(1);
        let mut ctx = ThreadCtx::new(0);
        for _ in 0..crate::system::WORK_FLUSH_EVERY {
            run_tx(&tm, &mut ctx, |tx| tx.write(a, 1));
        }
        // No explicit flush: the cadence alone must have folded the ops.
        assert_eq!(
            ctx.stats.snapshot().committed_writes,
            u64::from(crate::system::WORK_FLUSH_EVERY)
        );
    }

    #[test]
    fn explicit_abort_retries_block() {
        let sys = Arc::new(TmSystem::new(16));
        let tm = GlobalLockTm::new(Arc::clone(&sys));
        let mut ctx = ThreadCtx::new(0);
        let mut tries = 0;
        let out = run_tx(&tm, &mut ctx, |tx| {
            tries += 1;
            if tx.attempt() < 3 {
                return tx.retry();
            }
            Ok(tx.attempt())
        });
        assert_eq!(out, 3);
        assert_eq!(tries, 4);
        let snap = ctx.stats.snapshot();
        assert_eq!(snap.commits, 1);
        assert_eq!(snap.aborts_of(AbortCode::Explicit), 3);
    }
}
