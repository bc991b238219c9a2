//! The PolyTM runtime: backend registry, safe mode switching, parallelism
//! adaptation and per-thread statistics behind one transactional interface.

use crate::config::{BackendId, ConfigCell, TmConfig};
use crate::gate::ThreadGate;
use htm::{HtmSim, HybridNOrec, HybridTl2};
use std::error::Error;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};
use stm::{Durable, NOrec, SwissTm, TinyStm, Tl2};
use txcore::{
    run_tx, try_run_tx, PHeap, StatsSnapshot, ThreadCtx, ThreadStats, TmBackend, TmSystem, Tx,
    TxResult,
};

/// A configuration-switch request that PolyTM cannot honour.
///
/// Returned (never panicked) from both switching entry points —
/// [`PolyTm::apply`] and [`PolyTmBuilder::try_build`] — so callers on the
/// adaptation path can recover instead of unwinding mid-run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SwitchError {
    /// The requested parallelism degree exceeds the registered capacity.
    TooManyThreads {
        /// Requested degree.
        requested: usize,
        /// Maximum threads this runtime was built for.
        max: usize,
    },
    /// A parallelism degree of zero is not a runnable configuration.
    ZeroThreads,
    /// Backend and durability mode disagree: the Durable backend requires a
    /// journaling mode (Buffered/Strict), every other backend requires
    /// Volatile. See [`TmConfig::durability_coherent`].
    IncoherentDurability,
    /// The persistent heap is in its crashed state: the durable redo log
    /// cannot be drained, so the switch was abandoned before the backend
    /// pointer moved. Recover the heap first.
    DurableCrashed,
    /// The quiescence drain exceeded the watchdog budget
    /// ([`PolyTmBuilder::drain_timeout`]): some thread held its RUN bit past
    /// the deadline. The half-applied switch was rolled back — every thread
    /// disabled by this attempt was re-enabled and the backend pointer was
    /// never swapped, so the runtime is exactly as before the call.
    QuiesceTimeout {
        /// The thread slot that failed to drain.
        thread: usize,
    },
}

impl fmt::Display for SwitchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SwitchError::TooManyThreads { requested, max } => {
                write!(
                    f,
                    "requested {requested} threads but runtime supports {max}"
                )
            }
            SwitchError::ZeroThreads => f.write_str("parallelism degree must be positive"),
            SwitchError::IncoherentDurability => f.write_str(
                "durability mode and backend disagree (Durable needs Buffered/Strict, others Volatile)",
            ),
            SwitchError::DurableCrashed => {
                f.write_str("persistent heap has crashed; recover it before switching")
            }
            SwitchError::QuiesceTimeout { thread } => {
                write!(f, "thread {thread} did not drain within the quiescence watchdog budget; switch rolled back")
            }
        }
    }
}

impl Error for SwitchError {}

/// Take `m`, recovering from poison. PolyTM's one mutex, `reconfig`,
/// guards `()`, which a holder's panic cannot leave half-written, so
/// poison carries no information.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A registered application thread's handle into PolyTM.
///
/// Obtained from [`PolyTm::register_thread`]; owns the thread's transaction
/// context. One `Worker` per OS thread.
pub struct Worker {
    slot: usize,
    ctx: ThreadCtx,
}

impl Worker {
    /// The thread slot this worker occupies.
    pub fn slot(&self) -> usize {
        self.slot
    }

    /// This worker's cumulative statistics.
    pub fn stats(&self) -> StatsSnapshot {
        self.ctx.stats.snapshot()
    }
}

impl fmt::Debug for Worker {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Worker").field("slot", &self.slot).finish()
    }
}

/// Builder for [`PolyTm`] (heap size, thread capacity, initial
/// configuration, watchdog and retry budgets).
#[derive(Debug)]
pub struct PolyTmBuilder {
    heap_words: usize,
    max_threads: usize,
    initial: Option<TmConfig>,
    drain_timeout: Duration,
    tx_retry_budget: u32,
}

impl PolyTmBuilder {
    /// Size of the transactional heap in 64-bit words.
    pub fn heap_words(mut self, words: usize) -> Self {
        self.heap_words = words;
        self
    }

    /// Maximum number of registered application threads.
    pub fn max_threads(mut self, n: usize) -> Self {
        self.max_threads = n;
        self
    }

    /// Initial TM configuration (defaults to TL2 with all threads enabled).
    pub fn initial_config(mut self, config: TmConfig) -> Self {
        self.initial = Some(config);
        self
    }

    /// Quiescence watchdog budget: how long [`PolyTm::apply`] waits for any
    /// single thread to drain its in-flight transaction before rolling the
    /// switch back with [`SwitchError::QuiesceTimeout`]. Defaults to 1 s —
    /// far beyond any healthy transaction, tight enough to unwedge a run.
    pub fn drain_timeout(mut self, timeout: Duration) -> Self {
        self.drain_timeout = timeout;
        self
    }

    /// Per-transaction optimistic retry budget before [`PolyTm::run_tx`]
    /// escapes to serial-irrevocable execution (defaults to 65 536
    /// attempts). Real workloads commit within tens of attempts; the escape
    /// hatch bounds the latency of a pathologically starved block instead
    /// of letting it spin toward the driver's livelock panic.
    pub fn tx_retry_budget(mut self, budget: u32) -> Self {
        self.tx_retry_budget = budget.max(1);
        self
    }

    /// Construct the runtime.
    ///
    /// # Panics
    ///
    /// Panics if the initial configuration is invalid for the built
    /// capacity; use [`PolyTmBuilder::try_build`] to handle that case.
    pub fn build(self) -> PolyTm {
        self.try_build().expect("invalid initial configuration")
    }

    /// Construct the runtime, rejecting an invalid initial configuration
    /// instead of panicking.
    ///
    /// # Errors
    ///
    /// Returns the [`SwitchError`] the initial configuration would trigger
    /// (zero threads, or more threads than `max_threads`).
    pub fn try_build(self) -> Result<PolyTm, SwitchError> {
        let initial = self
            .initial
            .unwrap_or(TmConfig::stm(BackendId::Tl2, self.max_threads));
        let sys = Arc::new(TmSystem::new(self.heap_words));
        let htm = Arc::new(HtmSim::new(Arc::clone(&sys)));
        let hybrid = Arc::new(HybridNOrec::new(Arc::clone(&sys)));
        let hybrid_tl2 = Arc::new(HybridTl2::new(Arc::clone(&sys)));
        let durable = Arc::new(Durable::with_new_pheap(Arc::clone(&sys)));
        let backends: [Arc<dyn TmBackend>; 8] = [
            Arc::new(Tl2::new(Arc::clone(&sys))),
            Arc::new(TinyStm::new(Arc::clone(&sys))),
            Arc::new(NOrec::new(Arc::clone(&sys))),
            Arc::new(SwissTm::new(Arc::clone(&sys))),
            Arc::clone(&htm) as Arc<dyn TmBackend>,
            Arc::clone(&hybrid) as Arc<dyn TmBackend>,
            Arc::clone(&hybrid_tl2) as Arc<dyn TmBackend>,
            Arc::clone(&durable) as Arc<dyn TmBackend>,
        ];
        let stats = (0..self.max_threads)
            .map(|_| Arc::new(ThreadStats::new()))
            .collect();
        let poly = PolyTm {
            sys,
            backends,
            htm,
            hybrid,
            hybrid_tl2,
            durable,
            current: AtomicUsize::new(initial.backend.index()),
            gate: ThreadGate::new(self.max_threads),
            max_threads: self.max_threads,
            parallelism: AtomicUsize::new(self.max_threads),
            pinned: (0..self.max_threads)
                .map(|_| AtomicBool::new(false))
                .collect(),
            stats,
            reconfig: Mutex::new(()),
            config: ConfigCell::new(initial),
            epochs: AtomicU64::new(0),
            drain_timeout: self.drain_timeout,
            tx_budget: self.tx_retry_budget,
            serial_escapes: AtomicU64::new(0),
        };
        poly.apply(&initial)?;
        Ok(poly)
    }
}

/// The polymorphic TM runtime (see the crate docs).
pub struct PolyTm {
    sys: Arc<TmSystem>,
    backends: [Arc<dyn TmBackend>; 8],
    htm: Arc<HtmSim>,
    hybrid: Arc<HybridNOrec>,
    hybrid_tl2: Arc<HybridTl2>,
    durable: Arc<Durable>,
    current: AtomicUsize,
    gate: ThreadGate,
    max_threads: usize,
    parallelism: AtomicUsize,
    pinned: Vec<AtomicBool>,
    stats: Vec<Arc<ThreadStats>>,
    /// Serializes adapters; application threads never take it, except a
    /// worker escaping to serial-irrevocable mode (which holds no RUN bit
    /// while waiting, so it cannot deadlock against a draining adapter).
    reconfig: Mutex<()>,
    /// The active configuration, readable lock-free by monitor paths
    /// (seqlock); written only under `reconfig`.
    config: ConfigCell,
    /// Quiescence epochs started (one per attempted switch); written under `reconfig`.
    epochs: AtomicU64,
    /// Watchdog budget for draining one thread during quiescence.
    drain_timeout: Duration,
    /// Optimistic attempts per transaction before the serial escape.
    tx_budget: u32,
    /// Transactions that fell back to serial-irrevocable execution.
    serial_escapes: AtomicU64,
}

impl PolyTm {
    /// Start building a runtime.
    pub fn builder() -> PolyTmBuilder {
        PolyTmBuilder {
            heap_words: 1 << 20,
            max_threads: 8,
            initial: None,
            drain_timeout: Duration::from_secs(1),
            tx_retry_budget: 1 << 16,
        }
    }

    /// The shared TM system (heap + metadata).
    pub fn system(&self) -> &Arc<TmSystem> {
        &self.sys
    }

    /// Maximum registered threads.
    pub fn max_threads(&self) -> usize {
        self.max_threads
    }

    /// The current configuration.
    ///
    /// Lock-free: served from an atomic snapshot, so monitor threads never
    /// block behind an in-progress switch (which holds the reconfiguration
    /// lock for the whole quiescence protocol).
    pub fn current_config(&self) -> TmConfig {
        self.config.load()
    }

    /// Register the calling OS thread into `slot`.
    ///
    /// Each slot must be used by exactly one thread at a time. The gate and
    /// the statistics rely on it: the slot's run word and its
    /// [`ThreadStats`] are written with plain stores by that thread alone,
    /// so two threads sharing a slot would lose updates (debug builds
    /// catch a doubly entered gate slot).
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of range.
    pub fn register_thread(&self, slot: usize) -> Worker {
        assert!(slot < self.max_threads, "thread slot {slot} out of range");
        let mut ctx = ThreadCtx::new(slot);
        ctx.stats = Arc::clone(&self.stats[slot]);
        Worker { slot, ctx }
    }

    /// Execute an atomic block on the currently selected backend, honouring
    /// the thread gate (the worker blocks while its slot is disabled).
    ///
    /// A block that fails to commit within the optimistic retry budget
    /// ([`PolyTmBuilder::tx_retry_budget`]) escapes to serial-irrevocable
    /// execution: the worker leaves the gate, excludes adapters, drains
    /// every other thread and runs the block alone, so it commits without
    /// interference and overall progress is guaranteed.
    pub fn run_tx<T>(
        &self,
        worker: &mut Worker,
        mut f: impl FnMut(&mut Tx<'_>) -> TxResult<T>,
    ) -> T {
        self.gate.enter(worker.slot);
        // Safe: the quiescence protocol guarantees the backend cannot change
        // while any thread holds its RUN bit.
        let backend = &self.backends[self.current.load(Ordering::Acquire)];
        let out = try_run_tx(backend.as_ref(), &mut worker.ctx, self.tx_budget, &mut f);
        self.gate.exit(worker.slot);
        match out {
            Some(value) => value,
            None => self.run_serial(worker, f),
        }
    }

    /// The serial-irrevocable escape hatch: run `f` with every other thread
    /// drained and adapters excluded. Called (rarely) by [`PolyTm::run_tx`]
    /// after the optimistic budget is exhausted.
    #[cold]
    fn run_serial<T>(&self, worker: &mut Worker, f: impl FnMut(&mut Tx<'_>) -> TxResult<T>) -> T {
        // The worker holds no RUN bit here, so an adapter mid-drain cannot
        // deadlock against us: it finishes its switch, then we take the
        // lock. Holding `reconfig` excludes further switches for the whole
        // serial window.
        let _adapter = lock(&self.reconfig);
        self.serial_escapes.fetch_add(1, Ordering::Relaxed);
        if obs::enabled() {
            obs::counter("polytm.serial_escapes").inc();
        }
        let mut drained = Vec::new();
        for t in 0..self.max_threads {
            if t != worker.slot && !self.gate.is_disabled(t) {
                // Unbounded disable is safe: every RUN holder is inside a
                // finite transaction attempt, and blocked escapees wait on
                // `reconfig` RUN-free.
                self.gate.disable(t);
                drained.push(t);
            }
        }
        // Run on the current backend even if our own slot was disabled by a
        // parallelism shrink meanwhile: the block already consumed its
        // budget, and delaying an irrevocable block behind a gate the
        // adapter may not reopen soon would trade starvation for stalling.
        let backend = &self.backends[self.current.load(Ordering::Acquire)];
        let out = run_tx(backend.as_ref(), &mut worker.ctx, f);
        for &t in &drained {
            self.gate.enable(t);
        }
        out
    }

    /// Transactions that took the serial-irrevocable escape hatch.
    pub fn serial_escapes(&self) -> u64 {
        self.serial_escapes.load(Ordering::Relaxed)
    }

    /// Forbid PolyTM from *permanently* disabling thread `slot` when tuning
    /// the parallelism degree (paper §4.2: e.g. a server's accept thread).
    /// The thread may still be disabled briefly while switching algorithms.
    ///
    /// Takes the reconfiguration lock, like every other path that unblocks
    /// a slot: a pin that lands mid-switch waits for the switch to finish
    /// instead of letting its thread in on the old backend.
    pub fn pin_thread(&self, slot: usize) {
        let _adapter = lock(&self.reconfig);
        self.pinned[slot].store(true, Ordering::Release);
        if self.gate.is_disabled(slot) {
            self.gate.enable(slot);
        }
    }

    /// Apply a full configuration. Callers time it: only a trace or a drain
    /// that has to wait reads the clock.
    ///
    /// The calling thread is the paper's adapter thread (§4); concurrent
    /// callers serialise on the reconfiguration lock. Only a change of
    /// backend or durability mode quiesces: a new parallelism degree goes
    /// through the gate, and a new [`HtmSetting`](crate::HtmSetting) on
    /// the same backend retunes contention management lock-free (§4.3).
    ///
    /// # Errors
    ///
    /// Fails without any effect if the configuration requests more threads
    /// than the runtime capacity, or zero threads. Fails *rolled back* (the
    /// runtime stays on the previous configuration, fully usable) with
    /// [`SwitchError::QuiesceTimeout`] if a thread does not drain within
    /// the watchdog budget, or [`SwitchError::DurableCrashed`] if the
    /// persistent heap dies while the redo log is drained.
    pub fn apply(&self, config: &TmConfig) -> Result<(), SwitchError> {
        if config.threads == 0 {
            return Err(SwitchError::ZeroThreads);
        }
        if config.threads > self.max_threads {
            return Err(SwitchError::TooManyThreads {
                requested: config.threads,
                max: self.max_threads,
            });
        }
        if !config.durability_coherent() {
            return Err(SwitchError::IncoherentDurability);
        }
        let _adapter = lock(&self.reconfig);
        let from = self.config.load();
        let started = obs::enabled().then(Instant::now);
        let elapsed_ns = || started.map_or(0, |s| s.elapsed().as_nanos() as u64);
        // A durability-mode change (Buffered ⇄ Strict included) takes the
        // full quiescence fence even when the backend pointer is unchanged:
        // the redo log is drained with no commit in flight, so no
        // committed-but-unsynced tail straddles the transition.
        let durability_change = from.durability != config.durability;
        let switch_algo =
            self.current.load(Ordering::Acquire) != config.backend.index() || durability_change;
        // Spans on this path may be wall-clock `timed` because the whole
        // switch protocol runs serially under `reconfig` (the same carve-out
        // that lets `config.switch` carry `latency_ns` — DESIGN.md §7,
        // rule 3); the deterministic fig4/fig5 traces never reach it.
        let _switch_span = obs::timed_span!(
            "switch",
            "from" => from.to_string(),
            "to" => config.to_string(),
            "quiesced" => switch_algo,
        );
        let resume = if switch_algo {
            let epoch = {
                let _prepare = obs::span!("quiesce.prepare");
                let epoch = self.epochs.load(Ordering::Relaxed);
                self.epochs.store(epoch + 1, Ordering::Relaxed);
                obs::event!(
                    "quiesce.start",
                    "epoch" => epoch,
                    "from" => from.backend.label(),
                    "to" => config.backend.label(),
                );
                epoch
            };
            // Quiesce *every* thread (pinned ones included — brief by
            // design), swap the function-pointer table, resume. All block
            // bits are set first and only then drained against one shared
            // deadline, taken at the first poll that finds a thread running,
            // so the total wait is the *slowest* in-flight transaction, not
            // the sum over threads. On timeout every thread blocked by this
            // pass is unblocked and the switch is abandoned before the
            // backend pointer moves, so no thread can ever run on a
            // half-switched runtime.
            let mut blocked = Vec::new();
            {
                let _drain = obs::timed_span!("quiesce.drain", "epoch" => epoch);
                for t in 0..self.max_threads {
                    if !self.gate.is_disabled(t) {
                        self.gate.block(t);
                        blocked.push(t);
                    }
                }
                let (timeout, mut deadline) = (self.drain_timeout, None);
                for &t in &blocked {
                    if !self.gate.await_drained_within(t, timeout, &mut deadline) {
                        for &u in &blocked {
                            self.gate.unblock(u);
                        }
                        if obs::enabled() {
                            obs::counter("polytm.quiesce_rollbacks").inc();
                            obs::event!(
                                "recovery.quiesce_rollback",
                                "epoch" => epoch,
                                "thread" => t,
                                "waited_ns" => elapsed_ns(),
                            );
                        }
                        return Err(SwitchError::QuiesceTimeout { thread: t });
                    }
                }
            }
            // Every thread is drained: fold the durable redo log into the
            // persisted image before anything else moves, so a commit
            // acknowledged under the old durability regime cannot be lost
            // by the new one. On a crashed persistent heap the switch is
            // abandoned here — unblock and report, nothing has changed.
            if durability_change && from.durability.is_durable() {
                let (log, _) = self.durable.pheap().log_snapshot();
                if self.durable.drain().is_err() {
                    for &u in &blocked {
                        self.gate.unblock(u);
                    }
                    return Err(SwitchError::DurableCrashed);
                }
                if obs::enabled() && !log.is_empty() {
                    obs::event!(
                        "durable.drain",
                        "epoch" => epoch,
                        "log_words" => log.len() as u64,
                    );
                }
            }
            if config.backend == BackendId::Durable {
                self.durable.set_mode(config.durability);
            }
            {
                let _swap = obs::span!("quiesce.switch", "epoch" => epoch);
                self.current
                    .store(config.backend.index(), Ordering::Release);
                // Advance the gate's quiescence epoch while every thread is
                // still blocked: a slot that later publishes the new epoch
                // is guaranteed to be running on the new backend.
                self.gate.advance_epoch();
            }
            obs::event!(
                "quiesce.end",
                "epoch" => epoch,
                "duration_ns" => elapsed_ns(),
            );
            obs::timed_span!("quiesce.resume", "epoch" => epoch)
        } else {
            obs::Span::inactive()
        };
        self.set_parallelism_locked(config.threads);
        if let Some(s) = config.htm {
            for cm in [self.htm.cm(), self.hybrid.cm(), self.hybrid_tl2.cm()] {
                cm.set(s.budget, s.policy);
            }
        }
        drop(resume);
        self.config.store(*config);
        if obs::enabled() {
            let latency_ns = elapsed_ns();
            obs::event!(
                "config.switch",
                "from" => from.to_string(),
                "to" => config.to_string(),
                "quiesced" => switch_algo,
                "latency_ns" => latency_ns,
            );
            // Flight recorder: the switch protocol is serial under
            // `reconfig`, so wall-clock latency is admissible here (rule 3).
            obs::ts_record("switch.latency_ns", latency_ns as f64);
        }
        Ok(())
    }

    fn set_parallelism_locked(&self, p: usize) {
        let before = self.parallelism.load(Ordering::Acquire);
        let _resize_span = if before != p {
            obs::timed_span!("gate.resize", "from" => before, "to" => p)
        } else {
            obs::Span::inactive()
        };
        for t in 0..self.max_threads {
            let should_run = t < p || self.pinned[t].load(Ordering::Acquire);
            let disabled = self.gate.is_disabled(t);
            if should_run && disabled {
                self.gate.enable(t);
            } else if !should_run && !disabled {
                // Bounded by the same watchdog as quiescence: a thread that
                // will not drain stays enabled (the degree is then slightly
                // higher than requested until the next resize — a degraded
                // but live outcome, unlike an unbounded wait).
                if !self.gate.try_disable(t, self.drain_timeout) && obs::enabled() {
                    obs::counter("polytm.gate_skips").inc();
                    obs::event!("recovery.gate_skip", "thread" => t, "degree" => p);
                }
            }
        }
        self.parallelism.store(p, Ordering::Release);
        if before != p {
            obs::event!("gate.resize", "from" => before, "to" => p);
        }
    }

    /// Current parallelism degree.
    pub fn parallelism(&self) -> usize {
        self.parallelism.load(Ordering::Acquire)
    }

    /// Number of quiescence epochs started so far (one per *attempted*
    /// algorithm switch). Because [`PolyTm::apply`] only returns once every
    /// thread has been quiesced and resumed — or the watchdog has rolled
    /// the attempt back — this also counts *terminated* epochs whenever no
    /// switch is in flight.
    pub fn quiescence_epochs(&self) -> u64 {
        self.epochs.load(Ordering::Relaxed)
    }

    /// Re-enable every thread (used to drain workers at shutdown).
    pub fn resume_all(&self) {
        let _adapter = lock(&self.reconfig);
        for t in 0..self.max_threads {
            if self.gate.is_disabled(t) {
                self.gate.enable(t);
            }
        }
        self.parallelism.store(self.max_threads, Ordering::Release);
    }

    /// Aggregate statistics across every registered thread: sum of the
    /// per-thread counters. A window's KPIs are the difference of two
    /// snapshots ([`StatsSnapshot::since`]).
    pub fn snapshot(&self) -> StatsSnapshot {
        self.stats
            .iter()
            .fold(StatsSnapshot::default(), |acc, s| acc.merge(&s.snapshot()))
    }

    /// Direct access to a backend (for overhead ablations that bypass the
    /// runtime; normal code uses [`PolyTm::run_tx`]).
    pub fn backend(&self, id: BackendId) -> &Arc<dyn TmBackend> {
        &self.backends[id.index()]
    }

    /// The simulated persistent heap backing [`BackendId::Durable`].
    pub fn pheap(&self) -> &Arc<PHeap> {
        self.durable.pheap()
    }
}

impl fmt::Debug for PolyTm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PolyTm")
            .field("config", &self.current_config())
            .field("max_threads", &self.max_threads)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::HtmSetting;
    use txcore::DurabilityMode;

    /// A coherent single-point configuration for any backend.
    fn cfg_for(id: BackendId, threads: usize) -> TmConfig {
        match id {
            BackendId::Durable => TmConfig::durable(threads, DurabilityMode::Strict),
            _ => TmConfig {
                backend: id,
                threads,
                htm: id.is_hardware().then_some(HtmSetting::DEFAULT),
                durability: DurabilityMode::Volatile,
            },
        }
    }

    #[test]
    fn builder_defaults_and_basic_tx() {
        let poly = PolyTm::builder().heap_words(1 << 10).max_threads(2).build();
        let a = poly.system().heap.alloc(1);
        let mut w = poly.register_thread(0);
        let v = poly.run_tx(&mut w, |tx| {
            tx.write(a, 12)?;
            tx.read(a)
        });
        assert_eq!(v, 12);
        assert_eq!(poly.snapshot().commits, 1);
    }

    #[test]
    fn apply_rejects_invalid_configs() {
        let poly = PolyTm::builder().max_threads(2).heap_words(64).build();
        assert_eq!(
            poly.apply(&TmConfig::stm(BackendId::Tl2, 3)),
            Err(SwitchError::TooManyThreads {
                requested: 3,
                max: 2
            })
        );
        assert_eq!(
            poly.apply(&TmConfig::stm(BackendId::Tl2, 0)),
            Err(SwitchError::ZeroThreads)
        );
    }

    #[test]
    fn rejected_switch_leaves_runtime_fully_usable() {
        let poly = PolyTm::builder().max_threads(2).heap_words(1 << 10).build();
        let before = poly.current_config();
        let err = poly
            .apply(&TmConfig::stm(BackendId::NOrec, 9))
            .expect_err("over-capacity switch must be rejected");
        assert_eq!(
            err,
            SwitchError::TooManyThreads {
                requested: 9,
                max: 2
            }
        );
        assert!(!err.to_string().is_empty());
        // No half-applied state: config, parallelism and epochs untouched,
        // and transactions still run.
        assert_eq!(poly.current_config(), before);
        assert_eq!(poly.parallelism(), 2);
        assert_eq!(poly.quiescence_epochs(), 0);
        let a = poly.system().heap.alloc(1);
        let mut w = poly.register_thread(0);
        assert_eq!(poly.run_tx(&mut w, |tx| tx.read(a)), 0);
    }

    #[test]
    fn try_build_surfaces_invalid_initial_config() {
        let err = PolyTm::builder()
            .max_threads(2)
            .heap_words(64)
            .initial_config(TmConfig::stm(BackendId::Tl2, 4))
            .try_build()
            .expect_err("initial config beyond capacity must be rejected");
        assert_eq!(
            err,
            SwitchError::TooManyThreads {
                requested: 4,
                max: 2
            }
        );
        // And the happy path still works through the fallible API.
        let poly = PolyTm::builder()
            .max_threads(2)
            .heap_words(64)
            .try_build()
            .unwrap();
        assert_eq!(poly.parallelism(), 2);
    }

    #[test]
    fn switching_backends_preserves_heap_state() {
        let poly = PolyTm::builder().heap_words(1 << 10).max_threads(2).build();
        let a = poly.system().heap.alloc(1);
        let mut w = poly.register_thread(0);
        for (i, id) in BackendId::ALL.iter().enumerate() {
            poly.apply(&cfg_for(*id, 1)).unwrap();
            poly.run_tx(&mut w, |tx| {
                let v = tx.read(a)?;
                tx.write(a, v + 1)
            });
            assert_eq!(poly.system().heap.read_raw(a), i as u64 + 1);
            assert_eq!(poly.current_config().backend, *id);
        }
    }

    #[test]
    fn parallelism_degree_blocks_extra_threads() {
        let poly = Arc::new(PolyTm::builder().heap_words(1 << 10).max_threads(4).build());
        poly.apply(&TmConfig::stm(BackendId::NOrec, 2)).unwrap();
        let a = poly.system().heap.alloc(1);
        let ran = Arc::new(AtomicUsize::new(0));
        std::thread::scope(|s| {
            // Thread in slot 3 is disabled: it must block, not run.
            let p = Arc::clone(&poly);
            let r = Arc::clone(&ran);
            s.spawn(move || {
                let mut w = p.register_thread(3);
                p.run_tx(&mut w, |tx| tx.read(a)).to_string();
                r.fetch_add(1, Ordering::SeqCst);
            });
            std::thread::sleep(Duration::from_millis(30));
            assert_eq!(ran.load(Ordering::SeqCst), 0, "disabled slot executed");
            // Raising the degree releases it.
            poly.apply(&TmConfig::stm(BackendId::NOrec, 4)).unwrap();
        });
        assert_eq!(ran.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn pinned_thread_survives_parallelism_reduction() {
        let poly = PolyTm::builder().heap_words(1 << 10).max_threads(4).build();
        poly.pin_thread(3);
        poly.apply(&TmConfig::stm(BackendId::Tl2, 1)).unwrap();
        let a = poly.system().heap.alloc(1);
        let mut w = poly.register_thread(3);
        // Would deadlock if slot 3 were disabled.
        assert_eq!(poly.run_tx(&mut w, |tx| tx.read(a)), 0);
    }

    /// Paper §4.3: contention-management parameters can coexist, so
    /// retuning them on the running backend never drains a thread.
    #[test]
    fn htm_retune_on_the_same_backend_never_quiesces() {
        let poly = PolyTm::builder().heap_words(1 << 10).max_threads(2).build();
        poly.apply(&TmConfig::htm(BackendId::Htm, 2, HtmSetting::DEFAULT))
            .unwrap();
        let epochs = poly.quiescence_epochs();
        let s = HtmSetting {
            budget: 16,
            policy: htm::CapacityPolicy::Halve,
        };
        poly.apply(&TmConfig::htm(BackendId::Htm, 2, s)).unwrap();
        assert_eq!(poly.current_config().htm, Some(s));
        assert_eq!(poly.quiescence_epochs(), epochs, "a retune is not a switch");
    }

    #[test]
    fn quiesce_watchdog_rolls_back_stalled_switch() {
        let poly = Arc::new(
            PolyTm::builder()
                .heap_words(1 << 10)
                .max_threads(2)
                .drain_timeout(Duration::from_millis(20))
                .build(),
        );
        let a = poly.system().heap.alloc(1);
        let before = poly.current_config();
        let in_tx = Arc::new(AtomicBool::new(false));
        std::thread::scope(|s| {
            let p = Arc::clone(&poly);
            let flag = Arc::clone(&in_tx);
            s.spawn(move || {
                let mut w = p.register_thread(0);
                // A worker that stalls inside its transaction, holding its
                // RUN bit far past the drain budget.
                p.run_tx(&mut w, |tx| {
                    flag.store(true, Ordering::Release);
                    std::thread::sleep(Duration::from_millis(250));
                    let v = tx.read(a)?;
                    tx.write(a, v + 1)
                });
            });
            while !in_tx.load(Ordering::Acquire) {
                std::thread::yield_now();
            }
            let err = poly
                .apply(&TmConfig::stm(BackendId::NOrec, 2))
                .expect_err("the watchdog must abandon the drain");
            assert_eq!(err, SwitchError::QuiesceTimeout { thread: 0 });
            // Rolled back: still on the old configuration, fully usable.
            assert_eq!(poly.current_config(), before);
        });
        // The stalled transaction still committed (its gate was restored).
        assert_eq!(poly.system().heap.read_raw(a), 1);
        // And with the stall gone, the same switch goes through.
        poly.apply(&TmConfig::stm(BackendId::NOrec, 2)).unwrap();
        assert_eq!(poly.current_config().backend, BackendId::NOrec);
    }

    /// Two workers stall inside transactions: slot 0 drains 95 ms into the
    /// switch, slot 1 not before it returns (or 2 s, so that a drain with
    /// no deadline fails instead of hanging). One deadline, taken at the
    /// first failed poll and shared by every blocked slot, gives up 100 ms
    /// in; a deadline per slot would wait until 195 ms.
    #[test]
    fn quiesce_watchdog_shares_one_deadline_across_stalled_slots() {
        const TIMEOUT: Duration = Duration::from_millis(100);
        let poly = PolyTm::builder()
            .heap_words(1 << 10)
            .max_threads(2)
            .drain_timeout(TIMEOUT)
            .build();
        let a = poly.system().heap.alloc(1);
        let inside = [AtomicBool::new(false), AtomicBool::new(false)];
        let release = AtomicBool::new(false);
        let started = std::sync::OnceLock::new();
        std::thread::scope(|s| {
            for slot in 0..2 {
                let (poly, inside, release, started) = (&poly, &inside, &release, &started);
                let stall = [Duration::from_millis(95), Duration::from_secs(2)][slot];
                s.spawn(move || {
                    let mut w = poly.register_thread(slot);
                    poly.run_tx(&mut w, |tx| {
                        inside[slot].store(true, Ordering::Release);
                        let over = |t0: &Instant| t0.elapsed() >= stall;
                        while !release.load(Ordering::Acquire) && !started.get().is_some_and(over) {
                            std::thread::yield_now();
                        }
                        tx.read(a)
                    });
                });
            }
            while !inside.iter().all(|f| f.load(Ordering::Acquire)) {
                std::thread::yield_now();
            }
            let t0 = *started.get_or_init(Instant::now);
            let out = poly.apply(&TmConfig::stm(BackendId::NOrec, 2));
            let waited = t0.elapsed();
            release.store(true, Ordering::Release);
            assert!(
                matches!(out, Err(SwitchError::QuiesceTimeout { .. })),
                "{out:?}"
            );
            assert!(waited >= TIMEOUT, "gave up early, after {waited:?}");
            assert!(
                waited < Duration::from_millis(190),
                "not one shared deadline: waited {waited:?}"
            );
        });
        assert_eq!(poly.current_config().backend, BackendId::Tl2);
    }

    #[test]
    fn starved_transaction_escapes_to_serial_irrevocable() {
        let poly = PolyTm::builder()
            .heap_words(1 << 10)
            .max_threads(2)
            .tx_retry_budget(3)
            .build();
        let a = poly.system().heap.alloc(1);
        let mut w = poly.register_thread(0);
        let mut tries = 0u32;
        // Fails 12 times no matter the mode: exhausts the optimistic
        // budget (3), then keeps failing serially until attempt 13.
        let out = poly.run_tx(&mut w, |tx| {
            tries += 1;
            if tries <= 12 {
                return tx.retry();
            }
            let v = tx.read(a)?;
            tx.write(a, v + 1)?;
            Ok(v + 1)
        });
        assert_eq!(out, 1);
        assert_eq!(poly.system().heap.read_raw(a), 1);
        assert_eq!(poly.serial_escapes(), 1);
        assert_eq!(tries, 13, "3 optimistic attempts + 10 serial");
        // The runtime is not stuck in serial mode afterwards.
        let v = poly.run_tx(&mut w, |tx| tx.read(a));
        assert_eq!(v, 1);
        assert_eq!(poly.serial_escapes(), 1);
    }

    #[test]
    fn a_panic_in_a_serial_block_does_not_wedge_switches() {
        // The panic unwinds through `run_serial` while it holds `reconfig`
        // and poisons it; every later switch must still take it.
        let poly = PolyTm::builder()
            .heap_words(1 << 10)
            .max_threads(1)
            .tx_retry_budget(1)
            .build();
        let mut w = poly.register_thread(0);
        let mut tries = 0u32;
        let serial = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            poly.run_tx(&mut w, |tx| -> TxResult<()> {
                tries += 1;
                if tries == 1 {
                    return tx.retry();
                }
                panic!("a bug in the application's serial block");
            })
        }));
        assert!(serial.is_err());
        assert_eq!(poly.serial_escapes(), 1);
        poly.apply(&TmConfig::stm(BackendId::NOrec, 1)).unwrap();
        assert_eq!(poly.current_config().backend, BackendId::NOrec);
    }

    #[test]
    fn probing_never_blocks_behind_inflight_switch() {
        // A switch that cannot finish (a worker stalls inside its
        // transaction, and the drain budget is huge) holds `reconfig` for
        // seconds. Monitor reads (config and stats) must still return
        // immediately — the config from its seqlock snapshot; the old
        // Mutex<TmConfig> made them queue behind the adapter.
        let poly = Arc::new(
            PolyTm::builder()
                .heap_words(1 << 10)
                .max_threads(2)
                .drain_timeout(Duration::from_secs(10))
                .build(),
        );
        let a = poly.system().heap.alloc(1);
        let before = poly.current_config();
        let in_tx = Arc::new(AtomicBool::new(false));
        let release = Arc::new(AtomicBool::new(false));
        std::thread::scope(|s| {
            let p = Arc::clone(&poly);
            let flag = Arc::clone(&in_tx);
            let rel = Arc::clone(&release);
            s.spawn(move || {
                let mut w = p.register_thread(0);
                p.run_tx(&mut w, |tx| {
                    flag.store(true, Ordering::Release);
                    while !rel.load(Ordering::Acquire) {
                        std::thread::yield_now();
                    }
                    tx.read(a)
                });
            });
            while !in_tx.load(Ordering::Acquire) {
                std::thread::yield_now();
            }
            let p = Arc::clone(&poly);
            let adapter = s.spawn(move || p.apply(&TmConfig::stm(BackendId::NOrec, 2)));
            // Let the adapter take `reconfig` and start draining slot 0.
            std::thread::sleep(Duration::from_millis(50));
            let t0 = Instant::now();
            let cfg = poly.current_config();
            let snap = poly.snapshot();
            let waited = t0.elapsed();
            assert_eq!(cfg, before, "switch must not be visible before it lands");
            assert_eq!(snap.commits, 0);
            assert!(
                waited < Duration::from_secs(2),
                "monitor reads blocked behind the in-flight switch for {waited:?}"
            );
            release.store(true, Ordering::SeqCst);
            adapter.join().unwrap().unwrap();
        });
        assert_eq!(poly.current_config().backend, BackendId::NOrec);
    }

    #[test]
    fn incoherent_durability_is_rejected_before_any_effect() {
        let poly = PolyTm::builder().heap_words(1 << 10).max_threads(2).build();
        let before = poly.current_config();
        // Durable backend without journaling…
        let mut bad = TmConfig::stm(BackendId::Durable, 1);
        assert_eq!(poly.apply(&bad), Err(SwitchError::IncoherentDurability));
        // …and journaling without the Durable backend.
        bad = TmConfig::stm(BackendId::Tl2, 1);
        bad.durability = DurabilityMode::Buffered;
        let err = poly.apply(&bad).unwrap_err();
        assert_eq!(err, SwitchError::IncoherentDurability);
        assert!(!err.to_string().is_empty());
        assert_eq!(poly.current_config(), before);
        assert_eq!(poly.quiescence_epochs(), 0);
    }

    #[test]
    fn durability_transition_drains_the_log_under_quiescence() {
        let poly = PolyTm::builder().heap_words(1 << 10).max_threads(2).build();
        let a = poly.system().heap.alloc(1);
        poly.apply(&TmConfig::durable(2, DurabilityMode::Buffered))
            .unwrap();
        let mut w = poly.register_thread(0);
        poly.run_tx(&mut w, |tx| tx.write(a, 77));
        // Buffered: the commit is in the log but not yet synced or applied.
        assert_eq!(poly.pheap().stats().fsyncs, 0);
        assert_eq!(poly.pheap().read_persisted(a), 0);
        let epochs = poly.quiescence_epochs();
        // Buffered → Strict keeps the backend pointer but must quiesce and
        // drain: afterwards the commit is in the persisted image.
        poly.apply(&TmConfig::durable(2, DurabilityMode::Strict))
            .unwrap();
        assert_eq!(poly.quiescence_epochs(), epochs + 1, "mode change quiesces");
        assert_eq!(poly.pheap().read_persisted(a), 77);
        let (log, _) = poly.pheap().log_snapshot();
        assert!(log.is_empty(), "drain truncated the log");
        // Strict commits journal + sync per transaction from here on.
        poly.run_tx(&mut w, |tx| tx.write(a, 78));
        assert!(poly.pheap().stats().fsyncs >= 2);
        // Leaving the Durable backend drains again and lands volatile.
        poly.apply(&TmConfig::stm(BackendId::Tl2, 2)).unwrap();
        assert_eq!(poly.pheap().read_persisted(a), 78);
        assert_eq!(poly.current_config().durability, DurabilityMode::Volatile);
    }

    #[test]
    fn crashed_pheap_aborts_the_switch_and_stays_usable() {
        let poly = PolyTm::builder().heap_words(1 << 10).max_threads(2).build();
        let a = poly.system().heap.alloc(1);
        poly.apply(&TmConfig::durable(2, DurabilityMode::Buffered))
            .unwrap();
        let mut w = poly.register_thread(0);
        poly.run_tx(&mut w, |tx| tx.write(a, 5));
        // The drain's first persistence step dies.
        poly.pheap().set_crash_at(poly.pheap().steps() + 1);
        let err = poly.apply(&TmConfig::stm(BackendId::NOrec, 2)).unwrap_err();
        assert_eq!(err, SwitchError::DurableCrashed);
        // Rolled back: still on the durable configuration.
        assert_eq!(
            poly.current_config(),
            TmConfig::durable(2, DurabilityMode::Buffered)
        );
        // Recover the model, then the same switch succeeds.
        poly.pheap().restart(&poly.system().heap);
        poly.pheap().recover(&poly.system().heap).unwrap();
        poly.apply(&TmConfig::stm(BackendId::NOrec, 2)).unwrap();
        assert_eq!(poly.current_config().backend, BackendId::NOrec);
    }

    /// A switch out of the durable backend quiesces before it drains the
    /// redo log, so a stalled transaction rolls it back with the log intact;
    /// the same switch drains it once the stall ends.
    #[test]
    fn rolled_back_durable_switch_keeps_the_log() {
        let poly = PolyTm::builder()
            .heap_words(1 << 10)
            .max_threads(2)
            .drain_timeout(Duration::from_millis(10))
            .build();
        let a = poly.system().heap.alloc(1);
        poly.apply(&TmConfig::durable(2, DurabilityMode::Buffered))
            .unwrap();
        let mut w = poly.register_thread(0);
        poly.run_tx(&mut w, |tx| tx.write(a, 5));
        let (inside, release) = (AtomicBool::new(false), AtomicBool::new(false));
        std::thread::scope(|s| {
            s.spawn(|| {
                let mut w = poly.register_thread(1);
                poly.run_tx(&mut w, |tx| {
                    inside.store(true, Ordering::Release);
                    while !release.load(Ordering::Acquire) {
                        std::thread::yield_now();
                    }
                    tx.read(a)
                });
            });
            while !inside.load(Ordering::Acquire) {
                std::thread::yield_now();
            }
            let out = poly.apply(&TmConfig::stm(BackendId::Tl2, 2));
            release.store(true, Ordering::Release);
            assert_eq!(out, Err(SwitchError::QuiesceTimeout { thread: 1 }));
        });
        assert_eq!(poly.pheap().read_persisted(a), 0, "the log was not drained");
        assert_eq!(poly.current_config().backend, BackendId::Durable);
        poly.apply(&TmConfig::stm(BackendId::Tl2, 2)).unwrap();
        assert_eq!(poly.pheap().read_persisted(a), 5);
    }

    #[test]
    fn concurrent_transactions_with_live_reconfiguration() {
        let poly = Arc::new(PolyTm::builder().heap_words(1 << 14).max_threads(4).build());
        let a = poly.system().heap.alloc(1);
        let stop = Arc::new(AtomicBool::new(false));
        std::thread::scope(|s| {
            for t in 0..3 {
                let poly = Arc::clone(&poly);
                let stop = Arc::clone(&stop);
                s.spawn(move || {
                    let mut w = poly.register_thread(t);
                    while !stop.load(Ordering::Relaxed) {
                        poly.run_tx(&mut w, |tx| {
                            let v = tx.read(a)?;
                            tx.write(a, v + 1)
                        });
                    }
                });
            }
            // Adapter: cycle through every backend while workers hammer the
            // counter. Correctness = nothing lost, no deadlock.
            for _ in 0..3 {
                for id in BackendId::ALL {
                    poly.apply(&cfg_for(id, 3)).unwrap();
                    std::thread::sleep(Duration::from_millis(5));
                }
            }
            stop.store(true, Ordering::SeqCst);
            poly.resume_all();
        });
        let commits = poly.snapshot().commits;
        assert_eq!(
            poly.system().heap.read_raw(a),
            commits,
            "every commit must increment exactly once across mode switches"
        );
    }
}
