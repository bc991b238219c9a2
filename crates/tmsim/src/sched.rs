//! The deterministic virtual-time scheduler: N logical threads multiplexed
//! on one OS thread, executing the *real* backend code paths (txcore
//! read/write/commit, HTM attempts with capacity policies, ThreadGate
//! enter/drain/resize, backend switches) as events on a single virtual
//! clock.
//!
//! # How it works
//!
//! Each simulated thread is a `Task` state machine; a binary heap of
//! `(virtual time, seeded priority, task)` events picks what runs next.
//! Popping an event executes exactly one step of that task — one call into
//! the real backend (`begin`, `read`, `write`, `commit`, `rollback`) or
//! gate — then charges the step's virtual cost from [`crate::vtime::op_costs`]
//! (with a ±3% seeded jitter so different seeds genuinely reorder events)
//! and re-queues the task. Conflicts are *real*: all tasks share one
//! [`TmSystem`] heap and metadata, so interleaved hot-region accesses abort
//! through the same validation code concurrent threads would hit.
//!
//! # Determinism rules
//!
//! 1. The only sources of ordering are the virtual clock and the seeded
//!    priority mixer — never wall time, never the host's thread scheduler.
//! 2. A task that *would* spin (a blocked gate slot, the HTM fallback
//!    sequence lock held by another task) is **parked** before the call and
//!    woken by the event that releases it; the real spin loops are only
//!    ever entered when they cannot spin.
//! 3. Adapter actions (quiesce, switch, resize) run at scheduled virtual
//!    times through the same event heap, and drain checks use
//!    [`ThreadGate::await_drained`] with an immediate deadline — a pure
//!    poll whose result depends only on gate state.

use crate::machine::MachineModel;
use crate::vtime::{op_costs_for_config, splitmix64, OpCosts, TICKS_PER_NS};
use crate::workload::WorkloadSpec;
use htm::{HtmGeometry, HtmSim, HybridNOrec, HybridTl2};
use polytm::{BackendId, ThreadGate, TmConfig};
use std::cmp::Reverse;
use std::collections::BTreeMap;
use std::collections::BinaryHeap;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;
use stm::{Durable, NOrec, SwissTm, TinyStm, Tl2};
use txcore::{Abort, AbortCode, Addr, DurabilityMode, PHeapStats, ThreadCtx, TmBackend, TmSystem};

/// Simulated HTM cache geometry: mid-sized so the report's small
/// transactions run speculatively while capacity-hostile workloads
/// (Labyrinth-scale read sets) genuinely overflow into the fallback.
const SIM_GEOMETRY: HtmGeometry = HtmGeometry {
    read_capacity: 64,
    write_capacity: 16,
    spurious_abort_prob: 0.0,
};

/// Words per simulated cache line (matches [`htm::LINE_WORDS`]); every
/// generated address is line-aligned so distinct slots are distinct lines.
const STRIDE: u32 = htm::LINE_WORDS as u32;

/// Hot (shared, contended) region slots.
const HOT_SLOTS: u64 = 16;

/// Per-task private slots: up to 96 read slots + 32 write slots.
const PRIV_SLOTS: u32 = 128;

/// Hard step bound: a runaway retry storm terminates deterministically
/// instead of hanging the test suite (never reached by sane workloads).
const MAX_STEPS: u64 = 20_000_000;

/// Sentinel task id for adapter events in the heap.
const ADAPTER: u32 = u32::MAX;

/// What the adapter does during the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scenario {
    /// Plain steady-state run (scalability curves).
    Steady,
    /// Quiesce all threads at one third of the committed work and switch
    /// the backend.
    Switch {
        /// Backend to install.
        to: BackendId,
    },
    /// Shrink to `to_threads` at one third of the committed work, grow
    /// back at two thirds (or at end of work, whichever first).
    Resize {
        /// Thread count while shrunk.
        to_threads: usize,
    },
}

/// One virtual-time simulation request.
#[derive(Debug, Clone, Copy)]
pub struct SimConfig<'a> {
    /// The simulated machine.
    pub machine: &'a MachineModel,
    /// The workload characteristics driving op counts and contention.
    pub spec: &'a WorkloadSpec,
    /// Backend + thread count (+ HTM tunables) to run.
    pub config: TmConfig,
    /// Transactions each simulated thread commits.
    pub txs_per_thread: u32,
    /// Scheduler seed: drives tie-breaking, jitter and address draws.
    pub seed: u64,
    /// Record the full per-op event log (memory-heavy; tests only).
    pub record_ops: bool,
    /// Adapter scenario.
    pub scenario: Scenario,
}

/// Kind of one executed scheduler step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// Transaction begin succeeded.
    Begin,
    /// One transactional read.
    Read,
    /// One transactional write.
    Write,
    /// Successful commit.
    Commit,
    /// Aborted attempt (rollback + backoff charged).
    Abort,
    /// Task parked on a blocked ThreadGate slot.
    GateWait,
    /// Task parked on the held HTM fallback lock.
    FallbackWait,
}

impl OpKind {
    fn index(self) -> u64 {
        match self {
            OpKind::Begin => 0,
            OpKind::Read => 1,
            OpKind::Write => 2,
            OpKind::Commit => 3,
            OpKind::Abort => 4,
            OpKind::GateWait => 5,
            OpKind::FallbackWait => 6,
        }
    }
}

/// One entry of the per-op event log (virtual-time stamped).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpEvent {
    /// Task (= gate slot) that executed the step.
    pub task: u32,
    /// What the step was.
    pub kind: OpKind,
    /// Virtual time of the step, in vticks.
    pub at: u64,
}

/// A fully-drained window of one gate slot: between `from` and `to` the
/// slot was quiesced, so no transactional step of that task may carry a
/// timestamp strictly inside the window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GateWindow {
    /// The quiesced slot.
    pub slot: usize,
    /// Drain-complete time, vticks.
    pub from: u64,
    /// Unblock time, vticks.
    pub to: u64,
}

/// Everything one simulation run produced, in exact integers.
#[derive(Debug, Clone)]
pub struct SimOutcome {
    /// Committed transactions.
    pub commits: u64,
    /// Aborted attempts.
    pub aborts: u64,
    /// Commits that went through the HTM fallback path.
    pub fallback_commits: u64,
    /// Virtual time from start to the last task's final step, whole ns.
    pub elapsed_vns: u64,
    /// Committed transactions per virtual second.
    pub tx_per_sec: u64,
    /// Order-sensitive interleaving fingerprint: folds the (task, kind)
    /// sequence of every executed step, so two runs with the same
    /// fingerprint executed the same schedule.
    pub fingerprint: u64,
    /// Switch scenario: block → drained → installed latency, virtual ns.
    pub switch_latency_vns: Option<u64>,
    /// Resize scenario: shrink quiescence latency, virtual ns.
    pub shrink_latency_vns: Option<u64>,
    /// Resize scenario: grow re-enable latency, virtual ns.
    pub grow_latency_vns: Option<u64>,
    /// Per-op event log (empty unless [`SimConfig::record_ops`]).
    pub ops: Vec<OpEvent>,
    /// Fully-drained gate windows the adapter produced.
    pub gate_windows: Vec<GateWindow>,
    /// Persistent-heap counters when the (final) backend was [`Durable`]:
    /// log traffic, fsyncs and checkpoints the run's commits generated.
    pub durable: Option<PHeapStats>,
    /// Aborted attempts per cause, indexed by [`AbortCode::index`]
    /// (conflict observatory, DESIGN.md §12). Sums to `aborts`.
    pub abort_causes: [u64; AbortCode::ALL.len()],
    /// Attributed conflict heatmap: `(stripe, conflicts)` ordered by count
    /// descending then stripe ascending — a total order, so renders are
    /// byte-stable. Stripe ids are the backend's own conflict granule
    /// (orec index for STMs, line-table index for the simulated HTM).
    pub conflict_stripes: Vec<(u32, u64)>,
    /// Transactional reads retired by committing attempts.
    pub committed_reads: u64,
    /// Transactional writes retired by committing attempts.
    pub committed_writes: u64,
    /// Transactional reads executed by attempts that rolled back.
    pub wasted_reads: u64,
    /// Transactional writes executed by attempts that rolled back.
    pub wasted_writes: u64,
}

impl SimOutcome {
    /// Ops retired by committed attempts (goodput numerator).
    pub fn committed_ops(&self) -> u64 {
        self.committed_reads + self.committed_writes
    }

    /// Ops executed and then discarded by rolled-back attempts.
    pub fn wasted_ops(&self) -> u64 {
        self.wasted_reads + self.wasted_writes
    }

    /// Committed work / total work in exact integer per-mille (`1000`
    /// when no work ran — nothing executed means nothing wasted).
    pub fn goodput_permille(&self) -> u64 {
        let total = self.committed_ops() + self.wasted_ops();
        (self.committed_ops() * 1000)
            .checked_div(total)
            .unwrap_or(1000)
    }

    /// Modeled virtual ticks thrown away by rolled-back attempts: 8 ns per
    /// read (the TL2 row of `model`'s cost table) and per write (the middle
    /// of the backends' 6–12 ns range) — pure integers, byte-exact
    /// cross-host.
    pub fn wasted_vticks(&self) -> u64 {
        (self.wasted_reads + self.wasted_writes) * 8 * TICKS_PER_NS
    }
}

#[derive(Debug, Clone, Copy)]
enum PlannedOp {
    Read(Addr),
    Write(Addr, u64),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    /// Ready to start the next transaction (gate not yet entered).
    StartTx,
    /// Gate entered; ready to call `begin` (possibly a retry).
    Begin,
    /// Inside a transaction; executing planned ops, then commit.
    Run,
    /// All transactions done.
    Done,
    /// Parked on a blocked gate slot.
    ParkedGate,
    /// Parked on the held HTM fallback lock.
    ParkedFallback,
}

struct Task {
    ctx: ThreadCtx,
    rng: u64,
    clock: u64,
    txs_done: u32,
    attempt: u32,
    state: State,
    op_idx: usize,
    plan: Vec<PlannedOp>,
    priv_base: Addr,
    /// Reads executed by the in-flight attempt (work-ledger attribution;
    /// credited as committed or wasted when the attempt resolves).
    att_reads: u64,
    /// Writes executed by the in-flight attempt.
    att_writes: u64,
}

impl Task {
    fn next_rand(&mut self) -> u64 {
        self.rng = splitmix64(self.rng);
        self.rng
    }

    /// ±3% multiplicative seeded jitter, in exact integer math.
    fn jitter(&mut self, cost: u64) -> u64 {
        let r = self.next_rand() % 64;
        (cost * (993 + r) / 1024).max(1)
    }
}

enum Adapter {
    Idle,
    SwitchArmed {
        to: BackendId,
        at_commits: u64,
    },
    SwitchDraining {
        to: BackendId,
        started: u64,
    },
    /// Unblock-everything event scheduled at `.0` (drain end recorded in
    /// `.1` for window bookkeeping).
    SwitchApplying {
        started: u64,
        drained: u64,
    },
    ResizeArmed {
        to: usize,
        at_commits: u64,
    },
    ResizeDraining {
        to: usize,
        started: u64,
    },
    ResizeShrunk {
        to: usize,
        grow_at_commits: u64,
        drained_at: u64,
    },
    ResizeGrowing {
        to: usize,
        drained: u64,
        requested: u64,
    },
    Done,
}

fn make_backend(
    sys: &Arc<TmSystem>,
    config: &TmConfig,
) -> (Arc<dyn TmBackend>, Option<Arc<Durable>>) {
    match config.backend {
        BackendId::Tl2 => (Arc::new(Tl2::new(Arc::clone(sys))), None),
        BackendId::TinyStm => (Arc::new(TinyStm::new(Arc::clone(sys))), None),
        BackendId::NOrec => (Arc::new(NOrec::new(Arc::clone(sys))), None),
        BackendId::SwissTm => (Arc::new(SwissTm::new(Arc::clone(sys))), None),
        BackendId::Htm => {
            let h = HtmSim::with_geometry(Arc::clone(sys), SIM_GEOMETRY);
            if let Some(s) = config.htm {
                h.cm().set(s.budget, s.policy);
            }
            (Arc::new(h), None)
        }
        BackendId::HybridNOrec => (Arc::new(HybridNOrec::new(Arc::clone(sys))), None),
        BackendId::HybridTl2 => (Arc::new(HybridTl2::new(Arc::clone(sys))), None),
        BackendId::Durable => {
            let d = Arc::new(Durable::with_new_pheap(Arc::clone(sys)));
            d.set_mode(config.durability);
            (Arc::clone(&d) as Arc<dyn TmBackend>, Some(d))
        }
    }
}

/// The simulation engine state (one run).
struct Engine<'a> {
    cfg: &'a SimConfig<'a>,
    sys: Arc<TmSystem>,
    gate: ThreadGate,
    backend: Arc<dyn TmBackend>,
    durable: Option<Arc<Durable>>,
    costs: OpCosts,
    tasks: Vec<Task>,
    heap: BinaryHeap<Reverse<(u64, u64, u32)>>,
    push_seq: u64,
    hot_base: Addr,
    n: usize,
    total_txs: u64,
    commits: u64,
    aborts: u64,
    fallback_commits: u64,
    fingerprint: u64,
    ops: Vec<OpEvent>,
    gate_windows: Vec<GateWindow>,
    gate_waiters: Vec<u32>,
    fallback_waiters: Vec<u32>,
    adapter: Adapter,
    switch_latency: Option<u64>,
    shrink_latency: Option<u64>,
    grow_latency: Option<u64>,
    // Conflict observatory (DESIGN.md §12). Strictly passive bookkeeping:
    // nothing below feeds `record`, the rng streams, or step costs, so the
    // fingerprint and every pre-observatory golden stay byte-identical.
    abort_causes: [u64; AbortCode::ALL.len()],
    conflict_stripes: BTreeMap<u32, u64>,
    committed_reads: u64,
    committed_writes: u64,
    wasted_reads: u64,
    wasted_writes: u64,
}

impl<'a> Engine<'a> {
    fn new(cfg: &'a SimConfig<'a>) -> Self {
        let n = cfg.config.threads.clamp(1, cfg.machine.hw_threads.max(1));
        let sys = Arc::new(TmSystem::new(1 << 17));
        let hot_base = sys.heap.alloc(HOT_SLOTS as usize * STRIDE as usize);
        let tasks: Vec<Task> = (0..n)
            .map(|t| Task {
                ctx: ThreadCtx::new(t),
                rng: splitmix64(cfg.seed ^ ((t as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15))),
                clock: 0,
                txs_done: 0,
                attempt: 0,
                state: State::StartTx,
                op_idx: 0,
                plan: Vec::new(),
                priv_base: sys.heap.alloc(PRIV_SLOTS as usize * STRIDE as usize),
                att_reads: 0,
                att_writes: 0,
            })
            .collect();
        let (backend, durable) = make_backend(&sys, &cfg.config);
        let costs = op_costs_for_config(cfg.machine, cfg.spec, &cfg.config, n);
        let total_txs = n as u64 * u64::from(cfg.txs_per_thread);
        let adapter = match cfg.scenario {
            Scenario::Steady => Adapter::Idle,
            Scenario::Switch { to } => Adapter::SwitchArmed {
                to,
                at_commits: (total_txs / 3).max(1),
            },
            Scenario::Resize { to_threads } => Adapter::ResizeArmed {
                to: to_threads.clamp(1, n),
                at_commits: (total_txs / 3).max(1),
            },
        };
        Engine {
            cfg,
            sys,
            gate: ThreadGate::new(n),
            backend,
            durable,
            costs,
            tasks,
            heap: BinaryHeap::new(),
            push_seq: 0,
            hot_base,
            n,
            total_txs,
            commits: 0,
            aborts: 0,
            fallback_commits: 0,
            fingerprint: 0,
            ops: Vec::new(),
            gate_windows: Vec::new(),
            gate_waiters: Vec::new(),
            fallback_waiters: Vec::new(),
            adapter,
            switch_latency: None,
            shrink_latency: None,
            grow_latency: None,
            abort_causes: [0; AbortCode::ALL.len()],
            conflict_stripes: BTreeMap::new(),
            committed_reads: 0,
            committed_writes: 0,
            wasted_reads: 0,
            wasted_writes: 0,
        }
    }

    /// Queue `task` (or the [`ADAPTER`] sentinel) to run at virtual `at`,
    /// with a seeded tie-breaking priority.
    fn push(&mut self, at: u64, task: u32) {
        let prio = splitmix64(
            self.cfg
                .seed
                .wrapping_add(self.push_seq)
                .wrapping_mul(0xD1B5_4A32_D192_ED03)
                ^ (u64::from(task) << 32),
        );
        self.push_seq += 1;
        self.heap.push(Reverse((at, prio, task)));
    }

    fn record(&mut self, task: u32, kind: OpKind, at: u64) {
        self.fingerprint =
            self.fingerprint.rotate_left(5) ^ splitmix64((u64::from(task) << 8) | kind.index());
        if self.cfg.record_ops {
            self.ops.push(OpEvent { task, kind, at });
        }
    }

    /// Build the next transaction's op list from the task's seeded stream:
    /// hot (shared) slots with probability `contention`, private
    /// line-aligned slots otherwise; writes deterministically interleaved
    /// among the reads; read-only transactions drawn per `update_frac`.
    fn gen_plan(&mut self, t: usize) {
        let spec = self.cfg.spec;
        let reads = (spec.reads.round() as i64).clamp(1, 96) as u32;
        let writes = (spec.writes.round() as i64).clamp(0, 32) as u32;
        let p_hot = (spec.contention * 1000.0).round() as u64;
        let p_upd = (spec.update_frac * 1000.0).round() as u64;
        let hot_base = self.hot_base;
        let task = &mut self.tasks[t];
        let updater = task.next_rand() % 1000 < p_upd;
        let writes = if updater { writes } else { 0 };
        let total = reads + writes;
        let wevery = (total.checked_div(writes)).map_or(u32::MAX, |e| e.max(1));
        task.plan.clear();
        let (mut r, mut w) = (0u32, 0u32);
        for i in 0..total {
            let want_write = writes > 0 && w < writes && ((i + 1) % wevery == 0 || r >= reads);
            let hot = task.next_rand() % 1000 < p_hot;
            if want_write {
                let addr = if hot {
                    hot_base.field((task.next_rand() % HOT_SLOTS) as u32 * STRIDE)
                } else {
                    task.priv_base.field((96 + w) * STRIDE)
                };
                let val = task.next_rand();
                task.plan.push(PlannedOp::Write(addr, val));
                w += 1;
            } else {
                let addr = if hot {
                    hot_base.field((task.next_rand() % HOT_SLOTS) as u32 * STRIDE)
                } else {
                    task.priv_base.field((r % 96) * STRIDE)
                };
                task.plan.push(PlannedOp::Read(addr));
                r += 1;
            }
        }
    }

    /// Execute one step of `t` at virtual time `now`.
    fn step(&mut self, t: u32, now: u64) {
        let ti = t as usize;
        match self.tasks[ti].state {
            State::Done => {}
            State::ParkedGate | State::ParkedFallback => {
                // Woken by push; fall through to the state the park hid.
                unreachable!("parked tasks hold no heap events")
            }
            State::StartTx => self.step_start(ti, now),
            State::Begin => self.step_begin(ti, now),
            State::Run => self.step_run(ti, now),
        }
    }

    fn step_start(&mut self, ti: usize, now: u64) {
        if self.tasks[ti].txs_done >= self.cfg.txs_per_thread {
            self.tasks[ti].state = State::Done;
            self.tasks[ti].clock = now;
            return;
        }
        if self.gate.is_disabled(ti) {
            self.record(ti as u32, OpKind::GateWait, now);
            self.tasks[ti].state = State::ParkedGate;
            self.tasks[ti].clock = now;
            self.gate_waiters.push(ti as u32);
            return;
        }
        // Cannot block: we just observed the slot enabled and nothing else
        // runs between the check and the call on this one OS thread.
        self.gate.enter(ti);
        self.gen_plan(ti);
        let task = &mut self.tasks[ti];
        task.attempt = 0;
        task.ctx.attempt = 0;
        task.op_idx = 0;
        task.att_reads = 0;
        task.att_writes = 0;
        task.state = State::Begin;
        let cost = task.jitter(self.costs.think);
        task.clock = now + cost;
        let at = task.clock;
        self.push(at, ti as u32);
    }

    fn step_begin(&mut self, ti: usize, now: u64) {
        // Park rule: HtmSim's begin paths spin on the fallback sequence
        // lock (SpecCore subscription and the fallback CAS loop). On one
        // OS thread that spin would never end, so a task whose begin could
        // observe the lock held parks until the holder releases it.
        if self.cfg.config.backend == BackendId::Htm
            && self.sys.fallback_seq.load(Ordering::Acquire) & 1 == 1
        {
            self.record(ti as u32, OpKind::FallbackWait, now);
            self.tasks[ti].state = State::ParkedFallback;
            self.tasks[ti].clock = now;
            self.fallback_waiters.push(ti as u32);
            return;
        }
        let backend = Arc::clone(&self.backend);
        match backend.begin(&mut self.tasks[ti].ctx) {
            Ok(()) => {
                self.record(ti as u32, OpKind::Begin, now);
                self.tasks[ti].state = State::Run;
                let cost = {
                    let task = &mut self.tasks[ti];
                    task.jitter(self.costs.begin)
                };
                self.tasks[ti].clock = now + cost;
                let at = self.tasks[ti].clock;
                self.push(at, ti as u32);
            }
            Err(a) => self.abort_path(ti, now, a),
        }
    }

    fn step_run(&mut self, ti: usize, now: u64) {
        let backend = Arc::clone(&self.backend);
        if self.tasks[ti].op_idx >= self.tasks[ti].plan.len() {
            // All ops done: attempt the commit.
            let via_fallback = self.tasks[ti].ctx.in_fallback;
            match backend.commit(&mut self.tasks[ti].ctx) {
                Ok(()) => {
                    self.record(ti as u32, OpKind::Commit, now);
                    self.commits += 1;
                    if via_fallback {
                        self.fallback_commits += 1;
                    }
                    self.committed_reads += self.tasks[ti].att_reads;
                    self.committed_writes += self.tasks[ti].att_writes;
                    self.gate.exit(ti);
                    let cost = self.tasks[ti].jitter(self.costs.commit);
                    let task = &mut self.tasks[ti];
                    task.att_reads = 0;
                    task.att_writes = 0;
                    task.txs_done += 1;
                    task.state = State::StartTx;
                    task.clock = now + cost;
                    let at = task.clock;
                    self.push(at, ti as u32);
                }
                Err(a) => self.abort_path(ti, now, a),
            }
            return;
        }
        let op = self.tasks[ti].plan[self.tasks[ti].op_idx];
        let result = match op {
            PlannedOp::Read(a) => backend
                .read(&mut self.tasks[ti].ctx, a)
                .map(|_| OpKind::Read),
            PlannedOp::Write(a, v) => backend
                .write(&mut self.tasks[ti].ctx, a, v)
                .map(|()| OpKind::Write),
        };
        match result {
            Ok(kind) => {
                self.record(ti as u32, kind, now);
                let base = match kind {
                    OpKind::Read => self.costs.read,
                    _ => self.costs.write,
                };
                let cost = self.tasks[ti].jitter(base);
                let task = &mut self.tasks[ti];
                match kind {
                    OpKind::Read => task.att_reads += 1,
                    _ => task.att_writes += 1,
                }
                task.op_idx += 1;
                task.clock = now + cost;
                let at = task.clock;
                self.push(at, ti as u32);
            }
            Err(a) => self.abort_path(ti, now, a),
        }
    }

    /// Shared abort handling: rollback through the real backend, attribute
    /// the abort (cause, conflicting stripe, wasted ops), charge the abort
    /// + seeded exponential backoff, retry the same plan.
    fn abort_path(&mut self, ti: usize, now: u64, a: Abort) {
        let backend = Arc::clone(&self.backend);
        backend.rollback(&mut self.tasks[ti].ctx);
        self.record(ti as u32, OpKind::Abort, now);
        self.aborts += 1;
        self.abort_causes[a.code().index()] += 1;
        if let Some(stripe) = a.stripe() {
            *self.conflict_stripes.entry(stripe).or_insert(0) += 1;
        }
        self.wasted_reads += self.tasks[ti].att_reads;
        self.wasted_writes += self.tasks[ti].att_writes;
        let task = &mut self.tasks[ti];
        task.att_reads = 0;
        task.att_writes = 0;
        task.attempt += 1;
        task.ctx.attempt = task.attempt;
        task.op_idx = 0;
        task.state = State::Begin;
        let shift = task.attempt.min(6);
        let backoff = task.jitter(self.costs.backoff << shift);
        let cost = task.jitter(self.costs.abort) + backoff;
        task.clock = now + cost;
        let at = task.clock;
        self.push(at, ti as u32);
    }

    /// Wake every task parked on the fallback lock once it reads even.
    fn wake_fallback_waiters(&mut self, now: u64) {
        if self.fallback_waiters.is_empty()
            || self.sys.fallback_seq.load(Ordering::Acquire) & 1 == 1
        {
            return;
        }
        let waiters = std::mem::take(&mut self.fallback_waiters);
        for t in waiters {
            self.tasks[t as usize].state = State::Begin;
            self.push(now, t);
        }
    }

    /// Wake gate-parked tasks whose slots are enabled again.
    fn wake_gate_waiters(&mut self, now: u64) {
        if self.gate_waiters.is_empty() {
            return;
        }
        let waiters = std::mem::take(&mut self.gate_waiters);
        for t in waiters {
            if self.gate.is_disabled(t as usize) {
                self.gate_waiters.push(t);
            } else {
                self.tasks[t as usize].state = State::StartTx;
                self.push(now, t);
            }
        }
    }

    /// Non-blocking drain poll of one slot ([`ThreadGate::await_drained`]
    /// with an immediate deadline: the wall clock only bounds the poll, it
    /// never feeds a result).
    fn drained(&self, slot: usize) -> bool {
        self.gate.await_drained(slot, Some(Instant::now()))
    }

    /// Advance the adapter state machine after a step at `now`.
    fn adapter_poll(&mut self, now: u64) {
        match self.adapter {
            Adapter::Idle | Adapter::Done => {}
            Adapter::SwitchArmed { to, at_commits } => {
                if self.commits >= at_commits {
                    for s in 0..self.n {
                        self.gate.block(s);
                    }
                    self.adapter = Adapter::SwitchDraining { to, started: now };
                    self.adapter_poll(now);
                }
            }
            Adapter::SwitchDraining { to, started } => {
                if (0..self.n).all(|s| self.drained(s)) {
                    // Quiesced: install the new backend and advance the
                    // epoch inside the drained window, exactly like the
                    // real adapter.
                    let cfg = TmConfig {
                        backend: to,
                        threads: self.n,
                        htm: if to.is_hardware() {
                            self.cfg.config.htm
                        } else {
                            None
                        },
                        durability: if to == BackendId::Durable {
                            if self.cfg.config.durability.is_durable() {
                                self.cfg.config.durability
                            } else {
                                DurabilityMode::Strict
                            }
                        } else {
                            DurabilityMode::Volatile
                        },
                    };
                    let (backend, durable) = make_backend(&self.sys, &cfg);
                    self.backend = backend;
                    self.durable = durable;
                    self.costs = op_costs_for_config(self.cfg.machine, self.cfg.spec, &cfg, self.n);
                    self.gate.advance_epoch();
                    self.adapter = Adapter::SwitchApplying {
                        started,
                        drained: now,
                    };
                    let at = now + self.costs.switch_apply;
                    self.push(at, ADAPTER);
                }
            }
            Adapter::ResizeArmed { to, at_commits } => {
                if self.commits >= at_commits {
                    for s in to..self.n {
                        self.gate.block(s);
                    }
                    self.adapter = Adapter::ResizeDraining { to, started: now };
                    self.adapter_poll(now);
                }
            }
            Adapter::ResizeDraining { to, started } => {
                if (to..self.n).all(|s| self.drained(s)) {
                    self.gate.advance_epoch();
                    self.shrink_latency =
                        Some((now - started + self.costs.resize_apply) / TICKS_PER_NS);
                    self.adapter = Adapter::ResizeShrunk {
                        to,
                        grow_at_commits: (self.total_txs * 2 / 3).max(1),
                        drained_at: now,
                    };
                }
            }
            Adapter::ResizeShrunk {
                to,
                grow_at_commits,
                drained_at,
            } => {
                if self.commits >= grow_at_commits {
                    self.adapter = Adapter::ResizeGrowing {
                        to,
                        drained: drained_at,
                        requested: now,
                    };
                    let at = now + self.costs.resize_apply;
                    self.push(at, ADAPTER);
                }
            }
            Adapter::ResizeGrowing { .. } | Adapter::SwitchApplying { .. } => {
                // Waiting for the scheduled adapter event; nothing to poll.
            }
        }
    }

    /// Process the scheduled adapter event (the virtual instant the apply
    /// phase finishes and the gate reopens).
    fn adapter_event(&mut self, now: u64) {
        match self.adapter {
            Adapter::SwitchApplying { started, drained } => {
                for s in 0..self.n {
                    self.gate_windows.push(GateWindow {
                        slot: s,
                        from: drained,
                        to: now,
                    });
                    self.gate.unblock(s);
                }
                self.switch_latency = Some((now - started) / TICKS_PER_NS);
                self.adapter = Adapter::Done;
                self.wake_gate_waiters(now);
            }
            Adapter::ResizeGrowing {
                to,
                drained,
                requested,
            } => {
                for s in to..self.n {
                    self.gate_windows.push(GateWindow {
                        slot: s,
                        from: drained,
                        to: now,
                    });
                    self.gate.unblock(s);
                }
                self.grow_latency = Some(((now - requested) / TICKS_PER_NS).max(1));
                self.adapter = Adapter::Done;
                self.wake_gate_waiters(now);
            }
            _ => {}
        }
    }

    /// The event heap ran dry with the adapter still holding slots (e.g.
    /// the active workers finished before the grow trigger): fire the
    /// pending action at the latest task time so parked workers resume.
    fn force_adapter(&mut self) {
        let latest = self.tasks.iter().map(|t| t.clock).max().unwrap_or(0);
        match self.adapter {
            Adapter::ResizeShrunk { to, drained_at, .. } => {
                self.adapter = Adapter::ResizeGrowing {
                    to,
                    drained: drained_at,
                    requested: latest,
                };
                let at = latest + self.costs.resize_apply;
                self.push(at, ADAPTER);
            }
            Adapter::SwitchArmed { to, .. } => {
                // Trigger never reached (tiny runs): switch at the end so
                // the scenario still reports a latency.
                for s in 0..self.n {
                    self.gate.block(s);
                }
                self.adapter = Adapter::SwitchDraining {
                    to,
                    started: latest,
                };
                self.adapter_poll(latest);
            }
            Adapter::ResizeArmed { to, .. } => {
                for s in to..self.n {
                    self.gate.block(s);
                }
                self.adapter = Adapter::ResizeDraining {
                    to,
                    started: latest,
                };
                self.adapter_poll(latest);
            }
            _ => {}
        }
    }

    fn run(mut self) -> SimOutcome {
        for t in 0..self.n as u32 {
            self.push(0, t);
        }
        let mut steps = 0u64;
        loop {
            let Some(Reverse((now, _prio, t))) = self.heap.pop() else {
                self.force_adapter();
                if self.heap.is_empty() {
                    break;
                }
                continue;
            };
            steps += 1;
            if steps > MAX_STEPS {
                break;
            }
            if t == ADAPTER {
                self.adapter_event(now);
            } else {
                self.step(t, now);
            }
            self.wake_fallback_waiters(now);
            self.adapter_poll(now);
        }
        let elapsed_ticks = self.tasks.iter().map(|t| t.clock).max().unwrap_or(0);
        let elapsed_vns = (elapsed_ticks / TICKS_PER_NS).max(1);
        let tx_per_sec =
            (u128::from(self.commits) * 1_000_000_000u128 / u128::from(elapsed_vns)) as u64;
        let mut conflict_stripes: Vec<(u32, u64)> = self
            .conflict_stripes
            .iter()
            .map(|(&s, &n)| (s, n))
            .collect();
        conflict_stripes.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        SimOutcome {
            commits: self.commits,
            aborts: self.aborts,
            fallback_commits: self.fallback_commits,
            elapsed_vns,
            tx_per_sec,
            fingerprint: self.fingerprint,
            switch_latency_vns: self.switch_latency,
            shrink_latency_vns: self.shrink_latency,
            grow_latency_vns: self.grow_latency,
            ops: self.ops,
            gate_windows: self.gate_windows,
            durable: self.durable.as_ref().map(|d| d.pheap().stats()),
            abort_causes: self.abort_causes,
            conflict_stripes,
            committed_reads: self.committed_reads,
            committed_writes: self.committed_writes,
            wasted_reads: self.wasted_reads,
            wasted_writes: self.wasted_writes,
        }
    }
}

/// Run one deterministic virtual-time simulation.
///
/// Same `cfg` (including seed) → identical [`SimOutcome`] on any host, at
/// any `--jobs` count, on every rerun: the engine's only inputs are the
/// config and the seeded mixers.
pub fn simulate(cfg: &SimConfig<'_>) -> SimOutcome {
    Engine::new(cfg).run()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vtime::report_spec;
    use polytm::HtmSetting;

    fn steady(backend: BackendId, threads: usize, seed: u64) -> SimOutcome {
        let machine = MachineModel::machine_a();
        let spec = report_spec();
        let config = if backend.is_hardware() {
            TmConfig::htm(backend, threads, HtmSetting::DEFAULT)
        } else {
            TmConfig::stm(backend, threads)
        };
        simulate(&SimConfig {
            machine: &machine,
            spec: &spec,
            config,
            txs_per_thread: 12,
            seed,
            record_ops: true,
            scenario: Scenario::Steady,
        })
    }

    #[test]
    fn all_transactions_commit() {
        for backend in [BackendId::Tl2, BackendId::NOrec, BackendId::Htm] {
            let out = steady(backend, 4, 7);
            assert_eq!(out.commits, 48, "{backend:?}");
            assert!(out.elapsed_vns > 0);
            assert!(out.tx_per_sec > 0);
        }
    }

    #[test]
    fn same_seed_same_outcome() {
        let a = steady(BackendId::Tl2, 6, 13);
        let b = steady(BackendId::Tl2, 6, 13);
        assert_eq!(a.fingerprint, b.fingerprint);
        assert_eq!(a.elapsed_vns, b.elapsed_vns);
        assert_eq!(a.ops, b.ops);
        assert_eq!(a.commits, b.commits);
        assert_eq!(a.aborts, b.aborts);
    }

    #[test]
    fn more_threads_scale_throughput() {
        let x1 = steady(BackendId::Tl2, 1, 7).tx_per_sec;
        let x8 = steady(BackendId::Tl2, 8, 7).tx_per_sec;
        assert!(x8 > 2 * x1, "8 threads should beat 1 by >2x: {x1} vs {x8}");
    }

    #[test]
    fn htm_fallback_engages_on_capacity_hostile_workload() {
        let machine = MachineModel::machine_a();
        let mut spec = report_spec();
        spec.reads = 4000.0; // clamps to 96 planned reads > 64-line capacity
        spec.writes = 40.0;
        spec.update_frac = 1.0;
        let out = simulate(&SimConfig {
            machine: &machine,
            spec: &spec,
            config: TmConfig::htm(BackendId::Htm, 4, HtmSetting::DEFAULT),
            txs_per_thread: 6,
            seed: 3,
            record_ops: false,
            scenario: Scenario::Steady,
        });
        assert_eq!(out.commits, 24);
        assert!(out.fallback_commits > 0, "capacity must force the fallback");
        assert!(out.aborts > 0);
    }

    #[test]
    fn switch_scenario_reports_latency_and_windows() {
        let machine = MachineModel::machine_a();
        let spec = report_spec();
        let out = simulate(&SimConfig {
            machine: &machine,
            spec: &spec,
            config: TmConfig::stm(BackendId::Tl2, 4),
            txs_per_thread: 12,
            seed: 5,
            record_ops: true,
            scenario: Scenario::Switch {
                to: BackendId::NOrec,
            },
        });
        assert_eq!(out.commits, 48, "switch must not lose transactions");
        let lat = out.switch_latency_vns.expect("switch must fire");
        assert!(lat > 0);
        assert_eq!(out.gate_windows.len(), 4, "one drained window per slot");
        for w in &out.gate_windows {
            assert!(w.to > w.from);
        }
    }

    #[test]
    fn resize_scenario_reports_both_latencies() {
        let machine = MachineModel::machine_a();
        let spec = report_spec();
        let out = simulate(&SimConfig {
            machine: &machine,
            spec: &spec,
            config: TmConfig::stm(BackendId::Tl2, 8),
            txs_per_thread: 12,
            seed: 5,
            record_ops: false,
            scenario: Scenario::Resize { to_threads: 4 },
        });
        assert_eq!(out.commits, 96, "resize must not lose transactions");
        assert!(out.shrink_latency_vns.expect("shrink fires") > 0);
        assert!(out.grow_latency_vns.expect("grow fires") > 0);
        assert_eq!(out.gate_windows.len(), 4, "slots 4..8 each get a window");
    }

    #[test]
    fn contention_produces_aborts() {
        let machine = MachineModel::machine_a();
        let mut spec = report_spec();
        spec.contention = 0.9;
        spec.update_frac = 1.0;
        let out = simulate(&SimConfig {
            machine: &machine,
            spec: &spec,
            config: TmConfig::stm(BackendId::Tl2, 8),
            txs_per_thread: 12,
            seed: 2,
            record_ops: false,
            scenario: Scenario::Steady,
        });
        assert_eq!(out.commits, 96);
        assert!(out.aborts > 0, "hot workload must conflict");
    }

    #[test]
    fn attribution_conserves_the_op_log() {
        // Conservation law (DESIGN.md §12): every transactional read/write
        // the scheduler executed is attributed exactly once — either to a
        // committing attempt or to the rollback that discarded it.
        for backend in [BackendId::Tl2, BackendId::NOrec, BackendId::Htm] {
            let out = steady(backend, 8, 11);
            let executed = out
                .ops
                .iter()
                .filter(|e| matches!(e.kind, OpKind::Read | OpKind::Write))
                .count() as u64;
            assert_eq!(
                out.committed_ops() + out.wasted_ops(),
                executed,
                "{backend:?}: attributed ops must equal executed ops"
            );
            let by_cause: u64 = out.abort_causes.iter().sum();
            assert_eq!(by_cause, out.aborts, "{backend:?}: every abort has a cause");
            let stripe_hits: u64 = out.conflict_stripes.iter().map(|&(_, n)| n).sum();
            assert!(
                stripe_hits <= out.aborts,
                "{backend:?}: at most one stripe per abort"
            );
            if out.aborts == 0 {
                assert_eq!(out.wasted_ops(), 0, "{backend:?}");
            }
        }
    }

    #[test]
    fn contended_aborts_carry_conflict_stripes() {
        let machine = MachineModel::machine_a();
        let mut spec = report_spec();
        spec.contention = 0.9;
        spec.update_frac = 1.0;
        let out = simulate(&SimConfig {
            machine: &machine,
            spec: &spec,
            config: TmConfig::stm(BackendId::Tl2, 8),
            txs_per_thread: 12,
            seed: 2,
            record_ops: false,
            scenario: Scenario::Steady,
        });
        assert!(out.aborts > 0);
        assert_eq!(
            out.abort_causes[AbortCode::Conflict.index()],
            out.aborts,
            "pure-STM contention aborts are all conflict-coded"
        );
        let stripe_hits: u64 = out.conflict_stripes.iter().map(|&(_, n)| n).sum();
        assert_eq!(stripe_hits, out.aborts, "every conflict names its stripe");
        assert!(out.wasted_ops() > 0);
        assert!(out.goodput_permille() < 1000);
        // The heatmap is a total order: count descending, stripe ascending.
        for w in out.conflict_stripes.windows(2) {
            assert!(w[0].1 > w[1].1 || (w[0].1 == w[1].1 && w[0].0 < w[1].0));
        }
    }

    #[test]
    fn capacity_hostile_htm_attributes_capacity_aborts() {
        let machine = MachineModel::machine_a();
        let mut spec = report_spec();
        spec.reads = 4000.0;
        spec.writes = 40.0;
        spec.update_frac = 1.0;
        let out = simulate(&SimConfig {
            machine: &machine,
            spec: &spec,
            config: TmConfig::htm(BackendId::Htm, 4, HtmSetting::DEFAULT),
            txs_per_thread: 6,
            seed: 3,
            record_ops: false,
            scenario: Scenario::Steady,
        });
        assert!(out.fallback_commits > 0);
        assert!(
            out.abort_causes[AbortCode::Capacity.index()] > 0,
            "oversized HTM attempts must be attributed to capacity: {:?}",
            out.abort_causes
        );
    }
}
