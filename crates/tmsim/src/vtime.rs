//! Virtual-time cost model and the `vtime` scalability report.
//!
//! The discrete-event scheduler in [`crate::sched`] executes the *real*
//! backend code paths, but charges time on a **virtual clock** instead of
//! the host's: every operation costs a fixed number of *vticks* (1/1024 ns)
//! derived from the same [`crate::model`] coefficients the analytical model
//! uses, scaled by the simulated machine's SMT efficiency, socket factors
//! and Amdahl limit. Because every arithmetic step here is either exact
//! integer math or an IEEE-754 exactly-rounded f64 primitive (`+ - * /`,
//! `floor`, `round`, bit casts — never `powf`/`ln`/`exp`, which libm is
//! free to round differently per platform), the resulting curves are
//! **byte-identical across hosts**, `--jobs` counts and repeated same-seed
//! runs.
//!
//! What virtual nanoseconds claim: the *relative* structure of TM
//! performance (scalability shapes, backend orderings, switch/drain
//! latencies) under the repo's analytical coefficients, reproduced exactly
//! anywhere. What they do not claim: wall-clock performance of any real
//! hardware.

use crate::machine::MachineModel;
use crate::model::backend_coefs;
use crate::sched::{simulate, Scenario, SimConfig};
use crate::workload::{WorkloadFamily, WorkloadSpec};
use polytm::{BackendId, HtmSetting, TmConfig};
use std::fmt::Write as _;
use std::sync::Arc;
use stm::Durable;
use txcore::{run_tx, AbortCode, DurabilityMode, ThreadCtx, TmBackend, TmSystem};

/// Virtual-clock resolution: vticks per nanosecond. All scheduler math is
/// u64 vticks; only reports divide back down to whole virtual ns.
pub const TICKS_PER_NS: u64 = 1024;

/// SplitMix64: the deterministic integer mixer seeding every scheduler
/// decision (tie-breaking priorities, cost jitter, address draws).
#[inline]
pub(crate) fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Natural log from exactly-rounded primitives only: exponent extraction
/// via bit manipulation plus the atanh series on the normalized mantissa.
/// Accurate to ~1 ulp for the ranges the cost model feeds it (x in
/// [0.5, 16]); bitwise identical on every IEEE-754 host.
fn det_ln(x: f64) -> f64 {
    debug_assert!(x.is_finite() && x > 0.0, "det_ln domain: {x}");
    let bits = x.to_bits();
    let mut e = ((bits >> 52) & 0x7ff) as i64 - 1023;
    let mut m = f64::from_bits((bits & 0x000F_FFFF_FFFF_FFFF) | (1023u64 << 52));
    // Normalize the mantissa into [√½, √2) so the series argument stays
    // small (|t| ≤ 0.172) and 13 terms reach full f64 precision.
    if m >= std::f64::consts::SQRT_2 {
        m *= 0.5;
        e += 1;
    }
    let t = (m - 1.0) / (m + 1.0);
    let t2 = t * t;
    let mut term = t;
    let mut sum = t;
    for k in 1..=12u32 {
        term *= t2;
        sum += term / f64::from(2 * k + 1);
    }
    e as f64 * std::f64::consts::LN_2 + 2.0 * sum
}

/// e^x from exactly-rounded primitives only: split off `k = ⌊x/ln 2⌋`,
/// Taylor-expand the remainder (< ln 2) and scale by a bit-constructed
/// power of two.
fn det_exp(x: f64) -> f64 {
    debug_assert!(x.is_finite() && x.abs() < 64.0, "det_exp domain: {x}");
    let k = (x / std::f64::consts::LN_2).floor();
    let r = x - k * std::f64::consts::LN_2;
    let mut term = 1.0;
    let mut sum = 1.0;
    for i in 1..20u32 {
        term = term * r / f64::from(i);
        sum += term;
    }
    let scale = f64::from_bits(((1023 + k as i64) as u64) << 52);
    sum * scale
}

/// Host-independent `base^exp` for the cost model's socket-sensitivity
/// factor. `powf` is *not* required to be exactly rounded by IEEE-754, so
/// different libms disagree in the last ulps; this composition of exact
/// primitives does not.
pub fn det_pow(base: f64, exp: f64) -> f64 {
    if exp == 0.0 || base == 1.0 {
        return 1.0;
    }
    det_exp(exp * det_ln(base))
}

/// Per-operation virtual-time charges, in vticks (1/1024 ns), for one
/// (machine, workload, backend, thread-count) cell.
#[derive(Debug, Clone, Copy)]
pub struct OpCosts {
    /// Transaction begin (the `tx_ns` share spent on snapshotting).
    pub begin: u64,
    /// One transactional read.
    pub read: u64,
    /// One transactional write.
    pub write: u64,
    /// Commit (the `tx_ns` share spent on validation + write-back).
    pub commit: u64,
    /// Cleanup charge of one aborted attempt.
    pub abort: u64,
    /// Uninstrumented per-transaction think time (`base_tx_us`).
    pub think: u64,
    /// First-retry backoff quantum (doubled per attempt, capped).
    pub backoff: u64,
    /// Adapter cost of installing a new backend after quiescence.
    pub switch_apply: u64,
    /// Adapter cost of re-publishing the gate after a resize.
    pub resize_apply: u64,
}

/// Quantize a nanosecond cost to vticks (at least one: the virtual clock
/// must advance on every step or same-time events could cycle forever).
fn q(ns: f64) -> u64 {
    let t = (ns * TICKS_PER_NS as f64).round();
    if t < 1.0 {
        1
    } else {
        t as u64
    }
}

/// The virtual-time cost table for running `spec` on `backend` with
/// `threads` threads of `machine`. Uses the same coefficients as
/// [`crate::PerfModel`]: per-op instrumentation ns, SMT-aware effective
/// parallelism, the Amdahl limit and the cross-socket coherence factor
/// (via [`det_pow`], so the table is host-independent).
pub fn op_costs(
    machine: &MachineModel,
    spec: &WorkloadSpec,
    backend: BackendId,
    threads: usize,
) -> OpCosts {
    let c = backend_coefs(backend);
    let n = threads.clamp(1, machine.hw_threads.max(1));
    let eff = machine.effective_parallelism(n);
    let s = spec.scalability;
    let parallel = 1.0 / ((1.0 - s) + s / eff);
    let socket = det_pow(machine.socket_factor(n), c.socket_sens);
    // Per-thread slowdown: n threads share `parallel` effective cores, so
    // each op takes n/parallel longer on the virtual clock than serial
    // (aggregate throughput then scales by exactly `parallel`).
    let slow = socket * (n as f64 / parallel) / machine.speed;
    OpCosts {
        begin: q(c.tx_ns * 0.4 * slow),
        read: q(c.read_ns * slow),
        write: q(c.write_ns * slow),
        commit: q(c.tx_ns * 0.6 * slow),
        abort: q(c.tx_ns * c.abort_cost * slow),
        think: q(spec.base_tx_us * 1000.0 * slow),
        backoff: q(40.0 * slow),
        switch_apply: q(2500.0 * slow),
        resize_apply: q(800.0 * slow),
    }
}

/// [`op_costs`] plus the commit-time durability tax of `config`'s
/// [`DurabilityMode`](txcore::DurabilityMode). For volatile configs this is
/// bit-identical to [`op_costs`] (the tax is exactly zero), so the classic
/// vtime curves are unchanged; durable configs pay the modeled
/// log-append/fsync/checkpoint cost on every commit. Like the analytical
/// model, the tax is *not* divided by machine speed: it models I/O, not
/// instructions.
pub fn op_costs_for_config(
    machine: &MachineModel,
    spec: &WorkloadSpec,
    config: &TmConfig,
    threads: usize,
) -> OpCosts {
    let mut costs = op_costs(machine, spec, config.backend, threads);
    let tax = crate::model::durability_tax_ns(config, spec.writes);
    if tax > 0.0 {
        costs.commit += q(tax);
    }
    costs
}

/// One point of a scalability curve, all in exact integers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CurvePoint {
    /// Thread count of this cell.
    pub threads: usize,
    /// Committed transactions per virtual second.
    pub tx_per_sec: u64,
    /// Committed transactions.
    pub commits: u64,
    /// Aborted attempts.
    pub aborts: u64,
    /// Commits that went through the HTM fallback path.
    pub fallbacks: u64,
    /// Virtual time the run took.
    pub virtual_ns: u64,
}

/// A backend's scalability curve over the machine's thread counts.
#[derive(Debug, Clone)]
pub struct CurveSeries {
    /// The backend the curve measures.
    pub backend: BackendId,
    /// One point per simulated thread count, ascending.
    pub points: Vec<CurvePoint>,
}

/// Measured latency of one quiesce-and-switch reconfiguration.
#[derive(Debug, Clone, Copy)]
pub struct SwitchResult {
    /// Backend running before the switch.
    pub from: BackendId,
    /// Backend installed by the switch.
    pub to: BackendId,
    /// Thread count during the switch.
    pub threads: usize,
    /// Block → drained → installed latency, virtual ns.
    pub latency_ns: u64,
}

/// Measured latencies of one shrink-then-grow thread resize.
#[derive(Debug, Clone, Copy)]
pub struct ResizeResult {
    /// Thread count before the shrink.
    pub from_threads: usize,
    /// Thread count while shrunk.
    pub to_threads: usize,
    /// Block → drained quiescence latency of the shrink, virtual ns.
    pub shrink_ns: u64,
    /// Re-enable latency of the grow, virtual ns.
    pub grow_ns: u64,
}

/// The full deterministic scalability report of one machine.
#[derive(Debug, Clone)]
pub struct VtimeReport {
    /// Machine name (`machine-a` / `machine-b`).
    pub machine: &'static str,
    /// Scheduler seed the report was generated under.
    pub seed: u64,
    /// One curve per simulated backend.
    pub curves: Vec<CurveSeries>,
    /// The Tl2 → NOrec switch measurement.
    pub switch: SwitchResult,
    /// The shrink/grow resize measurement.
    pub resize: ResizeResult,
}

impl VtimeReport {
    /// Stable text rendering (the golden-fixture format): pure integers,
    /// fixed column widths, no floats and no host-dependent content.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "vtime scalability on {} (genome workload, seed {})",
            self.machine, self.seed
        );
        let _ = writeln!(
            out,
            "{:<8} {:>7} {:>12} {:>8} {:>7} {:>9} {:>14}",
            "backend", "threads", "tx_per_sec", "commits", "aborts", "fallback", "virtual_ns"
        );
        for curve in &self.curves {
            for p in &curve.points {
                let _ = writeln!(
                    out,
                    "{:<8} {:>7} {:>12} {:>8} {:>7} {:>9} {:>14}",
                    curve.backend.label(),
                    p.threads,
                    p.tx_per_sec,
                    p.commits,
                    p.aborts,
                    p.fallbacks,
                    p.virtual_ns
                );
            }
        }
        let _ = writeln!(
            out,
            "switch {} -> {} at {} threads: {} virtual ns",
            self.switch.from.label(),
            self.switch.to.label(),
            self.switch.threads,
            self.switch.latency_ns
        );
        let _ = writeln!(
            out,
            "resize {} -> {} threads: shrink {} virtual ns, grow {} virtual ns",
            self.resize.from_threads,
            self.resize.to_threads,
            self.resize.shrink_ns,
            self.resize.grow_ns
        );
        out
    }
}

/// Transactions each simulated thread runs per curve point. Fixed (never
/// scaled by `--quick`): the byte-identity contract requires every host to
/// run the exact same virtual work.
pub const TXS_PER_THREAD: u32 = 24;

/// The canonical scheduler seed of the checked-in reports: the golden
/// fixtures and the `experiments vtime` and `experiments durable` stages
/// all use this seed, so the stages print the fixtures' bytes exactly.
pub const REPORT_SEED: u64 = 7;

/// The fig6-style workload the report runs everywhere.
pub fn report_spec() -> WorkloadSpec {
    WorkloadFamily::Genome.base_spec()
}

fn curve_cell(
    machine: &MachineModel,
    spec: &WorkloadSpec,
    backend: BackendId,
    threads: usize,
    seed: u64,
) -> CurvePoint {
    let config = if backend.is_hardware() {
        TmConfig::htm(backend, threads, HtmSetting::DEFAULT)
    } else {
        TmConfig::stm(backend, threads)
    };
    let out = simulate(&SimConfig {
        machine,
        spec,
        config,
        txs_per_thread: TXS_PER_THREAD,
        seed,
        record_ops: false,
        scenario: Scenario::Steady,
    });
    CurvePoint {
        threads,
        tx_per_sec: out.tx_per_sec,
        commits: out.commits,
        aborts: out.aborts,
        fallbacks: out.fallback_commits,
        virtual_ns: out.elapsed_vns,
    }
}

/// The deterministic scalability report of `machine` under `seed`:
/// machine-a sweeps TL2/NOrec/HTM over 1..=8 threads, machine-b sweeps
/// TL2/NOrec/SwissTM over 1..48, and both measure one TL2 → NOrec switch
/// and one shrink/grow resize. Same (machine, seed) → byte-identical
/// [`VtimeReport::render`] output on any host.
pub fn vtime_report(machine: &MachineModel, seed: u64) -> VtimeReport {
    let spec = report_spec();
    let (backends, threads): (Vec<BackendId>, Vec<usize>) = if machine.has_htm {
        (
            vec![BackendId::Tl2, BackendId::NOrec, BackendId::Htm],
            (1..=8).collect(),
        )
    } else {
        (
            vec![BackendId::Tl2, BackendId::NOrec, BackendId::SwissTm],
            vec![1, 2, 4, 6, 8, 16, 32, 48],
        )
    };
    let curves = backends
        .iter()
        .map(|&b| CurveSeries {
            backend: b,
            points: threads
                .iter()
                .map(|&n| curve_cell(machine, &spec, b, n, seed))
                .collect(),
        })
        .collect();

    let re_threads = if machine.has_htm { 8 } else { 16 };
    let sw = simulate(&SimConfig {
        machine,
        spec: &spec,
        config: TmConfig::stm(BackendId::Tl2, re_threads),
        txs_per_thread: TXS_PER_THREAD,
        seed,
        record_ops: false,
        scenario: Scenario::Switch {
            to: BackendId::NOrec,
        },
    });
    let rz = simulate(&SimConfig {
        machine,
        spec: &spec,
        config: TmConfig::stm(BackendId::Tl2, re_threads),
        txs_per_thread: TXS_PER_THREAD,
        seed,
        record_ops: false,
        scenario: Scenario::Resize {
            to_threads: re_threads / 2,
        },
    });
    VtimeReport {
        machine: machine.name,
        seed,
        curves,
        switch: SwitchResult {
            from: BackendId::Tl2,
            to: BackendId::NOrec,
            threads: re_threads,
            latency_ns: sw.switch_latency_vns.unwrap_or(0),
        },
        resize: ResizeResult {
            from_threads: re_threads,
            to_threads: re_threads / 2,
            shrink_ns: rz.shrink_latency_vns.unwrap_or(0),
            grow_ns: rz.grow_latency_vns.unwrap_or(0),
        },
    }
}

/// Hot stripes a conflict-profile cell reports (DESIGN.md §12).
pub const CONFLICT_TOP_K: usize = 3;

/// One backend's conflict-observatory cell at the machine's contended
/// thread count: abort attribution, wasted-work ledger and hot stripes,
/// all exact integers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConflictCell {
    /// The backend the cell profiles.
    pub backend: BackendId,
    /// Committed transactions.
    pub commits: u64,
    /// Aborted attempts.
    pub aborts: u64,
    /// Aborts per cause, indexed by [`AbortCode::index`]. Sums to
    /// `aborts`.
    pub abort_causes: [u64; AbortCode::ALL.len()],
    /// Top-[`CONFLICT_TOP_K`] `(stripe, conflicts)`, count descending then
    /// stripe ascending.
    pub top_stripes: Vec<(u32, u64)>,
    /// Ops retired by committed attempts.
    pub committed_ops: u64,
    /// Ops executed and discarded by rolled-back attempts.
    pub wasted_ops: u64,
    /// Committed / total work in exact integer per-mille.
    pub goodput_permille: u64,
    /// Modeled virtual ns thrown away by rolled-back attempts.
    pub wasted_vns: u64,
}

/// The deterministic conflict profile of one machine: every swept backend
/// at the machine's contended thread count (where the switch/resize
/// measurements also run). Same (machine, seed) → byte-identical
/// [`ConflictProfile::render`] on any host.
#[derive(Debug, Clone)]
pub struct ConflictProfile {
    /// Machine name (`machine-a` / `machine-b`).
    pub machine: &'static str,
    /// Scheduler seed the profile was generated under.
    pub seed: u64,
    /// The contended thread count every cell ran at.
    pub threads: usize,
    /// One cell per swept backend, in sweep order.
    pub cells: Vec<ConflictCell>,
}

impl ConflictProfile {
    /// Stable text rendering (the golden-fixture format): pure integers,
    /// fixed column widths, no floats and no host-dependent content.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "vtime conflict profile on {} (genome workload, seed {}, {} threads)",
            self.machine, self.seed, self.threads
        );
        let _ = writeln!(
            out,
            "{:<8} {:>8} {:>7} {:>10} {:>13} {:>10} {:>12}",
            "backend",
            "commits",
            "aborts",
            "goodput_pm",
            "committed_ops",
            "wasted_ops",
            "wasted_vns"
        );
        for cell in &self.cells {
            let _ = writeln!(
                out,
                "{:<8} {:>8} {:>7} {:>10} {:>13} {:>10} {:>12}",
                cell.backend.label(),
                cell.commits,
                cell.aborts,
                cell.goodput_permille,
                cell.committed_ops,
                cell.wasted_ops,
                cell.wasted_vns
            );
            let causes: Vec<String> = AbortCode::ALL
                .iter()
                .filter(|c| cell.abort_causes[c.index()] > 0)
                .map(|c| format!("{} x{}", c.slug(), cell.abort_causes[c.index()]))
                .collect();
            let _ = writeln!(
                out,
                "  causes: {}",
                if causes.is_empty() {
                    "none".to_string()
                } else {
                    causes.join(", ")
                }
            );
            let stripes: Vec<String> = cell
                .top_stripes
                .iter()
                .map(|&(s, n)| format!("stripe {s} x{n}"))
                .collect();
            let _ = writeln!(
                out,
                "  hot stripes: {}",
                if stripes.is_empty() {
                    "none".to_string()
                } else {
                    stripes.join(", ")
                }
            );
        }
        out
    }
}

/// The deterministic conflict profile of `machine` under `seed`: the same
/// backend sweep as [`vtime_report`], each run once at the machine's
/// contended thread count (8 with HTM, 16 without — where the report also
/// measures its switch and resize). Attribution is passive bookkeeping in
/// the scheduler, so these cells replay byte-identical schedules to the
/// report's own curve cells at that thread count.
pub fn conflict_profile(machine: &MachineModel, seed: u64) -> ConflictProfile {
    let spec = report_spec();
    let backends: Vec<BackendId> = if machine.has_htm {
        vec![BackendId::Tl2, BackendId::NOrec, BackendId::Htm]
    } else {
        vec![BackendId::Tl2, BackendId::NOrec, BackendId::SwissTm]
    };
    let threads = if machine.has_htm { 8 } else { 16 };
    let cells = backends
        .iter()
        .map(|&b| {
            let config = if b.is_hardware() {
                TmConfig::htm(b, threads, HtmSetting::DEFAULT)
            } else {
                TmConfig::stm(b, threads)
            };
            let out = simulate(&SimConfig {
                machine,
                spec: &spec,
                config,
                txs_per_thread: TXS_PER_THREAD,
                seed,
                record_ops: false,
                scenario: Scenario::Steady,
            });
            let mut top_stripes = out.conflict_stripes.clone();
            top_stripes.truncate(CONFLICT_TOP_K);
            ConflictCell {
                backend: b,
                commits: out.commits,
                aborts: out.aborts,
                abort_causes: out.abort_causes,
                top_stripes,
                committed_ops: out.committed_ops(),
                wasted_ops: out.wasted_ops(),
                goodput_permille: out.goodput_permille(),
                wasted_vns: out.wasted_vticks() / TICKS_PER_NS,
            }
        })
        .collect();
    ConflictProfile {
        machine: machine.name,
        seed,
        threads,
        cells,
    }
}

/// One cell of the durability-tax curve: a (mode, threads) run's exact
/// integer outcome plus the persistent-heap counters it generated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DurablePoint {
    /// Durability mode of the cell ([`DurabilityMode::Volatile`] rows run
    /// plain NOrec, the concurrency-equal baseline).
    pub mode: DurabilityMode,
    /// Thread count of the cell.
    pub threads: usize,
    /// Committed transactions per virtual second.
    pub tx_per_sec: u64,
    /// Committed transactions.
    pub commits: u64,
    /// Virtual time the run took, whole ns.
    pub virtual_ns: u64,
    /// Redo-log words the run appended.
    pub log_words: u64,
    /// Modeled fsyncs the run issued.
    pub fsyncs: u64,
    /// Checkpoints (fsync + apply + truncate) the run folded.
    pub checkpoints: u64,
}

/// Outcome of the deterministic crash-recovery drill: one seeded
/// single-thread workload, a crash armed two persistence steps into the
/// next commit's journal append, then restart + recovery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryDrill {
    /// Transactions committed (and acked) before the crash was armed.
    pub committed_before_crash: u64,
    /// The 1-based persistence step the crash landed on.
    pub crash_step: u64,
    /// Complete log records recovery replayed into the persisted image.
    pub replayed_txs: u64,
    /// Payload words recovery applied.
    pub replayed_words: u64,
    /// Words of the torn tail record discarded as a unit.
    pub torn_words: u64,
    /// Modeled recovery latency (constants × counts), ns.
    pub recovery_ns: u64,
}

/// The durable scalability report of one machine: volatile-NOrec baseline
/// vs the Durable backend in Buffered and Strict modes, plus one crash
/// drill. Same (machine, seed) → byte-identical [`DurableReport::render`].
#[derive(Debug, Clone)]
pub struct DurableReport {
    /// Machine name (`machine-a` / `machine-b`).
    pub machine: &'static str,
    /// Scheduler seed the report was generated under.
    pub seed: u64,
    /// Mode-major curve cells, threads ascending within each mode.
    pub points: Vec<DurablePoint>,
    /// The crash-recovery drill outcome.
    pub drill: RecoveryDrill,
}

impl DurableReport {
    /// Stable text rendering: pure integers, fixed column widths, no
    /// floats and no host-dependent content.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "durable vtime on {} (genome workload, seed {})",
            self.machine, self.seed
        );
        let _ = writeln!(
            out,
            "{:<9} {:>7} {:>12} {:>8} {:>10} {:>7} {:>12} {:>14}",
            "mode",
            "threads",
            "tx_per_sec",
            "commits",
            "log_words",
            "fsyncs",
            "checkpoints",
            "virtual_ns"
        );
        for p in &self.points {
            let _ = writeln!(
                out,
                "{:<9} {:>7} {:>12} {:>8} {:>10} {:>7} {:>12} {:>14}",
                p.mode.slug(),
                p.threads,
                p.tx_per_sec,
                p.commits,
                p.log_words,
                p.fsyncs,
                p.checkpoints,
                p.virtual_ns
            );
        }
        let d = &self.drill;
        let _ = writeln!(
            out,
            "recovery drill: crash at step {} after {} commits; replayed {} txs \
             ({} words, {} torn), recovery {} ns",
            d.crash_step,
            d.committed_before_crash,
            d.replayed_txs,
            d.replayed_words,
            d.torn_words,
            d.recovery_ns
        );
        out
    }
}

fn durable_cell(
    machine: &MachineModel,
    spec: &WorkloadSpec,
    mode: DurabilityMode,
    threads: usize,
    seed: u64,
) -> DurablePoint {
    let config = if mode.is_durable() {
        TmConfig::durable(threads, mode)
    } else {
        TmConfig::stm(BackendId::NOrec, threads)
    };
    let out = simulate(&SimConfig {
        machine,
        spec,
        config,
        txs_per_thread: TXS_PER_THREAD,
        seed,
        record_ops: false,
        scenario: Scenario::Steady,
    });
    let stats = out.durable.unwrap_or_default();
    DurablePoint {
        mode,
        threads,
        tx_per_sec: out.tx_per_sec,
        commits: out.commits,
        virtual_ns: out.elapsed_vns,
        log_words: stats.log_words,
        fsyncs: stats.fsyncs,
        checkpoints: stats.checkpoints,
    }
}

/// The deterministic crash-recovery drill: 20 seeded buffered commits,
/// then a crash armed on the next commit's second persistence step, then
/// restart + recovery. Everything downstream of `seed` is exact integer
/// work on one thread, so the outcome is byte-identical everywhere.
pub fn recovery_drill(seed: u64) -> RecoveryDrill {
    const DRILL_TXS: u64 = 20;
    let sys = Arc::new(TmSystem::new(256));
    let tm = Durable::with_new_pheap(Arc::clone(&sys));
    tm.set_mode(DurabilityMode::Buffered);
    let mut ctx = ThreadCtx::new(0);
    let slots: Vec<_> = (0..8).map(|_| sys.heap.alloc(1)).collect();
    let mut r = seed;
    for i in 0..DRILL_TXS {
        r = splitmix64(r);
        let a = slots[(r % 8) as usize];
        let b = slots[((r >> 8) % 8) as usize];
        let (va, vb) = (r ^ i, r.rotate_left(13));
        run_tx(&tm, &mut ctx, |tx| {
            tx.write(a, va)?;
            tx.write(b, vb)
        });
    }
    // The next commit journals its header at steps+1; dying at steps+2
    // leaves a torn (header-only) tail record for recovery to discard.
    tm.pheap().set_crash_at(tm.pheap().steps() + 2);
    tm.begin(&mut ctx).unwrap();
    tm.write(&mut ctx, slots[0], 0xDEAD).unwrap();
    let _ = tm.commit(&mut ctx);
    let crash_step = tm.pheap().crash_step();
    tm.pheap().restart(&sys.heap);
    let report = tm.pheap().recover(&sys.heap).expect("recovery completes");
    RecoveryDrill {
        committed_before_crash: DRILL_TXS,
        crash_step,
        replayed_txs: report.replayed_seqs.len() as u64,
        replayed_words: report.replayed_words,
        torn_words: report.torn_words,
        recovery_ns: report.recovery_ns,
    }
}

/// The deterministic durability report of `machine` under `seed`: a
/// volatile NOrec baseline against Durable-Buffered and Durable-Strict
/// over a shared thread sweep, plus [`recovery_drill`]. The volatile rows
/// reuse the classic cost table ([`op_costs_for_config`] is bit-identical
/// to [`op_costs`] when the tax is zero), so the gap between rows *is* the
/// durability tax.
pub fn durable_report(machine: &MachineModel, seed: u64) -> DurableReport {
    let spec = report_spec();
    let threads: Vec<usize> = if machine.hw_threads >= 16 {
        vec![1, 4, 8, 16]
    } else {
        vec![1, 2, 4, 8]
    };
    let modes = [
        DurabilityMode::Volatile,
        DurabilityMode::Buffered,
        DurabilityMode::Strict,
    ];
    let points = modes
        .iter()
        .flat_map(|&m| threads.iter().map(move |&n| (m, n)).collect::<Vec<_>>())
        .map(|(m, n)| durable_cell(machine, &spec, m, n, seed))
        .collect();
    DurableReport {
        machine: machine.name,
        seed,
        points,
        drill: recovery_drill(seed),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn det_ln_matches_std() {
        for &x in &[
            0.5,
            std::f64::consts::FRAC_1_SQRT_2,
            1.0,
            1.35,
            2.0,
            3.1,
            8.0,
            15.9,
        ] {
            let (a, b) = (det_ln(x), x.ln());
            assert!(
                (a - b).abs() <= 1e-15 * b.abs().max(1.0),
                "ln({x}): {a} vs {b}"
            );
        }
    }

    #[test]
    fn det_exp_matches_std() {
        for &x in &[-3.0, -0.4, 0.0, 0.3, 1.0, 2.5, 7.2] {
            let (a, b) = (det_exp(x), x.exp());
            assert!((a - b).abs() <= 1e-14 * b.abs(), "exp({x}): {a} vs {b}");
        }
    }

    #[test]
    fn det_pow_matches_std_on_cost_model_range() {
        for &base in &[1.0, 1.05, 1.35, 1.7, 2.05] {
            for &e in &[0.0, 1.0, 1.1, 2.0, 2.2] {
                let (a, b) = (det_pow(base, e), base.powf(e));
                assert!(
                    (a - b).abs() <= 1e-12 * b.abs().max(1.0),
                    "{base}^{e}: {a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn op_costs_scale_with_contended_resources() {
        let m = MachineModel::machine_b();
        let spec = report_spec();
        let c1 = op_costs(&m, &spec, BackendId::Tl2, 1);
        let c48 = op_costs(&m, &spec, BackendId::Tl2, 48);
        // 48 threads across 4 sockets: per-op virtual cost must inflate.
        assert!(c48.read > c1.read);
        assert!(c48.commit > c1.commit);
        // NOrec's socket sensitivity inflates it harder than TL2.
        let n48 = op_costs(&m, &spec, BackendId::NOrec, 48);
        let n1 = op_costs(&m, &spec, BackendId::NOrec, 1);
        let tl2_ratio = c48.commit as f64 / c1.commit as f64;
        let norec_ratio = n48.commit as f64 / n1.commit as f64;
        assert!(norec_ratio > tl2_ratio, "{norec_ratio} vs {tl2_ratio}");
    }

    #[test]
    fn quantizer_never_returns_zero() {
        assert_eq!(q(0.0), 1);
        assert_eq!(q(1.0), TICKS_PER_NS);
    }

    #[test]
    fn config_costs_match_classic_costs_for_volatile_configs() {
        let m = MachineModel::machine_a();
        let spec = report_spec();
        for id in [BackendId::Tl2, BackendId::NOrec, BackendId::Htm] {
            for n in [1usize, 4, 8] {
                let cfg = if id.is_hardware() {
                    TmConfig::htm(id, n, HtmSetting::DEFAULT)
                } else {
                    TmConfig::stm(id, n)
                };
                let classic = op_costs(&m, &spec, id, n);
                let by_cfg = op_costs_for_config(&m, &spec, &cfg, n);
                assert_eq!(classic.commit, by_cfg.commit, "{id:?} t{n}");
                assert_eq!(classic.read, by_cfg.read);
            }
        }
    }

    #[test]
    fn durable_configs_pay_the_tax_on_commit_only() {
        let m = MachineModel::machine_a();
        let spec = report_spec();
        let volatile = op_costs(&m, &spec, BackendId::Durable, 4);
        let buffered = op_costs_for_config(
            &m,
            &spec,
            &TmConfig::durable(4, DurabilityMode::Buffered),
            4,
        );
        let strict =
            op_costs_for_config(&m, &spec, &TmConfig::durable(4, DurabilityMode::Strict), 4);
        assert!(buffered.commit > volatile.commit);
        assert!(strict.commit > buffered.commit, "per-tx fsync dominates");
        assert_eq!(strict.read, volatile.read, "reads are never taxed");
        assert_eq!(strict.begin, volatile.begin);
    }

    #[test]
    fn virtual_clock_matches_the_wasted_work_model() {
        // The wasted-work ledger models vticks with txcore's constant; a
        // drift between the two clocks would silently skew wasted_vns.
        assert_eq!(TICKS_PER_NS, txcore::conflict::VTICKS_PER_NS);
    }

    #[test]
    fn conflict_profile_is_deterministic_and_conserves_attribution() {
        let m = MachineModel::machine_a();
        let a = conflict_profile(&m, REPORT_SEED);
        let b = conflict_profile(&m, REPORT_SEED);
        assert_eq!(a.render(), b.render(), "byte-identical reruns");
        assert_eq!(a.threads, 8);
        assert_eq!(a.cells.len(), 3);
        for cell in &a.cells {
            let by_cause: u64 = cell.abort_causes.iter().sum();
            assert_eq!(
                by_cause, cell.aborts,
                "{:?}: every abort has a cause",
                cell.backend
            );
            assert!(cell.goodput_permille <= 1000);
            assert!(cell.top_stripes.len() <= CONFLICT_TOP_K);
            // Top stripes are a prefix of a total order: count descending,
            // stripe ascending on ties.
            for w in cell.top_stripes.windows(2) {
                assert!(w[0].1 > w[1].1 || (w[0].1 == w[1].1 && w[0].0 < w[1].0));
            }
            if cell.aborts == 0 {
                assert_eq!(cell.wasted_ops, 0, "no rollbacks, no waste");
                assert_eq!(cell.goodput_permille, 1000);
            }
        }
        // Attribution is passive: the profile's cells replay the report's
        // own t8 schedules, so commits/aborts must agree exactly.
        let report = vtime_report(&m, REPORT_SEED);
        for (cell, curve) in a.cells.iter().zip(&report.curves) {
            assert_eq!(cell.backend, curve.backend);
            let p = curve.points.iter().find(|p| p.threads == 8).unwrap();
            assert_eq!(cell.commits, p.commits, "{:?}", cell.backend);
            assert_eq!(cell.aborts, p.aborts, "{:?}", cell.backend);
        }
    }

    #[test]
    fn contended_stm_cells_attribute_stripes_and_waste() {
        // At 16 threads on the hot-slot genome workload the STM backends
        // must see real conflicts — and every conflict-coded abort carries
        // a stripe, so the heatmap cannot be empty.
        let profile = conflict_profile(&MachineModel::machine_b(), REPORT_SEED);
        assert_eq!(profile.threads, 16);
        let contended: Vec<_> = profile.cells.iter().filter(|c| c.aborts > 0).collect();
        assert!(!contended.is_empty(), "no cell saw contention at t16");
        for cell in contended {
            assert!(
                cell.abort_causes[AbortCode::Conflict.index()] > 0,
                "{:?}: contended aborts should include conflicts",
                cell.backend
            );
            assert!(!cell.top_stripes.is_empty(), "{:?}", cell.backend);
            assert!(cell.wasted_ops > 0, "{:?}", cell.backend);
            assert!(cell.goodput_permille < 1000, "{:?}", cell.backend);
        }
    }

    #[test]
    fn durable_report_is_deterministic_and_shows_the_tax() {
        let m = MachineModel::machine_a();
        let a = durable_report(&m, REPORT_SEED);
        let b = durable_report(&m, REPORT_SEED);
        assert_eq!(a.render(), b.render(), "byte-identical reruns");
        // Strict throughput never beats the volatile baseline at equal
        // threads: the modeled fsync is pure added latency.
        for (v, s) in a
            .points
            .iter()
            .filter(|p| p.mode == DurabilityMode::Volatile)
            .zip(a.points.iter().filter(|p| p.mode == DurabilityMode::Strict))
        {
            assert_eq!(v.threads, s.threads);
            assert!(
                s.tx_per_sec < v.tx_per_sec,
                "t{}: strict {} vs volatile {}",
                v.threads,
                s.tx_per_sec,
                v.tx_per_sec
            );
            // Read-only commits never journal, so fsyncs track update
            // transactions, not total commits.
            assert!(s.fsyncs > 0 && s.log_words > 0, "strict run journaled");
        }
        // Buffered amortizes: strictly fewer fsyncs than strict at equal
        // threads, but the log traffic (words appended) is identical.
        for (bu, st) in a
            .points
            .iter()
            .filter(|p| p.mode == DurabilityMode::Buffered)
            .zip(a.points.iter().filter(|p| p.mode == DurabilityMode::Strict))
        {
            assert!(bu.fsyncs < st.fsyncs, "t{}", bu.threads);
        }
        let d = a.drill;
        assert_eq!(d.committed_before_crash, 20);
        assert!(d.replayed_txs > 0, "acked commits recovered");
        assert!(d.torn_words > 0, "the armed crash left a torn tail");
        assert!(d.recovery_ns >= txcore::RECOVERY_BASE_NS);
    }
}
