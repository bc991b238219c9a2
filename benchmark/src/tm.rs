//! The data plane: the application through `PolyTm::run_tx` on every
//! backend, in slices.
//!
//! One `PolyTm` serves the whole section; between slices the main thread
//! switches backend with `PolyTm::apply`, so the heap state carries over as
//! it does in production. The configurations are interleaved round-robin,
//! which spreads each one's slices over the whole run: a host regime that
//! lasts seconds hits all of them alike. Each slice is
//! `ref_pre › warm › measure › ref_post`; the first round is discarded.
//!
//! Thread 0 is the caller and does the coordinating (`apply`, releasing the
//! barrier). A dedicated coordinator would be a third busy thread on a
//! two-processor host.

use crate::host::{RunnableGuard, SpinBarrier};
use crate::refkernel::RefKernel;
use crate::stats::{per_kref, percentile, ref_ns, to_ref};
use crate::trace::{Recorder, SpanId};
use crate::world::{client_rng, config, warm_ops, Oracle, Workload, World};
use polytm::{BackendId, Worker};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Instant;
use txcore::util::XorShift64;
use txcore::StatsSnapshot;

/// Every n-th operation is timed individually for the latency percentile.
const LATENCY_EVERY: u64 = 32;

/// How much the section runs and over which backends.
pub struct TmPlan {
    pub backends: Vec<BackendId>,
    /// Measured rounds; one warm-up round runs before them. A count, not a
    /// duration: a parent commit and a change do identical work, and what
    /// the leaking heap must hold does not depend on the host's speed.
    pub rounds: usize,
    /// Traced runs record spans on every other round only; the untraced
    /// rounds are the baseline of `benchmark.trace_overhead_pct`.
    pub alternate_tracing: bool,
}

/// What one backend's measured slices produced.
#[derive(Default)]
pub struct BackendSeries {
    /// Committed operations per thousand refs, one value per slice.
    pub tx_per_kref: Vec<f64>,
    /// Whether the slice at the same index recorded spans.
    pub traced: Vec<bool>,
    /// Per-slice p99 of single-operation latency, in refs.
    pub p99_ref: Vec<f64>,
    /// Per-slice p95, likewise.
    pub p95_ref: Vec<f64>,
    /// Raw committed operations per second of wall time.
    pub tx_per_s: Vec<f64>,
    /// Latency samples behind each per-slice p99.
    pub latency_samples: usize,
    /// Counter deltas summed over the measured slices.
    pub stats: StatsSnapshot,
    /// Allocator calls during the measured slices (traced runs only).
    pub allocs: u64,
}

pub struct TmOutcome {
    pub series: Vec<(BackendId, BackendSeries)>,
    /// Reference speed around every measured slice, ns per ref.
    pub ref_ns: Vec<f64>,
    pub serial_escapes: u64,
}

struct ThreadOut {
    bursts: [f64; 2],
    latencies: Vec<u32>,
}

struct Shared<'a> {
    world: &'a World,
    barrier: SpinBarrier,
    quit: AtomicBool,
    slice_ops: u64,
    out: Vec<Mutex<ThreadOut>>,
}

struct Client {
    worker: Worker,
    rng: XorShift64,
    kernel: RefKernel,
    latencies: Vec<u32>,
}

/// One thread's part of a slice, from just after barrier A to barrier D.
/// Returns the wall time of the measured part as this thread saw it; the
/// caller's is the slice's, because it leaves barrier C last or with the
/// last.
fn slice(
    sh: &Shared,
    t: usize,
    c: &mut Client,
    rec: &mut Recorder,
    parent: SpanId,
    id: u32,
) -> f64 {
    let (poly, app) = (&sh.world.poly, &sh.world.app);
    let mut net = 0;
    let span = rec.begin("ref_pre", parent, id);
    let pre = c.kernel.burst_ns();
    rec.end(span, &[]);
    let span = rec.begin("warm", parent, id);
    for _ in 0..warm_ops(sh.slice_ops) {
        app.op(poly, &mut c.worker, &mut c.rng, &mut net);
    }
    sh.barrier.wait(); // B: everyone is warm
    rec.end(span, &[]);
    let span = rec.begin("measure", parent, id);
    c.latencies.clear();
    let start = Instant::now();
    for i in 0..sh.slice_ops {
        if i % LATENCY_EVERY == 0 {
            let t0 = Instant::now();
            app.op(poly, &mut c.worker, &mut c.rng, &mut net);
            c.latencies
                .push(t0.elapsed().as_nanos().min(u32::MAX as u128) as u32);
        } else {
            app.op(poly, &mut c.worker, &mut c.rng, &mut net);
        }
    }
    sh.barrier.wait(); // C: everyone is done
    let wall_ns = start.elapsed().as_nanos() as f64;
    rec.end(span, &[("ops", sh.slice_ops)]);
    let span = rec.begin("ref_post", parent, id);
    let post = c.kernel.burst_ns();
    rec.end(span, &[]);
    app.settle(net);
    {
        let mut out = sh.out[t].lock().expect("no thread panics holding this");
        out.bursts = [pre, post];
        out.latencies.clear();
        out.latencies.extend_from_slice(&c.latencies);
    }
    sh.barrier.wait(); // D: results are published
    wall_ns
}

fn client(world: &World, seed: u64, t: usize) -> Client {
    Client {
        worker: world.poly.register_thread(t),
        rng: client_rng(seed, t),
        kernel: RefKernel::new(t),
        latencies: Vec::new(),
    }
}

/// Run the section. `root` is the workload's span.
pub fn run(
    world: &World,
    w: &Workload,
    seed: u64,
    plan: &TmPlan,
    rec: &mut Recorder,
    root: SpanId,
    oracle: &mut Oracle,
) -> TmOutcome {
    let sh = Shared {
        world,
        barrier: SpinBarrier::new(w.threads),
        quit: AtomicBool::new(false),
        slice_ops: w.slice_ops,
        out: (0..w.threads)
            .map(|_| {
                Mutex::new(ThreadOut {
                    bursts: [0.0; 2],
                    latencies: Vec::new(),
                })
            })
            .collect(),
    };
    let mut outcome = TmOutcome {
        series: plan
            .backends
            .iter()
            .map(|&b| (b, BackendSeries::default()))
            .collect(),
        ref_ns: Vec::new(),
        serial_escapes: 0,
    };
    let span_names: Vec<String> = plan
        .backends
        .iter()
        .map(|&b| format!("slice/{}", crate::world::slug(b)))
        .collect();
    let traced_run = rec.on;
    let escapes_before = world.poly.serial_escapes();
    std::thread::scope(|scope| {
        for t in 1..w.threads {
            let guard = RunnableGuard::acquire();
            let sh = &sh;
            scope.spawn(move || {
                let _guard = guard;
                let _poison = sh.barrier.poison_on_panic();
                let mut c = client(sh.world, seed, t);
                let mut off = Recorder::new(false);
                loop {
                    sh.barrier.wait(); // A: the backend is selected
                    if sh.quit.load(Ordering::Acquire) {
                        break;
                    }
                    slice(sh, t, &mut c, &mut off, 0, 0);
                }
            });
        }
        let _poison = sh.barrier.poison_on_panic();
        let mut c = client(world, seed, 0);
        let mut slice_id = 0;
        let mut latencies: Vec<u32> = Vec::new();
        for round in 0..=plan.rounds {
            rec.on = traced_run && (!plan.alternate_tracing || round % 2 == 1);
            for ((b, series), span_name) in outcome.series.iter_mut().zip(&span_names) {
                slice_id += 1;
                let span = rec.begin(span_name, root, slice_id);
                let before = world.poly.snapshot();
                let allocs_before = crate::alloc::allocations();
                if let Err(e) = world.poly.apply(&config(*b, w.threads)) {
                    oracle.fail(1, format!("switch to {b}: {e}"));
                }
                sh.barrier.wait(); // A
                let wall_ns = slice(&sh, 0, &mut c, rec, span, slice_id);
                let delta = world.poly.snapshot().since(&before);
                let allocs = crate::alloc::allocations() - allocs_before;
                rec.end(
                    span,
                    &[
                        ("commits", delta.commits),
                        ("aborts", delta.total_aborts()),
                        ("fallback_commits", delta.fallback_commits),
                        ("committed_reads", delta.committed_reads),
                        ("committed_writes", delta.committed_writes),
                    ],
                );
                let issued = (w.slice_ops + warm_ops(w.slice_ops)) * w.threads as u64;
                oracle.attempted += issued;
                oracle.expect_eq("commits in slice", delta.commits, issued);
                if round == 0 {
                    continue; // warm-up round
                }
                // A slice ends when its slowest thread does, so it is
                // divided by the reference speed of the slowest thread.
                let mut r = 0.0f64;
                latencies.clear();
                for out in &sh.out {
                    let out = out.lock().expect("no thread panics holding this");
                    r = r.max(ref_ns(&out.bursts));
                    latencies.extend_from_slice(&out.latencies);
                }
                let ops = (w.slice_ops * w.threads as u64) as f64;
                series.tx_per_kref.push(per_kref(ops, wall_ns, r));
                series.traced.push(rec.on);
                series.tx_per_s.push(ops * 1e9 / wall_ns);
                series.latency_samples = latencies.len();
                series
                    .p99_ref
                    .push(to_ref(percentile(&mut latencies, 99.0), r));
                series
                    .p95_ref
                    .push(to_ref(percentile(&mut latencies, 95.0), r));
                series.stats = series.stats.merge(&delta);
                outcome.ref_ns.push(r);
                series.allocs += allocs;
            }
            world.check(oracle);
        }
        sh.quit.store(true, Ordering::Release);
        sh.barrier.wait(); // A, for the last time
    });
    rec.on = traced_run;
    outcome.serial_escapes = world.poly.serial_escapes() - escapes_before;
    outcome
}
