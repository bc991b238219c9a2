//! The control plane: `PolyTm::apply`, idle and under load.
//!
//! The main thread walks a fixed cycle of eight configurations (backend
//! changes and 2↔1 resizes), forty applies per slice, each timed on its
//! own. First with nobody inside a transaction — the protocol's own cost:
//! gate block/drain/epoch, backend swap — then paced 500 µs apart while one
//! client runs the workload's operation mix in slot 0, which adds the wait
//! for the client to drain and the cache-line traffic with it. The backends
//! do none of the measured work.
//!
//! The idle figure is the end-to-end metric. The loaded one has two modes a
//! factor two apart, depending on where the host has placed the two
//! processors relative to each other, so it is reported per layer only —
//! but every run still storms under load, because the oracle (every apply
//! succeeds, every operation of the client commits exactly once) is worth
//! more there.

use crate::host::{RunnableGuard, SpinBarrier};
use crate::refkernel::RefKernel;
use crate::stats::{median, per_kref, ref_ns, to_ref};
use crate::trace::{Recorder, SpanId};
use crate::world::{client_rng, config, Oracle, World};
use polytm::BackendId;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// The configurations the storm cycles through, from `TL2 × 2`. Never edit:
/// the share of resizes among the applies sets the medians.
const CYCLE: [(BackendId, usize); 8] = [
    (BackendId::NOrec, 2),
    (BackendId::NOrec, 1),
    (BackendId::TinyStm, 1),
    (BackendId::TinyStm, 2),
    (BackendId::Htm, 2),
    (BackendId::HybridNOrec, 1),
    (BackendId::SwissTm, 2),
    (BackendId::Tl2, 2),
];
const APPLIES_PER_SLICE: usize = 40;
const PACE: Duration = Duration::from_micros(500);

pub struct StormOutcome {
    /// Idle: per-slice median of one apply's wall time, in refs.
    pub idle_p50_ref: Vec<f64>,
    /// Under load: per-slice median, in refs.
    pub load_p50_ref: Vec<f64>,
    /// Under load: per-slice 95th percentile (the 38th of 40), in refs.
    pub load_p95_ref: Vec<f64>,
    /// The client's committed operations per thousand refs while switching.
    pub tx_per_kref: Vec<f64>,
    /// Applies that returned an error.
    pub errors: u64,
}

/// Walks the cycle, timing every apply.
struct Walker<'a> {
    world: &'a World,
    next: usize,
    /// Wall nanoseconds of the last slice's applies, sorted by [`Self::slice`].
    applies: [f64; APPLIES_PER_SLICE],
    errors: u64,
}

impl Walker<'_> {
    /// One slice of applies, `pace` apart (back to back when idle).
    fn slice(
        &mut self,
        pace: Duration,
        rec: &mut Recorder,
        span: SpanId,
        slice_id: u32,
        oracle: &mut Oracle,
    ) {
        let t0 = Instant::now();
        for (i, slot) in self.applies.iter_mut().enumerate() {
            let due = pace * i as u32;
            while t0.elapsed() < due {
                std::hint::spin_loop();
            }
            let (backend, threads) = CYCLE[self.next];
            self.next = (self.next + 1) % CYCLE.len();
            let apply_span = rec.begin("apply", span, slice_id);
            let a0 = Instant::now();
            let result = self.world.poly.apply(&config(backend, threads));
            *slot = a0.elapsed().as_nanos() as f64;
            rec.end(apply_span, &[]);
            if let Err(e) = result {
                self.errors += 1;
                oracle.fail(1, format!("storm apply {backend}×{threads}: {e}"));
            }
        }
        oracle.attempted += APPLIES_PER_SLICE as u64;
        self.applies.sort_by(f64::total_cmp);
    }

    fn p50(&self) -> f64 {
        median(&self.applies)
    }

    fn p95(&self) -> f64 {
        self.applies[APPLIES_PER_SLICE * 95 / 100 - 1]
    }
}

/// Run one warm-up slice and `slices` measured ones, idle and then loaded.
pub fn run(
    world: &World,
    seed: u64,
    slices: usize,
    rec: &mut Recorder,
    root: SpanId,
    oracle: &mut Oracle,
) -> StormOutcome {
    let mut outcome = StormOutcome {
        idle_p50_ref: Vec::new(),
        load_p50_ref: Vec::new(),
        load_p95_ref: Vec::new(),
        tx_per_kref: Vec::new(),
        errors: 0,
    };
    world
        .poly
        .apply(&config(BackendId::Tl2, 2))
        .expect("storm start configuration");
    let mut walker = Walker {
        world,
        next: 0,
        applies: [0.0; APPLIES_PER_SLICE],
        errors: 0,
    };
    let mut kernel = RefKernel::new(0);

    // Slice 0 of either kind is warm-up.
    for slice_id in 0..=slices as u32 {
        let span = rec.begin("idle_slice", root, slice_id);
        let pre = kernel.burst_ns();
        walker.slice(Duration::ZERO, rec, span, slice_id, oracle);
        let post = kernel.burst_ns();
        rec.end(span, &[("applies", APPLIES_PER_SLICE as u64)]);
        if slice_id > 0 {
            outcome
                .idle_p50_ref
                .push(to_ref(walker.p50(), ref_ns(&[pre, post])));
        }
    }

    let barrier = SpinBarrier::new(2);
    let quit = AtomicBool::new(false);
    let stop = AtomicBool::new(false);
    let client_ops = AtomicU64::new(0);
    let client_bursts = Mutex::new([0.0f64; 2]);
    std::thread::scope(|scope| {
        let guard = RunnableGuard::acquire();
        scope.spawn(|| {
            let _guard = guard;
            let _poison = barrier.poison_on_panic();
            let (poly, app) = (&world.poly, &world.app);
            let mut worker = poly.register_thread(0);
            let mut rng = client_rng(seed ^ 0x570_0000, 0);
            let mut kernel = RefKernel::new(1);
            loop {
                barrier.wait(); // A
                if quit.load(Ordering::Acquire) {
                    break;
                }
                let pre = kernel.burst_ns();
                barrier.wait(); // B
                let (mut ops, mut net) = (0u64, 0i64);
                while !stop.load(Ordering::Relaxed) {
                    app.op(poly, &mut worker, &mut rng, &mut net);
                    ops += 1;
                }
                barrier.wait(); // C
                let post = kernel.burst_ns();
                app.settle(net);
                client_ops.store(ops, Ordering::Relaxed);
                *client_bursts.lock().expect("no thread panics holding this") = [pre, post];
                barrier.wait(); // D
            }
        });
        let _poison = barrier.poison_on_panic();
        for slice_id in 0..=slices as u32 {
            let span = rec.begin("storm_slice", root, slice_id);
            let before = world.poly.snapshot();
            stop.store(false, Ordering::Relaxed);
            barrier.wait(); // A
            let pre = kernel.burst_ns();
            barrier.wait(); // B
            let t0 = Instant::now();
            walker.slice(PACE, rec, span, slice_id, oracle);
            stop.store(true, Ordering::Relaxed);
            barrier.wait(); // C
            let wall_ns = t0.elapsed().as_nanos() as f64;
            let post = kernel.burst_ns();
            barrier.wait(); // D
            let ops = client_ops.load(Ordering::Relaxed);
            let delta = world.poly.snapshot().since(&before);
            rec.end(
                span,
                &[
                    ("applies", APPLIES_PER_SLICE as u64),
                    ("commits", delta.commits),
                    ("aborts", delta.total_aborts()),
                ],
            );
            oracle.attempted += ops;
            oracle.expect_eq("commits in storm slice", delta.commits, ops);
            if slice_id == 0 {
                continue; // warm-up slice
            }
            let [cpre, cpost] = *client_bursts.lock().expect("no thread panics holding this");
            // The applies ran on this thread: its own bursts normalise them.
            let own = ref_ns(&[pre, post]);
            outcome.load_p50_ref.push(to_ref(walker.p50(), own));
            outcome.load_p95_ref.push(to_ref(walker.p95(), own));
            outcome
                .tx_per_kref
                .push(per_kref(ops as f64, wall_ns, ref_ns(&[cpre, cpost])));
        }
        quit.store(true, Ordering::Release);
        barrier.wait(); // A, for the last time
    });
    outcome.errors = walker.errors;
    outcome
}
