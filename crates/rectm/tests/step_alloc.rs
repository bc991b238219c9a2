//! An exploration step allocates nothing: `Controller::optimize` builds its
//! step workspace once per decision, sized up front, and every step reuses
//! it. So two decisions of one fitted controller, one capped at 2
//! explorations and one at 12, allocate the same number of times — any
//! allocation per step, per `predict_stats` or per growing buffer shows
//! as a difference.
//!
//! The counter is per thread, so only the test thread's own allocations
//! count: libtest's main thread cannot charge one to the decision.

use recsys::{CfAlgorithm, DistillationNorm, NoNorm, Normalization, Similarity, UtilityMatrix};
use rectm::{Controller, ControllerSettings};
use smbo::{Goal, StoppingRule};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Counts every allocation and reallocation of the calling thread; frees
/// are not interesting.
struct CountingAlloc;

thread_local! {
    /// `const`-initialised and without a destructor, so touching it never
    /// allocates or registers anything: safe inside the allocator.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    ALLOCS.with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

const CONFIGS: usize = 16;

/// A workload's KPI in configuration `c`: a peak at `peak`, at `scale`.
fn kpi(c: usize, peak: usize, scale: f64) -> f64 {
    let x = c as f64 - peak as f64;
    scale * (20.0 - x * x).max(0.5)
}

/// 24 workloads peaking at one of four configurations, at random-looking
/// scales; with `holes`, every fifth entry past column 0 is unrated.
fn training(holes: bool) -> UtilityMatrix {
    UtilityMatrix::from_rows(
        (0..24)
            .map(|w| {
                let (peak, scale) = ([2, 5, 9, 13][w % 4], 1.0 + (w * 7 % 11) as f64);
                (0..CONFIGS)
                    .map(|c| (!holes || c == 0 || (w + c) % 5 != 0).then(|| kpi(c, peak, scale)))
                    .collect()
            })
            .collect(),
    )
}

/// The allocations of one decision capped at `cap` explorations, and the
/// explorations it made.
fn decide(ctl: &mut Controller, cap: usize) -> (u64, usize) {
    ctl.set_max_explorations(cap);
    let before = allocs();
    let explored = ctl.optimize(&mut |c| kpi(c, 11, 3.3)).explored.len();
    (allocs() - before, explored)
}

/// Pearson is not among the cases: over the reference alone it has no
/// similarity to rank by, so a decision ends at its first step.
#[test]
fn a_decision_allocates_the_same_at_2_and_at_12_explorations() {
    let cases = [
        (false, Goal::Maximize, Similarity::Euclidean, 1),
        (false, Goal::Minimize, Similarity::Cosine, 3),
        (true, Goal::Maximize, Similarity::Cosine, 2),
        (true, Goal::Minimize, Similarity::Euclidean, 4),
    ];
    for (holes, goal, similarity, k) in cases {
        let case = format!("holes={holes} {goal:?} {similarity:?} k={k}");
        // Distillation needs every row to rate its reference column, so
        // the matrix with holes is not normalised.
        let norm: Box<dyn Normalization + Send + Sync> = if holes {
            Box::new(NoNorm)
        } else {
            Box::new(DistillationNorm::new())
        };
        let mut ctl = Controller::fit(
            &training(holes),
            goal,
            norm,
            CfAlgorithm::Knn { similarity, k },
            ControllerSettings {
                // ε = 0 never stops early: each decision spends its cap.
                stopping: StoppingRule::Cautious { epsilon: 0.0 },
                ..ControllerSettings::default()
            },
        );
        // A first decision, for whatever a process sets up once.
        decide(&mut ctl, 12);
        let (short, two) = decide(&mut ctl, 2);
        let (long, twelve) = decide(&mut ctl, 12);
        assert_eq!((two, twelve), (2, 12), "{case}: explorations");
        assert_eq!(
            long, short,
            "{case}: 12 explorations allocated {long} times, 2 allocated {short}"
        );
    }
}
