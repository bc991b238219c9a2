//! The tuner's cost ledger: the work and the allocations of one
//! `RecTm::offline` and of one batch of forty decisions on the benchmark's
//! tuner section, stage by stage, as exact integers.
//!
//! * Work columns are per-call `obs` counters, read with a trace active:
//!   similarity kernels (`KnnModel::rank`) and fallback sorts (a walk
//!   past a ranking's sorted prefix sorts the rest, `Ranking::sort_rest`),
//!   ensemble predictions, distinct KNN prefixes and the bootstrap entries
//!   examined to find them (`BaggingEnsemble::predict_stats`), selections,
//!   candidates offered and candidates scored (`Acquisition::select`), MF
//!   SGD steps (`MfModel::fit`) and MF fold-in steps
//!   (`MfModel::predict_rows`). They are the same at every `--jobs`.
//! * Allocation columns count the calling thread's allocations and bytes
//!   requested, with no trace active, at `--jobs 1` (every stage then runs
//!   on the calling thread). At other job counts the pool's threads
//!   allocate too, so only the work section is compared there.
//!
//! Any drift is a change in what the tuner does, not noise. Regenerate
//! intentionally with
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p bench --test tuner_ledger
//! ```
//!
//! A binary of its own with one test, because the counters are
//! process-global.

mod tuner_section;

use recsys::{tune_cf, CfAlgorithm, DistillationNorm, Normalization};
use rectm::{Controller, NormalizationChoice, RecTm, RecTmOptions, Recommender};
use smbo::Goal;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::fmt::Write;
use std::hint::black_box;
use std::path::Path;

/// Counts the calling thread's allocations, reallocations and the bytes
/// they request; frees are not interesting.
struct CountingAlloc;

thread_local! {
    /// `const`-initialised and without a destructor, so touching it never
    /// allocates or registers anything: safe inside the allocator.
    static ALLOCS: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

fn count_one(bytes: usize) {
    ALLOCS.with(|n| {
        let (count, total) = n.get();
        n.set((count + 1, total + bytes as u64));
    });
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// The work counters, as `(obs name, column header)`.
const WORK: [(&str, &str); 10] = [
    ("recsys.knn.kernels", "kernels"),
    ("recsys.knn.sorts", "sorts"),
    ("recsys.bagging.predictions", "predict"),
    ("recsys.bagging.prefixes", "prefixes"),
    ("recsys.bagging.scanned", "scanned"),
    ("smbo.select.calls", "selects"),
    ("smbo.select.candidates", "offered"),
    ("smbo.select.scored", "scored"),
    ("recsys.mf.sgd_steps", "sgd_steps"),
    ("recsys.mf.foldin_steps", "foldin"),
];

/// What one stage costs.
struct Cost {
    work: [u64; WORK.len()],
    allocs: u64,
    bytes: u64,
}

/// Run `f` once with a trace active, for its work counts, and once without,
/// for its allocations; returns the second run's result too.
fn cost<T>(f: impl Fn() -> T) -> (Cost, T) {
    obs::start_trace_memory();
    black_box(f());
    let work = WORK.map(|(name, _)| obs::counter(name).get());
    obs::finish_trace();
    let before = ALLOCS.with(Cell::get);
    let out = black_box(f());
    let after = ALLOCS.with(Cell::get);
    let cost = Cost {
        work,
        allocs: after.0 - before.0,
        bytes: after.1 - before.1,
    };
    (cost, out)
}

/// The ledger's text: the work section, then the allocation section.
fn ledger() -> (String, String) {
    let (train, truth) = tuner_section::train_and_truth();
    let options = RecTmOptions::default();
    // With a maximisation goal the score matrix is the KPI matrix itself.
    let ratings = {
        let mut norm = DistillationNorm::new();
        norm.fit(&train);
        norm.transform_matrix(&train)
    };
    let best: CfAlgorithm = tune_cf(&ratings, &options.tuning).best;
    let build = || NormalizationChoice::Distillation.build();
    let rectm = RecTm::offline(&train, options.clone());
    // The decisions of one batch; returns the configurations they sampled.
    let (decisions, explorations) = cost(|| {
        truth
            .iter()
            .map(|row| rectm.optimize_workload(&mut |c| row[c]).explored.len())
            .sum::<usize>()
    });
    let stages: [(&str, Cost); 6] = [
        (
            "distillation",
            cost(|| {
                let mut norm = DistillationNorm::new();
                norm.fit(&train);
                norm.transform_matrix(&train)
            })
            .0,
        ),
        ("tune_cf", cost(|| tune_cf(&ratings, &options.tuning)).0),
        (
            "recommender_fit",
            cost(|| Recommender::fit(&train, Goal::Maximize, build(), best)).0,
        ),
        (
            "controller_fit",
            cost(|| Controller::fit(&train, Goal::Maximize, build(), best, options.controller)).0,
        ),
        (
            "offline",
            cost(|| RecTm::offline(&train, options.clone())).0,
        ),
        ("decisions", decisions),
    ];

    let mut work = format!(
        "tuner ledger: Machine A, {} training workloads, {} held-out decisions, {}\n\n",
        train.nrows(),
        truth.len(),
        rectm.algorithm()
    );
    work.push_str("-- work (obs counters, every --jobs) --\n");
    write!(work, "{:<16}", "stage").unwrap();
    for (_, header) in WORK {
        write!(work, " {header:>10}").unwrap();
    }
    work.push('\n');
    for (name, c) in &stages {
        write!(work, "{name:<16}").unwrap();
        for n in c.work {
            write!(work, " {n:>10}").unwrap();
        }
        work.push('\n');
    }
    let d = &stages[5].1.work;
    let per = |n: u64, calls: u64| n as f64 / calls.max(1) as f64;
    writeln!(
        work,
        "\n{} explorations; per predict_stats: {:.2} kernels, {:.2} sorts, \
         {:.2} prefixes, {:.2} scanned; per select: {:.2} offered, {:.2} scored",
        explorations,
        per(d[0], d[2]),
        per(d[1], d[2]),
        per(d[3], d[2]),
        per(d[4], d[2]),
        per(d[6], d[5]),
        per(d[7], d[5]),
    )
    .unwrap();

    let mut allocs = String::from("-- allocations (calling thread, --jobs 1) --\n");
    writeln!(allocs, "{:<16} {:>10} {:>12}", "stage", "allocs", "bytes").unwrap();
    for (name, c) in &stages {
        writeln!(allocs, "{name:<16} {:>10} {:>12}", c.allocs, c.bytes).unwrap();
    }
    let c = &stages[5].1;
    let n = truth.len() as u64;
    writeln!(
        allocs,
        "{:<16} {:>10.2} {:>12.2}",
        "per decision",
        per(c.allocs, n),
        per(c.bytes, n)
    )
    .unwrap();
    (work, allocs)
}

#[test]
fn tuner_ledger_matches_golden_at_jobs_1_and_4() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/tuner_ledger.txt");
    let (work, allocs) = parx::with_jobs(1, ledger);
    let got = format!("{work}\n{allocs}");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, &got).unwrap();
    }
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden {}: {e}", path.display()));
    assert_eq!(
        got,
        want,
        "the tuner's costs drifted from {}; if the change is intentional, \
         regenerate with UPDATE_GOLDEN=1 and review the diff",
        path.display()
    );
    let (work4, _) = parx::with_jobs(4, ledger);
    assert_eq!(work4, work, "work counts differ between --jobs 1 and 4");
}
