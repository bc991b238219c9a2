//! What a second thread costs, and who charges it: TPC-C-lite throughput at
//! two threads ÷ one thread, per backend, placed three ways.
//!
//! * `private`  — each thread has its own runtime and database: only the
//!   host is shared (cores, caches), so this is the ceiling;
//! * `disjoint` — one runtime, a database per thread: the TM's metadata is
//!   shared (clocks, sequence locks, orec and line tables), data never;
//! * `shared`   — one runtime, one database: `benchmark/`'s `tpcc_2t`.
//!
//! Median of 7 runs of 40 k operations per thread, barrier start; the
//! table of EXPERIMENTS.md, "What the second thread costs":
//! `cargo run --release --example second_thread`.

use apps::systems::TpcC;
use apps::TmApp;
use proteustm::{BackendId, HtmSetting, PolyTm, TmConfig};
use std::sync::{Arc, Barrier};
use std::time::Instant;
use txcore::util::XorShift64;

const OPS: u64 = 40_000;
const RUNS: usize = 7;

use BackendId::{Htm, HybridNOrec, HybridTl2, NOrec, SwissTm, TinyStm, Tl2};
const BACKENDS: [BackendId; 7] = [Tl2, TinyStm, NOrec, SwissTm, Htm, HybridNOrec, HybridTl2];

/// One thread per `(runtime, database, slot)`.
type Places = Vec<(Arc<PolyTm>, Arc<TpcC>, usize)>;

/// A fresh runtime on `backend` with `dbs` TPC-C databases (4 warehouses, 10
/// order lines — the benchmark's) in its heap, and `threads` threads placed
/// on them round-robin.
fn places(backend: BackendId, threads: usize, dbs: usize) -> Places {
    let poly = Arc::new(PolyTm::builder().heap_words(1 << 20).max_threads(2).build());
    let config = match backend.is_hardware() {
        true => TmConfig::htm(backend, threads, HtmSetting::DEFAULT),
        false => TmConfig::stm(backend, threads),
    };
    poly.apply(&config).expect("a fresh runtime reconfigures");
    let dbs: Vec<_> = (0..dbs)
        .map(|_| Arc::new(TpcC::setup(poly.system(), 4, 10)))
        .collect();
    (0..threads)
        .map(|t| (Arc::clone(&poly), Arc::clone(&dbs[t % dbs.len()]), t))
        .collect()
}

/// Operations per second of `places`, all started together.
fn ops_per_sec(places: Places) -> f64 {
    let threads = places.len();
    let barrier = Barrier::new(threads + 1);
    std::thread::scope(|s| {
        for (t, (poly, db, slot)) in places.into_iter().enumerate() {
            let barrier = &barrier;
            s.spawn(move || {
                let mut worker = poly.register_thread(slot);
                let mut rng = XorShift64::new(7 ^ ((t as u64 + 1) << 24));
                barrier.wait();
                for _ in 0..OPS {
                    db.op(&poly, &mut worker, &mut rng);
                }
                barrier.wait();
            });
        }
        barrier.wait();
        let start = Instant::now();
        barrier.wait();
        (threads as u64 * OPS) as f64 / start.elapsed().as_secs_f64()
    })
}

fn median(mut runs: Vec<f64>) -> f64 {
    runs.sort_by(f64::total_cmp);
    runs[runs.len() / 2]
}

fn main() {
    println!("TPC-C-lite, 2 threads / 1 thread, median of {RUNS} x {OPS} ops per thread");
    println!("backend       1t kops/s   private  disjoint    shared");
    ops_per_sec(places(Tl2, 1, 1)); // warm the process up, untimed
    for backend in BACKENDS {
        // One round measures all four placements back to back, so host
        // drift between rounds cancels in the round's own ratios.
        let rounds: Vec<[f64; 4]> = (0..RUNS)
            .map(|_| {
                let one = ops_per_sec(places(backend, 1, 1));
                let private = ops_per_sec([places(backend, 1, 1), places(backend, 1, 1)].concat());
                let disjoint = ops_per_sec(places(backend, 2, 2));
                let shared = ops_per_sec(places(backend, 2, 1));
                [one / 1e3, private / one, disjoint / one, shared / one]
            })
            .collect();
        let [one, p, d, s] = [0, 1, 2, 3].map(|i| median(rounds.iter().map(|r| r[i]).collect()));
        let name = format!("{backend:?}");
        println!("{name:<12} {one:>10.0} {p:>9.2} {d:>9.2} {s:>9.2}");
    }
}
