//! The programs under test and their correctness oracles.
//!
//! A *world* is one `PolyTm` with one application populated in its heap.
//! The benchmark only ever hands the program generated operations: the
//! per-thread generator is `XorShift64::new(seed ^ ((t + 1) << 24))`, as
//! in `apps::drive`.

use apps::structures::RedBlackTree;
use apps::systems::{Memcached, TpcC};
use apps::TmApp;
use polytm::{BackendId, HtmSetting, PolyTm, TmConfig, Worker};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicI64, Ordering};
use txcore::util::XorShift64;
use txcore::DurabilityMode;

/// Which application a workload drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AppKind {
    Memcached,
    TpcC,
    Rbt,
}

/// One benchmark workload: an application, a client count and a fixed
/// number of operations per client per slice. The op counts are constants,
/// never calibrated, so a parent commit and a change do identical work.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub app: AppKind,
    /// Closed-loop client threads.
    pub threads: usize,
    /// Operations per thread in the measured part of a slice.
    pub slice_ops: u64,
    /// Transactional heap size in words. The heap is a leaking bump
    /// allocator, so it is sized for the whole run with a factor two spare.
    pub heap_words: usize,
}

/// The workloads, in the order `BENCHMARK.json` names them.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "memcached_1t",
        app: AppKind::Memcached,
        threads: 1,
        slice_ops: 150_000,
        heap_words: 1 << 20,
    },
    Workload {
        name: "tpcc_1t",
        app: AppKind::TpcC,
        threads: 1,
        slice_ops: 40_000,
        heap_words: 1 << 20,
    },
    Workload {
        name: "tpcc_2t",
        app: AppKind::TpcC,
        threads: 2,
        slice_ops: 20_000,
        heap_words: 1 << 20,
    },
    Workload {
        name: "rbt_2t",
        app: AppKind::Rbt,
        threads: 2,
        slice_ops: 40_000,
        heap_words: 1 << 25,
    },
];

/// Slots of every runtime the benchmark builds: the two-thread workloads
/// need two, and the switch storm resizes between one and two.
pub const MAX_THREADS: usize = 2;

/// Unmeasured operations at the start of every slice, after the backend
/// switch, so the measured part starts on warm metadata.
pub fn warm_ops(slice_ops: u64) -> u64 {
    slice_ops / 16
}

const MEMCACHED_KEYS: u64 = 16 * 1024;
const MEMCACHED_GET_PCT: u64 = 90;
const TPCC_WAREHOUSES: u64 = 4;
const TPCC_OL_CNT: u64 = 10;
const RBT_KEYS: u64 = 64 * 1024;
const RBT_PREFILL: u64 = 32 * 1024;
/// Operations of the normal mix run once at set-up so the cache is mostly
/// full before the first slice and the hit ratio does not drift.
const MEMCACHED_POPULATE_OPS: u64 = 400_000;
/// Read-only burst per backend on a second cache at the end of the run.
const MEMCACHED_BURST_OPS: u64 = 100_000;

/// The backends every end-to-end run cycles through, in reporting order.
pub const VOLATILE: [BackendId; 7] = [
    BackendId::Tl2,
    BackendId::TinyStm,
    BackendId::NOrec,
    BackendId::SwissTm,
    BackendId::Htm,
    BackendId::HybridNOrec,
    BackendId::HybridTl2,
];

/// The metric-name suffix of a backend.
pub fn slug(b: BackendId) -> &'static str {
    match b {
        BackendId::Tl2 => "tl2",
        BackendId::TinyStm => "tiny",
        BackendId::NOrec => "norec",
        BackendId::SwissTm => "swiss",
        BackendId::Htm => "htm",
        BackendId::HybridNOrec => "hynorec",
        BackendId::HybridTl2 => "hytl2",
        BackendId::Durable => "durable",
    }
}

/// The layer (crate) a backend's per-layer metrics are filed under.
pub fn layer(b: BackendId) -> &'static str {
    if b.is_hardware() {
        "htm"
    } else {
        "stm"
    }
}

/// The configuration that selects backend `b` at `threads` threads, with
/// the defaults a user gets (HTM: 5 retries, decrease on capacity; durable:
/// group commit).
pub fn config(b: BackendId, threads: usize) -> TmConfig {
    match b {
        BackendId::Durable => TmConfig::durable(threads, DurabilityMode::Buffered),
        b if b.is_hardware() => TmConfig::htm(b, threads, HtmSetting::DEFAULT),
        b => TmConfig::stm(b, threads),
    }
}

/// The generator of client thread `t`.
pub fn client_rng(seed: u64, t: usize) -> XorShift64 {
    XorShift64::new(seed ^ ((t as u64 + 1) << 24))
}

/// Failures the oracles found, against the operations attempted.
#[derive(Debug, Default)]
pub struct Oracle {
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
    /// `--break-oracle`: added to every expected count, to show that a wrong
    /// expectation is reported and fails the run.
    pub skew: u64,
}

impl Oracle {
    /// `got` must equal `want`; the difference counts as failed operations.
    pub fn expect_eq(&mut self, what: &str, got: u64, want: u64) {
        let want = want + self.skew;
        if got != want {
            self.fail(
                got.abs_diff(want),
                format!("{what}: got {got}, want {want}"),
            );
        }
    }

    pub fn fail(&mut self, ops: u64, note: String) {
        self.failed += ops.max(1);
        if self.notes.len() < 20 {
            self.notes.push(note);
        }
    }
}

/// The red-black tree driven directly through `PolyTm::run_tx`, so that
/// successful inserts and removes can be counted for the oracle.
pub struct RbtApp {
    tree: RedBlackTree,
    /// Keys the tree must hold: prefilled + inserted − removed.
    live: AtomicI64,
}

pub enum App {
    Memcached(Memcached),
    TpcC(TpcC),
    Rbt(RbtApp),
}

impl App {
    /// One application operation. `net` accumulates this thread's
    /// successful inserts minus removes (RBT only).
    #[inline]
    pub fn op(&self, poly: &PolyTm, worker: &mut Worker, rng: &mut XorShift64, net: &mut i64) {
        match self {
            App::Memcached(m) => m.op(poly, worker, rng),
            App::TpcC(t) => t.op(poly, worker, rng),
            App::Rbt(r) => {
                let key = 1 + rng.next_below(RBT_KEYS);
                let tree = r.tree;
                match rng.next_below(100) {
                    0..=89 => {
                        std::hint::black_box(poly.run_tx(worker, |tx| tree.get(tx, key)));
                    }
                    90..=94 => {
                        let heap = &poly.system().heap;
                        if poly.run_tx(worker, |tx| tree.insert(tx, heap, key, key)) {
                            *net += 1;
                        }
                    }
                    _ => {
                        if poly.run_tx(worker, |tx| tree.remove(tx, key)) {
                            *net -= 1;
                        }
                    }
                }
            }
        }
    }

    /// Fold a thread's insert/remove balance into the expected tree size.
    pub fn settle(&self, net: i64) {
        if let App::Rbt(r) = self {
            r.live.fetch_add(net, Ordering::Relaxed);
        }
    }
}

pub struct World {
    pub poly: PolyTm,
    pub app: App,
}

impl World {
    /// Build the runtime, populate the application and run one warm round
    /// over every volatile backend. This whole function is what `setup_s`
    /// times.
    pub fn build(w: &Workload, seed: u64) -> World {
        let poly = PolyTm::builder()
            .heap_words(w.heap_words)
            .max_threads(MAX_THREADS)
            .initial_config(config(BackendId::Tl2, w.threads))
            .build();
        let mut worker = poly.register_thread(0);
        let mut rng = client_rng(seed ^ 0x5E7_0000, 0);
        let sys = poly.system();
        let app = match w.app {
            AppKind::Memcached => {
                let m = Memcached::setup(sys, MEMCACHED_KEYS, MEMCACHED_GET_PCT);
                for _ in 0..MEMCACHED_POPULATE_OPS {
                    m.op(&poly, &mut worker, &mut rng);
                }
                App::Memcached(m)
            }
            AppKind::TpcC => App::TpcC(TpcC::setup(sys, TPCC_WAREHOUSES, TPCC_OL_CNT)),
            AppKind::Rbt => {
                let tree = RedBlackTree::create(&sys.heap);
                let mut live = 0;
                while live < RBT_PREFILL {
                    let key = 1 + rng.next_below(RBT_KEYS);
                    if poly.run_tx(&mut worker, |tx| tree.insert(tx, &sys.heap, key, key)) {
                        live += 1;
                    }
                }
                App::Rbt(RbtApp {
                    tree,
                    live: AtomicI64::new(live as i64),
                })
            }
        };
        let world = World { poly, app };
        let mut net = 0;
        for b in VOLATILE {
            world
                .poly
                .apply(&config(b, w.threads))
                .expect("warm-round switch");
            for _ in 0..warm_ops(w.slice_ops) {
                world.app.op(&world.poly, &mut worker, &mut rng, &mut net);
            }
        }
        world.app.settle(net);
        world
    }

    /// The application's own invariant, checked while no transaction runs.
    pub fn check(&self, oracle: &mut Oracle) {
        let sys = self.poly.system();
        match &self.app {
            App::Memcached(_) => {}
            App::TpcC(t) => {
                let ok = catch_unwind(AssertUnwindSafe(|| t.check_money_conservation(sys)));
                if ok.is_err() {
                    oracle.fail(1, "tpcc: money is not conserved".into());
                }
            }
            App::Rbt(r) => {
                match catch_unwind(AssertUnwindSafe(|| r.tree.check_invariants(&sys.heap))) {
                    Ok(keys) => oracle.expect_eq(
                        "rbt keys",
                        keys as u64,
                        r.live.load(Ordering::Relaxed) as u64,
                    ),
                    Err(_) => oracle.fail(1, "rbt: red-black invariant violated".into()),
                }
            }
        }
    }

    /// End-of-run checks: the lost-update detector for Memcached (a burst
    /// of gets per backend must count every one of them on the two hot
    /// words), the application invariant, and the heap's spare room.
    pub fn final_checks(&self, w: &Workload, seed: u64, oracle: &mut Oracle) {
        if w.app == AppKind::Memcached {
            let sys = self.poly.system();
            let probe = Memcached::setup(sys, MEMCACHED_KEYS, 100);
            let mut worker = self.poly.register_thread(0);
            let mut rng = client_rng(seed ^ 0xB00_0000, 0);
            for (i, b) in VOLATILE.into_iter().enumerate() {
                if let Err(e) = self.poly.apply(&config(b, w.threads)) {
                    oracle.fail(1, format!("burst switch to {b}: {e}"));
                }
                for _ in 0..MEMCACHED_BURST_OPS {
                    probe.op(&self.poly, &mut worker, &mut rng);
                }
                oracle.attempted += MEMCACHED_BURST_OPS;
                oracle.expect_eq(
                    "memcached hits + misses",
                    probe.hits(sys) + probe.misses(sys),
                    (i as u64 + 1) * MEMCACHED_BURST_OPS,
                );
            }
        }
        self.check(oracle);
        let heap = &self.poly.system().heap;
        if heap.allocated() >= heap.capacity() / 2 {
            oracle.fail(
                1,
                format!(
                    "heap: {} of {} words allocated, less than a factor two spare",
                    heap.allocated(),
                    heap.capacity()
                ),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oracle_counts_the_difference_and_the_skew_breaks_it() {
        let mut o = Oracle::default();
        o.expect_eq("commits", 100, 100);
        assert_eq!(o.failed, 0);
        o.expect_eq("commits", 97, 100);
        assert_eq!(o.failed, 3);
        let mut broken = Oracle {
            skew: 1,
            ..Oracle::default()
        };
        broken.expect_eq("commits", 100, 100);
        assert_eq!(broken.failed, 1);
        assert!(broken.notes[0].contains("want 101"));
    }

    #[test]
    fn every_backend_has_a_distinct_slug_and_a_valid_config() {
        let mut slugs: Vec<_> = BackendId::ALL.iter().map(|&b| slug(b)).collect();
        slugs.sort_unstable();
        slugs.dedup();
        assert_eq!(slugs.len(), 8);
        for b in BackendId::ALL {
            assert!(config(b, 2).durability_coherent());
            assert_eq!(config(b, 2).htm.is_some(), b.is_hardware());
        }
    }
}
