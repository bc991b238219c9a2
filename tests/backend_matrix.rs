//! Cross-crate matrix test: every application × every backend, with the
//! structures' own invariant checkers as the oracle.

use apps::kernels::{Bayes, Genome, Intruder, Kmeans, Labyrinth, Ssca2, Vacation, Yada};
use apps::structures::RedBlackTree;
use apps::systems::{Memcached, Sb7Mix, StmBench7, TpcC};
use apps::{drive, AppWorkload, TmApp};
use polytm::{BackendId, HtmSetting, PolyTm, TmConfig, Worker};
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::Arc;
use txcore::util::XorShift64;

fn all_configs(threads: usize) -> Vec<TmConfig> {
    BackendId::ALL
        .iter()
        .map(|&id| TmConfig {
            backend: id,
            threads,
            htm: id.is_hardware().then_some(HtmSetting::DEFAULT),
            durability: if id == BackendId::Durable {
                txcore::DurabilityMode::Strict
            } else {
                txcore::DurabilityMode::Volatile
            },
        })
        .collect()
}

#[test]
fn every_kernel_runs_on_every_backend() {
    let poly = Arc::new(PolyTm::builder().heap_words(1 << 20).max_threads(2).build());
    let sys = poly.system();
    let apps: Vec<Arc<dyn TmApp>> = vec![
        Arc::new(Vacation::setup(sys, 32, 4, 2)),
        Arc::new(Kmeans::setup(sys, 4, 3)),
        Arc::new(Labyrinth::setup(sys, 32, 32, 12)),
        Arc::new(Intruder::setup(sys, 32, 6)),
        Arc::new(Genome::setup(sys, 64)),
        Arc::new(Ssca2::setup(sys, 64, 6)),
        Arc::new(Yada::setup(sys, 64, 8)),
        Arc::new(Bayes::setup(sys, 12, 3)),
        Arc::new(Memcached::setup(sys, 64, 80)),
        Arc::new(StmBench7::setup(sys, 64, 12, Sb7Mix::default())),
        Arc::new(TpcC::setup(sys, 1, 4)),
    ];
    for config in all_configs(2) {
        poly.apply(&config).unwrap();
        for app in &apps {
            let report = drive(
                &poly,
                app,
                AppWorkload {
                    threads: 2,
                    ops_per_thread: Some(25),
                    ..AppWorkload::default()
                },
            );
            assert!(
                report.stats.commits > 0,
                "{} on {} made no progress",
                app.name(),
                config
            );
        }
    }
}

#[test]
fn red_black_tree_invariants_hold_on_every_backend() {
    /// Gets, inserts and removes on 200 keys. It keeps the keys' net count
    /// and its high-water mark.
    struct RbtApp {
        tree: RedBlackTree,
        live: AtomicI64,
        live_max: AtomicI64,
    }
    impl TmApp for RbtApp {
        fn name(&self) -> &'static str {
            "rbt"
        }
        fn op(&self, poly: &PolyTm, worker: &mut Worker, rng: &mut XorShift64) {
            let key = rng.next_below(200);
            let heap = &poly.system().heap;
            match rng.next_below(10) {
                0..=4 => {
                    poly.run_tx(worker, |tx| self.tree.get(tx, key));
                }
                5..=7 => {
                    if poly.run_tx(worker, |tx| self.tree.insert(tx, heap, key, key)) {
                        let now = self.live.fetch_add(1, Ordering::Relaxed) + 1;
                        self.live_max.fetch_max(now, Ordering::Relaxed);
                    }
                }
                _ => {
                    if poly.run_tx(worker, |tx| self.tree.remove(tx, key)) {
                        self.live.fetch_sub(1, Ordering::Relaxed);
                    }
                }
            }
        }
    }
    const THREADS: usize = 4;
    /// Words of one tree node (`NODE_WORDS` in `apps::structures::rbt`).
    const NODE_WORDS: usize = 6;
    for config in all_configs(THREADS) {
        let poly = Arc::new(
            PolyTm::builder()
                .heap_words(1 << 20)
                .max_threads(THREADS)
                .build(),
        );
        poly.apply(&config).unwrap();
        let heap = &poly.system().heap;
        let tree = RedBlackTree::create(heap);
        let created = heap.allocated();
        let rbt = Arc::new(RbtApp {
            tree,
            live: AtomicI64::new(0),
            live_max: AtomicI64::new(0),
        });
        let app: Arc<dyn TmApp> = rbt.clone();
        drive(
            &poly,
            &app,
            AppWorkload {
                threads: THREADS,
                ops_per_thread: Some(300),
                ..AppWorkload::default()
            },
        );
        let keys = tree.check_invariants(heap) as i64;
        assert_eq!(
            keys,
            rbt.live.load(Ordering::Relaxed),
            "{config}: inserts minus removes"
        );
        // Removed nodes are recycled, and an aborted insert's fresh node
        // goes to its thread's next one, so the tree allocates no more
        // nodes than were ever live at once, plus one per thread. The
        // high-water mark is read after each commit, so up to one committed
        // insert per thread may be missing from it.
        let nodes = (heap.allocated() - created) / NODE_WORDS;
        let live_max = rbt.live_max.load(Ordering::Relaxed) as usize + THREADS;
        assert!(
            nodes <= live_max + THREADS,
            "{config}: {nodes} nodes allocated, at most {live_max} live at once"
        );
    }
}

#[test]
fn switching_mid_run_preserves_kernel_invariants() {
    let poly = Arc::new(PolyTm::builder().heap_words(1 << 20).max_threads(4).build());
    let app = Arc::new(Kmeans::setup(poly.system(), 4, 2));
    let app_dyn: Arc<dyn TmApp> = app.clone();
    let configs = all_configs(4);
    std::thread::scope(|s| {
        let poly2 = Arc::clone(&poly);
        let handle = s.spawn(move || {
            drive(
                &poly2,
                &app_dyn,
                AppWorkload {
                    threads: 4,
                    ops_per_thread: Some(400),
                    ..AppWorkload::default()
                },
            )
        });
        // Adapter: hammer reconfigurations while the kernel runs.
        for _ in 0..5 {
            for c in &configs {
                poly.apply(c).unwrap();
            }
        }
        let report = handle.join().unwrap();
        assert_eq!(report.stats.commits, 1600);
    });
    assert_eq!(app.total_points(poly.system()), 1600);
}
