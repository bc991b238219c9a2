//! A miniature Figure 8 on the real stack: a red-black-tree application
//! whose workload shifts twice while `ProteusTm::run_managed` runs the
//! on-line loop; the Monitor notices and the Controller re-tunes.
//!
//! ```text
//! cargo run --release --example dynamic_workload
//! ```

use apps::structures::RedBlackTree;
use apps::{drive, AppWorkload, TmApp};
use proteustm::{Kpi, ProteusTm, TmConfig};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;
use txcore::TxResult;

/// An RBT workload whose phase (update ratio / key range) is switchable at
/// run time — the "workload change" of Fig. 8a.
struct PhasedRbt {
    tree: RedBlackTree,
    phase: AtomicU64,
}

impl PhasedRbt {
    fn params(&self) -> (u64, u64) {
        // (update percent, key range): phase 0 read-mostly over many keys,
        // phase 1 update-heavy, phase 2 hot-key contention.
        match self.phase.load(Ordering::Relaxed) {
            0 => (10, 16_384),
            1 => (60, 4_096),
            _ => (80, 64),
        }
    }
}

impl TmApp for PhasedRbt {
    fn name(&self) -> &'static str {
        "phased-rbt"
    }
    fn op(
        &self,
        poly: &polytm::PolyTm,
        worker: &mut polytm::Worker,
        rng: &mut txcore::util::XorShift64,
    ) {
        let (update_pct, range) = self.params();
        let key = rng.next_below(range);
        let heap = &poly.system().heap;
        if rng.next_below(100) < update_pct {
            if rng.next_below(2) == 0 {
                poly.run_tx(worker, |tx| -> TxResult<()> {
                    self.tree.insert(tx, heap, key, key)?;
                    Ok(())
                });
            } else {
                poly.run_tx(worker, |tx| self.tree.remove(tx, key));
            }
        } else {
            poly.run_tx(worker, |tx| self.tree.get(tx, key));
        }
    }
}

/// Monitor ticks per application phase.
const PHASE_TICKS: usize = 40;

fn main() {
    let threads = 4;
    println!("training ProteusTM off-line...");
    let proteus = ProteusTm::builder()
        .heap_words(1 << 23)
        .max_threads(threads)
        .kpi(Kpi::Throughput)
        .build();
    let poly = Arc::clone(proteus.poly());
    let app = Arc::new(PhasedRbt {
        tree: RedBlackTree::create(&poly.system().heap),
        phase: AtomicU64::new(0),
    });
    let app_dyn: Arc<dyn TmApp> = app.clone();

    // One tick runs the application for 25 ms in the tick's configuration;
    // the workload shifts every `PHASE_TICKS` ticks.
    let phase_of = |tick: usize| (tick / PHASE_TICKS).min(2);
    let quantum = Duration::from_millis(25);
    let record = proteus.run_managed(
        &mut |cfg: &TmConfig, tick| {
            app.phase.store(phase_of(tick) as u64, Ordering::Relaxed);
            drive(
                &poly,
                &app_dyn,
                AppWorkload {
                    threads: cfg.threads.min(threads),
                    duration: quantum,
                    ..AppWorkload::default()
                },
            )
            .throughput
        },
        3 * PHASE_TICKS,
    );

    for phase in 0..3 {
        let ticks: Vec<usize> = (0..record.len())
            .filter(|&t| phase_of(t) == phase)
            .collect();
        let alarms: Vec<&usize> = ticks.iter().filter(|&&t| record[t].alarm).collect();
        println!(
            "phase {}: {:>2} explorations, alarms at ticks {alarms:?}, {} at phase end",
            phase + 1,
            ticks.iter().filter(|&&t| record[t].exploring).count(),
            proteus.space()[record[ticks[ticks.len() - 1]].config],
        );
    }
    let len = {
        let tm = stm::Tl2::new(Arc::clone(poly.system()));
        let mut ctx = txcore::ThreadCtx::new(0);
        txcore::run_tx(&tm, &mut ctx, |tx| app.tree.len(tx))
    };
    app.tree.check_invariants(&poly.system().heap);
    println!("\nfinal tree size: {len} (red-black invariants verified)");
}
