//! Table 5: reconfiguration latency (switching TM algorithm and thread
//! count) while an application is running, for a long-transaction workload
//! (TPC-C) and a short-transaction one (Memcached).

use crate::harness::print_table;
use apps::systems::{Memcached, TpcC};
use apps::TmApp;
use polytm::{BackendId, PolyTm, SwitchError, TmConfig};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use txcore::util::XorShift64;

/// Mean latency (µs) of `n_switches` algorithm reconfigurations applied
/// while `app` runs on `threads` threads, each timed around its `apply`
/// call (the runtime reads no clock for an untraced switch).
fn reconfig_latency_us(
    app: Arc<dyn TmApp>,
    poly: Arc<PolyTm>,
    threads: usize,
    n_switches: usize,
) -> f64 {
    let stop = Arc::new(AtomicBool::new(false));
    let mut total = Duration::ZERO;
    let mut applied = 0u32;
    let mut unexpected = None;
    std::thread::scope(|s| {
        for t in 0..threads {
            let poly = Arc::clone(&poly);
            let app = Arc::clone(&app);
            let stop = Arc::clone(&stop);
            s.spawn(move || {
                let mut worker = poly.register_thread(t);
                let mut rng = XorShift64::new(7 ^ (t as u64 + 1));
                while !stop.load(Ordering::Relaxed) {
                    app.op(&poly, &mut worker, &mut rng);
                }
            });
        }
        // Let the workload warm up, then switch back and forth.
        std::thread::sleep(Duration::from_millis(20));
        for i in 0..n_switches {
            let backend = if i % 2 == 0 {
                BackendId::SwissTm
            } else {
                BackendId::Tl2
            };
            let started = Instant::now();
            match poly.apply(&TmConfig::stm(backend, threads)) {
                Ok(()) => {
                    total += started.elapsed();
                    applied += 1;
                }
                // A transaction outlived the drain budget and the switch
                // rolled back: the app keeps running on the old backend,
                // only the latency sample is lost.
                Err(SwitchError::QuiesceTimeout { .. }) => {}
                // Anything else is a bench bug; record it and exit the
                // scope cleanly so the workers are released before the
                // panic below (a panic inside the scope would leave them
                // spinning forever).
                Err(e) => {
                    unexpected = Some(e);
                    break;
                }
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        stop.store(true, Ordering::SeqCst);
        poly.resume_all();
    });
    if let Some(e) = unexpected {
        panic!("valid config rejected: {e}");
    }
    total.as_secs_f64() * 1e6 / applied.max(1) as f64
}

/// Run Table 5 with the given number of switches per cell.
pub fn run_with(n_switches: usize) {
    let threads_list = [1usize, 2, 4];
    let mut rows = Vec::new();
    type MakeApp = fn(&Arc<PolyTm>) -> Arc<dyn TmApp>;
    let apps: [(&str, MakeApp); 2] = [
        ("TPC-C (long txs)", |poly| {
            Arc::new(TpcC::setup(poly.system(), 2, 10))
        }),
        ("Memcached (short txs)", |poly| {
            Arc::new(Memcached::setup(poly.system(), 256, 85))
        }),
    ];
    for (name, make) in apps {
        let mut row = vec![name.to_string()];
        for &threads in &threads_list {
            let poly = Arc::new(
                PolyTm::builder()
                    .heap_words(1 << 19)
                    .max_threads(threads)
                    .build(),
            );
            let app = make(&poly);
            row.push(format!(
                "{:.0}",
                reconfig_latency_us(app, poly, threads, n_switches)
            ));
        }
        rows.push(row);
    }
    print_table(
        "Table 5 — reconfiguration latency (µs): switch TM algorithm at N threads",
        &["benchmark", "1", "2", "4"],
        &rows,
    );
    println!(
        "(Shape target: latency grows with thread count — quiescence waits\n\
         for the longest in-flight transaction. NOTE: on a single-core host\n\
         the dominant term is OS scheduling of the quiesced workers, not the\n\
         TM protocol; expect milliseconds where the paper's 8-core machine\n\
         reports microseconds, and expect the short-vs-long transaction gap\n\
         to be masked.)"
    );
}

/// Run Table 5 with the default switch count.
pub fn run() {
    run_with(20);
}

#[cfg(test)]
mod tests {
    #[test]
    fn table5_smoke() {
        super::run_with(3);
    }
}
