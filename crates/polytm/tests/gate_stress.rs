//! Concurrency stress for the quiescence protocol (Algorithm 1 + §4.1):
//! worker threads hammer `run_tx` (gate enter/exit on every transaction)
//! while an adapter applies 100 random configuration switches.
//!
//! Invariants checked:
//! * **No half-switched backend**: every committed increment lands exactly
//!   once in the shared heap, which fails if a transaction ever straddled
//!   two backends' metadata (validated against one, committed by another).
//! * **Every quiescence epoch terminates**: each `apply` that changes the
//!   algorithm starts an epoch and only returns once all threads are
//!   quiesced and resumed; a watchdog bounds the whole run, so a stuck
//!   epoch turns into a loud failure instead of a hung test.

use polytm::{BackendId, HtmSetting, PolyTm, SwitchError, TmConfig};
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const WORKERS: usize = 4;
const SWITCHES: usize = 100;
const WATCHDOG: Duration = Duration::from_secs(60);

/// Runs its closure on drop. Each test holds one on the coordinating
/// thread, inside `thread::scope`, to set `stop` and unblock/enable every
/// slot: a failed assertion then unwinds through it, the workers leave
/// their loops (or wake from a blocked `enter`), the scope joins and the
/// test fails in seconds instead of hanging.
struct OnDrop<F: FnMut()>(F);

impl<F: FnMut()> Drop for OnDrop<F> {
    fn drop(&mut self) {
        (self.0)()
    }
}

fn random_config(rng: &mut StdRng, max_threads: usize) -> TmConfig {
    let backend = BackendId::ALL[rng.gen_range(0..BackendId::ALL.len())];
    let threads = rng.gen_range(1..=max_threads);
    let htm = backend.is_hardware().then(|| HtmSetting {
        budget: rng.gen_range(1..=8u32),
        policy: HtmSetting::DEFAULT.policy,
    });
    let durability = if backend == BackendId::Durable {
        if rng.gen_range(0..2u32) == 0 {
            txcore::DurabilityMode::Buffered
        } else {
            txcore::DurabilityMode::Strict
        }
    } else {
        txcore::DurabilityMode::Volatile
    };
    TmConfig {
        backend,
        threads,
        htm,
        durability,
    }
}

#[test]
fn quiescence_survives_100_random_switches_under_load() {
    let poly = Arc::new(
        PolyTm::builder()
            .heap_words(1 << 14)
            .max_threads(WORKERS)
            .build(),
    );
    let a = poly.system().heap.alloc(1);
    let stop = Arc::new(AtomicBool::new(false));
    let watchdog_fired = Arc::new(AtomicBool::new(false));
    let applied = Arc::new(AtomicU64::new(0));

    // Watchdog: if quiescence ever wedges (an epoch that never
    // terminates), unblock the workers' exit condition and fail loudly
    // rather than hanging the suite.
    let watchdog = {
        let stop = Arc::clone(&stop);
        let fired = Arc::clone(&watchdog_fired);
        let applied = Arc::clone(&applied);
        std::thread::spawn(move || {
            let deadline = Instant::now() + WATCHDOG;
            while Instant::now() < deadline {
                if stop.load(Ordering::Acquire) {
                    return;
                }
                std::thread::sleep(Duration::from_millis(20));
            }
            fired.store(true, Ordering::Release);
            stop.store(true, Ordering::Release);
            panic!(
                "quiescence epoch failed to terminate within {WATCHDOG:?} \
                 ({} switches applied)",
                applied.load(Ordering::Acquire)
            );
        })
    };

    std::thread::scope(|s| {
        // Workers disabled by the last config would never see `stop`.
        let _release = OnDrop(|| {
            stop.store(true, Ordering::Release);
            poly.resume_all();
        });
        for t in 0..WORKERS {
            let poly = Arc::clone(&poly);
            let stop = Arc::clone(&stop);
            s.spawn(move || {
                let mut w = poly.register_thread(t);
                while !stop.load(Ordering::Relaxed) {
                    poly.run_tx(&mut w, |tx| {
                        let v = tx.read(a)?;
                        tx.write(a, v + 1)
                    });
                }
            });
        }

        // Make sure the switches actually race against live transactions:
        // wait for the first commit before the adapter starts.
        while poly.snapshot().commits == 0 && !stop.load(Ordering::Acquire) {
            std::thread::yield_now();
        }

        // Adapter: 100 seeded-random switches across all 7 backends and
        // every parallelism degree, nearly full speed (a microscopic pause
        // lets workers re-enter the gate between switches).
        let mut rng = StdRng::seed_from_u64(0x9a7e_57e5);
        for _ in 0..SWITCHES {
            let config = random_config(&mut rng, WORKERS);
            poly.apply(&config).expect("valid random config rejected");
            applied.fetch_add(1, Ordering::Release);
            std::thread::sleep(Duration::from_micros(100));
        }
    });
    watchdog.join().expect("watchdog panicked");

    assert!(
        !watchdog_fired.load(Ordering::Acquire),
        "watchdog fired: a quiescence epoch did not terminate"
    );
    assert_eq!(applied.load(Ordering::Acquire), SWITCHES as u64);
    // At least one switch above changed the algorithm (seeded, so this is
    // deterministic), and apply() returning means its epoch terminated.
    assert!(
        poly.quiescence_epochs() > 0,
        "no algorithm switch exercised"
    );
    // The half-switch detector: every commit incremented the cell exactly
    // once, across all backends and switches.
    let commits = poly.snapshot().commits;
    assert_eq!(
        poly.system().heap.read_raw(a),
        commits,
        "lost or duplicated increments: a transaction straddled a switch"
    );
    assert!(commits > 0, "workers never ran");
}

/// The same quiescence protocol, but with workers that periodically stall
/// *inside* a transaction for longer than the adapter's drain budget, so
/// switches race against held RUN bits. Every `enter`/`try_disable`/
/// `enable` interleaving is in play: switches that catch a quiet window
/// succeed outright, switches that catch a stall roll back via the
/// watchdog and are tried again. The run must terminate with no lost updates
/// regardless of which interleavings actually occur.
#[test]
fn watchdog_rollbacks_under_stalling_workers_lose_nothing() {
    const STALLERS: usize = 3;
    let poly = Arc::new(
        PolyTm::builder()
            .heap_words(1 << 14)
            .max_threads(STALLERS)
            .drain_timeout(Duration::from_millis(5))
            .build(),
    );
    let a = poly.system().heap.alloc(1);
    let stop = Arc::new(AtomicBool::new(false));
    let timeouts = AtomicU64::new(0);
    let deadline = Instant::now() + WATCHDOG;

    std::thread::scope(|s| {
        let _release = OnDrop(|| {
            stop.store(true, Ordering::Release);
            poly.resume_all();
        });
        for t in 0..STALLERS {
            let poly = Arc::clone(&poly);
            let stop = Arc::clone(&stop);
            s.spawn(move || {
                let mut w = poly.register_thread(t);
                let mut i = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    i += 1;
                    // Every 8th transaction holds its RUN bit across a
                    // stall several times the drain budget. Stall on the
                    // first attempt only: the closure re-runs on every
                    // conflict abort, and a hot cell under contention
                    // aborts a slow transaction almost every attempt.
                    let mut stall = i.is_multiple_of(8);
                    poly.run_tx(&mut w, |tx| {
                        let v = tx.read(a)?;
                        if stall {
                            stall = false;
                            std::thread::sleep(Duration::from_millis(15));
                        }
                        tx.write(a, v + 1)
                    });
                }
            });
        }
        while poly.snapshot().commits == 0 {
            assert!(Instant::now() < deadline, "workers never committed");
            std::thread::yield_now();
        }

        // With a 5 ms drain budget and 15 ms stalls a switch may need
        // several watchdog rollbacks before it lands in a quiet window, but
        // it must always land eventually.
        let mut rng = StdRng::seed_from_u64(0x057a_11ed);
        for _ in 0..25 {
            let config = random_config(&mut rng, STALLERS);
            loop {
                match poly.apply(&config) {
                    Ok(_) => break,
                    Err(SwitchError::QuiesceTimeout { .. }) => {
                        timeouts.fetch_add(1, Ordering::Relaxed);
                        assert!(
                            Instant::now() < deadline,
                            "switch starved: never found a quiet window"
                        );
                        std::thread::sleep(Duration::from_millis(1));
                    }
                    Err(e) => panic!("unexpected switch failure: {e}"),
                }
            }
        }
    });

    let commits = poly.snapshot().commits;
    assert!(commits > 0, "workers never ran");
    assert_eq!(
        poly.system().heap.read_raw(a),
        commits,
        "a watchdog rollback lost or duplicated an increment"
    );
    // Not asserted > 0: whether a stall overlaps a drain window is timing-
    // dependent; the deterministic overlap case is the runtime's unit test
    // `quiesce_watchdog_rolls_back_stalled_switch`.
    // This run reports how hostile the schedule actually was.
    eprintln!(
        "stall stress: {} quiesce timeouts across 25 switches",
        timeouts.load(Ordering::Relaxed)
    );
}

/// `pin_thread` used to unblock its slot without the reconfiguration lock:
/// a pin that landed while `apply` sat in its drain let a slot that the
/// parallelism degree had disabled (and the switch had therefore skipped)
/// run on the old backend in the middle of the switch. Worker 0 blocks
/// inside its transaction until released, so the drain lasts; slot 1 is
/// pinned meanwhile, and its first transaction must see the switch landed.
#[test]
fn pin_during_a_switch_waits_for_the_switch() {
    let poly = PolyTm::builder()
        .heap_words(1 << 10)
        .max_threads(2)
        .drain_timeout(Duration::from_secs(10))
        .build();
    // Parallelism 1: slot 1 is disabled, so the switch below skips it.
    poly.apply(&TmConfig::stm(BackendId::Tl2, 1)).unwrap();
    let a = poly.system().heap.alloc(1);
    let inside = AtomicBool::new(false);
    let release = AtomicBool::new(false);
    let switched = AtomicBool::new(false);
    std::thread::scope(|s| {
        let _release = OnDrop(|| release.store(true, Ordering::Release));
        s.spawn(|| {
            let mut w = poly.register_thread(0);
            poly.run_tx(&mut w, |tx| {
                inside.store(true, Ordering::Release);
                while !release.load(Ordering::Acquire) {
                    std::thread::yield_now();
                }
                tx.read(a)
            });
        });
        while !inside.load(Ordering::Acquire) {
            std::thread::yield_now();
        }
        let epochs = poly.quiescence_epochs();
        let adapter = s.spawn(|| {
            poly.apply(&TmConfig::stm(BackendId::NOrec, 1)).unwrap();
        });
        // Counted under the lock, just before the block loop.
        while poly.quiescence_epochs() == epochs {
            std::thread::yield_now();
        }
        // Let the block loop finish, so that an unlocked pin could only
        // land in the drain. The assertion holds for any timing; the sleeps
        // only make the unlocked pin's race certain to show.
        std::thread::sleep(Duration::from_millis(20));
        let pinned = s.spawn(|| {
            poly.pin_thread(1);
            let mut w = poly.register_thread(1);
            // Whether the switch had landed when this transaction ran:
            // `apply` publishes the new config before it drops the lock.
            let landed = poly.run_tx(&mut w, |_| {
                Ok(poly.current_config().backend == BackendId::NOrec)
            });
            switched.store(landed, Ordering::Release);
        });
        std::thread::sleep(Duration::from_millis(20));
        release.store(true, Ordering::Release);
        adapter.join().unwrap();
        pinned.join().unwrap();
    });
    assert!(
        switched.load(Ordering::Acquire),
        "the pinned slot ran on the old backend while the switch drained"
    );
    assert_eq!(poly.current_config().backend, BackendId::NOrec);
}

/// Hammers the gate *directly* — no runtime, no backends — while an
/// adapter loops block → drain → epoch-advance → unblock over every slot,
/// the raw sequence `PolyTm::apply` performs around a backend swap.
///
/// Asserts, for every round:
/// * **eventual quiescence** — every slot drains within the watchdog;
/// * **no activity across a switch** — while all slots are drained, the
///   per-thread critical-section flags are clear and the enter counters
///   are frozen;
/// * **no lost wakeups** — after unblocking, every thread makes fresh
///   progress before the next round (a thread stuck polling a cleared
///   block bit would hang the round and trip the watchdog);
/// * **epoch publication** — once a thread re-enters after the advance,
///   its slot has observed the new global epoch.
#[test]
fn raw_gate_epoch_rounds_never_lose_a_wakeup_or_leak_a_transaction() {
    const ROUNDS: u64 = 200;
    let gate = Arc::new(polytm::ThreadGate::new(WORKERS));
    let stop = Arc::new(AtomicBool::new(false));
    let entries: Arc<Vec<AtomicU64>> = Arc::new((0..WORKERS).map(|_| AtomicU64::new(0)).collect());
    let in_cs: Arc<Vec<AtomicBool>> =
        Arc::new((0..WORKERS).map(|_| AtomicBool::new(false)).collect());
    let deadline = Instant::now() + WATCHDOG;

    std::thread::scope(|s| {
        let _release = OnDrop(|| {
            stop.store(true, Ordering::Release);
            for t in 0..WORKERS {
                gate.unblock(t);
            }
        });
        for t in 0..WORKERS {
            let gate = Arc::clone(&gate);
            let stop = Arc::clone(&stop);
            let entries = Arc::clone(&entries);
            let in_cs = Arc::clone(&in_cs);
            s.spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    gate.enter(t);
                    in_cs[t].store(true, Ordering::Relaxed);
                    // Progress is counted inside the critical section: a
                    // drained thread cannot bump it, and a bump seen after
                    // an unblock proves a re-entry under the new epoch.
                    entries[t].fetch_add(1, Ordering::Release);
                    in_cs[t].store(false, Ordering::Relaxed);
                    gate.exit(t);
                }
            });
        }

        for round in 0..ROUNDS {
            for t in 0..WORKERS {
                gate.block(t);
            }
            for t in 0..WORKERS {
                assert!(
                    gate.await_drained(t, Some(deadline)),
                    "round {round}: slot {t} failed to drain (lost wakeup \
                     or stuck RUN bit)"
                );
            }
            // Full quiescence: nobody inside a critical section, counters
            // frozen. This is the window a backend swap runs in.
            let frozen: Vec<u64> = entries.iter().map(|e| e.load(Ordering::Acquire)).collect();
            for (t, flag) in in_cs.iter().enumerate() {
                assert!(
                    !flag.load(Ordering::Relaxed),
                    "round {round}: thread {t} ran across the switch window"
                );
            }
            let epoch = gate.advance_epoch();
            for (t, e) in entries.iter().enumerate() {
                assert_eq!(
                    e.load(Ordering::Acquire),
                    frozen[t],
                    "round {round}: thread {t} advanced while drained"
                );
            }
            for t in 0..WORKERS {
                gate.unblock(t);
            }
            // No lost wakeups: every thread makes fresh progress, and its
            // first re-entry published the advanced epoch into its slot.
            for t in 0..WORKERS {
                while entries[t].load(Ordering::Acquire) == frozen[t] {
                    assert!(
                        Instant::now() < deadline,
                        "round {round}: thread {t} never woke after unblock"
                    );
                    std::hint::spin_loop();
                }
                assert_eq!(
                    gate.observed_epoch(t),
                    epoch,
                    "round {round}: thread {t} re-entered without observing \
                     the switch epoch"
                );
            }
        }
    });

    assert_eq!(gate.current_epoch(), ROUNDS);
    for (t, e) in entries.iter().enumerate() {
        assert!(e.load(Ordering::Relaxed) > 0, "thread {t} never entered");
    }
}
