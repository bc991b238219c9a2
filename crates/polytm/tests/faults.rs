//! Fault-injection and recovery tests for the PolyTM runtime.
//!
//! Separate integration binary on purpose: `faultsim::with_plan` arms a
//! process-global injector, and the crate's unit tests (which assert exact
//! commit/abort counts) must never share a process with an armed plan.
//! Within this binary every test runs under [`serial`]: `with_plan`'s
//! internal lock only covers the closure, and several tests call
//! `poly.apply` before or after it — calls that would otherwise pass the
//! `switch_apply` site while a sibling's plan is armed and eat its fires.

use polytm::{AdapterHandle, BackendId, PolyTm, ReconfigError, RetryPolicy, SwitchError, TmConfig};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// One test of this binary at a time, whole test body included.
fn serial() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    // The lock guards no data, so a sibling's failed assertion must not
    // fail this test too.
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

fn small_poly() -> Arc<PolyTm> {
    Arc::new(PolyTm::builder().heap_words(1 << 10).max_threads(2).build())
}

#[test]
fn injected_switch_failure_is_transient_and_has_no_effect() {
    let _serial = serial();
    if !faultsim::enabled() {
        return;
    }
    let poly = small_poly();
    let before = poly.current_config();
    let plan = faultsim::FaultPlan::new(5).with(
        faultsim::Site::SwitchApply,
        faultsim::FaultSpec::always().fires(1),
    );
    faultsim::with_plan(plan, || {
        let err = poly
            .apply(&TmConfig::stm(BackendId::NOrec, 2))
            .expect_err("plan must reject the first switch");
        assert_eq!(err, SwitchError::Injected);
        assert!(err.is_transient());
        assert_eq!(poly.current_config(), before, "no half-applied state");
        // The plan is exhausted (fires(1)): the retry goes through.
        poly.apply(&TmConfig::stm(BackendId::NOrec, 2)).unwrap();
    });
    assert_eq!(poly.current_config().backend, BackendId::NOrec);
}

#[test]
fn apply_with_retry_absorbs_transient_faults() {
    let _serial = serial();
    if !faultsim::enabled() {
        return;
    }
    let poly = small_poly();
    let plan = faultsim::FaultPlan::new(9).with(
        faultsim::Site::SwitchApply,
        faultsim::FaultSpec::always().fires(2),
    );
    let policy = RetryPolicy {
        max_retries: 3,
        initial_backoff: Duration::from_micros(100),
        max_backoff: Duration::from_millis(1),
    };
    faultsim::with_plan(plan, || {
        // Two injected failures, then success on the third attempt.
        poly.apply_with_retry(&TmConfig::stm(BackendId::SwissTm, 1), &policy)
            .expect("retry budget of 3 must absorb 2 injected faults");
    });
    assert_eq!(poly.current_config().backend, BackendId::SwissTm);
    assert_eq!(poly.parallelism(), 1);
}

#[test]
fn exhausted_retries_degrade_to_known_good() {
    let _serial = serial();
    if !faultsim::enabled() {
        return;
    }
    let poly = small_poly();
    poly.apply(&TmConfig::stm(BackendId::NOrec, 2)).unwrap();
    let good = poly.known_good_config();
    // Fails the first attempt + both retries, then lets the degrade pass.
    let plan = faultsim::FaultPlan::new(13).with(
        faultsim::Site::SwitchApply,
        faultsim::FaultSpec::always().fires(3),
    );
    let policy = RetryPolicy {
        max_retries: 2,
        initial_backoff: Duration::from_micros(100),
        max_backoff: Duration::from_millis(1),
    };
    faultsim::with_plan(plan, || {
        let err = poly
            .apply_with_retry(&TmConfig::stm(BackendId::Tl2, 1), &policy)
            .expect_err("3 injected faults must exhaust a 2-retry budget");
        assert_eq!(
            err,
            SwitchError::RetriesExhausted {
                attempts: 3,
                degraded: true,
            }
        );
    });
    assert_eq!(
        poly.current_config(),
        good,
        "runtime degraded to the last known-good configuration"
    );
    // Still fully usable afterwards.
    let a = poly.system().heap.alloc(1);
    let mut w = poly.register_thread(0);
    assert_eq!(poly.run_tx(&mut w, |tx| tx.read(a)), 0);
}

#[test]
fn injected_adapter_panic_is_contained_and_adapter_survives() {
    let _serial = serial();
    if !faultsim::enabled() {
        return;
    }
    let poly = small_poly();
    let adapter = AdapterHandle::spawn(Arc::clone(&poly));
    let plan = faultsim::FaultPlan::new(11).with(
        faultsim::Site::AdapterPanic,
        faultsim::FaultSpec::always().fires(1),
    );
    faultsim::with_plan(plan, || {
        let err = adapter
            .reconfigure(TmConfig::stm(BackendId::NOrec, 2))
            .expect_err("injected panic must surface as an error");
        assert_eq!(err, ReconfigError::AdapterPanicked);
        assert!(err.is_transient());
    });
    assert_eq!(adapter.panics_contained(), 1);
    // Containment means the same thread keeps serving; no restart needed.
    assert_eq!(adapter.restarts(), 0);
    adapter
        .reconfigure(TmConfig::stm(BackendId::NOrec, 2))
        .unwrap();
    assert_eq!(poly.current_config().backend, BackendId::NOrec);
}

#[test]
fn injected_gate_stalls_trip_the_watchdog_then_recovery() {
    let _serial = serial();
    if !faultsim::enabled() {
        return;
    }
    let poly = Arc::new(
        PolyTm::builder()
            .heap_words(1 << 10)
            .max_threads(2)
            .drain_timeout(Duration::from_millis(10))
            .build(),
    );
    let a = poly.system().heap.alloc(1);
    let before = poly.current_config();
    // One stall of 150 ms, far past the 10 ms drain budget.
    let plan = faultsim::FaultPlan::new(17).with(
        faultsim::Site::GateStall,
        faultsim::FaultSpec::always().fires(1).stall(150),
    );
    faultsim::with_plan(plan, || {
        let stalled = Arc::new(AtomicBool::new(false));
        std::thread::scope(|s| {
            let p = Arc::clone(&poly);
            let flag = Arc::clone(&stalled);
            s.spawn(move || {
                let mut w = p.register_thread(0);
                flag.store(true, Ordering::Release);
                // The injected stall happens right after gate entry, while
                // the RUN bit is held.
                p.run_tx(&mut w, |tx| {
                    let v = tx.read(a)?;
                    tx.write(a, v + 1)
                });
            });
            while !stalled.load(Ordering::Acquire) {
                std::thread::yield_now();
            }
            // Give the worker a moment to enter the gate and start stalling.
            std::thread::sleep(Duration::from_millis(20));
            let err = poly
                .apply(&TmConfig::stm(BackendId::NOrec, 2))
                .expect_err("stalled RUN bit must trip the watchdog");
            assert!(matches!(err, SwitchError::QuiesceTimeout { .. }));
            assert_eq!(poly.current_config(), before);
        });
    });
    // The stalled transaction still committed, and the switch now passes.
    assert_eq!(poly.system().heap.read_raw(a), 1);
    poly.apply(&TmConfig::stm(BackendId::NOrec, 2)).unwrap();
    assert_eq!(poly.current_config().backend, BackendId::NOrec);
}

/// `pin_thread` used to unblock its slot without the reconfiguration lock:
/// a pin that landed while `apply` sat in its drain let a slot that the
/// parallelism degree had disabled (and the switch had therefore skipped)
/// run on the old backend in the middle of the switch. A `gate_stall` holds
/// worker 0 inside a transaction so the drain lasts; slot 1 is pinned
/// meanwhile, and its first transaction must see the switch landed.
#[test]
fn pin_during_a_switch_waits_for_the_switch() {
    let _serial = serial();
    if !faultsim::enabled() {
        return;
    }
    let poly = Arc::new(
        PolyTm::builder()
            .heap_words(1 << 10)
            .max_threads(2)
            .drain_timeout(Duration::from_secs(10))
            .build(),
    );
    // Parallelism 1: slot 1 is disabled, so the switch below skips it.
    poly.apply(&TmConfig::stm(BackendId::Tl2, 1)).unwrap();
    let a = poly.system().heap.alloc(1);
    let plan = faultsim::FaultPlan::new(23).with(
        faultsim::Site::GateStall,
        faultsim::FaultSpec::always().fires(1).stall(300),
    );
    faultsim::with_plan(plan, || {
        let switched = AtomicBool::new(false);
        std::thread::scope(|s| {
            s.spawn(|| {
                let mut w = poly.register_thread(0);
                // The plan's one stall fires right after this gate entry.
                poly.run_tx(&mut w, |tx| tx.read(a));
            });
            // Counted just before the sleep: worker 0 is inside the gate.
            while faultsim::fired(faultsim::Site::GateStall) == 0 {
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
            // Let the block loop finish, so that an unlocked pin could
            // only land in the drain. The assertion holds for any timing;
            // this only makes the parent's race certain to show.
            std::thread::sleep(Duration::from_millis(20));
            poly.pin_thread(1);
            let pinned = s.spawn(|| {
                let mut w = poly.register_thread(1);
                // Whether the switch had landed when this transaction ran:
                // `apply` publishes the new config before it drops the lock.
                let landed = poly.run_tx(&mut w, |_| {
                    Ok(poly.current_config().backend == BackendId::NOrec)
                });
                switched.store(landed, Ordering::Release);
            });
            adapter.join().unwrap();
            pinned.join().unwrap();
        });
        assert!(
            switched.load(Ordering::Acquire),
            "the pinned slot ran on the old backend while the switch drained"
        );
    });
    assert_eq!(poly.current_config().backend, BackendId::NOrec);
}

/// End-to-end robustness: workers hammer transactions while an adapter
/// cycles configurations, with stalls, injected switch failures and adapter
/// panics all armed at a fixed seed. The run must terminate (no deadlock),
/// lose no increments, and leave the runtime on a configuration that some
/// successful apply actually installed.
#[test]
fn chaos_run_completes_without_deadlock_or_lost_updates() {
    let _serial = serial();
    if !faultsim::enabled() {
        return;
    }
    const WORKERS: usize = 3;
    let poly = Arc::new(
        PolyTm::builder()
            .heap_words(1 << 14)
            .max_threads(WORKERS)
            .drain_timeout(Duration::from_millis(25))
            .tx_retry_budget(64)
            .build(),
    );
    let a = poly.system().heap.alloc(1);
    let plan = faultsim::FaultPlan::new(0x000C_4A05)
        .with(
            faultsim::Site::GateStall,
            faultsim::FaultSpec::with_probability(0.01).stall(40),
        )
        .with(
            faultsim::Site::SwitchApply,
            faultsim::FaultSpec::with_probability(0.25),
        )
        .with(
            faultsim::Site::AdapterPanic,
            faultsim::FaultSpec::with_probability(0.2),
        )
        .with(
            faultsim::Site::HtmSpurious,
            faultsim::FaultSpec::with_probability(0.05),
        );
    faultsim::with_plan(plan, || {
        let adapter = AdapterHandle::spawn(Arc::clone(&poly));
        let stop = Arc::new(AtomicBool::new(false));
        std::thread::scope(|s| {
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
            let policy = RetryPolicy {
                max_retries: 2,
                initial_backoff: Duration::from_micros(200),
                max_backoff: Duration::from_millis(2),
            };
            let mut applied = 0u32;
            for round in 0..30u32 {
                let id = BackendId::ALL[(round as usize) % BackendId::ALL.len()];
                let config = TmConfig {
                    backend: id,
                    threads: 1 + (round as usize) % WORKERS,
                    htm: id.is_hardware().then_some(polytm::HtmSetting::DEFAULT),
                    durability: if id == BackendId::Durable {
                        txcore::DurabilityMode::Strict
                    } else {
                        txcore::DurabilityMode::Volatile
                    },
                };
                // Every failure mode is acceptable except a panic or hang;
                // successes and degrades both count as recovery.
                match adapter.reconfigure(config) {
                    Ok(_) => applied += 1,
                    Err(e) => {
                        assert!(
                            e.is_transient()
                                || matches!(e, SwitchError::RetriesExhausted { .. })
                                || e == SwitchError::AdapterUnavailable,
                            "unexpected terminal error: {e}"
                        );
                        // Route persistent failures through the retry path.
                        if poly.apply_with_retry(&config, &policy).is_ok() {
                            applied += 1;
                        }
                    }
                }
            }
            assert!(applied > 0, "every single switch failed — plan too hostile");
            stop.store(true, Ordering::SeqCst);
            poly.resume_all();
        });
    });
    let commits = poly.snapshot().commits;
    assert!(commits > 0, "workers never ran");
    assert_eq!(
        poly.system().heap.read_raw(a),
        commits,
        "increments lost or duplicated under chaos"
    );
}
