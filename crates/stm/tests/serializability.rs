//! Concurrency correctness tests run against every STM backend.
//!
//! These are the core safety nets for the hand-built STMs: counters must not
//! lose increments, invariants spanning multiple words must never be
//! observed broken, and money must be conserved under concurrent transfers.

use std::sync::Arc;
use txcore::{run_tx, ThreadCtx, TmBackend, TmSystem};

const THREADS: usize = 4;

type MakeBackend = fn(Arc<TmSystem>) -> Arc<dyn TmBackend>;

const BACKENDS: [MakeBackend; 4] = [
    |sys| Arc::new(stm::Tl2::new(sys)),
    |sys| Arc::new(stm::TinyStm::new(sys)),
    |sys| Arc::new(stm::NOrec::new(sys)),
    |sys| Arc::new(stm::SwissTm::new(sys)),
];

fn with_each_backend(f: impl Fn(&Arc<TmSystem>, &Arc<dyn TmBackend>)) {
    for make in BACKENDS {
        let sys = Arc::new(TmSystem::new(1 << 16));
        let backend = make(Arc::clone(&sys));
        f(&sys, &backend);
    }
}

#[test]
fn no_lost_updates_on_shared_counter() {
    with_each_backend(|sys, backend| {
        let counter = sys.heap.alloc(1);
        let increments = 500u64;
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let backend = Arc::clone(backend);
                s.spawn(move || {
                    let mut ctx = ThreadCtx::new(t);
                    for _ in 0..increments {
                        run_tx(backend.as_ref(), &mut ctx, |tx| {
                            let v = tx.read(counter)?;
                            tx.write(counter, v + 1)
                        });
                    }
                });
            }
        });
        assert_eq!(
            sys.heap.read_raw(counter),
            THREADS as u64 * increments,
            "lost updates on {}",
            backend.name()
        );
    });
}

#[test]
fn multi_word_invariant_never_observed_broken() {
    with_each_backend(multi_word_invariant);
}

/// Writers keep x == y (incrementing both); readers assert the equality
/// inside a transaction. Any opacity violation shows up as a mismatch.
fn multi_word_invariant(sys: &Arc<TmSystem>, backend: &Arc<dyn TmBackend>) {
    let x = sys.heap.alloc(1);
    sys.heap.alloc(96);
    let y = sys.heap.alloc(1); // a different stripe than x
    std::thread::scope(|s| {
        for t in 0..2 {
            let backend = Arc::clone(backend);
            s.spawn(move || {
                let mut ctx = ThreadCtx::new(t);
                for _ in 0..300 {
                    run_tx(backend.as_ref(), &mut ctx, |tx| {
                        let vx = tx.read(x)?;
                        tx.write(x, vx + 1)?;
                        let vy = tx.read(y)?;
                        tx.write(y, vy + 1)
                    });
                }
            });
        }
        for t in 2..THREADS {
            let backend = Arc::clone(backend);
            s.spawn(move || {
                let mut ctx = ThreadCtx::new(t);
                for _ in 0..300 {
                    let (vx, vy) = run_tx(backend.as_ref(), &mut ctx, |tx| {
                        Ok((tx.read(x)?, tx.read(y)?))
                    });
                    assert_eq!(vx, vy, "invariant broken on {}", backend.name());
                }
            });
        }
    });
    assert_eq!(sys.heap.read_raw(x), 600);
    assert_eq!(sys.heap.read_raw(y), 600);
}

#[test]
fn money_is_conserved_under_concurrent_transfers() {
    with_each_backend(money_is_conserved);
}

fn money_is_conserved(sys: &Arc<TmSystem>, backend: &Arc<dyn TmBackend>) {
    const ACCOUNTS: u64 = 32;
    const INITIAL: u64 = 1000;
    let base = sys.heap.alloc(ACCOUNTS as usize);
    for i in 0..ACCOUNTS {
        sys.heap.write_raw(base.field(i as u32), INITIAL);
    }
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let backend = Arc::clone(backend);
            s.spawn(move || {
                let mut ctx = ThreadCtx::new(t);
                let mut seed = 0x1234_5678_u64.wrapping_mul(t as u64 + 1);
                for _ in 0..400 {
                    seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
                    let from = (seed >> 16) % ACCOUNTS;
                    let to = (seed >> 32) % ACCOUNTS;
                    let amount = seed % 10;
                    if from == to {
                        continue;
                    }
                    run_tx(backend.as_ref(), &mut ctx, |tx| {
                        let f = tx.read(base.field(from as u32))?;
                        if f >= amount {
                            let v = tx.read(base.field(to as u32))?;
                            tx.write(base.field(from as u32), f - amount)?;
                            tx.write(base.field(to as u32), v + amount)?;
                        }
                        Ok(())
                    });
                }
            });
        }
    });
    let total: u64 = (0..ACCOUNTS)
        .map(|i| sys.heap.read_raw(base.field(i as u32)))
        .sum();
    assert_eq!(
        total,
        ACCOUNTS * INITIAL,
        "money not conserved on {}",
        backend.name()
    );
}

#[test]
fn swisstm_on_a_two_stripe_table_aborts_and_never_deadlocks() {
    // Every address aliases onto one of two stripes, so every pair of
    // writers collides. SwissTM's commit takes its read orecs under the
    // write orecs it already holds and waits for nothing: both workloads
    // must terminate, and conserve.
    for run in [money_is_conserved, multi_word_invariant] {
        let sys = Arc::new(TmSystem::with_orecs(1 << 16, 2, 1));
        let backend: Arc<dyn TmBackend> = Arc::new(stm::SwissTm::new(Arc::clone(&sys)));
        run(&sys, &backend);
    }
}

#[test]
fn snapshot_totals_are_consistent_during_transfers() {
    // A reader summing all accounts transactionally must always see the
    // exact total, even while transfers are in flight.
    const ACCOUNTS: u64 = 16;
    const INITIAL: u64 = 100;
    with_each_backend(|sys, backend| {
        let base = sys.heap.alloc(ACCOUNTS as usize);
        for i in 0..ACCOUNTS {
            sys.heap.write_raw(base.field(i as u32), INITIAL);
        }
        std::thread::scope(|s| {
            for t in 0..2 {
                let backend = Arc::clone(backend);
                s.spawn(move || {
                    let mut ctx = ThreadCtx::new(t);
                    let mut seed = 99u64.wrapping_mul(t as u64 + 7);
                    for _ in 0..300 {
                        seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
                        let from = (seed >> 13) % ACCOUNTS;
                        let to = (seed >> 29) % ACCOUNTS;
                        if from == to {
                            continue;
                        }
                        run_tx(backend.as_ref(), &mut ctx, |tx| {
                            let f = tx.read(base.field(from as u32))?;
                            if f > 0 {
                                let v = tx.read(base.field(to as u32))?;
                                tx.write(base.field(from as u32), f - 1)?;
                                tx.write(base.field(to as u32), v + 1)?;
                            }
                            Ok(())
                        });
                    }
                });
            }
            for t in 2..THREADS {
                let backend = Arc::clone(backend);
                s.spawn(move || {
                    let mut ctx = ThreadCtx::new(t);
                    for _ in 0..150 {
                        let total = run_tx(backend.as_ref(), &mut ctx, |tx| {
                            let mut sum = 0u64;
                            for i in 0..ACCOUNTS {
                                sum += tx.read(base.field(i as u32))?;
                            }
                            Ok(sum)
                        });
                        assert_eq!(
                            total,
                            ACCOUNTS * INITIAL,
                            "torn snapshot on {}",
                            backend.name()
                        );
                    }
                });
            }
        });
    });
}
