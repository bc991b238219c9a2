//! Deterministic parallel map over scoped threads.
//!
//! The ProteusTM learning pipeline is embarrassingly parallel at several
//! layers — ground-truth KPI matrix generation, MF bagging-ensemble training,
//! random-search cross-validation, and the per-test-workload experiment
//! loops — but every one of those stages must stay *bit-identical* to its
//! serial execution so that experiments are reproducible regardless of the
//! host's core count. This crate provides that contract:
//!
//! * [`par_map`] / [`par_map_indexed`] evaluate an index-addressed task
//!   set on a scoped worker pool and return results **in index order**.
//!   As long as each task is a pure function of its index (all the call
//!   sites in this workspace derive their RNG seeds from stable ids),
//!   the output is byte-identical for every job count, including 1, and
//!   every instruction set (below).
//! * The pool size is the calling thread's [`with_jobs`] scope (the
//!   `experiments --jobs N` flag runs the whole plan inside one, and the
//!   determinism tests open one per job count), otherwise
//!   [`std::thread::available_parallelism`].
//! * Nested calls run serially: a `par_map` issued from inside a worker
//!   does not spawn further threads, so parallelizing an outer loop never
//!   oversubscribes the machine through inner loops that are also wired
//!   for parallelism.
//!
//! Scheduling is dynamic (an atomic work index), so uneven task costs
//! balance across workers; determinism is unaffected because results are
//! written back by index, not by completion order.
//!
//! Every call spawns and joins its workers: worth it for tasks of
//! milliseconds (the stages above), a loss for tasks of microseconds —
//! which is why a bagging ensemble's member *predictions*, issued between
//! every two samples of an exploration, fold on the calling thread.
//!
//! [`wide`] runs a kernel compiled a second time for AVX2 when the
//! processor has it. It enables no fused multiply-add, and Rust neither
//! fuses `a * b + c` nor reassociates floating-point operations, so each
//! lane of a wide instruction rounds exactly as the baseline's SSE2 does:
//! results are bit-identical for every job count *and every instruction
//! set*. This is the crate's one `unsafe` block.

#![deny(unsafe_op_in_unsafe_fn, clippy::undocumented_unsafe_blocks)]

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

thread_local! {
    /// Per-thread override installed by [`with_jobs`]; 0 = none.
    static LOCAL_JOBS: Cell<usize> = const { Cell::new(0) };
    /// Set inside pool workers so nested maps run serially.
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// The number of worker threads parallel maps will use right now: 1
/// inside a pool worker, else the caller's [`with_jobs`] scope, else the
/// machine's available parallelism.
pub fn jobs() -> usize {
    if IN_WORKER.with(Cell::get) {
        return 1;
    }
    match LOCAL_JOBS.with(Cell::get) {
        0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
        n => n,
    }
}

/// Run `f` with the calling thread's job count forced to `n`, restoring
/// the previous override afterwards (panic-safe). `experiments --jobs N`
/// runs its plan in one such scope; the determinism tests compare job
/// counts within one process without races.
pub fn with_jobs<T>(n: usize, f: impl FnOnce() -> T) -> T {
    struct Restore(usize);
    impl Drop for Restore {
        fn drop(&mut self) {
            LOCAL_JOBS.with(|c| c.set(self.0));
        }
    }
    let _restore = Restore(LOCAL_JOBS.with(Cell::get));
    LOCAL_JOBS.with(|c| c.set(n.max(1)));
    f()
}

/// Map `f` over `0..n`, returning results in index order. Runs on
/// [`jobs`] scoped worker threads; serial when `jobs() == 1`, when the
/// task count is trivial, or when called from inside another parallel map.
///
/// Panics in `f` propagate to the caller after all workers stop.
pub fn par_map_indexed<U, F>(n: usize, f: F) -> Vec<U>
where
    U: Send,
    F: Fn(usize) -> U + Sync,
{
    let workers = jobs().min(n);
    // Telemetry: counters are recorded *before* the serial/parallel branch
    // so their values are identical at every job count (they are dumped
    // into deterministic traces); the worker count and wall-clock duration
    // are job-count-dependent by nature and are not recorded.
    if obs::enabled() {
        obs::counter("parx.maps").inc();
        obs::counter("parx.tasks").add(n as u64);
    }
    if workers <= 1 {
        return (0..n).map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let mut out: Vec<Option<U>> = Vec::with_capacity(n);
    out.resize_with(n, || None);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    IN_WORKER.with(|w| w.set(true));
                    let mut chunk: Vec<(usize, U)> = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        chunk.push((i, f(i)));
                    }
                    chunk
                })
            })
            .collect();
        for handle in handles {
            match handle.join() {
                Ok(chunk) => {
                    for (i, v) in chunk {
                        out[i] = Some(v);
                    }
                }
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
    });
    out.into_iter()
        .map(|slot| slot.expect("every index produced"))
        .collect()
}

/// Map `f` over a slice, returning results in input order (parallel
/// analogue of `items.iter().map(f).collect()`).
pub fn par_map<T, U, F>(items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    par_map_indexed(items.len(), |i| f(&items[i]))
}

/// Call `f`, compiled for AVX2 when the processor has it (x86-64 only;
/// elsewhere, or without AVX2, a plain call). Only code inlined into `f`
/// is compiled for AVX2: mark the closure and the kernel it calls
/// `#[inline(always)]`.
///
/// AVX2 alone is enabled — not FMA, not AVX-512 — so `f` computes the
/// same bits either way (crate docs).
#[inline(always)]
pub fn wide<T>(f: impl FnOnce() -> T) -> T {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: `avx2` requires only the AVX2 target feature, and the
        // processor was just found to have it.
        return unsafe { avx2(f) };
    }
    f()
}

/// `f()`, with AVX2 enabled in everything inlined into it.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn avx2<T>(f: impl FnOnce() -> T) -> T {
    f()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_are_in_index_order() {
        let out = with_jobs(4, || {
            par_map_indexed(100, |i| {
                // Stagger completion times to exercise dynamic scheduling.
                if i % 7 == 0 {
                    std::thread::sleep(std::time::Duration::from_micros(50));
                }
                i * 3
            })
        });
        assert_eq!(out, (0..100).map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn serial_and_parallel_agree() {
        let serial = with_jobs(1, || par_map_indexed(64, |i| (i as f64).sqrt().to_bits()));
        for jobs in [2, 3, 8] {
            let parallel = with_jobs(jobs, || {
                par_map_indexed(64, |i| (i as f64).sqrt().to_bits())
            });
            assert_eq!(serial, parallel, "jobs={jobs}");
        }
    }

    #[test]
    fn par_map_borrows_items() {
        let items: Vec<String> = (0..10).map(|i| format!("x{i}")).collect();
        let lens = with_jobs(2, || par_map(&items, |s| s.len()));
        assert_eq!(lens, vec![2; 10]);
    }

    #[test]
    fn nested_maps_run_serially_and_correctly() {
        let out = with_jobs(4, || {
            par_map_indexed(8, |i| par_map_indexed(8, move |j| i * 8 + j))
        });
        let flat: Vec<usize> = out.into_iter().flatten().collect();
        assert_eq!(flat, (0..64).collect::<Vec<_>>());
    }

    #[test]
    fn with_jobs_restores_previous_value() {
        with_jobs(3, || {
            assert_eq!(jobs(), 3);
            with_jobs(5, || assert_eq!(jobs(), 5));
            assert_eq!(jobs(), 3);
        });
    }

    #[test]
    fn empty_and_single_inputs() {
        let empty: Vec<u32> = with_jobs(4, || par_map_indexed(0, |_| 1u32));
        assert!(empty.is_empty());
        assert_eq!(with_jobs(4, || par_map_indexed(1, |i| i)), vec![0]);
    }

    #[test]
    fn wide_calls_f_once_and_returns_its_value() {
        let calls = Cell::new(0);
        let out = wide(|| {
            calls.set(calls.get() + 1);
            vec![1.5f64, -0.25]
        });
        assert_eq!(out, vec![1.5, -0.25]);
        assert_eq!(calls.get(), 1);
        // Inside pool workers too.
        let out = with_jobs(3, || {
            par_map_indexed(12, |i| {
                let calls = Cell::new(0);
                let x = wide(|| {
                    calls.set(calls.get() + 1);
                    (i as f64).sqrt().to_bits()
                });
                (x, calls.get())
            })
        });
        let want: Vec<_> = (0..12).map(|i| ((i as f64).sqrt().to_bits(), 1)).collect();
        assert_eq!(out, want);
    }

    #[test]
    fn panics_propagate() {
        let result = std::panic::catch_unwind(|| {
            with_jobs(2, || {
                par_map_indexed(16, |i| {
                    if i == 11 {
                        panic!("boom");
                    }
                    i
                })
            })
        });
        assert!(result.is_err());
    }
}
