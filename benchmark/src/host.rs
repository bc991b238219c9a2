//! The host: its shape, its noise, and the rule that the benchmark never
//! has more runnable threads than the host has processors.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// Processors available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The 1-minute load average, if the host exposes it.
pub fn load_average() -> Option<f64> {
    let text = std::fs::read_to_string("/proc/loadavg").ok()?;
    text.split_whitespace().next()?.parse().ok()
}

/// Cumulative steal time of all processors, in clock ticks.
pub fn steal_ticks() -> Option<u64> {
    let text = std::fs::read_to_string("/proc/stat").ok()?;
    // cpu user nice system idle iowait irq softirq steal ...
    text.lines().next()?.split_whitespace().nth(8)?.parse().ok()
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> Option<f64> {
    let text = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = text.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Threads the benchmark currently keeps runnable (the main thread is one).
static RUNNABLE: AtomicUsize = AtomicUsize::new(1);

/// Held by every thread the benchmark spawns. A third busy thread on a
/// two-processor host took the two-thread spread from under a tenth to
/// seven tenths, so exceeding the processor count is a harness bug and
/// panics instead of producing a number.
pub struct RunnableGuard(());

impl RunnableGuard {
    /// Account for one more runnable thread; call before spawning it.
    ///
    /// # Panics
    ///
    /// Panics if that would exceed [`nproc`].
    pub fn acquire() -> Self {
        let now = RUNNABLE.fetch_add(1, Ordering::SeqCst) + 1;
        assert!(
            now <= nproc(),
            "harness bug: {now} runnable threads on {} processors",
            nproc()
        );
        RunnableGuard(())
    }
}

impl Drop for RunnableGuard {
    fn drop(&mut self) {
        RUNNABLE.fetch_sub(1, Ordering::SeqCst);
    }
}

/// A reusable barrier that spins: a sleeping barrier would hand the
/// processor to the host between phases and lengthen the very interval
/// being measured. The last thread to arrive releases the others.
pub struct SpinBarrier {
    threads: usize,
    arrived: AtomicUsize,
    generation: AtomicUsize,
    poisoned: AtomicBool,
}

/// Poisons the barrier if the thread holding it panics, so that the other
/// threads panic too instead of spinning forever on a thread that is gone.
pub struct PoisonOnPanic<'a>(&'a SpinBarrier);

impl Drop for PoisonOnPanic<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.poisoned.store(true, Ordering::Release);
        }
    }
}

impl SpinBarrier {
    /// A barrier for `threads` threads.
    pub fn new(threads: usize) -> Self {
        SpinBarrier {
            threads,
            arrived: AtomicUsize::new(0),
            generation: AtomicUsize::new(0),
            poisoned: AtomicBool::new(false),
        }
    }

    /// Every thread that waits on the barrier holds one of these.
    pub fn poison_on_panic(&self) -> PoisonOnPanic<'_> {
        PoisonOnPanic(self)
    }

    /// Block (spinning) until all threads have called `wait`.
    ///
    /// # Panics
    ///
    /// Panics if another thread of the barrier panicked.
    pub fn wait(&self) {
        // Release/Acquire on `generation` publishes everything written
        // before the barrier to every thread that leaves it.
        let generation = self.generation.load(Ordering::Acquire);
        if self.arrived.fetch_add(1, Ordering::AcqRel) + 1 == self.threads {
            self.arrived.store(0, Ordering::Relaxed);
            self.generation.store(generation + 1, Ordering::Release);
        } else {
            while self.generation.load(Ordering::Acquire) == generation {
                assert!(
                    !self.poisoned.load(Ordering::Acquire),
                    "another benchmark thread panicked"
                );
                std::hint::spin_loop();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn barrier_keeps_two_threads_in_lock_step() {
        // Each thread adds its round number between two barriers; if either
        // thread ran ahead, the sum seen after the second barrier is wrong.
        let barrier = SpinBarrier::new(2);
        let sum = AtomicU64::new(0);
        let rounds = 2_000u64;
        std::thread::scope(|s| {
            let body = || {
                for r in 1..=rounds {
                    barrier.wait();
                    sum.fetch_add(r, Ordering::Relaxed);
                    barrier.wait();
                    assert_eq!(sum.load(Ordering::Relaxed), r * (r + 1));
                }
            };
            s.spawn(body);
            body();
        });
        assert_eq!(sum.load(Ordering::Relaxed), rounds * (rounds + 1));
    }

    #[test]
    fn a_panicking_thread_releases_the_other_with_a_panic() {
        let barrier = SpinBarrier::new(2);
        let waiter_panicked = std::thread::scope(|s| {
            let waiter = s.spawn(|| {
                let _poison = barrier.poison_on_panic();
                barrier.wait();
            });
            let dead = s.spawn(|| {
                let _poison = barrier.poison_on_panic();
                panic!("simulated failure before the barrier");
            });
            assert!(dead.join().is_err());
            waiter.join().is_err()
        });
        assert!(waiter_panicked, "the waiter must not spin forever");
    }

    #[test]
    fn single_thread_barrier_never_blocks() {
        let barrier = SpinBarrier::new(1);
        for _ in 0..10 {
            barrier.wait();
        }
    }

    #[test]
    fn host_probes_read_this_host() {
        assert!(nproc() >= 1);
        assert!(peak_rss_mb().is_some_and(|mb| mb > 0.0));
    }
}
