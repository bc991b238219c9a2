//! The frozen reference kernel every timing is divided by.
//!
//! Wall time on a shared host moves in regimes that last seconds, so a raw
//! nanosecond figure does not repeat from one invocation to the next. This
//! kernel is run for about a millisecond immediately before and after every
//! measured slice, on the same threads, and the slice is reported in units
//! of it. One iteration is one **ref**.
//!
//! The kernel is TL2-shaped so that a host regime hits it the way it hits
//! the TM: per iteration one global-clock load, four times (orec load, data
//! load, orec re-load, compare), and once (orec CAS-lock, clock
//! `fetch_add`, data store, orec release), over 4096 orecs and 64 Ki words
//! private to the thread, addresses from a xorshift64 generator.
//!
//! **Never edit this file except in an issue about the benchmark itself**:
//! a change to the kernel changes the unit and invalidates every recorded
//! number. It deliberately depends on nothing in the repository.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

const ORECS: usize = 4096;
const WORDS: usize = 64 * 1024;
const LOCK_BIT: u64 = 1;

/// Iterations of one calibration burst (about a millisecond on this host).
pub const BURST_ITERS: u64 = 50_000;

/// One thread's private copy of the reference kernel's memory.
pub struct RefKernel {
    clock: AtomicU64,
    orecs: Box<[AtomicU64]>,
    data: Box<[AtomicU64]>,
    rng: u64,
    sink: u64,
}

impl RefKernel {
    /// A kernel for thread `thread` (the index only seeds the addresses).
    pub fn new(thread: usize) -> Self {
        let zeros = |n: usize| (0..n).map(|_| AtomicU64::new(0)).collect::<Box<[_]>>();
        RefKernel {
            clock: AtomicU64::new(0),
            orecs: zeros(ORECS),
            data: zeros(WORDS),
            rng: 0x9E37_79B9_7F4A_7C15 ^ ((thread as u64 + 1) << 32),
            sink: 0,
        }
    }

    #[inline(always)]
    fn next(&mut self) -> u64 {
        let mut x = self.rng;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.rng = x;
        x
    }

    /// Run `iters` iterations and return the sink (so nothing is optimised
    /// away).
    pub fn run(&mut self, iters: u64) -> u64 {
        for _ in 0..iters {
            let rv = self.clock.load(Ordering::Acquire);
            let mut r = self.next();
            for _ in 0..4 {
                let w = (r as usize) & (WORDS - 1);
                r >>= 16;
                let o = (w >> 2) & (ORECS - 1);
                let v1 = self.orecs[o].load(Ordering::Acquire);
                let d = self.data[w].load(Ordering::Acquire);
                let v2 = self.orecs[o].load(Ordering::Acquire);
                if v1 != v2 || (v1 >> 1) > rv {
                    self.sink ^= 1;
                }
                self.sink = self.sink.wrapping_add(d);
            }
            let w = (self.next() as usize) & (WORDS - 1);
            let o = (w >> 2) & (ORECS - 1);
            let cur = self.orecs[o].load(Ordering::Relaxed);
            if self.orecs[o]
                .compare_exchange(cur, cur | LOCK_BIT, Ordering::AcqRel, Ordering::Relaxed)
                .is_ok()
            {
                let wv = self.clock.fetch_add(1, Ordering::AcqRel) + 1;
                self.data[w].store(self.sink, Ordering::Release);
                self.orecs[o].store(wv << 1, Ordering::Release);
            }
        }
        self.sink
    }

    /// Time one calibration burst; nanoseconds per iteration.
    pub fn burst_ns(&mut self) -> f64 {
        let t0 = Instant::now();
        std::hint::black_box(self.run(BURST_ITERS));
        t0.elapsed().as_nanos() as f64 / BURST_ITERS as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_is_deterministic_and_does_work() {
        let mut a = RefKernel::new(0);
        let mut b = RefKernel::new(0);
        assert_eq!(a.run(10_000), b.run(10_000));
        // Every iteration commits one write: the clock counts them.
        assert_eq!(a.clock.load(Ordering::Relaxed), 10_000);
        let mut c = RefKernel::new(1);
        c.run(10_000);
        assert_ne!(a.rng, c.rng, "threads walk different addresses");
    }

    #[test]
    fn burst_reports_a_positive_time() {
        let mut k = RefKernel::new(0);
        let ns = k.burst_ns();
        assert!(ns > 0.0 && ns.is_finite());
    }
}
