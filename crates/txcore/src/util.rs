//! Small shared utilities: cache-line padding, a fast thread-local RNG,
//! bounded exponential backoff, and the spin-then-yield wait.

use std::ops::{Deref, DerefMut};

/// Pads and aligns a value to a 64-byte cache line, preventing false sharing
/// between per-thread slots (the paper's "padded state variable").
#[derive(Debug, Default)]
#[repr(align(64))]
pub struct CachePadded<T> {
    value: T,
}

impl<T> CachePadded<T> {
    /// Wrap `value` in its own cache line.
    pub const fn new(value: T) -> Self {
        CachePadded { value }
    }

    /// Consume the padding and return the inner value.
    pub fn into_inner(self) -> T {
        self.value
    }
}

impl<T> Deref for CachePadded<T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.value
    }
}

impl<T> DerefMut for CachePadded<T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.value
    }
}

/// A tiny xorshift64* PRNG for contention-management decisions (backoff
/// jitter, simulated capacity sampling). Not cryptographic.
#[derive(Debug, Clone)]
pub struct XorShift64 {
    state: u64,
}

impl XorShift64 {
    /// Seeded generator; a zero seed is remapped to a fixed odd constant.
    pub fn new(seed: u64) -> Self {
        XorShift64 {
            state: if seed == 0 { 0x9E3779B97F4A7C15 } else { seed },
        }
    }

    /// Next pseudo-random 64-bit value.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.state = x;
        x.wrapping_mul(0x2545F4914F6CDD1D)
    }

    /// Uniform value in `[0, bound)`; `bound` must be positive.
    #[inline]
    pub fn next_below(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0);
        self.next_u64() % bound
    }

    /// Uniform float in `[0, 1)`.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Spin for a pseudo-random duration that grows exponentially with the
/// number of consecutive aborts, capped to keep reconfiguration responsive.
pub fn backoff(rng: &mut XorShift64, attempt: u32) {
    if attempt > 6 {
        // Long contention streak: yield the core so the conflicting
        // transaction can finish (essential on low-core-count machines).
        std::thread::yield_now();
        return;
    }
    let max = 1u64 << attempt.min(10);
    let spins = rng.next_below(max) + 1;
    for _ in 0..spins {
        std::hint::spin_loop();
    }
}

/// Probes [`spin_until`] makes with `spin_loop` between them before it
/// starts yielding: a seqlock write-back window lasts a dozen stores, and
/// `yield_now` is a system call.
const SPIN_PROBES: u32 = 128;

/// Call `probe` until it returns a value: [`SPIN_PROBES`] busy probes for
/// the common short wait, then one `yield_now` per probe so a preempted
/// holder gets the core. The wait behind every sequence-lock and
/// commit-window spin of the backends; the first probe, which nearly
/// always succeeds, is all a caller inlines.
#[inline]
pub fn spin_until<T>(mut probe: impl FnMut() -> Option<T>) -> T {
    match probe() {
        Some(v) => v,
        None => keep_spinning(probe),
    }
}

#[cold]
#[inline(never)]
fn keep_spinning<T>(mut probe: impl FnMut() -> Option<T>) -> T {
    let mut probes = 1u32;
    loop {
        if probes < SPIN_PROBES {
            probes += 1;
            std::hint::spin_loop();
        } else {
            std::thread::yield_now();
        }
        if let Some(v) = probe() {
            return v;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spin_until_returns_the_first_value_and_outlasts_the_spin_phase() {
        assert_eq!(spin_until(|| Some(7)), 7);
        let mut calls = 0u32;
        let got = spin_until(|| {
            calls += 1;
            (calls > SPIN_PROBES + 3).then_some(calls)
        });
        assert_eq!(got, SPIN_PROBES + 4);
    }

    #[test]
    fn cache_padded_is_line_aligned() {
        assert_eq!(std::mem::align_of::<CachePadded<u8>>(), 64);
        let p = CachePadded::new(5u32);
        assert_eq!(*p, 5);
        assert_eq!(p.into_inner(), 5);
    }

    #[test]
    fn rng_is_deterministic_and_nonzero() {
        let mut a = XorShift64::new(42);
        let mut b = XorShift64::new(42);
        for _ in 0..100 {
            let x = a.next_u64();
            assert_eq!(x, b.next_u64());
            assert_ne!(x, 0);
        }
    }

    #[test]
    fn rng_zero_seed_is_remapped() {
        let mut r = XorShift64::new(0);
        assert_ne!(r.next_u64(), 0);
    }

    #[test]
    fn next_below_respects_bound() {
        let mut r = XorShift64::new(7);
        for _ in 0..1000 {
            assert!(r.next_below(13) < 13);
        }
    }

    #[test]
    fn next_f64_in_unit_interval() {
        let mut r = XorShift64::new(9);
        for _ in 0..1000 {
            let f = r.next_f64();
            assert!((0.0..1.0).contains(&f));
        }
    }

    #[test]
    fn backoff_terminates() {
        let mut r = XorShift64::new(1);
        for attempt in 0..20 {
            backoff(&mut r, attempt);
        }
    }
}
