//! Windowed KPI time-series: the flight-recorder layer of the trace.
//!
//! A [`TsSeries`] is a named accumulator (count/sum/min/max/last) that KPI
//! sample points feed with [`TsSeries::record`]. Samples are aggregated
//! into fixed-size logical *windows* keyed by a global **sample tick**
//! ([`crate::ts_tick`]), not wall clock: every [`TICKS_PER_WINDOW`] ticks
//! the trace flushes one `metrics.window` record per non-empty series
//! (sorted by name) and the accumulators reset. Because ticks only advance
//! from serial driver code, the window stream is byte-identical at every
//! `PROTEUS_JOBS` value whenever the recorded *values* are logical
//! (DESIGN.md §7).
//!
//! Sample values themselves may be recorded from any thread — the
//! accumulators are atomics — which lets concurrent hot paths (e.g. HTM
//! fallback commits) contribute. For such series the per-window sum/mean
//! is order-dependent float arithmetic and therefore only best-effort
//! deterministic; every series on the byte-compared learning path is
//! recorded from serial code.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Number of sample ticks aggregated into one `metrics.window` record.
pub const TICKS_PER_WINDOW: u64 = 8;

/// A named windowed accumulator. Obtain with [`crate::ts_series`]; handles
/// are `&'static` (registration leaks once per name, like metrics), so hot
/// paths can cache them.
#[derive(Debug)]
pub struct TsSeries {
    count: AtomicU64,
    sum_bits: AtomicU64,
    min_bits: AtomicU64,
    max_bits: AtomicU64,
    last_bits: AtomicU64,
}

/// One closed window's aggregate, produced by draining a series.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct WindowAgg {
    pub n: u64,
    pub sum: f64,
    pub min: f64,
    pub max: f64,
    pub last: f64,
}

impl Default for TsSeries {
    fn default() -> Self {
        TsSeries {
            count: AtomicU64::new(0),
            sum_bits: AtomicU64::new(0f64.to_bits()),
            min_bits: AtomicU64::new(f64::INFINITY.to_bits()),
            max_bits: AtomicU64::new(f64::NEG_INFINITY.to_bits()),
            last_bits: AtomicU64::new(0f64.to_bits()),
        }
    }
}

/// CAS-update an `f64` stored as bits in an `AtomicU64`.
fn f64_update(cell: &AtomicU64, f: impl Fn(f64) -> f64) {
    let mut cur = cell.load(Ordering::Relaxed);
    loop {
        let new = f(f64::from_bits(cur)).to_bits();
        match cell.compare_exchange_weak(cur, new, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return,
            Err(c) => cur = c,
        }
    }
}

impl TsSeries {
    /// Record one sample into the current window. No-op unless a trace is
    /// active, so stray handles cost one relaxed load on the untraced path.
    #[inline]
    pub fn record(&self, v: f64) {
        if !crate::enabled() {
            return;
        }
        self.count.fetch_add(1, Ordering::Relaxed);
        f64_update(&self.sum_bits, |s| s + v);
        f64_update(&self.min_bits, |m| m.min(v));
        f64_update(&self.max_bits, |m| m.max(v));
        self.last_bits.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Samples recorded into the window currently being accumulated.
    pub fn pending(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Drain the current window, resetting the accumulators. `None` when
    /// no sample landed since the last drain.
    pub(crate) fn take(&self) -> Option<WindowAgg> {
        let n = self.count.swap(0, Ordering::Relaxed);
        if n == 0 {
            return None;
        }
        let sum = f64::from_bits(self.sum_bits.swap(0f64.to_bits(), Ordering::Relaxed));
        let min = f64::from_bits(
            self.min_bits
                .swap(f64::INFINITY.to_bits(), Ordering::Relaxed),
        );
        let max = f64::from_bits(
            self.max_bits
                .swap(f64::NEG_INFINITY.to_bits(), Ordering::Relaxed),
        );
        let last = f64::from_bits(self.last_bits.load(Ordering::Relaxed));
        Some(WindowAgg {
            n,
            sum,
            min,
            max,
            last,
        })
    }

    fn reset(&self) {
        self.count.store(0, Ordering::Relaxed);
        self.sum_bits.store(0f64.to_bits(), Ordering::Relaxed);
        self.min_bits
            .store(f64::INFINITY.to_bits(), Ordering::Relaxed);
        self.max_bits
            .store(f64::NEG_INFINITY.to_bits(), Ordering::Relaxed);
        self.last_bits.store(0f64.to_bits(), Ordering::Relaxed);
    }
}

static REGISTRY: Mutex<BTreeMap<String, &'static TsSeries>> = Mutex::new(BTreeMap::new());

fn registry() -> std::sync::MutexGuard<'static, BTreeMap<String, &'static TsSeries>> {
    REGISTRY.lock().unwrap_or_else(|p| p.into_inner())
}

/// Global sample tick (advanced by [`crate::ts_tick`]) and the index the
/// next flushed window will get.
static TICK: AtomicU64 = AtomicU64::new(0);
static WINDOW_NEXT: AtomicU64 = AtomicU64::new(0);

/// Look up (or register) the series `name`. Registration leaks one small
/// allocation per distinct name, exactly like the metrics registry.
pub(crate) fn series(name: &str) -> &'static TsSeries {
    let mut reg = registry();
    if let Some(s) = reg.get(name) {
        return s;
    }
    let leaked: &'static TsSeries = Box::leak(Box::default());
    reg.insert(name.to_string(), leaked);
    leaked
}

/// Advance the global sample tick, returning the new (1-based) value.
pub(crate) fn advance_tick() -> u64 {
    TICK.fetch_add(1, Ordering::Relaxed) + 1
}

/// Current value of the global sample tick.
pub(crate) fn current_tick() -> u64 {
    TICK.load(Ordering::Relaxed)
}

/// Claim the next window index (0-based, advanced per flushed window).
pub(crate) fn next_window_index() -> u64 {
    WINDOW_NEXT.fetch_add(1, Ordering::Relaxed)
}

/// Drain every series' current window, sorted by series name. Empty
/// series are skipped.
pub(crate) fn drain_windows() -> Vec<(String, WindowAgg)> {
    registry()
        .iter()
        .filter_map(|(name, s)| s.take().map(|w| (name.clone(), w)))
        .collect()
}

/// Zero the tick/window counters and every registered series
/// (registrations are kept, so `&'static` handles stay valid). Called at
/// trace start so each trace's windows start at window 0, tick 0.
pub(crate) fn reset_all() {
    TICK.store(0, Ordering::Relaxed);
    WINDOW_NEXT.store(0, Ordering::Relaxed);
    for s in registry().values() {
        s.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_of_empty_series_is_none() {
        let s = TsSeries::default();
        assert_eq!(s.take(), None);
    }

    #[test]
    fn aggregates_and_resets_between_windows() {
        // Drive the accumulators directly (record() requires an active
        // trace; the trace-level path is covered in trace.rs tests).
        let s = TsSeries::default();
        for v in [2.0, 8.0, 5.0] {
            s.count.fetch_add(1, Ordering::Relaxed);
            f64_update(&s.sum_bits, |x| x + v);
            f64_update(&s.min_bits, |m| m.min(v));
            f64_update(&s.max_bits, |m| m.max(v));
            s.last_bits.store(v.to_bits(), Ordering::Relaxed);
        }
        let w = s.take().unwrap();
        assert_eq!(w.n, 3);
        assert_eq!(w.sum, 15.0);
        assert_eq!(w.min, 2.0);
        assert_eq!(w.max, 8.0);
        assert_eq!(w.last, 5.0);
        assert_eq!(s.take(), None, "drain must reset the window");
    }

    #[test]
    fn record_without_trace_accumulates_nothing() {
        let _serial = crate::trace::hold_capture_lock_for_test();
        let s = series("test.ts.idle");
        s.record(42.0);
        assert_eq!(s.pending(), 0, "no active trace: record must be a no-op");
    }

    #[test]
    fn registry_returns_stable_handles() {
        let a = series("test.ts.handle") as *const TsSeries;
        let b = series("test.ts.handle") as *const TsSeries;
        assert_eq!(a, b);
    }
}
