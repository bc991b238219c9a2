//! A process-wide registry of named counters.
//!
//! Registration leaks one small allocation per distinct name (names form a
//! small closed set), which lets hot paths hold `&'static` handles and
//! update them with a single relaxed atomic RMW.
//!
//! Determinism contract: counters on the learning path must hold
//! logically deterministic values (they are dumped into the JSONL trace at
//! [`crate::finish_trace`]); wall-clock durations are not recorded here
//! (DESIGN.md §7, "Decided: one record of a run").

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Increment by one.
    #[inline]
    pub fn inc(&self) {
        self.value.fetch_add(1, Ordering::Relaxed);
    }

    /// Increment by `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
    }
}

static REGISTRY: Mutex<BTreeMap<String, &'static Counter>> = Mutex::new(BTreeMap::new());

fn registry() -> std::sync::MutexGuard<'static, BTreeMap<String, &'static Counter>> {
    REGISTRY.lock().unwrap_or_else(|p| p.into_inner())
}

/// Look up (or register) the counter `name`. Only the first call for a
/// name allocates: a lookup of a known name borrows it as the key.
pub fn counter(name: &str) -> &'static Counter {
    let mut registry = registry();
    if let Some(&c) = registry.get(name) {
        return c;
    }
    registry
        .entry(name.to_string())
        .or_insert_with(|| Box::leak(Box::default()))
}

/// Counter names and values, sorted by name, skipping zeros. This is what
/// [`crate::finish_trace`] dumps into the JSONL stream.
pub fn counter_snapshot() -> Vec<(String, u64)> {
    registry()
        .iter()
        .filter(|(_, c)| c.get() > 0)
        .map(|(name, c)| (name.clone(), c.get()))
        .collect()
}

/// Zero every registered counter (registrations are kept, so `&'static`
/// handles stay valid). Called when a trace starts, so each trace reports
/// only its own run.
pub(crate) fn reset() {
    for c in registry().values() {
        c.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_roundtrip() {
        // Trace tests reset the registry; hold the capture lock so values
        // survive until the assertions.
        let _serial = crate::trace::hold_capture_lock_for_test();
        let c = counter("test.metrics.counter");
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        // Same name returns the same handle.
        assert_eq!(counter("test.metrics.counter").get(), 5);
    }

    #[test]
    fn counter_snapshot_skips_zeros_and_sorts() {
        let _serial = crate::trace::hold_capture_lock_for_test();
        counter("test.snap.zzz").inc();
        counter("test.snap.aaa").inc();
        let _zero = counter("test.snap.zero");
        let snap = counter_snapshot();
        let names: Vec<&str> = snap
            .iter()
            .map(|(n, _)| n.as_str())
            .filter(|n| n.starts_with("test.snap."))
            .collect();
        assert_eq!(names, vec!["test.snap.aaa", "test.snap.zzz"]);
    }
}
