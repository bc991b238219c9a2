//! Algorithm 1: the thread gate used to adapt the degree of parallelism and
//! to quiesce all threads before switching TM algorithms.
//!
//! Each application thread synchronizes with the adapter through a padded
//! per-slot cache line holding three words — **run**, **block** and
//! **epoch** — and nothing else: no mutex, no condvar, no possible lost
//! wakeup. Every word has one writer. `run` is written only by the slot's
//! own thread: starting a transaction stores 1 into it, ending one stores
//! 0, so the paper's fetch-and-add on tm-start becomes one `SeqCst` store
//! and the one on tm-end a plain `Release` store. `block` is written only
//! by the adapter, which holds `PolyTm`'s reconfiguration lock for it. The
//! adapter disables a thread by storing 1 into `block` and *polling*
//! (spin → yield → sleep) until `run` reads 0; a blocked entrant likewise
//! polls `block`. An entrant that finds `block` set after raising `run`
//! knows it raced and resolves the race exactly as the paper prescribes:
//! it withdraws and waits.
//!
//! # Memory-ordering contract
//!
//! * `enter` is Dekker's entry: `run.store(1, SeqCst)`, then
//!   `block.load(SeqCst)`. The adapter mirrors it: `block.store(1,
//!   SeqCst)` in [`ThreadGate::block`], then `run.load(SeqCst)` in
//!   [`ThreadGate::await_drained`]. In the single total order of the four
//!   `SeqCst` operations one store comes first, so either the entrant sees
//!   the block and withdraws, or the adapter sees the run flag and waits —
//!   never both miss.
//! * `exit` is `run.store(0, Release)`: the adapter's drain load that reads
//!   it sees every write of the drained transaction.
//! * [`ThreadGate::unblock`] is `block.store(0, Release)`: the entrant's
//!   load that reads it synchronizes with it, so everything the adapter
//!   wrote while the thread was blocked (the backend pointer, the config
//!   cell, the advanced epoch) is visible to the transaction.
//! * The slot epoch is published *after* a successful enter with a release
//!   store. Because the adapter advances the global epoch before
//!   unblocking (both while the thread cannot be inside a transaction), a
//!   slot whose epoch word reads `e` is guaranteed to have started its
//!   current/latest transaction on the backend configuration of epoch `e`
//!   — the property the switch stress tests assert.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};
use txcore::util::CachePadded;

/// Per-thread gate state; one cache line per slot. Outside a
/// reconfiguration only the owning thread touches the line, so its stores
/// stay in that core's cache.
#[derive(Default)]
struct Slot {
    /// 1 while the slot's thread is inside a transaction (or trying to
    /// enter one). Written only by that thread.
    run: AtomicU64,
    /// 1 while the adapter wants the thread blocked. Written only by the
    /// holder of `PolyTm`'s reconfiguration lock.
    block: AtomicU64,
    /// Last global quiescence epoch this slot entered under. Written only
    /// by the slot's thread.
    epoch: AtomicU64,
}

impl Slot {
    /// Whether the slot's thread has no transaction in flight: the
    /// adapter's `SeqCst` run-word load of the memory-ordering contract.
    #[inline]
    fn drained(&self) -> bool {
        self.run.load(Ordering::SeqCst) == 0
    }
}

/// The per-thread gate (Algorithm 1).
///
/// ```
/// use polytm::ThreadGate;
/// let gate = ThreadGate::new(2);
/// gate.enter(0);            // tm-start (one SeqCst store on the run word)
/// gate.exit(0);             // tm-end (one Release store)
/// gate.disable(1);          // adapter blocks thread 1 (waits if running)
/// assert!(gate.is_disabled(1));
/// gate.enable(1);
/// assert_eq!(gate.advance_epoch(), gate.current_epoch());
/// ```
pub struct ThreadGate {
    slots: Vec<CachePadded<Slot>>,
    /// Global quiescence epoch, advanced once per algorithm switch.
    epoch: CachePadded<AtomicU64>,
}

/// Poll until `done` returns true: brief spin for the common
/// transaction-length wait, then yields, then 50 µs sleeps so an
/// arbitrarily long block never burns a core. Returns `false` if
/// `deadline` passes first.
fn poll_until(mut done: impl FnMut() -> bool, deadline: Option<Instant>) -> bool {
    let mut round = 0u32;
    loop {
        if done() {
            return true;
        }
        if let Some(d) = deadline {
            if Instant::now() >= d {
                return false;
            }
        }
        if round < 64 {
            std::hint::spin_loop();
        } else if round < 128 {
            std::thread::yield_now();
        } else {
            std::thread::sleep(Duration::from_micros(50));
        }
        round = round.saturating_add(1);
    }
}

impl ThreadGate {
    /// A gate for up to `max_threads` registered threads, all enabled.
    pub fn new(max_threads: usize) -> Self {
        let mut slots = Vec::with_capacity(max_threads);
        for _ in 0..max_threads {
            slots.push(CachePadded::new(Slot::default()));
        }
        ThreadGate {
            slots,
            epoch: CachePadded::new(AtomicU64::new(0)),
        }
    }

    /// Number of thread slots.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Publish the current global epoch into `t`'s slot. Runs after a
    /// successful enter: the `SeqCst` block load that read `unblock`'s
    /// release store ordered this load after the adapter's pre-unblock
    /// epoch advance, so the value is never staler than the backend the
    /// transaction runs on.
    #[inline]
    fn publish_epoch(&self, slot: &Slot) {
        let g = self.epoch.load(Ordering::Relaxed);
        if slot.epoch.load(Ordering::Relaxed) != g {
            slot.epoch.store(g, Ordering::Release);
        }
    }

    /// Called by thread `t` before each transaction; blocks (by polling)
    /// while `t` is disabled (Algorithm 1, `tm-start`).
    ///
    /// Slot `t` must not already be entered: a nested transaction or a
    /// slot shared by two threads is a bug, caught here in debug builds.
    #[inline]
    pub fn enter(&self, t: usize) {
        let slot = &self.slots[t];
        debug_assert_eq!(
            slot.run.load(Ordering::Relaxed),
            0,
            "gate slot {t} entered twice (nested transaction or shared slot)"
        );
        loop {
            slot.run.store(1, Ordering::SeqCst);
            if slot.block.load(Ordering::SeqCst) == 0 {
                self.publish_epoch(slot);
                return;
            }
            // Lost the race with the adapter: withdraw and wait.
            slot.run.store(0, Ordering::Release);
            poll_until(|| slot.block.load(Ordering::Acquire) == 0, None);
        }
    }

    /// Called by thread `t` after each transaction (Algorithm 1, `tm-end`).
    #[inline]
    pub fn exit(&self, t: usize) {
        self.slots[t].run.store(0, Ordering::Release);
    }

    /// Adapter side: set `t`'s block word without waiting for its in-flight
    /// transaction. Idempotent, so overlapping blocks of the same slot
    /// cannot accumulate. Pair with [`ThreadGate::await_drained`] to
    /// quiesce many threads concurrently: block all, then drain all —
    /// total wait is the *slowest* transaction, not the sum.
    ///
    /// `block` has one writer at a time by construction: every `PolyTm`
    /// path that blocks or unblocks a slot (`apply`, `run_serial`,
    /// `resume_all`, `pin_thread`, the parallelism resize) holds its
    /// reconfiguration lock.
    #[inline]
    pub fn block(&self, t: usize) {
        self.slots[t].block.store(1, Ordering::SeqCst);
    }

    /// Adapter side: wait (polling) until `t` has no transaction in
    /// flight, or until `deadline`. Returns `true` on drain.
    ///
    /// Only meaningful after [`ThreadGate::block`]; the load that observes
    /// the run word clear synchronizes with the drained transaction's exit.
    #[must_use]
    pub fn await_drained(&self, t: usize, deadline: Option<Instant>) -> bool {
        let slot = &self.slots[t];
        poll_until(|| slot.drained(), deadline)
    }

    /// Adapter side: whether `t` has no transaction in flight, without
    /// waiting — the `SeqCst` run-word load [`ThreadGate::await_drained`]
    /// polls, so it pairs with [`ThreadGate::block`] the same way.
    #[inline]
    #[must_use]
    pub fn is_drained(&self, t: usize) -> bool {
        self.slots[t].drained()
    }

    /// Adapter side: [`ThreadGate::await_drained`] to a deadline `timeout`
    /// after the first failed poll, kept in `deadline` unless already set.
    pub(crate) fn await_drained_within(
        &self,
        t: usize,
        timeout: Duration,
        deadline: &mut Option<Instant>,
    ) -> bool {
        let drained = || self.is_drained(t);
        let mut shared = || Some(*deadline.get_or_insert_with(|| Instant::now() + timeout));
        drained() || poll_until(drained, shared())
    }

    /// Adapter side: clear `t`'s block word. No-op when `t` is not
    /// blocked, and it cannot disturb an entrant: the run word is a
    /// different word with a different writer. Waiters notice by polling —
    /// there is no wakeup to lose.
    #[inline]
    pub fn unblock(&self, t: usize) {
        self.slots[t].block.store(0, Ordering::Release);
    }

    /// Adapter side: block thread `t`, waiting until any in-flight
    /// transaction of `t` finishes (Algorithm 1, `disable-thread`).
    pub fn disable(&self, t: usize) {
        self.block(t);
        let drained = self.await_drained(t, None);
        debug_assert!(drained);
    }

    /// Adapter side: like [`ThreadGate::disable`], but give up if `t`'s
    /// in-flight transaction has not drained within `timeout`.
    ///
    /// On timeout the block is rolled back and `false` is returned:
    /// the thread keeps running as if `try_disable` was never called. This
    /// is the quiescence watchdog's primitive — Algorithm 1 assumes
    /// transactions drain promptly, and a stalled or wedged worker would
    /// otherwise block reconfiguration forever.
    #[must_use]
    pub fn try_disable(&self, t: usize, timeout: Duration) -> bool {
        self.block(t);
        if self.await_drained_within(t, timeout, &mut None) {
            return true;
        }
        self.unblock(t);
        false
    }

    /// Adapter side: re-enable thread `t` (Algorithm 1, `enable-thread`).
    pub fn enable(&self, t: usize) {
        self.unblock(t);
    }

    /// Whether thread `t` is currently disabled.
    pub fn is_disabled(&self, t: usize) -> bool {
        self.slots[t].block.load(Ordering::Acquire) != 0
    }

    /// Advance the global quiescence epoch and return the new value.
    /// Called once per algorithm switch, after every thread is blocked and
    /// drained and the new backend is installed, *before* unblocking — so
    /// a slot that observes the new epoch runs on the new backend. One
    /// writer (`PolyTm::apply`, under `reconfig`): a load, a `Release` store.
    pub fn advance_epoch(&self) -> u64 {
        let next = self.epoch.load(Ordering::Relaxed) + 1;
        self.epoch.store(next, Ordering::Release);
        next
    }

    /// The current global quiescence epoch.
    pub fn current_epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// The last epoch thread `t` entered a transaction under.
    pub fn observed_epoch(&self, t: usize) -> u64 {
        self.slots[t].epoch.load(Ordering::Acquire)
    }
}

impl std::fmt::Debug for ThreadGate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadGate")
            .field("capacity", &self.capacity())
            .field("epoch", &self.current_epoch())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;

    #[test]
    fn enter_exit_when_enabled() {
        let g = ThreadGate::new(2);
        g.enter(0);
        g.exit(0);
        g.enter(1);
        g.exit(1);
        assert!(!g.is_disabled(0));
    }

    #[test]
    fn disable_waits_for_inflight_transaction() {
        let g = Arc::new(ThreadGate::new(1));
        g.enter(0); // transaction in flight
        let g2 = Arc::clone(&g);
        let disabled = Arc::new(AtomicBool::new(false));
        let d2 = Arc::clone(&disabled);
        let h = std::thread::spawn(move || {
            g2.disable(0);
            d2.store(true, Ordering::SeqCst);
        });
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert!(
            !disabled.load(Ordering::SeqCst),
            "disable returned while a transaction was running"
        );
        g.exit(0);
        h.join().unwrap();
        assert!(disabled.load(Ordering::SeqCst));
        assert!(g.is_disabled(0));
    }

    #[test]
    fn blocked_thread_resumes_on_enable() {
        let g = Arc::new(ThreadGate::new(1));
        g.disable(0);
        let g2 = Arc::clone(&g);
        let entered = Arc::new(AtomicBool::new(false));
        let e2 = Arc::clone(&entered);
        let h = std::thread::spawn(move || {
            g2.enter(0); // must block until enabled
            e2.store(true, Ordering::SeqCst);
            g2.exit(0);
        });
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert!(!entered.load(Ordering::SeqCst), "entered while disabled");
        g.enable(0);
        h.join().unwrap();
        assert!(entered.load(Ordering::SeqCst));
    }

    #[test]
    fn try_disable_succeeds_when_idle_and_times_out_when_stuck() {
        let g = Arc::new(ThreadGate::new(2));
        // Idle thread: disabled immediately.
        assert!(g.try_disable(0, std::time::Duration::from_millis(1)));
        assert!(g.is_disabled(0));
        g.enable(0);
        // Stuck thread: the watchdog gives up and rolls the block back,
        // but only once the whole timeout has passed.
        g.enter(1);
        let t0 = Instant::now();
        assert!(!g.try_disable(1, std::time::Duration::from_millis(5)));
        let waited = t0.elapsed();
        assert!(
            waited >= Duration::from_millis(5),
            "gave up after {waited:?}"
        );
        assert!(!g.is_disabled(1), "block rolled back on timeout");
        g.exit(1);
        // After the stall clears, a retry succeeds.
        assert!(g.try_disable(1, std::time::Duration::from_millis(1)));
        g.enable(1);
    }

    #[test]
    fn try_disable_timeout_leaves_gate_usable() {
        let g = Arc::new(ThreadGate::new(1));
        g.enter(0);
        assert!(!g.try_disable(0, std::time::Duration::from_millis(2)));
        g.exit(0);
        // The thread can keep transacting (no leaked block) ...
        g.enter(0);
        g.exit(0);
        // ... and a real disable still quiesces it.
        g.disable(0);
        assert!(g.is_disabled(0));
        g.enable(0);
    }

    #[test]
    fn repeated_block_does_not_accumulate() {
        // `block` is idempotent: a double block followed by a single
        // unblock must leave the slot fully enabled.
        let g = ThreadGate::new(1);
        g.block(0);
        g.block(0);
        g.unblock(0);
        assert!(!g.is_disabled(0));
        g.enter(0);
        g.exit(0);
        // Unblocking an already-enabled slot is a no-op.
        g.unblock(0);
        g.enter(0);
        g.exit(0);
    }

    #[test]
    fn enable_preserves_concurrent_entrants_run_bit() {
        // Each word has one writer: the entrant alone stores `run`, the
        // adapter alone stores `block`. So a block/unblock storm against a
        // thread entering and withdrawing can neither wedge the entrant
        // (a lost unblock) nor leak a block into the quiet state after it.
        let g = Arc::new(ThreadGate::new(1));
        let stop = Arc::new(AtomicBool::new(false));
        std::thread::scope(|s| {
            let g2 = Arc::clone(&g);
            let stop2 = Arc::clone(&stop);
            s.spawn(move || {
                while !stop2.load(Ordering::Relaxed) {
                    g2.enter(0);
                    g2.exit(0);
                }
            });
            for _ in 0..2_000 {
                g.block(0);
                g.unblock(0);
            }
            stop.store(true, Ordering::SeqCst);
        });
        // A leaked block would leave enter polling for ever; a clean
        // enter/exit proves it did not happen.
        g.enter(0);
        g.exit(0);
        assert!(!g.is_disabled(0));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "entered twice")]
    fn entering_an_entered_slot_is_caught() {
        let g = ThreadGate::new(1);
        g.enter(0);
        g.enter(0);
    }

    /// Runs its closure on drop (the `gate_stress.rs` guard): a failed
    /// assertion on the adapter side unwinds through it, the entrant
    /// leaves its loop, and the test fails instead of hanging.
    struct OnDrop<F: FnMut()>(F);

    impl<F: FnMut()> Drop for OnDrop<F> {
        fn drop(&mut self) {
            (self.0)()
        }
    }

    #[test]
    fn dekker_handshake_freezes_the_entrant_in_every_drain() {
        // The entrant bumps a two-word pair inside the gate, one word at a
        // time. After every drain the adapter must find the pair equal (no
        // transaction half done) and unchanged a moment later (nobody got
        // in): either the adapter's load saw `run`, or the entrant's saw
        // `block`.
        const ROUNDS: u32 = 10_000;
        let deadline = Instant::now() + Duration::from_secs(30);
        let g = ThreadGate::new(1);
        let pair = [AtomicU64::new(0), AtomicU64::new(0)];
        let stop = AtomicBool::new(false);
        std::thread::scope(|s| {
            let _release = OnDrop(|| {
                stop.store(true, Ordering::Release);
                g.unblock(0);
            });
            s.spawn(|| {
                while !stop.load(Ordering::Relaxed) {
                    g.enter(0);
                    let n = pair[0].load(Ordering::Relaxed) + 1;
                    pair[0].store(n, Ordering::Relaxed);
                    pair[1].store(n, Ordering::Relaxed);
                    g.exit(0);
                }
            });
            for round in 0..ROUNDS {
                g.block(0);
                assert!(
                    g.await_drained(0, Some(deadline)),
                    "round {round}: slot failed to drain"
                );
                let seen = [0, 1].map(|i| pair[i].load(Ordering::Relaxed));
                assert_eq!(seen[0], seen[1], "round {round}: torn pair");
                for _ in 0..16 {
                    std::hint::spin_loop();
                }
                let again = [0, 1].map(|i| pair[i].load(Ordering::Relaxed));
                assert_eq!(seen, again, "round {round}: entrant ran while drained");
                g.unblock(0);
                // Race the next block against a running entrant, not an
                // idle one — and prove the unblock was not lost.
                while pair[1].load(Ordering::Relaxed) == seen[1] {
                    assert!(Instant::now() < deadline, "round {round}: no wakeup");
                    std::hint::spin_loop();
                }
            }
        });
        assert!(pair[0].load(Ordering::Relaxed) > 0, "entrant never entered");
    }

    #[test]
    fn epoch_publication_tracks_enters() {
        let g = ThreadGate::new(2);
        assert_eq!(g.current_epoch(), 0);
        g.enter(0);
        g.exit(0);
        assert_eq!(g.observed_epoch(0), 0);
        assert_eq!(g.advance_epoch(), 1);
        assert_eq!(g.current_epoch(), 1);
        // Slot 0 has not entered since the advance.
        assert_eq!(g.observed_epoch(0), 0);
        g.enter(0);
        assert_eq!(g.observed_epoch(0), 1);
        g.exit(0);
        // Slot 1 never entered at all.
        assert_eq!(g.observed_epoch(1), 0);
    }

    #[test]
    fn await_drained_times_out_and_succeeds() {
        let g = ThreadGate::new(1);
        g.enter(0);
        g.block(0);
        assert!(!g.is_drained(0));
        assert!(!g.await_drained(0, Some(Instant::now() + Duration::from_millis(2))));
        g.exit(0);
        assert!(g.is_drained(0));
        assert!(g.await_drained(0, Some(Instant::now() + Duration::from_millis(100))));
        g.unblock(0);
    }

    #[test]
    fn quiesce_all_threads_and_resume() {
        const N: usize = 4;
        let g = Arc::new(ThreadGate::new(N));
        let stop = Arc::new(AtomicBool::new(false));
        let counters: Arc<Vec<AtomicU64>> = Arc::new((0..N).map(|_| AtomicU64::new(0)).collect());
        std::thread::scope(|s| {
            for t in 0..N {
                let g = Arc::clone(&g);
                let stop = Arc::clone(&stop);
                let counters = Arc::clone(&counters);
                s.spawn(move || {
                    while !stop.load(Ordering::Relaxed) {
                        g.enter(t);
                        counters[t].fetch_add(1, Ordering::Relaxed);
                        g.exit(t);
                    }
                });
            }
            // Quiesce: after disable() returns for every thread, no thread
            // is inside the enter/exit critical section.
            for t in 0..N {
                g.disable(t);
            }
            let frozen: Vec<u64> = counters.iter().map(|c| c.load(Ordering::SeqCst)).collect();
            std::thread::sleep(std::time::Duration::from_millis(20));
            let later: Vec<u64> = counters.iter().map(|c| c.load(Ordering::SeqCst)).collect();
            assert_eq!(frozen, later, "threads made progress while quiesced");
            stop.store(true, Ordering::SeqCst);
            for t in 0..N {
                g.enable(t);
            }
        });
    }
}
