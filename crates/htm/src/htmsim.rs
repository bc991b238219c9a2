//! The TSX-like backend: speculative attempts with a retry budget, falling
//! back to a global sequence lock (paper §2.1, §4.3).

use crate::params::{HtmGeometry, TunableCm};
use crate::spec::SpecCore;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use txcore::util::spin_until;
use txcore::{Addr, BackendKind, ThreadCtx, TmBackend, TmSystem, TxResult};

/// Simulated best-effort HTM with a global-lock fallback.
///
/// Each atomic block gets a budget of speculative attempts from the
/// [`TunableCm`]; conflicts cost one attempt, capacity aborts are charged
/// according to the tunable [`crate::CapacityPolicy`]. A drained budget
/// sends the block to the fallback path, which acquires the system-wide
/// fallback sequence lock that all speculative transactions subscribe to.
#[derive(Debug)]
pub struct HtmSim {
    sys: Arc<TmSystem>,
    core: SpecCore,
}

impl HtmSim {
    /// An HTM instance with the default (Haswell-like) geometry.
    pub fn new(sys: Arc<TmSystem>) -> Self {
        Self::with_geometry(sys, HtmGeometry::default())
    }

    /// An HTM instance with an explicit simulated cache geometry.
    pub fn with_geometry(sys: Arc<TmSystem>, geom: HtmGeometry) -> Self {
        HtmSim {
            sys,
            core: SpecCore::new(geom, false),
        }
    }

    /// The "HTM-naive" variant that routes speculative accesses through the
    /// full STM-style instrumentation: the paper's dual-code-path ablation
    /// (DESIGN.md §5 records why it stays).
    pub fn new_naive(sys: Arc<TmSystem>) -> Self {
        HtmSim {
            sys,
            core: SpecCore::new(HtmGeometry::default(), true),
        }
    }

    /// The live-tunable contention manager (retry budget + capacity policy).
    pub fn cm(&self) -> &TunableCm {
        self.core.cm()
    }

    /// The simulated cache geometry.
    pub fn geometry(&self) -> &HtmGeometry {
        self.core.geometry()
    }

    /// Take the fallback lock, then wait out the hardware commit window.
    ///
    /// The CAS is `SeqCst`, and so is the clock load in `hw_drain`: with
    /// the tick and lock load of `SpecCore::commit` this is Dekker's
    /// handshake — a hardware committer that did not see the lock odd is
    /// seen here and waited for; every later one retreats without writing.
    fn acquire_fallback(&self, ctx: &mut ThreadCtx) {
        let seq = &self.sys.fallback_seq;
        ctx.start_seq = spin_until(|| {
            let s = seq.load(Ordering::Acquire);
            (s & 1 == 0
                && seq
                    .compare_exchange(s, s + 1, Ordering::SeqCst, Ordering::Acquire)
                    .is_ok())
            .then_some(s + 1)
        });
        self.sys.hw_drain();
    }
}

impl TmBackend for HtmSim {
    fn name(&self) -> &'static str {
        "htm"
    }

    fn kind(&self) -> BackendKind {
        BackendKind::Htm
    }

    fn begin(&self, ctx: &mut ThreadCtx) -> TxResult<()> {
        if ctx.attempt == 0 {
            ctx.htm_budget = self.cm().budget().max(1);
        }
        if ctx.htm_budget == 0 {
            // Budget drained: run irrevocably under the fallback lock.
            if obs::enabled() {
                obs::counter("htm.budget_exhausted.htm").inc();
            }
            ctx.reset_logs();
            self.acquire_fallback(ctx);
            ctx.in_fallback = true;
            return Ok(());
        }
        self.core.begin(&self.sys, ctx, &self.sys.fallback_seq)
    }

    fn read(&self, ctx: &mut ThreadCtx, addr: Addr) -> TxResult<u64> {
        if ctx.in_fallback {
            return Ok(ctx
                .write_set
                .get(addr)
                .unwrap_or_else(|| self.sys.heap.read_raw(addr)));
        }
        self.core.read(&self.sys, ctx, &self.sys.fallback_seq, addr)
    }

    fn write(&self, ctx: &mut ThreadCtx, addr: Addr, val: u64) -> TxResult<()> {
        if ctx.in_fallback {
            ctx.write_set.insert(addr, val);
            return Ok(());
        }
        self.core
            .write(&self.sys, ctx, &self.sys.fallback_seq, addr, val)
    }

    fn commit(&self, ctx: &mut ThreadCtx) -> TxResult<()> {
        if ctx.in_fallback {
            for &(a, v) in ctx.write_set.entries() {
                self.sys.heap.write_raw(a, v);
            }
            self.sys
                .fallback_seq
                .store(ctx.start_seq + 1, Ordering::Release);
            ctx.reset_logs();
            return Ok(());
        }
        // The write-back cannot interleave with a fallback path's raw
        // accesses: the fallback waited out the hardware commit window
        // before its first one (real HTM gets this atomicity from the cache
        // protocol; the simulation must order explicitly).
        self.core.commit(&self.sys, ctx, &self.sys.fallback_seq)
    }

    fn rollback(&self, ctx: &mut ThreadCtx) {
        if ctx.in_fallback {
            // Explicit abort while irrevocable: nothing was published (the
            // fallback buffers writes), so just release the lock.
            self.sys
                .fallback_seq
                .store(ctx.start_seq + 1, Ordering::Release);
            ctx.reset_logs();
            return;
        }
        self.core.rollback(&self.sys, ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::CapacityPolicy;
    use txcore::LINE_WORDS;
    use txcore::{run_tx, Abort, AbortCode};

    fn setup() -> (Arc<TmSystem>, HtmSim, ThreadCtx) {
        let sys = Arc::new(TmSystem::new(1 << 16));
        let tm = HtmSim::with_geometry(Arc::clone(&sys), HtmGeometry::TINY_FOR_TESTS);
        (sys, tm, ThreadCtx::new(0))
    }

    /// On the optimized path and on the dual-code-path ablation's
    /// instrumented one (`new_naive`) alike.
    #[test]
    fn small_transactions_commit_speculatively() {
        let (sys, tm, _) = setup();
        let naive = HtmSim::new_naive(Arc::clone(&sys));
        for tm in [tm, naive] {
            let mut ctx = ThreadCtx::new(0);
            let a = sys.heap.alloc(1);
            run_tx(&tm, &mut ctx, |tx| {
                let v = tx.read(a)?;
                tx.write(a, v + 1)
            });
            assert_eq!(sys.heap.read_raw(a), 1);
            let snap = ctx.stats.snapshot();
            assert_eq!(snap.commits, 1);
            assert_eq!(snap.fallback_commits, 0);
        }
    }

    #[test]
    fn oversized_transactions_reach_the_fallback() {
        let (sys, tm, mut ctx) = setup();
        tm.cm().set(4, CapacityPolicy::GiveUp);
        let base = sys.heap.alloc(LINE_WORDS * 32);
        run_tx(&tm, &mut ctx, |tx| {
            for i in 0..32u32 {
                tx.write(base.field(i * LINE_WORDS as u32), u64::from(i))?;
            }
            Ok(())
        });
        for i in 0..32u32 {
            assert_eq!(
                sys.heap.read_raw(base.field(i * LINE_WORDS as u32)),
                u64::from(i)
            );
        }
        let snap = ctx.stats.snapshot();
        assert_eq!(snap.fallback_commits, 1, "should have fallen back");
        assert_eq!(
            snap.aborts_of(AbortCode::Capacity),
            1,
            "giveup = one capacity abort"
        );
        assert_eq!(
            sys.fallback_seq.load(Ordering::Relaxed),
            2,
            "fallback lock released"
        );
    }

    #[test]
    fn capacity_policies_spend_different_numbers_of_attempts() {
        for (policy, expected_capacity_aborts) in [
            (CapacityPolicy::GiveUp, 1u64),
            (CapacityPolicy::Halve, 4),    // budget 8 -> 4 -> 2 -> 1 -> 0
            (CapacityPolicy::Decrease, 8), // 8 -> 7 -> ... -> 0
        ] {
            let (sys, tm, mut ctx) = setup();
            tm.cm().set(8, policy);
            let base = sys.heap.alloc(LINE_WORDS * 32);
            run_tx(&tm, &mut ctx, |tx| {
                for i in 0..32u32 {
                    tx.write(base.field(i * LINE_WORDS as u32), 1)?;
                }
                Ok(())
            });
            let snap = ctx.stats.snapshot();
            assert_eq!(
                snap.aborts_of(AbortCode::Capacity),
                expected_capacity_aborts,
                "policy {policy:?}"
            );
            assert_eq!(snap.fallback_commits, 1);
        }
    }

    #[test]
    fn halve_policy_reaches_zero_from_one() {
        assert_eq!(CapacityPolicy::Halve.apply(1), 0);
    }

    #[test]
    fn fallback_activation_poisons_running_speculation() {
        let (sys, tm, mut ctx) = setup();
        let a = sys.heap.alloc(1);
        tm.begin(&mut ctx).unwrap();
        assert_eq!(tm.read(&mut ctx, a).unwrap(), 0);
        // A fallback path activates concurrently: our speculative state is
        // poisoned, like an eviction of the elided lock's cache line.
        sys.fallback_seq.store(1, Ordering::Release);
        let b = sys.heap.alloc(1);
        assert_eq!(tm.read(&mut ctx, b), Err(Abort::FALLBACK));
        tm.rollback(&mut ctx);
        sys.fallback_seq.store(2, Ordering::Release);
    }

    #[test]
    fn concurrent_increments_are_not_lost() {
        let sys = Arc::new(TmSystem::new(1 << 12));
        let tm = Arc::new(HtmSim::new(Arc::clone(&sys)));
        let a = sys.heap.alloc(1);
        std::thread::scope(|s| {
            for t in 0..4 {
                let tm = Arc::clone(&tm);
                s.spawn(move || {
                    let mut ctx = ThreadCtx::new(t);
                    for _ in 0..300 {
                        run_tx(tm.as_ref(), &mut ctx, |tx| {
                            let v = tx.read(a)?;
                            tx.write(a, v + 1)
                        });
                    }
                });
            }
        });
        assert_eq!(sys.heap.read_raw(a), 1200);
    }

    #[test]
    fn mixed_speculative_and_fallback_conserve_invariants() {
        // Tiny geometry: big transactions serialize through the fallback
        // while small ones keep running speculatively.
        let sys = Arc::new(TmSystem::new(1 << 14));
        let tm = Arc::new(HtmSim::with_geometry(
            Arc::clone(&sys),
            HtmGeometry::TINY_FOR_TESTS,
        ));
        tm.cm().set(2, CapacityPolicy::GiveUp);
        let big = sys.heap.alloc(LINE_WORDS * 16);
        let small = sys.heap.alloc(1);
        std::thread::scope(|s| {
            for t in 0..2 {
                let tm = Arc::clone(&tm);
                s.spawn(move || {
                    let mut ctx = ThreadCtx::new(t);
                    for _ in 0..50 {
                        run_tx(tm.as_ref(), &mut ctx, |tx| {
                            // Touches 16 lines: guaranteed capacity overflow.
                            for i in 0..16u32 {
                                let a = big.field(i * LINE_WORDS as u32);
                                let v = tx.read(a)?;
                                tx.write(a, v + 1)?;
                            }
                            Ok(())
                        });
                    }
                });
            }
            for t in 2..4 {
                let tm = Arc::clone(&tm);
                s.spawn(move || {
                    let mut ctx = ThreadCtx::new(t);
                    for _ in 0..200 {
                        run_tx(tm.as_ref(), &mut ctx, |tx| {
                            let v = tx.read(small)?;
                            tx.write(small, v + 1)
                        });
                    }
                });
            }
        });
        assert_eq!(sys.heap.read_raw(small), 400);
        for i in 0..16u32 {
            assert_eq!(sys.heap.read_raw(big.field(i * LINE_WORDS as u32)), 100);
        }
    }
}
