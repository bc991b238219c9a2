//! Hybrid NOrec (Dalessandro, Carouge, White, Lev, Moir, Scott, Spear —
//! ASPLOS 2011): a hardware fast path over an NOrec software slow path.
//!
//! Hardware transactions subscribe to NOrec's global sequence lock, which
//! only software commits advance; software transactions watch the hardware
//! clock beside it and revalidate (by value) when either moves — the split
//! counter of the original paper, so one hardware commit does not abort the
//! others. When the speculative budget drains, the block runs as an NOrec
//! transaction ([`NOrec::hybrid`]) — no global mutual exclusion, unlike
//! [`crate::HtmSim`]'s lock fallback.

use crate::params::{HtmGeometry, TunableCm};
use crate::spec::{track, SpecCore};
use std::sync::Arc;
use stm::NOrec;
use txcore::{Abort, Addr, BackendKind, ThreadCtx, TmBackend, TmSystem, TxResult};

/// The Hybrid NOrec backend. See the module docs.
#[derive(Debug)]
pub struct HybridNOrec {
    sys: Arc<TmSystem>,
    core: SpecCore,
    norec: NOrec,
}

impl HybridNOrec {
    /// A hybrid instance with the default simulated geometry.
    pub fn new(sys: Arc<TmSystem>) -> Self {
        Self::with_geometry(sys, HtmGeometry::default())
    }

    /// A hybrid instance with an explicit simulated cache geometry.
    pub fn with_geometry(sys: Arc<TmSystem>, geom: HtmGeometry) -> Self {
        HybridNOrec {
            norec: NOrec::hybrid(Arc::clone(&sys)),
            core: SpecCore::new(geom, false),
            sys,
        }
    }

    /// The live-tunable contention manager.
    pub fn cm(&self) -> &TunableCm {
        self.core.cm()
    }
}

impl TmBackend for HybridNOrec {
    fn name(&self) -> &'static str {
        "hybrid-norec"
    }

    fn kind(&self) -> BackendKind {
        BackendKind::Hybrid
    }

    fn begin(&self, ctx: &mut ThreadCtx) -> TxResult<()> {
        if ctx.attempt == 0 {
            ctx.htm_budget = self.cm().budget().max(1);
        }
        if ctx.htm_budget == 0 {
            if obs::enabled() {
                obs::counter("htm.budget_exhausted.hybrid-norec").inc();
            }
            self.norec.begin(ctx)?;
            ctx.in_fallback = true;
            return Ok(());
        }
        self.core.begin(&self.sys, ctx, &self.sys.norec_seq)
    }

    fn read(&self, ctx: &mut ThreadCtx, addr: Addr) -> TxResult<u64> {
        if ctx.in_fallback {
            return self.norec.read(ctx, addr);
        }
        self.core.read(&self.sys, ctx, &self.sys.norec_seq, addr)
    }

    fn write(&self, ctx: &mut ThreadCtx, addr: Addr, val: u64) -> TxResult<()> {
        if ctx.in_fallback {
            return self.norec.write(ctx, addr, val);
        }
        self.core
            .write(&self.sys, ctx, &self.sys.norec_seq, addr, val)
    }

    fn commit(&self, ctx: &mut ThreadCtx) -> TxResult<()> {
        if ctx.in_fallback {
            return self.norec.commit(ctx);
        }
        self.core.commit(&self.sys, ctx, &self.sys.norec_seq)
    }

    fn rollback(&self, ctx: &mut ThreadCtx) {
        if ctx.in_fallback {
            self.norec.rollback(ctx);
            return;
        }
        self.core.rollback(&self.sys, ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::CapacityPolicy;
    use std::sync::atomic::Ordering;
    use txcore::run_tx;
    use txcore::LINE_WORDS;

    #[test]
    fn hardware_commit_signals_software_path() {
        let sys = Arc::new(TmSystem::new(1 << 12));
        let tm = HybridNOrec::new(Arc::clone(&sys));
        let a = sys.heap.alloc(LINE_WORDS);
        let b = sys.heap.alloc(1);
        let (mut sw, mut hw) = (ThreadCtx::new(0), ThreadCtx::new(1));
        // A drained budget: `sw` runs as a software NOrec transaction.
        sw.attempt = 1;
        sw.htm_budget = 0;
        tm.begin(&mut sw).unwrap();
        assert!(sw.in_fallback);
        assert_eq!(tm.read(&mut sw, a), Ok(0));
        run_tx(&tm, &mut hw, |tx| tx.write(a, 1));
        // The hardware commit left NOrec's sequence lock alone ...
        assert_eq!(sys.norec_seq.load(Ordering::Relaxed), 0);
        // ... and the software reader still sees it, through `hw_clock`:
        // its next read revalidates by value and finds `a` changed.
        let abort = tm.read(&mut sw, b).unwrap_err();
        assert_eq!(abort, Abort::CONFLICT);
        assert_eq!(abort.stripe(), Some(sys.orecs.index_for(a) as u32));
        tm.rollback(&mut sw);
    }

    #[test]
    fn oversized_blocks_run_as_norec_transactions() {
        let sys = Arc::new(TmSystem::new(1 << 14));
        let tm = HybridNOrec::with_geometry(Arc::clone(&sys), HtmGeometry::TINY_FOR_TESTS);
        tm.cm().set(2, CapacityPolicy::GiveUp);
        let base = sys.heap.alloc(LINE_WORDS * 16);
        let mut ctx = ThreadCtx::new(0);
        run_tx(&tm, &mut ctx, |tx| {
            for i in 0..16u32 {
                tx.write(base.field(i * LINE_WORDS as u32), 7)?;
            }
            Ok(())
        });
        let snap = ctx.stats.snapshot();
        assert_eq!(snap.fallback_commits, 1);
        for i in 0..16u32 {
            assert_eq!(sys.heap.read_raw(base.field(i * LINE_WORDS as u32)), 7);
        }
    }

    #[test]
    fn mixed_hardware_software_conserves_counter() {
        let sys = Arc::new(TmSystem::new(1 << 14));
        let tm = Arc::new(HybridNOrec::with_geometry(
            Arc::clone(&sys),
            HtmGeometry::TINY_FOR_TESTS,
        ));
        tm.cm().set(1, CapacityPolicy::GiveUp);
        let big = sys.heap.alloc(LINE_WORDS * 16);
        let small = sys.heap.alloc(1);
        std::thread::scope(|s| {
            for t in 0..2 {
                let tm = Arc::clone(&tm);
                s.spawn(move || {
                    let mut ctx = ThreadCtx::new(t);
                    for _ in 0..50 {
                        run_tx(tm.as_ref(), &mut ctx, |tx| {
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

/// A phased hybrid in the spirit of reduced-hardware transactions (Matveev
/// & Shavit — SPAA 2013): the speculative path shares TL2's commit-time
/// locking protocol (so hardware and software transactions coordinate
/// through the same ownership records) but is subject to HTM capacity
/// limits and a retry budget; a drained budget simply continues in plain
/// software TL2 — no global lock, no mutual exclusion.
///
/// Because both paths speak the TL2 protocol, they are always mutually
/// safe; the "hardware" flavour of the fast path is expressed by its
/// capacity bounds and budget-driven phase demotion.
#[derive(Debug)]
pub struct HybridTl2 {
    tl2: stm::Tl2,
    geom: HtmGeometry,
    cm: TunableCm,
}

impl HybridTl2 {
    /// A hybrid instance with the default simulated geometry.
    pub fn new(sys: Arc<TmSystem>) -> Self {
        Self::with_geometry(sys, HtmGeometry::default())
    }

    /// A hybrid instance with an explicit simulated cache geometry.
    pub fn with_geometry(sys: Arc<TmSystem>, geom: HtmGeometry) -> Self {
        HybridTl2 {
            tl2: stm::Tl2::new(sys),
            geom,
            cm: TunableCm::default(),
        }
    }

    /// The live-tunable contention manager.
    pub fn cm(&self) -> &TunableCm {
        &self.cm
    }
}

impl TmBackend for HybridTl2 {
    fn name(&self) -> &'static str {
        "hybrid-tl2"
    }

    fn kind(&self) -> BackendKind {
        BackendKind::Hybrid
    }

    fn begin(&self, ctx: &mut ThreadCtx) -> TxResult<()> {
        if ctx.attempt == 0 {
            ctx.htm_budget = self.cm.budget().max(1);
        }
        let software = ctx.htm_budget == 0;
        if software && obs::enabled() {
            obs::counter("htm.budget_exhausted.hybrid-tl2").inc();
        }
        self.tl2.begin(ctx)?; // resets logs (and the in_fallback flag)
        ctx.in_fallback = software;
        Ok(())
    }

    fn read(&self, ctx: &mut ThreadCtx, addr: Addr) -> TxResult<u64> {
        if ctx.in_fallback {
            return self.tl2.read(ctx, addr);
        }
        if !track(&mut ctx.read_lines, addr, self.geom.read_capacity) {
            return Err(self.cm.charge(ctx, Abort::CAPACITY));
        }
        self.tl2.read(ctx, addr).map_err(|a| self.cm.charge(ctx, a))
    }

    fn write(&self, ctx: &mut ThreadCtx, addr: Addr, val: u64) -> TxResult<()> {
        if ctx.in_fallback {
            return self.tl2.write(ctx, addr, val);
        }
        if !track(&mut ctx.write_lines, addr, self.geom.write_capacity) {
            return Err(self.cm.charge(ctx, Abort::CAPACITY));
        }
        self.tl2
            .write(ctx, addr, val)
            .map_err(|a| self.cm.charge(ctx, a))
    }

    fn commit(&self, ctx: &mut ThreadCtx) -> TxResult<()> {
        if ctx.in_fallback {
            return self.tl2.commit(ctx);
        }
        if self.geom.spurious_abort_prob > 0.0 && ctx.rng.next_f64() < self.geom.spurious_abort_prob
        {
            return Err(self.cm.charge(ctx, Abort::SPURIOUS));
        }
        self.tl2.commit(ctx).map_err(|a| self.cm.charge(ctx, a))
    }

    fn rollback(&self, ctx: &mut ThreadCtx) {
        self.tl2.rollback(ctx);
    }
}

#[cfg(test)]
mod hybrid_tl2_tests {
    use super::*;
    use crate::params::CapacityPolicy;
    use txcore::run_tx;
    use txcore::LINE_WORDS;

    #[test]
    fn small_transactions_stay_speculative() {
        let sys = Arc::new(TmSystem::new(1 << 12));
        let tm = HybridTl2::new(Arc::clone(&sys));
        let a = sys.heap.alloc(1);
        let mut ctx = ThreadCtx::new(0);
        run_tx(&tm, &mut ctx, |tx| {
            let v = tx.read(a)?;
            tx.write(a, v + 1)
        });
        let snap = ctx.stats.snapshot();
        assert_eq!(snap.commits, 1);
        assert_eq!(snap.fallback_commits, 0);
        assert_eq!(sys.heap.read_raw(a), 1);
    }

    #[test]
    fn oversized_blocks_demote_to_software_tl2() {
        let sys = Arc::new(TmSystem::new(1 << 14));
        let tm = HybridTl2::with_geometry(Arc::clone(&sys), HtmGeometry::TINY_FOR_TESTS);
        tm.cm().set(2, CapacityPolicy::GiveUp);
        let base = sys.heap.alloc(LINE_WORDS * 16);
        let mut ctx = ThreadCtx::new(0);
        run_tx(&tm, &mut ctx, |tx| {
            for i in 0..16u32 {
                tx.write(base.field(i * LINE_WORDS as u32), 3)?;
            }
            Ok(())
        });
        let snap = ctx.stats.snapshot();
        assert_eq!(snap.fallback_commits, 1, "must finish in software mode");
        for i in 0..16u32 {
            assert_eq!(sys.heap.read_raw(base.field(i * LINE_WORDS as u32)), 3);
        }
    }

    #[test]
    fn speculative_and_software_phases_interoperate() {
        let sys = Arc::new(TmSystem::new(1 << 14));
        let tm = Arc::new(HybridTl2::with_geometry(
            Arc::clone(&sys),
            HtmGeometry::TINY_FOR_TESTS,
        ));
        tm.cm().set(1, CapacityPolicy::GiveUp);
        let big = sys.heap.alloc(LINE_WORDS * 16);
        let small = sys.heap.alloc(1);
        std::thread::scope(|s| {
            for t in 0..2 {
                let tm = Arc::clone(&tm);
                s.spawn(move || {
                    let mut ctx = ThreadCtx::new(t);
                    for _ in 0..50 {
                        run_tx(tm.as_ref(), &mut ctx, |tx| {
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
