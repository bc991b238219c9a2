//! Proves the HTM family's speculative path never allocates once warm.
//!
//! The line footprint of an attempt lives in `txcore::LineSet`, one stamped
//! table per direction whose `clear` is a stamp bump: the table a context
//! grew in its first transactions must still be there — and still be big
//! enough — after every later `clear`, so a warmed-up thread runs whole
//! retry ladders with zero trips to the allocator. A counting wrapper
//! around the system allocator enforces exactly that, as
//! `crates/stm/tests/alloc_reuse.rs` does for the software backends.
//!
//! Everything lives in ONE `#[test]`: the counter is process-global, and a
//! sibling test allocating concurrently would make the delta meaningless.

use htm::{HtmSim, HybridNOrec, HybridTl2};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use txcore::{run_tx, Addr, ThreadCtx, TmBackend, TmSystem};

/// Counts every allocation and reallocation; frees are not interesting.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwarded unchanged; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc`/`realloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwarded unchanged; the caller upholds `realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Twelve words on twelve distinct cache lines, read then written, with two
/// forced retries per block: every attempt fills both line sets, the read
/// and write logs and the lock log, and every retry clears them. User
/// retries are free of charge, so the block stays speculative throughout.
fn churn(backend: &dyn TmBackend, ctx: &mut ThreadCtx, rounds: u32) {
    for round in 0..rounds {
        run_tx(backend, ctx, |tx| {
            let mut acc = 0u64;
            for i in 0..12u32 {
                acc = acc.wrapping_add(tx.read(Addr(i * 64))?);
                tx.write(Addr(i * 64), acc + round as u64)?;
            }
            if tx.attempt() < 2 {
                return tx.retry();
            }
            Ok(())
        });
        assert!(
            !ctx.in_fallback,
            "{} left the hardware path",
            backend.name()
        );
    }
}

#[test]
fn warm_speculative_transactions_do_not_allocate() {
    let sys = Arc::new(TmSystem::new(4096));
    let backends: [Box<dyn TmBackend>; 3] = [
        Box::new(HtmSim::new(Arc::clone(&sys))),
        Box::new(HybridNOrec::new(Arc::clone(&sys))),
        Box::new(HybridTl2::new(Arc::clone(&sys))),
    ];
    let mut ctx = ThreadCtx::new(0);

    // Warm-up: let every log, scratch buffer and line table reach its
    // high-water capacity on each backend.
    for b in &backends {
        churn(b.as_ref(), &mut ctx, 8);
    }

    for b in &backends {
        let before = ALLOCS.load(Ordering::Relaxed);
        churn(b.as_ref(), &mut ctx, 64);
        let after = ALLOCS.load(Ordering::Relaxed);
        assert_eq!(
            after - before,
            0,
            "backend {} allocated {} times across 64 warm retry ladders",
            b.name(),
            after - before
        );
    }
}
