//! Proves the HTM family's speculative path never allocates once warm.
//!
//! The line footprint of an attempt lives in `txcore::LineSet`, one per
//! direction: a plain log of accesses while the attempt is below its
//! capacity, and a stamped table of lines once the log reaches it. `clear`
//! truncates the log and, after an attempt that went exact, bumps the
//! table's stamp; both keep their memory. So the log and the table a
//! context grew in its first transactions must still be there — and still
//! be big enough — after every later `clear`, and a warmed-up thread runs
//! whole retry ladders with zero trips to the allocator. Two legs cover
//! both modes: one whose attempts stay on the log, and one on a tiny
//! geometry whose every attempt switches to the table and every retry
//! clears back to the log. A counting wrapper around the system allocator
//! enforces exactly that, as `crates/stm/tests/alloc_reuse.rs` does for the
//! software backends.
//!
//! The counter is per thread, so only the test thread's own allocations
//! count: neither libtest's main thread nor a sibling test can charge one
//! to a backend, and tests need not share one `#[test]`.

use htm::{HtmGeometry, HtmSim, HybridNOrec, HybridTl2, LINE_WORDS};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;
use txcore::{run_tx, Addr, ThreadCtx, TmBackend, TmSystem};

/// Counts every allocation and reallocation of the calling thread; frees
/// are not interesting.
struct CountingAlloc;

thread_local! {
    /// `const`-initialised and without a destructor, so touching it never
    /// allocates or registers anything: safe inside the allocator.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    ALLOCS.with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: forwarded unchanged; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc`/`realloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: forwarded unchanged; the caller upholds `realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// One word on each of `lines` distinct cache lines, read then written, in
/// `passes` passes that each take the next word of the line, with two
/// forced retries per block: every attempt fills both line sets, the read
/// and write logs and the lock log, and every retry clears them. User
/// retries are free of charge, so the block stays speculative throughout.
fn churn(backend: &dyn TmBackend, ctx: &mut ThreadCtx, rounds: u32, lines: u32, passes: u32) {
    for round in 0..rounds {
        run_tx(backend, ctx, |tx| {
            let mut acc = 0u64;
            for pass in 0..passes {
                for i in 0..lines {
                    let a = Addr(i * 64 + pass);
                    acc = acc.wrapping_add(tx.read(a)?);
                    tx.write(a, acc + round as u64)?;
                }
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
    let tiny = HtmGeometry::TINY_FOR_TESTS;
    assert!(
        3 < tiny.write_capacity && 3 * 4 > tiny.read_capacity && LINE_WORDS >= 4,
        "the tiny leg's 3 lines x 4 passes fit the caps and reach them"
    );
    // (geometry, lines, passes): twelve lines once, far below the caps, so
    // every attempt stays on the log; three lines four times over on the
    // tiny geometry, so every attempt reaches both caps in accesses (but
    // not in lines) and switches to the table.
    let legs = [(HtmGeometry::HASWELL_LIKE, 12, 1), (tiny, 3, 4)];
    for (geom, lines, passes) in legs {
        let sys = Arc::new(TmSystem::new(4096));
        let backends: [Box<dyn TmBackend>; 3] = [
            Box::new(HtmSim::with_geometry(Arc::clone(&sys), geom)),
            Box::new(HybridNOrec::with_geometry(Arc::clone(&sys), geom)),
            Box::new(HybridTl2::with_geometry(Arc::clone(&sys), geom)),
        ];
        let mut ctx = ThreadCtx::new(0);

        // Warm-up: let every log, scratch buffer and line table reach its
        // high-water capacity on each backend.
        for b in &backends {
            churn(b.as_ref(), &mut ctx, 8, lines, passes);
        }

        for b in &backends {
            let before = ALLOCS.with(Cell::get);
            churn(b.as_ref(), &mut ctx, 64, lines, passes);
            let after = ALLOCS.with(Cell::get);
            assert_eq!(
                after - before,
                0,
                "backend {} ({lines} lines x {passes}) allocated {} times across 64 warm retry ladders",
                b.name(),
                after - before
            );
        }
    }
}
