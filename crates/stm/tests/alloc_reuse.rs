//! Proves the per-transaction fast path never allocates once warm.
//!
//! `ReadSet`/`WriteSet`/lock logs are cleared, not dropped, between
//! attempts — the write set's table included, which a clear only re-stamps
//! — and SwissTM's commit saves its read orecs' versions in the context's
//! reusable scratch buffer, so a warmed-up thread must run whole retry
//! ladders with zero trips to the allocator. A counting wrapper around the
//! system allocator enforces exactly that.
//!
//! The counter is per thread, so only the test thread's own allocations
//! count: neither libtest's main thread nor a sibling test can charge one
//! to a backend, and tests need not share one `#[test]`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;
use stm::{NOrec, SwissTm, TinyStm, Tl2};
use txcore::{run_tx, ThreadCtx, TmBackend, TmSystem};

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
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// A workload that exercises every reused buffer: reads (read set, one
/// location logged twice), a spread of writes (write set + commit scratch +
/// lock log) in two shapes — 12 writes, and 20, past the write-set table's
/// first growth at 16 — and forced retries (the clear-don't-drop path
/// between attempts).
fn churn(backend: &dyn TmBackend, ctx: &mut ThreadCtx, sys: &TmSystem, base: u64, rounds: u32) {
    let at = |i: u64| txcore::Addr((base + i * 64) as u32);
    for round in 0..rounds {
        let writes = if round % 2 == 0 { 12 } else { 20 };
        run_tx(backend, ctx, |tx| {
            let mut acc = 0u64;
            for i in 0..writes {
                acc = acc.wrapping_add(tx.read(at(i))?);
                tx.write(at(i), acc + round as u64)?;
            }
            // Read-only locations, the first read again after the second.
            for i in [30, 31, 30] {
                tx.read(at(i))?;
            }
            if tx.attempt() < 2 {
                return tx.retry();
            }
            Ok(())
        });
    }
    assert!(sys.heap.capacity() > 0);
}

#[test]
fn warm_transactions_do_not_allocate() {
    let sys = Arc::new(TmSystem::new(4096));
    let backends: [Box<dyn TmBackend>; 4] = [
        Box::new(Tl2::new(Arc::clone(&sys))),
        Box::new(TinyStm::new(Arc::clone(&sys))),
        Box::new(SwissTm::new(Arc::clone(&sys))),
        Box::new(NOrec::new(Arc::clone(&sys))),
    ];
    let mut ctx = ThreadCtx::new(0);

    // Warm-up: let every log and scratch buffer reach its high-water
    // capacity on each backend.
    for b in &backends {
        churn(b.as_ref(), &mut ctx, &sys, 0, 8);
    }

    for b in &backends {
        let before = ALLOCS.with(Cell::get);
        churn(b.as_ref(), &mut ctx, &sys, 0, 64);
        let after = ALLOCS.with(Cell::get);
        assert_eq!(
            after - before,
            0,
            "backend {} allocated {} times across 64 warm retry ladders",
            b.name(),
            after - before
        );
    }
}
