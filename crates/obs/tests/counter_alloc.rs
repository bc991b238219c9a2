//! `obs::counter` allocates only when it registers a name: hot paths call
//! it once per event while a trace is active, so a lookup of a name the
//! registry already holds must not build a key. A counting wrapper around
//! the system allocator enforces exactly that.
//!
//! The counter is per thread, so only the test thread's own allocations
//! count: libtest's main thread cannot charge one to the registry.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

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

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

#[test]
fn looking_up_a_registered_counter_allocates_nothing() {
    let before = allocs();
    let first = obs::counter("test.counter_alloc.lookup");
    first.inc();
    assert!(
        allocs() > before,
        "registering a name allocates its key and its counter"
    );

    let before = allocs();
    for _ in 0..1000 {
        let again = obs::counter("test.counter_alloc.lookup");
        assert!(std::ptr::eq(again, first), "one name, one counter");
        again.inc();
    }
    assert_eq!(allocs() - before, 0, "allocations in 1,000 lookups");
    assert_eq!(first.get(), 1001);
}
