//! A counting global allocator: `apps.allocs_per_ktx` is the number of
//! allocator calls the program makes per thousand committed transactions,
//! counted from outside by wrapping the system allocator of the benchmark
//! binary.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

static ALLOCS: AtomicU64 = AtomicU64::new(0);
/// Off in end-to-end runs: two threads bumping one counter would add a
/// contended cache line to the very transactions being timed.
static COUNTING: AtomicBool = AtomicBool::new(false);

#[inline]
fn count() {
    if COUNTING.load(Ordering::Relaxed) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
}

/// The system allocator, counting calls to `alloc` and `realloc`.
pub struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter and its switch are relaxed
// statistics that publish no other data.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through one of the methods here.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: `ptr` came from `System` through one of the methods here.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Start counting (traced runs only).
pub fn enable() {
    COUNTING.store(true, Ordering::Relaxed);
}

/// Allocator calls made by the whole process since [`enable`].
pub fn allocations() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}
