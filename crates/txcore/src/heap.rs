//! The word-addressed transactional heap.
//!
//! Applications in this repository address memory through [`Addr`] (an index
//! into a shared array of 64-bit words) instead of raw pointers. This mirrors
//! how word-based STMs (TL2, TinySTM) treat the application address space as
//! a sequence of machine words protected by hashed ownership records, while
//! letting the whole stack stay in safe Rust.

use crate::util::CachePadded;
use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// A word address in the transactional [`Heap`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Addr(pub u32);

/// Sentinel address used by linked data structures as a null pointer.
pub const NULL_ADDR: Addr = Addr(u32::MAX);

impl Addr {
    /// Address of the `i`-th word after `self` (field access within a
    /// heap-allocated record).
    ///
    /// # Panics
    ///
    /// Panics on address overflow.
    #[inline]
    pub fn field(self, i: u32) -> Addr {
        Addr(self.0.checked_add(i).expect("address overflow"))
    }

    /// Whether this is the [`NULL_ADDR`] sentinel.
    #[inline]
    pub fn is_null(self) -> bool {
        self == NULL_ADDR
    }

    /// The raw word index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_null() {
            f.write_str("null")
        } else {
            write!(f, "@{}", self.0)
        }
    }
}

impl From<u32> for Addr {
    fn from(v: u32) -> Self {
        Addr(v)
    }
}

/// A shared, word-addressed memory region accessed by transactions.
///
/// Allocation is a simple thread-safe bump allocator that never frees a
/// word. Reuse is the application's business: the linked structures of
/// `apps::structures` keep the nodes they unlink on transactional free
/// lists of their own and take them back on insert (DESIGN.md §5), so the
/// TM layer carries no allocator policy.
///
/// ```
/// use txcore::Heap;
/// let heap = Heap::new(64);
/// let record = heap.alloc(3);          // a 3-word record
/// heap.write_raw(record.field(1), 42); // field access by offset
/// assert_eq!(heap.read_raw(record.field(1)), 42);
/// ```
pub struct Heap {
    words: Box<[AtomicU64]>,
    /// The bump counter sits on a cache line of its own: an allocation must
    /// not evict `words`, which every access of every thread loads.
    next: CachePadded<AtomicUsize>,
}

impl Heap {
    /// Create a heap with room for `capacity` 64-bit words.
    pub fn new(capacity: usize) -> Self {
        assert!(
            capacity < u32::MAX as usize,
            "heap capacity exceeds Addr space"
        );
        let mut v = Vec::with_capacity(capacity);
        v.resize_with(capacity, || AtomicU64::new(0));
        Heap {
            words: v.into_boxed_slice(),
            next: CachePadded::new(AtomicUsize::new(0)),
        }
    }

    /// Total capacity in words.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.words.len()
    }

    /// Words allocated so far.
    #[inline]
    pub fn allocated(&self) -> usize {
        self.next.load(Ordering::Relaxed).min(self.capacity())
    }

    /// Allocate `n` contiguous words and return the address of the first.
    ///
    /// The words are zero-initialized on first allocation. Allocation is
    /// non-transactional: a transaction that calls this directly leaks its
    /// allocations when it aborts. `Tx::alloc` does not: it hands a
    /// rolled-back attempt's words to the thread's next allocation.
    ///
    /// # Panics
    ///
    /// Panics when the heap is exhausted.
    pub fn alloc(&self, n: usize) -> Addr {
        assert!(n > 0, "zero-sized allocation");
        let start = self.next.fetch_add(n, Ordering::Relaxed);
        let end = start.checked_add(n).expect("heap allocation overflow");
        assert!(
            end <= self.words.len(),
            "transactional heap exhausted: capacity {} words",
            self.words.len()
        );
        Addr(start as u32)
    }

    /// Read a word directly, outside any transaction.
    ///
    /// Used by uninstrumented code paths (HTM bodies, sequential baselines,
    /// post-quiescence verification) where the runtime guarantees no
    /// concurrent transactional writers.
    #[inline]
    pub fn read_raw(&self, a: Addr) -> u64 {
        self.words[a.index()].load(Ordering::Acquire)
    }

    /// Write a word directly, outside any transaction.
    #[inline]
    pub fn write_raw(&self, a: Addr, v: u64) {
        self.words[a.index()].store(v, Ordering::Release);
    }
}

impl fmt::Debug for Heap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Heap")
            .field("capacity", &self.capacity())
            .field("allocated", &self.allocated())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn alloc_is_contiguous_and_zeroed() {
        let h = Heap::new(64);
        let a = h.alloc(4);
        let b = h.alloc(2);
        assert_eq!(b.0, a.0 + 4);
        for i in 0..4 {
            assert_eq!(h.read_raw(a.field(i)), 0);
        }
    }

    #[test]
    fn raw_read_write_roundtrip() {
        let h = Heap::new(8);
        let a = h.alloc(1);
        h.write_raw(a, u64::MAX);
        assert_eq!(h.read_raw(a), u64::MAX);
    }

    #[test]
    #[should_panic(expected = "exhausted")]
    fn alloc_past_capacity_panics() {
        let h = Heap::new(4);
        h.alloc(5);
    }

    #[test]
    fn concurrent_alloc_never_overlaps() {
        let h = Arc::new(Heap::new(4096));
        let mut handles = Vec::new();
        for _ in 0..4 {
            let h = Arc::clone(&h);
            handles.push(std::thread::spawn(move || {
                let mut mine = Vec::new();
                for _ in 0..100 {
                    mine.push(h.alloc(10).0);
                }
                mine
            }));
        }
        let mut all: Vec<u32> = handles
            .into_iter()
            .flat_map(|t| t.join().unwrap())
            .collect();
        all.sort_unstable();
        for w in all.windows(2) {
            assert!(w[1] - w[0] >= 10, "overlapping allocations");
        }
    }

    #[test]
    fn bump_counter_has_its_own_cache_line() {
        let line = |offset: usize| offset / 64;
        assert_ne!(
            line(std::mem::offset_of!(Heap, next)),
            line(std::mem::offset_of!(Heap, words))
        );
        assert_eq!(std::mem::align_of::<Heap>() % 64, 0);
    }

    #[test]
    fn addr_field_and_null() {
        assert!(NULL_ADDR.is_null());
        assert!(!Addr(0).is_null());
        assert_eq!(Addr(5).field(3), Addr(8));
        assert_eq!(Addr(7).to_string(), "@7");
        assert_eq!(NULL_ADDR.to_string(), "null");
    }
}
