//! A transactional hash map with separate chaining (short transactions,
//! naturally low contention — an HTM-friendly workload). A removed entry
//! goes on the map's free list, linked through `NEXT`, and the next insert
//! takes it back.

use super::freelist::FreeList;
use txcore::{Addr, Heap, Tx, TxResult};

// Entry layout (3 words).
const KEY: u32 = 0;
const VAL: u32 = 1;
const NEXT: u32 = 2;

// Header layout: bucket count, size, the bucket array, then the free-list
// head (after the buckets, so that no bucket moves).
const H_NBUCKETS: u32 = 0;
const H_SIZE: u32 = 1;
const H_BUCKETS: u32 = 2;

const ENTRY_WORDS: usize = 3;
const NULL: u64 = u64::MAX;

#[inline]
fn a(ptr: u64) -> Addr {
    Addr(ptr as u32)
}

fn hash(key: u64) -> u64 {
    let mut h = key.wrapping_add(0x9E37_79B9_7F4A_7C15);
    h = (h ^ (h >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    h ^ (h >> 31)
}

/// A fixed-capacity chained hash map in the transactional heap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HashMap {
    header: Addr,
    nbuckets: u64,
    free: FreeList,
}

impl HashMap {
    /// Allocate a map with `nbuckets` chains (rounded up to a power of
    /// two).
    pub fn create(heap: &Heap, nbuckets: usize) -> Self {
        let nbuckets = nbuckets.next_power_of_two().max(2) as u64;
        let header = heap.alloc(3 + nbuckets as usize);
        heap.write_raw(header.field(H_NBUCKETS), nbuckets);
        heap.write_raw(header.field(H_SIZE), 0);
        for b in 0..nbuckets {
            heap.write_raw(header.field(H_BUCKETS + b as u32), NULL);
        }
        let free = header.field(H_BUCKETS + nbuckets as u32);
        heap.write_raw(free, NULL);
        HashMap {
            header,
            nbuckets,
            free: FreeList::new(free, NULL, NEXT, ENTRY_WORDS),
        }
    }

    fn bucket(&self, key: u64) -> Addr {
        self.header
            .field(H_BUCKETS + (hash(key) & (self.nbuckets - 1)) as u32)
    }

    /// Number of entries.
    pub fn len(&self, tx: &mut Tx<'_>) -> TxResult<u64> {
        tx.read(self.header.field(H_SIZE))
    }

    /// Whether the map is empty.
    pub fn is_empty(&self, tx: &mut Tx<'_>) -> TxResult<bool> {
        Ok(self.len(tx)? == 0)
    }

    /// Look up `key`.
    pub fn get(&self, tx: &mut Tx<'_>, key: u64) -> TxResult<Option<u64>> {
        let mut cur = tx.read(self.bucket(key))?;
        while cur != NULL {
            if tx.read(a(cur).field(KEY))? == key {
                return Ok(Some(tx.read(a(cur).field(VAL))?));
            }
            cur = tx.read(a(cur).field(NEXT))?;
        }
        Ok(None)
    }

    /// Insert `key → value`; `false` updates an existing key.
    pub fn insert(&self, tx: &mut Tx<'_>, heap: &Heap, key: u64, value: u64) -> TxResult<bool> {
        let bucket = self.bucket(key);
        let head = tx.read(bucket)?;
        let mut cur = head;
        while cur != NULL {
            if tx.read(a(cur).field(KEY))? == key {
                tx.write(a(cur).field(VAL), value)?;
                return Ok(false);
            }
            cur = tx.read(a(cur).field(NEXT))?;
        }
        let entry = self.free.pop(tx, heap)?;
        tx.write(entry.field(KEY), key)?;
        tx.write(entry.field(VAL), value)?;
        tx.write(entry.field(NEXT), head)?;
        tx.write(bucket, entry.0 as u64)?;
        let size = tx.read(self.header.field(H_SIZE))?;
        tx.write(self.header.field(H_SIZE), size + 1)?;
        Ok(true)
    }

    /// Remove `key`; returns the removed value, if present. The unlinked
    /// entry goes on the free list inside this transaction.
    pub fn remove(&self, tx: &mut Tx<'_>, key: u64) -> TxResult<Option<u64>> {
        let bucket = self.bucket(key);
        let mut prev: Option<u64> = None;
        let mut cur = tx.read(bucket)?;
        while cur != NULL {
            if tx.read(a(cur).field(KEY))? == key {
                let val = tx.read(a(cur).field(VAL))?;
                let next = tx.read(a(cur).field(NEXT))?;
                match prev {
                    None => tx.write(bucket, next)?,
                    Some(p) => tx.write(a(p).field(NEXT), next)?,
                }
                self.free.push(tx, cur)?;
                let size = tx.read(self.header.field(H_SIZE))?;
                tx.write(self.header.field(H_SIZE), size - 1)?;
                return Ok(Some(val));
            }
            prev = Some(cur);
            cur = tx.read(a(cur).field(NEXT))?;
        }
        Ok(None)
    }

    /// Add `delta` to the value of `key` (insert-if-absent with 0 base);
    /// returns the new value. A common kernel idiom (genome, ssca2).
    pub fn add(&self, tx: &mut Tx<'_>, heap: &Heap, key: u64, delta: u64) -> TxResult<u64> {
        let cur = self.get(tx, key)?.unwrap_or(0);
        let new = cur.wrapping_add(delta);
        self.insert(tx, heap, key, new)?;
        Ok(new)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use stm::TinyStm;
    use txcore::{run_tx, ThreadCtx, TmSystem};

    fn setup() -> (Arc<TmSystem>, TinyStm, ThreadCtx, HashMap) {
        let sys = Arc::new(TmSystem::new(1 << 18));
        let map = HashMap::create(&sys.heap, 64);
        let tm = TinyStm::new(Arc::clone(&sys));
        (sys, tm, ThreadCtx::new(0), map)
    }

    #[test]
    fn insert_get_remove() {
        let (sys, tm, mut ctx, map) = setup();
        assert!(run_tx(&tm, &mut ctx, |tx| map.insert(tx, &sys.heap, 7, 70)));
        assert!(!run_tx(&tm, &mut ctx, |tx| map.insert(tx, &sys.heap, 7, 71)));
        assert_eq!(run_tx(&tm, &mut ctx, |tx| map.get(tx, 7)), Some(71));
        assert_eq!(run_tx(&tm, &mut ctx, |tx| map.remove(tx, 7)), Some(71));
        assert_eq!(run_tx(&tm, &mut ctx, |tx| map.remove(tx, 7)), None);
    }

    #[test]
    fn chains_handle_collisions() {
        let (sys, tm, mut ctx, map) = setup();
        // With 64 buckets, 1000 keys force plenty of collisions.
        for k in 0..1000u64 {
            run_tx(&tm, &mut ctx, |tx| map.insert(tx, &sys.heap, k, k * 3));
        }
        assert_eq!(run_tx(&tm, &mut ctx, |tx| map.len(tx)), 1000);
        for k in (0..1000u64).step_by(97) {
            assert_eq!(run_tx(&tm, &mut ctx, |tx| map.get(tx, k)), Some(k * 3));
        }
        // Remove middle-of-chain entries.
        for k in (0..1000u64).step_by(3) {
            assert_eq!(run_tx(&tm, &mut ctx, |tx| map.remove(tx, k)), Some(k * 3));
        }
        for k in 0..1000u64 {
            let expect = if k % 3 == 0 { None } else { Some(k * 3) };
            assert_eq!(run_tx(&tm, &mut ctx, |tx| map.get(tx, k)), expect);
        }
    }

    #[test]
    fn add_accumulates() {
        let (sys, tm, mut ctx, map) = setup();
        assert_eq!(run_tx(&tm, &mut ctx, |tx| map.add(tx, &sys.heap, 5, 3)), 3);
        assert_eq!(run_tx(&tm, &mut ctx, |tx| map.add(tx, &sys.heap, 5, 4)), 7);
        assert_eq!(run_tx(&tm, &mut ctx, |tx| map.get(tx, 5)), Some(7));
    }
}
