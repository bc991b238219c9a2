//! A sorted singly-linked list: the classic "large read set, serial by
//! nature" TM microbenchmark (long traversals make it STM-hostile at high
//! thread counts and HTM-capacity-hostile for large lists). A removed node
//! goes on the list's free list, linked through `NEXT`, and the next insert
//! takes it back.

use super::freelist::FreeList;
use txcore::{Addr, Heap, Tx, TxResult};

// Node layout (3 words).
const KEY: u32 = 0;
const VAL: u32 = 1;
const NEXT: u32 = 2;

// Header layout (3 words): head pointer, size, free-list head.
const H_HEAD: u32 = 0;
const H_SIZE: u32 = 1;
const H_FREE: u32 = 2;

const NODE_WORDS: usize = 3;
const NULL: u64 = u64::MAX;

#[inline]
fn a(ptr: u64) -> Addr {
    Addr(ptr as u32)
}

/// A sorted linked list in the transactional heap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkedList {
    header: Addr,
    free: FreeList,
}

impl LinkedList {
    /// Allocate an empty list.
    pub fn create(heap: &Heap) -> Self {
        let header = heap.alloc(3);
        heap.write_raw(header.field(H_HEAD), NULL);
        heap.write_raw(header.field(H_SIZE), 0);
        heap.write_raw(header.field(H_FREE), NULL);
        LinkedList {
            header,
            free: FreeList::new(header.field(H_FREE), NULL, NEXT, NODE_WORDS),
        }
    }

    /// Number of keys.
    pub fn len(&self, tx: &mut Tx<'_>) -> TxResult<u64> {
        tx.read(self.header.field(H_SIZE))
    }

    /// Whether the list is empty.
    pub fn is_empty(&self, tx: &mut Tx<'_>) -> TxResult<bool> {
        Ok(self.len(tx)? == 0)
    }

    /// Find the value for `key` (walks the whole prefix — the point of the
    /// benchmark).
    pub fn get(&self, tx: &mut Tx<'_>, key: u64) -> TxResult<Option<u64>> {
        let mut cur = tx.read(self.header.field(H_HEAD))?;
        while cur != NULL {
            let k = tx.read(a(cur).field(KEY))?;
            if k == key {
                return Ok(Some(tx.read(a(cur).field(VAL))?));
            }
            if k > key {
                return Ok(None);
            }
            cur = tx.read(a(cur).field(NEXT))?;
        }
        Ok(None)
    }

    /// Insert `key → value`; `false` updates an existing key in place.
    pub fn insert(&self, tx: &mut Tx<'_>, heap: &Heap, key: u64, value: u64) -> TxResult<bool> {
        let mut prev: Option<u64> = None;
        let mut cur = tx.read(self.header.field(H_HEAD))?;
        while cur != NULL {
            let k = tx.read(a(cur).field(KEY))?;
            if k == key {
                tx.write(a(cur).field(VAL), value)?;
                return Ok(false);
            }
            if k > key {
                break;
            }
            prev = Some(cur);
            cur = tx.read(a(cur).field(NEXT))?;
        }
        let node = self.free.pop(tx, heap)?;
        tx.write(node.field(KEY), key)?;
        tx.write(node.field(VAL), value)?;
        tx.write(node.field(NEXT), cur)?;
        match prev {
            None => tx.write(self.header.field(H_HEAD), node.0 as u64)?,
            Some(p) => tx.write(a(p).field(NEXT), node.0 as u64)?,
        }
        let size = tx.read(self.header.field(H_SIZE))?;
        tx.write(self.header.field(H_SIZE), size + 1)?;
        Ok(true)
    }

    /// Remove `key`; returns whether it was present. The unlinked node goes
    /// on the free list inside this transaction.
    pub fn remove(&self, tx: &mut Tx<'_>, key: u64) -> TxResult<bool> {
        let mut prev: Option<u64> = None;
        let mut cur = tx.read(self.header.field(H_HEAD))?;
        while cur != NULL {
            let k = tx.read(a(cur).field(KEY))?;
            if k == key {
                let next = tx.read(a(cur).field(NEXT))?;
                match prev {
                    None => tx.write(self.header.field(H_HEAD), next)?,
                    Some(p) => tx.write(a(p).field(NEXT), next)?,
                }
                self.free.push(tx, cur)?;
                let size = tx.read(self.header.field(H_SIZE))?;
                tx.write(self.header.field(H_SIZE), size - 1)?;
                return Ok(true);
            }
            if k > key {
                return Ok(false);
            }
            prev = Some(cur);
            cur = tx.read(a(cur).field(NEXT))?;
        }
        Ok(false)
    }

    /// Sum of all values (a long read-only traversal).
    pub fn sum_values(&self, tx: &mut Tx<'_>) -> TxResult<u64> {
        let mut cur = tx.read(self.header.field(H_HEAD))?;
        let mut sum = 0u64;
        while cur != NULL {
            sum = sum.wrapping_add(tx.read(a(cur).field(VAL))?);
            cur = tx.read(a(cur).field(NEXT))?;
        }
        Ok(sum)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use stm::NOrec;
    use txcore::{run_tx, ThreadCtx, TmSystem};

    fn setup() -> (Arc<TmSystem>, NOrec, ThreadCtx, LinkedList) {
        let sys = Arc::new(TmSystem::new(1 << 16));
        let list = LinkedList::create(&sys.heap);
        let tm = NOrec::new(Arc::clone(&sys));
        (sys, tm, ThreadCtx::new(0), list)
    }

    #[test]
    fn sorted_insertion_and_lookup() {
        let (sys, tm, mut ctx, list) = setup();
        for k in [5u64, 1, 9, 3, 7] {
            assert!(run_tx(&tm, &mut ctx, |tx| list.insert(
                tx,
                &sys.heap,
                k,
                k * 2
            )));
        }
        for k in [1u64, 3, 5, 7, 9] {
            assert_eq!(run_tx(&tm, &mut ctx, |tx| list.get(tx, k)), Some(k * 2));
        }
        assert_eq!(run_tx(&tm, &mut ctx, |tx| list.get(tx, 4)), None);
        assert_eq!(run_tx(&tm, &mut ctx, |tx| list.len(tx)), 5);
    }

    #[test]
    fn duplicate_updates_in_place() {
        let (sys, tm, mut ctx, list) = setup();
        assert!(run_tx(&tm, &mut ctx, |tx| list.insert(tx, &sys.heap, 2, 1)));
        assert!(!run_tx(&tm, &mut ctx, |tx| list.insert(tx, &sys.heap, 2, 9)));
        assert_eq!(run_tx(&tm, &mut ctx, |tx| list.get(tx, 2)), Some(9));
        assert_eq!(run_tx(&tm, &mut ctx, |tx| list.len(tx)), 1);
    }

    #[test]
    fn remove_head_middle_tail() {
        let (sys, tm, mut ctx, list) = setup();
        for k in 1..=5u64 {
            run_tx(&tm, &mut ctx, |tx| list.insert(tx, &sys.heap, k, k));
        }
        assert!(run_tx(&tm, &mut ctx, |tx| list.remove(tx, 1))); // head
        assert!(run_tx(&tm, &mut ctx, |tx| list.remove(tx, 3))); // middle
        assert!(run_tx(&tm, &mut ctx, |tx| list.remove(tx, 5))); // tail
        assert!(!run_tx(&tm, &mut ctx, |tx| list.remove(tx, 1)));
        assert_eq!(run_tx(&tm, &mut ctx, |tx| list.sum_values(tx)), 6); // 2 + 4
    }
}
