//! A transactional skip list (probabilistic balanced search structure).
//! A removed node goes on the list's free list, linked through its level-0
//! forward pointer, and the next insert takes it back.

use super::freelist::FreeList;
use txcore::{Addr, Heap, Tx, TxResult};

/// Maximum tower height.
pub const MAX_LEVEL: usize = 8;

// Node layout: key, value, level, forward[MAX_LEVEL].
const KEY: u32 = 0;
const VAL: u32 = 1;
const LEVEL: u32 = 2;
const FWD: u32 = 3;

// Header layout: head-node pointer, size, free-list head.
const H_HEAD: u32 = 0;
const H_SIZE: u32 = 1;
const H_FREE: u32 = 2;

const NODE_WORDS: usize = 3 + MAX_LEVEL;
const NULL: u64 = u64::MAX;

#[inline]
fn a(ptr: u64) -> Addr {
    Addr(ptr as u32)
}

/// A skip list in the transactional heap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SkipList {
    header: Addr,
    free: FreeList,
}

impl SkipList {
    /// Allocate an empty skip list (header + head tower).
    pub fn create(heap: &Heap) -> Self {
        let header = heap.alloc(3);
        let head = heap.alloc(NODE_WORDS);
        heap.write_raw(head.field(KEY), 0);
        heap.write_raw(head.field(LEVEL), MAX_LEVEL as u64);
        for l in 0..MAX_LEVEL {
            heap.write_raw(head.field(FWD + l as u32), NULL);
        }
        heap.write_raw(header.field(H_HEAD), head.0 as u64);
        heap.write_raw(header.field(H_SIZE), 0);
        heap.write_raw(header.field(H_FREE), NULL);
        SkipList {
            header,
            free: FreeList::new(header.field(H_FREE), NULL, FWD, NODE_WORDS),
        }
    }

    /// Number of keys.
    pub fn len(&self, tx: &mut Tx<'_>) -> TxResult<u64> {
        tx.read(self.header.field(H_SIZE))
    }

    /// Whether the skip list is empty.
    pub fn is_empty(&self, tx: &mut Tx<'_>) -> TxResult<bool> {
        Ok(self.len(tx)? == 0)
    }

    /// Deterministic tower height for a key (hash-derived geometric), so
    /// the structure is reproducible regardless of thread interleavings.
    fn level_for(key: u64) -> usize {
        let mut h = key.wrapping_add(0x9E37_79B9_7F4A_7C15);
        h = (h ^ (h >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        h = (h ^ (h >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        h ^= h >> 31;
        ((h.trailing_ones() as usize) + 1).min(MAX_LEVEL)
    }

    /// Walk down the towers collecting the predecessor at every level.
    fn find_preds(&self, tx: &mut Tx<'_>, key: u64) -> TxResult<([u64; MAX_LEVEL], u64)> {
        let head = tx.read(self.header.field(H_HEAD))?;
        let mut preds = [head; MAX_LEVEL];
        let mut cur = head;
        for level in (0..MAX_LEVEL).rev() {
            loop {
                let next = tx.read(a(cur).field(FWD + level as u32))?;
                if next == NULL || tx.read(a(next).field(KEY))? >= key {
                    break;
                }
                cur = next;
            }
            preds[level] = cur;
        }
        let candidate = tx.read(a(cur).field(FWD))?;
        Ok((preds, candidate))
    }

    /// Look up `key`.
    pub fn get(&self, tx: &mut Tx<'_>, key: u64) -> TxResult<Option<u64>> {
        let (_, cand) = self.find_preds(tx, key)?;
        if cand != NULL && tx.read(a(cand).field(KEY))? == key {
            Ok(Some(tx.read(a(cand).field(VAL))?))
        } else {
            Ok(None)
        }
    }

    /// Insert `key → value`; `false` updates an existing key.
    pub fn insert(&self, tx: &mut Tx<'_>, heap: &Heap, key: u64, value: u64) -> TxResult<bool> {
        let (preds, cand) = self.find_preds(tx, key)?;
        if cand != NULL && tx.read(a(cand).field(KEY))? == key {
            tx.write(a(cand).field(VAL), value)?;
            return Ok(false);
        }
        let level = Self::level_for(key);
        let node = self.free.pop(tx, heap)?;
        tx.write(node.field(KEY), key)?;
        tx.write(node.field(VAL), value)?;
        tx.write(node.field(LEVEL), level as u64)?;
        for (l, &pred) in preds.iter().enumerate().take(level) {
            let next = tx.read(a(pred).field(FWD + l as u32))?;
            tx.write(node.field(FWD + l as u32), next)?;
            tx.write(a(pred).field(FWD + l as u32), node.0 as u64)?;
        }
        let size = tx.read(self.header.field(H_SIZE))?;
        tx.write(self.header.field(H_SIZE), size + 1)?;
        Ok(true)
    }

    /// Remove `key`; returns whether it was present. The unlinked node goes
    /// on the free list inside this transaction.
    pub fn remove(&self, tx: &mut Tx<'_>, key: u64) -> TxResult<bool> {
        let (preds, cand) = self.find_preds(tx, key)?;
        if cand == NULL || tx.read(a(cand).field(KEY))? != key {
            return Ok(false);
        }
        let level = tx.read(a(cand).field(LEVEL))? as usize;
        for (l, &pred) in preds.iter().enumerate().take(level) {
            // The predecessor at this level may skip over the victim.
            if tx.read(a(pred).field(FWD + l as u32))? == cand {
                let next = tx.read(a(cand).field(FWD + l as u32))?;
                tx.write(a(pred).field(FWD + l as u32), next)?;
            }
        }
        self.free.push(tx, cand)?;
        let size = tx.read(self.header.field(H_SIZE))?;
        tx.write(self.header.field(H_SIZE), size - 1)?;
        Ok(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use stm::SwissTm;
    use txcore::{run_tx, ThreadCtx, TmSystem};

    fn setup() -> (Arc<TmSystem>, SwissTm, ThreadCtx, SkipList) {
        let sys = Arc::new(TmSystem::new(1 << 18));
        let sl = SkipList::create(&sys.heap);
        let tm = SwissTm::new(Arc::clone(&sys));
        (sys, tm, ThreadCtx::new(0), sl)
    }

    #[test]
    fn insert_get_remove() {
        let (sys, tm, mut ctx, sl) = setup();
        for k in [10u64, 5, 20, 15, 1] {
            assert!(run_tx(&tm, &mut ctx, |tx| sl.insert(
                tx,
                &sys.heap,
                k,
                k + 100
            )));
        }
        assert_eq!(run_tx(&tm, &mut ctx, |tx| sl.get(tx, 15)), Some(115));
        assert_eq!(run_tx(&tm, &mut ctx, |tx| sl.get(tx, 16)), None);
        assert!(run_tx(&tm, &mut ctx, |tx| sl.remove(tx, 15)));
        assert!(!run_tx(&tm, &mut ctx, |tx| sl.remove(tx, 15)));
        assert_eq!(run_tx(&tm, &mut ctx, |tx| sl.get(tx, 15)), None);
        assert_eq!(run_tx(&tm, &mut ctx, |tx| sl.len(tx)), 4);
    }

    #[test]
    fn behaves_like_btreemap_under_mixed_ops() {
        let (sys, tm, mut ctx, sl) = setup();
        let mut model = std::collections::BTreeMap::new();
        let mut seed = 42u64;
        for _ in 0..1500 {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
            let key = (seed >> 18) % 128 + 1; // avoid 0 (head sentinel key)
            match (seed >> 61) % 3 {
                0 | 1 => {
                    let ins = run_tx(&tm, &mut ctx, |tx| sl.insert(tx, &sys.heap, key, seed));
                    assert_eq!(ins, model.insert(key, seed).is_none());
                }
                _ => {
                    let rem = run_tx(&tm, &mut ctx, |tx| sl.remove(tx, key));
                    assert_eq!(rem, model.remove(&key).is_some());
                }
            }
        }
        assert_eq!(run_tx(&tm, &mut ctx, |tx| sl.len(tx)), model.len() as u64);
        for (k, v) in model {
            assert_eq!(run_tx(&tm, &mut ctx, |tx| sl.get(tx, k)), Some(v));
        }
    }

    #[test]
    fn tower_heights_are_bounded_and_varied() {
        let mut seen = std::collections::HashSet::new();
        for k in 0..1000u64 {
            let l = SkipList::level_for(k);
            assert!((1..=MAX_LEVEL).contains(&l));
            seen.insert(l);
        }
        assert!(seen.len() >= 4, "levels should vary: {seen:?}");
    }
}
