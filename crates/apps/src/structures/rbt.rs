//! A transactional red-black tree (the classic TM benchmark of Fig. 1/8).
//!
//! CLRS-style with parent pointers and a per-tree NIL sentinel node, which
//! keeps the delete fix-up free of null special cases. Every access goes
//! through the transaction handle, so the structure is linearizable under
//! any backend that provides opacity. A removed node goes on the tree's
//! free list, linked through `LEFT`, and the next insert takes it back.

use super::freelist::FreeList;
use txcore::{Addr, Heap, Tx, TxResult};

// Node layout (6 words).
const KEY: u32 = 0;
const VAL: u32 = 1;
const LEFT: u32 = 2;
const RIGHT: u32 = 3;
const PARENT: u32 = 4;
const COLOR: u32 = 5;

// Header layout (4 words). An empty free list holds the NIL sentinel.
const H_ROOT: u32 = 0;
const H_NIL: u32 = 1;
const H_SIZE: u32 = 2;
const H_FREE: u32 = 3;

const RED: u64 = 1;
const BLACK: u64 = 0;

const NODE_WORDS: usize = 6;

#[inline]
fn a(ptr: u64) -> Addr {
    Addr(ptr as u32)
}

/// A red-black tree rooted in the transactional heap.
///
/// The handle itself is a few plain words and freely copyable; all mutable
/// state lives in the heap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RedBlackTree {
    header: Addr,
    free: FreeList,
}

impl RedBlackTree {
    /// Allocate an empty tree (header + NIL sentinel) in `heap`.
    pub fn create(heap: &Heap) -> Self {
        let header = heap.alloc(4);
        let nil = heap.alloc(NODE_WORDS);
        heap.write_raw(nil.field(COLOR), BLACK);
        heap.write_raw(nil.field(LEFT), nil.0 as u64);
        heap.write_raw(nil.field(RIGHT), nil.0 as u64);
        heap.write_raw(nil.field(PARENT), nil.0 as u64);
        heap.write_raw(header.field(H_ROOT), nil.0 as u64);
        heap.write_raw(header.field(H_NIL), nil.0 as u64);
        heap.write_raw(header.field(H_SIZE), 0);
        heap.write_raw(header.field(H_FREE), nil.0 as u64);
        RedBlackTree {
            header,
            free: FreeList::new(header.field(H_FREE), nil.0 as u64, LEFT, NODE_WORDS),
        }
    }

    fn nil(&self, tx: &mut Tx<'_>) -> TxResult<u64> {
        tx.read(self.header.field(H_NIL))
    }

    fn root(&self, tx: &mut Tx<'_>) -> TxResult<u64> {
        tx.read(self.header.field(H_ROOT))
    }

    /// Number of keys in the tree.
    pub fn len(&self, tx: &mut Tx<'_>) -> TxResult<u64> {
        tx.read(self.header.field(H_SIZE))
    }

    /// Whether the tree is empty.
    pub fn is_empty(&self, tx: &mut Tx<'_>) -> TxResult<bool> {
        Ok(self.len(tx)? == 0)
    }

    /// Look up `key`.
    pub fn get(&self, tx: &mut Tx<'_>, key: u64) -> TxResult<Option<u64>> {
        let nil = self.nil(tx)?;
        let mut x = self.root(tx)?;
        while x != nil {
            let k = tx.read(a(x).field(KEY))?;
            if key == k {
                return Ok(Some(tx.read(a(x).field(VAL))?));
            }
            x = if key < k {
                tx.read(a(x).field(LEFT))?
            } else {
                tx.read(a(x).field(RIGHT))?
            };
        }
        Ok(None)
    }

    /// Whether `key` is present.
    pub fn contains(&self, tx: &mut Tx<'_>, key: u64) -> TxResult<bool> {
        Ok(self.get(tx, key)?.is_some())
    }

    fn rotate_left(&self, tx: &mut Tx<'_>, nil: u64, x: u64) -> TxResult<()> {
        let y = tx.read(a(x).field(RIGHT))?;
        let yl = tx.read(a(y).field(LEFT))?;
        tx.write(a(x).field(RIGHT), yl)?;
        if yl != nil {
            tx.write(a(yl).field(PARENT), x)?;
        }
        let xp = tx.read(a(x).field(PARENT))?;
        tx.write(a(y).field(PARENT), xp)?;
        if xp == nil {
            tx.write(self.header.field(H_ROOT), y)?;
        } else if x == tx.read(a(xp).field(LEFT))? {
            tx.write(a(xp).field(LEFT), y)?;
        } else {
            tx.write(a(xp).field(RIGHT), y)?;
        }
        tx.write(a(y).field(LEFT), x)?;
        tx.write(a(x).field(PARENT), y)?;
        Ok(())
    }

    fn rotate_right(&self, tx: &mut Tx<'_>, nil: u64, x: u64) -> TxResult<()> {
        let y = tx.read(a(x).field(LEFT))?;
        let yr = tx.read(a(y).field(RIGHT))?;
        tx.write(a(x).field(LEFT), yr)?;
        if yr != nil {
            tx.write(a(yr).field(PARENT), x)?;
        }
        let xp = tx.read(a(x).field(PARENT))?;
        tx.write(a(y).field(PARENT), xp)?;
        if xp == nil {
            tx.write(self.header.field(H_ROOT), y)?;
        } else if x == tx.read(a(xp).field(RIGHT))? {
            tx.write(a(xp).field(RIGHT), y)?;
        } else {
            tx.write(a(xp).field(LEFT), y)?;
        }
        tx.write(a(y).field(RIGHT), x)?;
        tx.write(a(x).field(PARENT), y)?;
        Ok(())
    }

    /// Insert `key → value`. Returns `false` (updating the value in place)
    /// when the key was already present.
    ///
    /// The new node is the first on the tree's free list, taken inside this
    /// transaction, or a [`Heap::alloc`] when the list is empty. Allocation
    /// is non-transactional: a fresh node of an aborted attempt leaks, which
    /// is benign for benchmarking.
    pub fn insert(&self, tx: &mut Tx<'_>, heap: &Heap, key: u64, value: u64) -> TxResult<bool> {
        let nil = self.nil(tx)?;
        let mut y = nil;
        let mut x = self.root(tx)?;
        while x != nil {
            y = x;
            let k = tx.read(a(x).field(KEY))?;
            if key == k {
                tx.write(a(x).field(VAL), value)?;
                return Ok(false);
            }
            x = if key < k {
                tx.read(a(x).field(LEFT))?
            } else {
                tx.read(a(x).field(RIGHT))?
            };
        }
        let z = self.free.pop(tx, heap)?;
        let zp = z.0 as u64;
        tx.write(z.field(KEY), key)?;
        tx.write(z.field(VAL), value)?;
        tx.write(z.field(LEFT), nil)?;
        tx.write(z.field(RIGHT), nil)?;
        tx.write(z.field(PARENT), y)?;
        tx.write(z.field(COLOR), RED)?;
        if y == nil {
            tx.write(self.header.field(H_ROOT), zp)?;
        } else if key < tx.read(a(y).field(KEY))? {
            tx.write(a(y).field(LEFT), zp)?;
        } else {
            tx.write(a(y).field(RIGHT), zp)?;
        }
        self.insert_fixup(tx, nil, zp)?;
        let size = tx.read(self.header.field(H_SIZE))?;
        tx.write(self.header.field(H_SIZE), size + 1)?;
        Ok(true)
    }

    fn insert_fixup(&self, tx: &mut Tx<'_>, nil: u64, mut z: u64) -> TxResult<()> {
        loop {
            let zp = tx.read(a(z).field(PARENT))?;
            if zp == nil || tx.read(a(zp).field(COLOR))? != RED {
                break;
            }
            let zpp = tx.read(a(zp).field(PARENT))?;
            if zp == tx.read(a(zpp).field(LEFT))? {
                let uncle = tx.read(a(zpp).field(RIGHT))?;
                if uncle != nil && tx.read(a(uncle).field(COLOR))? == RED {
                    tx.write(a(zp).field(COLOR), BLACK)?;
                    tx.write(a(uncle).field(COLOR), BLACK)?;
                    tx.write(a(zpp).field(COLOR), RED)?;
                    z = zpp;
                } else {
                    if z == tx.read(a(zp).field(RIGHT))? {
                        z = zp;
                        self.rotate_left(tx, nil, z)?;
                    }
                    let zp = tx.read(a(z).field(PARENT))?;
                    let zpp = tx.read(a(zp).field(PARENT))?;
                    tx.write(a(zp).field(COLOR), BLACK)?;
                    tx.write(a(zpp).field(COLOR), RED)?;
                    self.rotate_right(tx, nil, zpp)?;
                }
            } else {
                let uncle = tx.read(a(zpp).field(LEFT))?;
                if uncle != nil && tx.read(a(uncle).field(COLOR))? == RED {
                    tx.write(a(zp).field(COLOR), BLACK)?;
                    tx.write(a(uncle).field(COLOR), BLACK)?;
                    tx.write(a(zpp).field(COLOR), RED)?;
                    z = zpp;
                } else {
                    if z == tx.read(a(zp).field(LEFT))? {
                        z = zp;
                        self.rotate_right(tx, nil, z)?;
                    }
                    let zp = tx.read(a(z).field(PARENT))?;
                    let zpp = tx.read(a(zp).field(PARENT))?;
                    tx.write(a(zp).field(COLOR), BLACK)?;
                    tx.write(a(zpp).field(COLOR), RED)?;
                    self.rotate_left(tx, nil, zpp)?;
                }
            }
        }
        let root = self.root(tx)?;
        tx.write(a(root).field(COLOR), BLACK)?;
        Ok(())
    }

    fn transplant(&self, tx: &mut Tx<'_>, nil: u64, u: u64, v: u64) -> TxResult<()> {
        let up = tx.read(a(u).field(PARENT))?;
        if up == nil {
            tx.write(self.header.field(H_ROOT), v)?;
        } else if u == tx.read(a(up).field(LEFT))? {
            tx.write(a(up).field(LEFT), v)?;
        } else {
            tx.write(a(up).field(RIGHT), v)?;
        }
        tx.write(a(v).field(PARENT), up)?;
        Ok(())
    }

    fn minimum(&self, tx: &mut Tx<'_>, nil: u64, mut x: u64) -> TxResult<u64> {
        loop {
            let l = tx.read(a(x).field(LEFT))?;
            if l == nil {
                return Ok(x);
            }
            x = l;
        }
    }

    /// Remove `key`; returns whether it was present. The unlinked node goes
    /// on the tree's free list inside this transaction.
    pub fn remove(&self, tx: &mut Tx<'_>, key: u64) -> TxResult<bool> {
        let nil = self.nil(tx)?;
        let mut z = self.root(tx)?;
        while z != nil {
            let k = tx.read(a(z).field(KEY))?;
            if key == k {
                break;
            }
            z = if key < k {
                tx.read(a(z).field(LEFT))?
            } else {
                tx.read(a(z).field(RIGHT))?
            };
        }
        if z == nil {
            return Ok(false);
        }
        let mut y = z;
        let mut y_color = tx.read(a(y).field(COLOR))?;
        let x;
        let zl = tx.read(a(z).field(LEFT))?;
        let zr = tx.read(a(z).field(RIGHT))?;
        if zl == nil {
            x = zr;
            self.transplant(tx, nil, z, zr)?;
        } else if zr == nil {
            x = zl;
            self.transplant(tx, nil, z, zl)?;
        } else {
            y = self.minimum(tx, nil, zr)?;
            y_color = tx.read(a(y).field(COLOR))?;
            x = tx.read(a(y).field(RIGHT))?;
            if tx.read(a(y).field(PARENT))? == z {
                tx.write(a(x).field(PARENT), y)?;
            } else {
                self.transplant(tx, nil, y, x)?;
                let zr = tx.read(a(z).field(RIGHT))?;
                tx.write(a(y).field(RIGHT), zr)?;
                tx.write(a(zr).field(PARENT), y)?;
            }
            self.transplant(tx, nil, z, y)?;
            let zl = tx.read(a(z).field(LEFT))?;
            tx.write(a(y).field(LEFT), zl)?;
            tx.write(a(zl).field(PARENT), y)?;
            let zc = tx.read(a(z).field(COLOR))?;
            tx.write(a(y).field(COLOR), zc)?;
        }
        if y_color == BLACK {
            self.delete_fixup(tx, nil, x)?;
        }
        self.free.push(tx, z)?;
        let size = tx.read(self.header.field(H_SIZE))?;
        tx.write(self.header.field(H_SIZE), size - 1)?;
        Ok(true)
    }

    fn delete_fixup(&self, tx: &mut Tx<'_>, nil: u64, mut x: u64) -> TxResult<()> {
        loop {
            let root = self.root(tx)?;
            if x == root || tx.read(a(x).field(COLOR))? == RED {
                break;
            }
            let xp = tx.read(a(x).field(PARENT))?;
            if x == tx.read(a(xp).field(LEFT))? {
                let mut w = tx.read(a(xp).field(RIGHT))?;
                if tx.read(a(w).field(COLOR))? == RED {
                    tx.write(a(w).field(COLOR), BLACK)?;
                    tx.write(a(xp).field(COLOR), RED)?;
                    self.rotate_left(tx, nil, xp)?;
                    w = tx.read(a(xp).field(RIGHT))?;
                }
                let wl = tx.read(a(w).field(LEFT))?;
                let wr = tx.read(a(w).field(RIGHT))?;
                let wl_black = tx.read(a(wl).field(COLOR))? == BLACK;
                let wr_black = tx.read(a(wr).field(COLOR))? == BLACK;
                if wl_black && wr_black {
                    tx.write(a(w).field(COLOR), RED)?;
                    x = xp;
                } else {
                    if wr_black {
                        tx.write(a(wl).field(COLOR), BLACK)?;
                        tx.write(a(w).field(COLOR), RED)?;
                        self.rotate_right(tx, nil, w)?;
                        w = tx.read(a(xp).field(RIGHT))?;
                    }
                    let xpc = tx.read(a(xp).field(COLOR))?;
                    tx.write(a(w).field(COLOR), xpc)?;
                    tx.write(a(xp).field(COLOR), BLACK)?;
                    let wr = tx.read(a(w).field(RIGHT))?;
                    tx.write(a(wr).field(COLOR), BLACK)?;
                    self.rotate_left(tx, nil, xp)?;
                    x = self.root(tx)?;
                }
            } else {
                let mut w = tx.read(a(xp).field(LEFT))?;
                if tx.read(a(w).field(COLOR))? == RED {
                    tx.write(a(w).field(COLOR), BLACK)?;
                    tx.write(a(xp).field(COLOR), RED)?;
                    self.rotate_right(tx, nil, xp)?;
                    w = tx.read(a(xp).field(LEFT))?;
                }
                let wl = tx.read(a(w).field(LEFT))?;
                let wr = tx.read(a(w).field(RIGHT))?;
                let wl_black = tx.read(a(wl).field(COLOR))? == BLACK;
                let wr_black = tx.read(a(wr).field(COLOR))? == BLACK;
                if wl_black && wr_black {
                    tx.write(a(w).field(COLOR), RED)?;
                    x = xp;
                } else {
                    if wl_black {
                        tx.write(a(wr).field(COLOR), BLACK)?;
                        tx.write(a(w).field(COLOR), RED)?;
                        self.rotate_left(tx, nil, w)?;
                        w = tx.read(a(xp).field(LEFT))?;
                    }
                    let xpc = tx.read(a(xp).field(COLOR))?;
                    tx.write(a(w).field(COLOR), xpc)?;
                    tx.write(a(xp).field(COLOR), BLACK)?;
                    let wl = tx.read(a(w).field(LEFT))?;
                    tx.write(a(wl).field(COLOR), BLACK)?;
                    self.rotate_right(tx, nil, xp)?;
                    x = self.root(tx)?;
                }
            }
        }
        tx.write(a(x).field(COLOR), BLACK)?;
        Ok(())
    }

    /// Validate the red-black invariants by direct (non-transactional)
    /// reads. Only call while no transactions are in flight (tests,
    /// post-quiescence checks). Returns the number of keys seen.
    ///
    /// # Panics
    ///
    /// Panics on any violated invariant.
    pub fn check_invariants(&self, heap: &Heap) -> usize {
        let nil = heap.read_raw(self.header.field(H_NIL));
        let root = heap.read_raw(self.header.field(H_ROOT));
        assert_eq!(
            heap.read_raw(a(root).field(COLOR)),
            BLACK,
            "root must be black"
        );
        fn walk(heap: &Heap, nil: u64, n: u64, lo: Option<u64>, hi: Option<u64>) -> (usize, usize) {
            if n == nil {
                return (0, 1); // black height of nil = 1
            }
            let key = heap.read_raw(a(n).field(KEY));
            if let Some(lo) = lo {
                assert!(key > lo, "BST order violated");
            }
            if let Some(hi) = hi {
                assert!(key < hi, "BST order violated");
            }
            let color = heap.read_raw(a(n).field(COLOR));
            let l = heap.read_raw(a(n).field(LEFT));
            let r = heap.read_raw(a(n).field(RIGHT));
            if color == RED {
                assert_eq!(
                    heap.read_raw(a(l).field(COLOR)),
                    BLACK,
                    "red node with red left child"
                );
                assert_eq!(
                    heap.read_raw(a(r).field(COLOR)),
                    BLACK,
                    "red node with red right child"
                );
            }
            let (nl, bl) = walk(heap, nil, l, lo, Some(key));
            let (nr, br) = walk(heap, nil, r, Some(key), hi);
            assert_eq!(bl, br, "black heights differ");
            (nl + nr + 1, bl + usize::from(color == BLACK))
        }
        let (count, _) = walk(heap, nil, root, None, None);
        assert_eq!(
            count as u64,
            heap.read_raw(self.header.field(H_SIZE)),
            "size counter out of sync"
        );
        count
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use stm::Tl2;
    use txcore::{run_tx, ThreadCtx, TmBackend, TmSystem};

    fn setup() -> (Arc<TmSystem>, Tl2, ThreadCtx, RedBlackTree) {
        let sys = Arc::new(TmSystem::new(1 << 18));
        let tree = RedBlackTree::create(&sys.heap);
        let tm = Tl2::new(Arc::clone(&sys));
        (sys, tm, ThreadCtx::new(0), tree)
    }

    #[test]
    fn insert_get_remove_roundtrip() {
        let (sys, tm, mut ctx, tree) = setup();
        run_tx(&tm, &mut ctx, |tx| {
            assert_eq!(tree.get(tx, 5)?, None);
            assert!(tree.insert(tx, &sys.heap, 5, 50)?);
            assert!(!tree.insert(tx, &sys.heap, 5, 51)?, "duplicate key");
            assert_eq!(tree.get(tx, 5)?, Some(51));
            assert!(tree.remove(tx, 5)?);
            assert!(!tree.remove(tx, 5)?);
            assert_eq!(tree.get(tx, 5)?, None);
            Ok(())
        });
        tree.check_invariants(&sys.heap);
    }

    #[test]
    fn ascending_insertions_stay_balanced() {
        let (sys, tm, mut ctx, tree) = setup();
        for k in 0..256u64 {
            run_tx(&tm, &mut ctx, |tx| tree.insert(tx, &sys.heap, k, k * 10));
        }
        assert_eq!(tree.check_invariants(&sys.heap), 256);
        for k in 0..256u64 {
            let v = run_tx(&tm, &mut ctx, |tx| tree.get(tx, k));
            assert_eq!(v, Some(k * 10));
        }
    }

    #[test]
    fn interleaved_insert_remove_matches_btreeset() {
        let (sys, tm, mut ctx, tree) = setup();
        let mut model = std::collections::BTreeMap::new();
        let mut seed = 0x1234_5678u64;
        for _ in 0..2000 {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
            let key = (seed >> 20) % 200;
            let op = (seed >> 60) % 3;
            match op {
                0 | 1 => {
                    let inserted =
                        run_tx(&tm, &mut ctx, |tx| tree.insert(tx, &sys.heap, key, seed));
                    assert_eq!(inserted, model.insert(key, seed).is_none(), "key {key}");
                }
                _ => {
                    let removed = run_tx(&tm, &mut ctx, |tx| tree.remove(tx, key));
                    assert_eq!(removed, model.remove(&key).is_some(), "key {key}");
                }
            }
        }
        assert_eq!(tree.check_invariants(&sys.heap), model.len());
        for (k, v) in model {
            assert_eq!(run_tx(&tm, &mut ctx, |tx| tree.get(tx, k)), Some(v));
        }
    }

    #[test]
    fn descending_and_random_deletions_rebalance() {
        let (sys, tm, mut ctx, tree) = setup();
        for k in 0..128u64 {
            run_tx(&tm, &mut ctx, |tx| tree.insert(tx, &sys.heap, k, k));
        }
        for k in (0..128u64).rev().step_by(2) {
            assert!(run_tx(&tm, &mut ctx, |tx| tree.remove(tx, k)));
            tree.check_invariants(&sys.heap);
        }
        assert_eq!(tree.check_invariants(&sys.heap), 64);
    }

    type MakeBackend = fn(Arc<TmSystem>) -> Box<dyn TmBackend>;

    /// The node holding `key`, found by a raw walk while nothing runs.
    fn node_of(heap: &Heap, tree: RedBlackTree, key: u64) -> Addr {
        let mut x = heap.read_raw(tree.header.field(H_ROOT));
        loop {
            let k = heap.read_raw(a(x).field(KEY));
            if k == key {
                return a(x);
            }
            x = heap.read_raw(a(x).field(if key < k { LEFT } else { RIGHT }));
        }
    }

    /// Reader A has read node X's key. B removes that key, which puts X on
    /// the free list, and C's insert of a new key takes X back. A's next
    /// read of X must abort: it may never see C's key.
    fn doomed_reader_aborts_on_recycled_node(
        sys: &TmSystem,
        tm: &dyn TmBackend,
        reader_on_software_path: bool,
    ) {
        let heap = &sys.heap;
        let tree = RedBlackTree::create(heap);
        let (mut ra, mut wb, mut wc) = (ThreadCtx::new(0), ThreadCtx::new(1), ThreadCtx::new(2));
        for k in 1..=8u64 {
            run_tx(tm, &mut wb, |tx| tree.insert(tx, heap, k * 10, k));
        }
        let x = node_of(heap, tree, 50);
        if reader_on_software_path {
            // A drained budget: the hybrids run A as a software transaction.
            ra.attempt = 1;
            ra.htm_budget = 0;
        }
        tm.begin(&mut ra).unwrap();
        assert_eq!(ra.in_fallback, reader_on_software_path);
        assert_eq!(tm.read(&mut ra, x.field(KEY)), Ok(50));

        assert!(run_tx(tm, &mut wb, |tx| tree.remove(tx, 50)));
        assert_eq!(heap.read_raw(tree.header.field(H_FREE)), x.0 as u64);
        assert!(run_tx(tm, &mut wc, |tx| tree.insert(tx, heap, 55, 9)));
        assert_eq!(heap.read_raw(x.field(KEY)), 55, "C's insert took X back");

        let next = tm.read(&mut ra, x.field(KEY));
        assert!(
            next.is_err(),
            "{}: the doomed reader saw {next:?}",
            tm.name()
        );
        tm.rollback(&mut ra);
        assert_eq!(tree.check_invariants(heap), 8);
    }

    #[test]
    fn a_doomed_reader_aborts_on_a_recycled_node_on_every_stm() {
        let backends: [MakeBackend; 5] = [
            |s| Box::new(Tl2::new(s)),
            |s| Box::new(stm::TinyStm::new(s)),
            |s| Box::new(stm::NOrec::new(s)),
            |s| Box::new(stm::SwissTm::new(s)),
            |s| Box::new(stm::Durable::with_new_pheap(s)),
        ];
        for make in backends {
            let sys = Arc::new(TmSystem::new(1 << 14));
            doomed_reader_aborts_on_recycled_node(&sys, &*make(Arc::clone(&sys)), false);
        }
    }

    /// The HTM family: every backend's speculative path, and the hybrids'
    /// software paths. `HtmSim`'s lock fallback runs alone, so it has no
    /// doomed reader to test.
    #[test]
    fn a_doomed_reader_aborts_on_a_recycled_node_on_the_htm_family() {
        let backends: [(MakeBackend, &[bool]); 3] = [
            (|s| Box::new(htm::HtmSim::new(s)), &[false]),
            (|s| Box::new(htm::HybridNOrec::new(s)), &[false, true]),
            (|s| Box::new(htm::HybridTl2::new(s)), &[false, true]),
        ];
        for (make, paths) in backends {
            for &software in paths {
                let sys = Arc::new(TmSystem::new(1 << 14));
                doomed_reader_aborts_on_recycled_node(&sys, &*make(Arc::clone(&sys)), software);
            }
        }
    }

    #[test]
    fn len_tracks_contents() {
        let (sys, tm, mut ctx, tree) = setup();
        assert!(run_tx(&tm, &mut ctx, |tx| tree.is_empty(tx)));
        for k in [3u64, 1, 4, 1, 5, 9, 2, 6] {
            run_tx(&tm, &mut ctx, |tx| tree.insert(tx, &sys.heap, k, 0));
        }
        assert_eq!(run_tx(&tm, &mut ctx, |tx| tree.len(tx)), 7); // 1 duplicated
    }
}
