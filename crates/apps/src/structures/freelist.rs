//! A transactional free list: the nodes a structure unlinks, kept for its
//! next insert (DESIGN.md §5, "linked structures recycle").
//!
//! The list is one header word holding the first free node, threaded
//! through a link field of each free node. Both ends run inside the
//! caller's transaction: `push` from the `remove` that unlinked the node,
//! `pop` from an `insert` whose search has failed. So a node is either
//! reachable from its structure or from this list, never both, and a
//! transaction that still holds a pointer to a recycled node aborts on its
//! next read of it: `insert`'s initialising writes go through the TM.

use txcore::{Addr, Heap, Tx, TxResult};

/// One structure's free list. A plain copyable handle, like the structures
/// that embed it; the list itself lives in the heap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct FreeList {
    /// The header word holding the first free node, or `empty`.
    head: Addr,
    /// The head's value when the list holds no node.
    empty: u64,
    /// The node field a free node links through.
    link: u32,
    /// Node size in words, for `Heap::alloc` when the list is empty.
    words: u32,
}

impl FreeList {
    /// The list whose head is the word at `head`. The caller initialises
    /// that word to `empty`.
    pub(crate) fn new(head: Addr, empty: u64, link: u32, words: usize) -> Self {
        FreeList {
            head,
            empty,
            link,
            words: words as u32,
        }
    }

    /// A node for an insert: the first free one, or a fresh allocation
    /// when the list is empty — through `Tx::alloc`, so that an aborted
    /// attempt's node goes to the thread's next one. Its fields hold stale
    /// values; the caller writes every field it reads later.
    pub(crate) fn pop(&self, tx: &mut Tx<'_>, heap: &Heap) -> TxResult<Addr> {
        let node = tx.read(self.head)?;
        if node == self.empty {
            return Ok(tx.alloc(heap, self.words as usize));
        }
        let node = Addr(node as u32);
        let next = tx.read(node.field(self.link))?;
        tx.write(self.head, next)?;
        Ok(node)
    }

    /// Give back `node`, which the calling transaction has just unlinked.
    pub(crate) fn push(&self, tx: &mut Tx<'_>, node: u64) -> TxResult<()> {
        let first = tx.read(self.head)?;
        tx.write(Addr(node as u32).field(self.link), first)?;
        tx.write(self.head, node)
    }
}
