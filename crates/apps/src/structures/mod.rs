//! Concurrent data structures over the transactional heap.
//!
//! Each structure stores its nodes in the shared [`txcore::Heap`] and
//! performs every access through a [`txcore::Tx`] handle, so any TM backend
//! (and any PolyTM configuration) can run them. Keys and values are `u64`;
//! `u64::MAX` is reserved as the key sentinel. Each structure keeps the
//! nodes its `remove` unlinks on a transactional free list, and its
//! `insert` takes one from there before it allocates.

mod dsapp;
mod freelist;
mod hashmap;
mod linkedlist;
mod rbt;
mod skiplist;

pub use dsapp::{DsApp, DsKind, DsParams};
pub use hashmap::HashMap;
pub use linkedlist::LinkedList;
pub use rbt::RedBlackTree;
pub use skiplist::SkipList;
