//! Transactional-memory substrate shared by every backend in the ProteusTM
//! reproduction.
//!
//! This crate provides the pieces that published word-based TM algorithms
//! (TL2, TinySTM, NOrec, SwissTM, and our simulated best-effort HTM) build
//! on:
//!
//! * a word-addressed transactional [`Heap`] playing the role of the
//!   application address space,
//! * a table of versioned ownership records ([`OrecTable`]),
//! * a [`GlobalClock`] (global version clock / commit timestamp source),
//! * read/write access-set containers ([`ReadSet`], [`WriteSet`]),
//! * the polymorphic backend interface ([`TmBackend`]) that PolyTM hides
//!   behind a single ABI,
//! * the transaction driver ([`run_tx`]) that retries atomic blocks until
//!   they commit, and
//! * a simulated persistent heap ([`PHeap`]) with a redo log and numbered,
//!   crashable persistence steps, backing the durable TM backend.
//!
//! # Example
//!
//! ```
//! use txcore::TmSystem;
//! use std::sync::Arc;
//!
//! // The shared system state every backend operates on; see the `stm`
//! // crate for TL2 & friends that implement `TmBackend` over it.
//! let sys = Arc::new(TmSystem::new(1024));
//! let a = sys.heap.alloc(1);
//! sys.heap.write_raw(a, 41);
//! assert_eq!(sys.heap.read_raw(a), 41);
//! ```
#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod abort;
mod backend;
mod clock;
mod exec;
mod heap;
mod orec;
pub mod pheap;
mod sets;
mod stats;
mod system;
pub mod util;

pub use abort::{Abort, AbortCode, TxResult, NO_STRIPE};
pub use backend::{BackendKind, TmBackend};
pub use clock::GlobalClock;
pub use exec::{run_tx, try_run_tx, Tx};
pub use heap::{Addr, Heap, NULL_ADDR};
pub use orec::{OrecState, OrecTable, OwnerTag};
pub use pheap::{
    Crashed, DurabilityMode, PHeap, PHeapStats, RecoveryReport, CHECKPOINT_EVERY_TXS, FSYNC_NS,
    GROUP_COMMIT_TXS, LOG_APPEND_NS_PER_WORD, RECOVERY_BASE_NS, REPLAY_NS_PER_WORD,
};
pub use sets::{LineSet, ReadSet, WriteSet};
pub use stats::{LocalStats, StatsSnapshot, ThreadStats};
pub use system::{ThreadCtx, TmSystem, WORK_FLUSH_EVERY};
