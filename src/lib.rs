//! # ProteusTM
//!
//! A from-scratch Rust reproduction of **"ProteusTM: Abstraction Meets
//! Performance in Transactional Memory"** (Didona, Diegues, Kermarrec,
//! Guerraoui, Neves, Romano — ASPLOS 2016).
//!
//! ProteusTM hides a library of TM implementations behind the plain TM
//! interface and self-tunes — TM algorithm, thread count, and HTM
//! contention management — to the running workload using Collaborative
//! Filtering plus Bayesian optimization. This crate is the facade tying the
//! subsystems together:
//!
//! * [`polytm`] — the polymorphic TM runtime (4 STMs, a simulated
//!   best-effort HTM, Hybrid NOrec; quiescence-based switching);
//! * [`rectm`] — the tuner (Recommender + Controller + Monitor);
//! * [`recsys`] / [`smbo`] — the learning machinery (rating distillation,
//!   KNN/MF CF, Expected Improvement);
//! * [`tmsim`] — the analytical performance simulator standing in for the
//!   paper's trace archive;
//! * [`apps`] — benchmarks on the real stack (data structures, STAMP-style
//!   kernels, TPC-C/Memcached/STMBench7 ports).
//!
//! # Quickstart
//!
//! ```
//! use proteustm::{ProteusTm, Kpi};
//!
//! // A runtime with auto-generated training knowledge.
//! let proteus = ProteusTm::builder()
//!     .heap_words(1 << 12)
//!     .max_threads(2)
//!     .kpi(Kpi::Throughput)
//!     .build();
//!
//! // Transactions go through the usual PolyTM interface.
//! let a = proteus.poly().system().heap.alloc(1);
//! let mut w = proteus.poly().register_thread(0);
//! proteus.poly().run_tx(&mut w, |tx| {
//!     let v = tx.read(a)?;
//!     tx.write(a, v + 1)
//! });
//! assert_eq!(proteus.poly().system().heap.read_raw(a), 1);
//! ```

mod facade;

pub use facade::{OptimizeOutcome, ProteusTm, ProteusTmBuilder};

// Re-export the subsystem crates under their paper names.
pub use apps;
pub use htm;
pub use mlbaselines;
pub use polytm;
pub use recsys;
pub use rectm;
pub use smbo;
pub use stm;
pub use tmsim;
pub use txcore;

// The most commonly used types, flattened for convenience.
pub use polytm::{BackendId, ConfigSpace, HtmSetting, Kpi, PolyTm, TmConfig};
pub use rectm::{Exploration, Monitor, RecTm, Tick};
pub use smbo::Goal;
