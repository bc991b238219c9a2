//! PolyTM: the polymorphic TM runtime of ProteusTM (paper §4).
//!
//! PolyTM hides a library of TM implementations behind a single interface
//! and can reconfigure, at run time and transparently to the application:
//!
//! 1. the **TM algorithm** (4 STMs, a simulated HTM, a Hybrid TM) — via a
//!    quiescence protocol that enforces the paper's invariant: *a thread may
//!    run a transaction in mode A only if no other thread is executing a
//!    transaction in mode B* (Fig. 3);
//! 2. the **degree of parallelism** — via the fetch-and-add thread gate of
//!    Algorithm 1 ([`ThreadGate`]);
//! 3. the **HTM contention management** (retry budget + capacity policy) —
//!    lock-free, since different policies can coexist safely (§4.3).
//!
//! The paper's adapter thread is whichever thread calls [`PolyTm::apply`].
//! Profiling is the per-thread commit/abort counters: [`PolyTm::snapshot`]
//! folds them, and a window's KPIs are the difference of two snapshots
//! (`StatsSnapshot::since`).
//!
//! # Example
//!
//! ```
//! use polytm::{PolyTm, BackendId, TmConfig};
//!
//! let poly = PolyTm::builder().heap_words(1 << 12).max_threads(2).build();
//! let a = poly.system().heap.alloc(1);
//! let mut worker = poly.register_thread(0);
//! poly.run_tx(&mut worker, |tx| {
//!     let v = tx.read(a)?;
//!     tx.write(a, v + 1)
//! });
//! poly.apply(&TmConfig::stm(BackendId::NOrec, 2)).unwrap();
//! poly.run_tx(&mut worker, |tx| tx.read(a));
//! ```
#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod energy;
mod gate;
mod runtime;

pub use config::{BackendId, ConfigSpace, HtmSetting, Kpi, TmConfig};
pub use energy::EnergyModel;
pub use gate::ThreadGate;
pub use runtime::{PolyTm, PolyTmBuilder, SwitchError, Worker};
