//! Simulated best-effort hardware transactional memory.
//!
//! The ProteusTM paper evaluates Intel TSX and POWER8 HTM. Real HTM needs
//! hardware we cannot assume, so this crate provides a *software simulation
//! of the semantics that matter for self-tuning* (see DESIGN.md §2):
//!
//! * **bounded speculative capacity** — transactions whose read/write
//!   footprint exceeds the simulated cache geometry incur *capacity aborts*;
//! * **best-effort execution** — an optional spurious-abort probability
//!   models interrupt/eviction-induced aborts of real hardware;
//! * **eager conflict detection at cache-line granularity**;
//! * **retry budgets with capacity-abort policies** (`GiveUp` / `Decrease` /
//!   `Halve`, the two contention-management dimensions of Table 3) that can
//!   be retuned at run time without synchronization (paper §4.3);
//! * **fallback paths** — a global lock ([`HtmSim`]), an NOrec software
//!   path ([`HybridNOrec`]), or phased demotion to software TL2
//!   ([`HybridTl2`]).
//!
//! Speculative transactions *subscribe* to their fallback's sequence lock,
//! exactly like TSX fallback-lock elision, so hardware and software paths
//! never observe each other's partial state.
#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod htmsim;
mod hybrid;
mod params;
mod spec;

pub use htmsim::HtmSim;
pub use hybrid::{HybridNOrec, HybridTl2};
pub use params::{CapacityPolicy, HtmGeometry, TunableCm};
pub use txcore::LINE_WORDS;
