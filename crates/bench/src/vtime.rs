//! `experiments vtime` — the deterministic virtual-time scalability stage.
//!
//! Runs [`tmsim::vtime_report`] for both Table 2 machines at the canonical
//! seed and prints the golden-fixture renders; under an active trace each
//! machine leaves one `vtime.report` event, and each conflict cell one
//! `vtime.conflict` event and its `conflict.stripe` ranks.
//!
//! Unlike every other stage, the numbers here are **virtual nanoseconds**
//! on a simulated clock: byte-identical across hosts, `--jobs` values and
//! reruns. The renders are `tmsim`'s golden fixtures
//! (`crates/tmsim/tests/golden/vtime_*.txt`), which pin every number
//! exactly.
//!
//! `--quick` is ignored on purpose: shrinking the virtual workload would
//! change the bytes, and the whole point of this stage is that every host
//! runs the exact same virtual work.

use tmsim::vtime::REPORT_SEED;
use tmsim::{conflict_profile, vtime_report, ConflictProfile, MachineModel, VtimeReport};

fn reports() -> [VtimeReport; 2] {
    [
        vtime_report(&MachineModel::machine_a(), REPORT_SEED),
        vtime_report(&MachineModel::machine_b(), REPORT_SEED),
    ]
}

fn profiles() -> [ConflictProfile; 2] {
    [
        conflict_profile(&MachineModel::machine_a(), REPORT_SEED),
        conflict_profile(&MachineModel::machine_b(), REPORT_SEED),
    ]
}

/// Run the stage: print both machines' reports and conflict profiles
/// and, under an active trace, record them as events.
pub fn run() {
    for rep in reports() {
        print!("{}", rep.render());
        println!();
        obs::event!(
            "vtime.report",
            "machine" => rep.machine,
            "seed" => rep.seed,
            "curves" => rep.curves.len() as u64,
        );
    }
    // Conflict observatory (DESIGN.md §12): the deterministic per-machine
    // conflict profiles, one `vtime.conflict` event per cell and its
    // hottest stripes, which `proteus-trace conflicts` reads.
    for profile in profiles() {
        print!("{}", profile.render());
        println!();
        if obs::enabled() {
            for cell in &profile.cells {
                obs::event!(
                    "vtime.conflict",
                    "machine" => profile.machine,
                    "backend" => cell.backend.label(),
                    "threads" => profile.threads as u64,
                    "aborts" => cell.aborts,
                    "goodput_pm" => cell.goodput_permille,
                    "wasted_ops" => cell.wasted_ops,
                );
                for (rank, &(stripe, hits)) in cell.hot_stripes.iter().enumerate() {
                    obs::event!(
                        "conflict.stripe",
                        "machine" => profile.machine,
                        "backend" => cell.backend.label(),
                        "rank" => (rank + 1) as u64,
                        "stripe" => stripe as u64,
                        "hits" => hits,
                    );
                }
            }
        }
    }
}
