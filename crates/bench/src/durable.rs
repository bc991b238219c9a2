//! `experiments durable` — the deterministic durability-tax stage.
//!
//! Runs [`tmsim::durable_report`] for both Table 2 machines at the
//! canonical vtime seed: a volatile NOrec baseline against the Durable
//! backend in Buffered and Strict modes over a shared thread sweep, plus
//! one crash-recovery drill (crash armed mid-journal, restart, redo-log
//! replay). Prints the stable renders and, when a trace is active, one
//! `durable.report` event per machine.
//!
//! Like the vtime stage, everything here is **virtual**: log bytes, fsync
//! counts and recovery latency are modeled integers, byte-identical across
//! hosts, `--jobs` values and reruns. The renders are `tmsim`'s golden
//! fixtures (`crates/tmsim/tests/golden/durable_*.txt`), which pin every
//! number exactly. `--quick` is ignored on purpose.

use tmsim::vtime::REPORT_SEED;
use tmsim::{durable_report, DurableReport, MachineModel};

fn reports() -> [DurableReport; 2] {
    [
        durable_report(&MachineModel::machine_a(), REPORT_SEED),
        durable_report(&MachineModel::machine_b(), REPORT_SEED),
    ]
}

/// Run the stage: print both machines' reports and, under an active
/// trace, one `durable.report` event each.
pub fn run() {
    for rep in reports() {
        print!("{}", rep.render());
        println!();
        obs::event!(
            "durable.report",
            "machine" => rep.machine,
            "seed" => rep.seed,
            "cells" => rep.points.len() as u64,
        );
    }
}
