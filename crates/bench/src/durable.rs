//! `experiments durable` — the deterministic durability-tax stage.
//!
//! Runs [`tmsim::durable_report`] for both Table 2 machines at the
//! canonical vtime seed: a volatile NOrec baseline against the Durable
//! backend in Buffered and Strict modes over a shared thread sweep, plus
//! one crash-recovery drill (crash armed mid-journal, restart, redo-log
//! replay). Prints the stable renders and — when a trace is active —
//! publishes every cell through the flight recorder as `durable.*`
//! time-series windows.
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

/// Flatten one report into sorted-friendly `durable.*` rows, all exact
/// integers. Key shape: `durable.<machine>.<mode>.t<threads>.<metric>`
/// for curve cells and `durable.<machine>.drill.<metric>` for the
/// crash-recovery drill.
fn rows(rep: &DurableReport) -> Vec<(String, u64)> {
    let mut out = Vec::new();
    let m = rep.machine;
    for p in &rep.points {
        let key = |metric: &str| format!("durable.{m}.{}.t{}.{metric}", p.mode.slug(), p.threads);
        out.push((key("tx_per_sec"), p.tx_per_sec));
        out.push((key("virtual_ns"), p.virtual_ns));
        if p.mode.is_durable() {
            out.push((key("log_words"), p.log_words));
            out.push((key("fsyncs"), p.fsyncs));
            out.push((key("checkpoints"), p.checkpoints));
        }
    }
    let d = &rep.drill;
    let drill = |metric: &str| format!("durable.{m}.drill.{metric}");
    out.push((drill("crash_step"), d.crash_step));
    out.push((drill("replayed_txs"), d.replayed_txs));
    out.push((drill("replayed_words"), d.replayed_words));
    out.push((drill("torn_words"), d.torn_words));
    out.push((drill("recovery_ns"), d.recovery_ns));
    out
}

/// Run the stage: print both machines' reports and, under an active
/// trace, publish every row as a `durable.*` series sample.
pub fn run() {
    for rep in reports() {
        print!("{}", rep.render());
        println!();
        if obs::enabled() {
            obs::event!(
                "durable.report",
                "machine" => rep.machine,
                "seed" => rep.seed,
                "cells" => rep.points.len() as u64,
            );
            for chunk in rows(&rep).chunks(8) {
                for (k, v) in chunk {
                    obs::ts_record(k, *v as f64);
                }
                // Fixed logical flush boundaries, independent of the host.
                obs::ts_tick();
            }
        }
    }
}
