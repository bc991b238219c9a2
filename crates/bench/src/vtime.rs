//! `experiments vtime` — the deterministic virtual-time scalability stage.
//!
//! Runs [`tmsim::vtime_report`] for both Table 2 machines at the canonical
//! seed, prints the golden-fixture renders, and — when a trace is active —
//! publishes every curve point and switch/resize latency through the
//! flight recorder as `vtime.*` time-series windows.
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

/// Run the stage: print both machines' reports and, under an active
/// trace, publish every row as a `vtime.*` series sample.
pub fn run() {
    for rep in reports() {
        print!("{}", rep.render());
        println!();
        if obs::enabled() {
            obs::event!(
                "vtime.report",
                "machine" => rep.machine,
                "seed" => rep.seed,
                "curves" => rep.curves.len() as u64,
            );
            for curve in &rep.curves {
                // One tick per curve point: windows flush at fixed
                // logical boundaries, independent of the host.
                let b = curve.backend.label().to_ascii_lowercase();
                for p in &curve.points {
                    let key =
                        |metric: &str| format!("vtime.{}.{b}.t{}.{metric}", rep.machine, p.threads);
                    obs::ts_record(&key("tx_per_sec"), p.tx_per_sec as f64);
                    obs::ts_record(&key("aborts"), p.aborts as f64);
                    obs::ts_record(&key("virtual_ns"), p.virtual_ns as f64);
                    if curve.backend.is_hardware() {
                        obs::ts_record(&key("fallbacks"), p.fallbacks as f64);
                    }
                    obs::ts_tick();
                }
            }
            obs::ts_record(
                &format!("vtime.{}.switch.latency_ns", rep.machine),
                rep.switch.latency_ns as f64,
            );
            obs::ts_record(
                &format!("vtime.{}.resize.shrink_ns", rep.machine),
                rep.resize.shrink_ns as f64,
            );
            obs::ts_record(
                &format!("vtime.{}.resize.grow_ns", rep.machine),
                rep.resize.grow_ns as f64,
            );
            obs::ts_tick();
        }
    }
    // Conflict observatory (DESIGN.md §12): the deterministic per-machine
    // conflict profiles, as the windowed series `proteus-trace conflicts`
    // reads (`abort.cause.*`, `wasted.ops`, `goodput.ratio`,
    // `conflict.stripe_topk`). Every sample is derived from exact
    // integers, so the windows are byte-identical across hosts.
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
                for code in txcore::AbortCode::ALL {
                    let n = cell.abort_causes[code.index()];
                    if n > 0 {
                        obs::ts_record(&format!("abort.cause.{}", code.slug()), n as f64);
                    }
                }
                obs::ts_record("wasted.ops", cell.wasted_ops as f64);
                // Exactly-rounded division of exact integers: identical
                // bytes on every IEEE-754 host.
                obs::ts_record("goodput.ratio", cell.goodput_permille as f64 / 1000.0);
                if let Some(&(stripe, _)) = cell.hot_stripes.first() {
                    obs::ts_record("conflict.stripe_topk", stripe as f64);
                }
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
                obs::ts_tick();
            }
        }
    }
}
