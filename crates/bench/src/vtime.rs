//! `experiments vtime` — the deterministic virtual-time scalability stage.
//!
//! Runs [`tmsim::vtime_report`] for both Table 2 machines at the canonical
//! seed, prints the golden-fixture renders, and — when a trace is active —
//! publishes every curve point and switch/resize latency through the
//! flight recorder as `vtime.*` time-series windows.
//!
//! Unlike every other stage, the numbers here are **virtual nanoseconds**
//! on a simulated clock: byte-identical across hosts, `--jobs` values and
//! reruns. That is why [`collect`] deliberately records *no* host context
//! (no `host.cores`, no `jobs`): the resulting `BENCH_vtime.json` is the
//! same file everywhere, and the snapshot gate compares it exactly —
//! no noise band, no skip-on-core-mismatch (see [`crate::snapshot`]).
//!
//! `--quick` is ignored on purpose: shrinking the virtual workload would
//! change the bytes, and the whole point of this stage is that every host
//! runs the exact same virtual work.

use crate::snapshot::Val;
use std::collections::BTreeMap;
use tmsim::vtime::REPORT_SEED;
use tmsim::{conflict_profile, vtime_report, ConflictProfile, MachineModel, VtimeReport};
use txcore::AbortCode;

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

/// Flatten one report into sorted-friendly `vtime.*` rows, all exact
/// integers. Key shape: `vtime.<machine>.<backend>.t<threads>.<metric>`
/// for curve points, `vtime.<machine>.switch.latency_ns` and
/// `vtime.<machine>.resize.{shrink,grow}_ns` for the reconfigurations.
fn rows(rep: &VtimeReport) -> Vec<(String, u64)> {
    let mut out = Vec::new();
    let m = rep.machine;
    for curve in &rep.curves {
        let b = curve.backend.label().to_ascii_lowercase();
        for p in &curve.points {
            let key = |metric: &str| format!("vtime.{m}.{b}.t{}.{metric}", p.threads);
            out.push((key("tx_per_sec"), p.tx_per_sec));
            out.push((key("aborts"), p.aborts));
            out.push((key("virtual_ns"), p.virtual_ns));
            if curve.backend.is_hardware() {
                out.push((key("fallbacks"), p.fallbacks));
            }
        }
    }
    out.push((
        format!("vtime.{m}.switch.latency_ns"),
        rep.switch.latency_ns,
    ));
    out.push((format!("vtime.{m}.resize.shrink_ns"), rep.resize.shrink_ns));
    out.push((format!("vtime.{m}.resize.grow_ns"), rep.resize.grow_ns));
    out
}

/// Flatten one conflict profile into `vtime.<machine>.conflict.*` rows,
/// all exact integers. Per backend cell: the wasted-work ledger, the
/// goodput per-mille, every non-zero abort cause (`cause.<slug>`) and the
/// top-K hot stripes as `stripe<rank>.{id,hits}` pairs.
fn conflict_rows(profile: &ConflictProfile) -> Vec<(String, u64)> {
    let mut out = Vec::new();
    let m = profile.machine;
    for cell in &profile.cells {
        let b = cell.backend.label().to_ascii_lowercase();
        let key = |metric: &str| format!("vtime.{m}.conflict.{b}.{metric}");
        out.push((key("aborts"), cell.aborts));
        out.push((key("goodput_pm"), cell.goodput_permille));
        out.push((key("committed_ops"), cell.committed_ops));
        out.push((key("wasted_ops"), cell.wasted_ops));
        out.push((key("wasted_vns"), cell.wasted_vns));
        for code in AbortCode::ALL {
            let n = cell.abort_causes[code.index()];
            if n > 0 {
                out.push((key(&format!("cause.{}", code.slug())), n));
            }
        }
        for (rank, &(stripe, hits)) in cell.top_stripes.iter().enumerate() {
            out.push((key(&format!("stripe{}.id", rank + 1)), stripe as u64));
            out.push((key(&format!("stripe{}.hits", rank + 1)), hits));
        }
    }
    out
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
    // conflict profiles. The series reuse the wall-clock observatory names
    // (`abort.cause.*`, `wasted.ops`, `goodput.ratio`,
    // `conflict.stripe_topk`) so `proteus-trace conflicts` reads both
    // sources the same way — here every sample is derived from exact
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
                if let Some(&(stripe, _)) = cell.top_stripes.first() {
                    obs::ts_record("conflict.stripe_topk", stripe as f64);
                }
                for (rank, &(stripe, hits)) in cell.top_stripes.iter().enumerate() {
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

/// The `BENCH_vtime.json` section: every row of both machines' reports,
/// plus the schema/tool/seed tags. Deliberately **no host context keys**
/// — the file must be byte-identical on every machine so the gate can
/// compare it exactly.
pub fn collect() -> BTreeMap<String, Val> {
    let mut snap: BTreeMap<String, Val> = BTreeMap::new();
    snap.insert("schema".into(), Val::U(obs::SCHEMA_VERSION as u64));
    snap.insert("tool".into(), Val::S("experiments vtime".into()));
    snap.insert("vtime.seed".into(), Val::U(REPORT_SEED));
    for rep in reports() {
        for (k, v) in rows(&rep) {
            snap.insert(k, Val::U(v));
        }
    }
    for profile in profiles() {
        for (k, v) in conflict_rows(&profile) {
            snap.insert(k, Val::U(v));
        }
    }
    snap
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn collect_carries_no_host_context() {
        let snap = collect();
        assert!(!snap.contains_key("host.cores"));
        assert!(!snap.contains_key("host.os"));
        assert!(!snap.contains_key("jobs"));
        // Every vtime value is an exact integer — nothing for a noise
        // band to ever apply to.
        for (k, v) in &snap {
            if k.starts_with("vtime.") {
                assert!(matches!(v, Val::U(_)), "{k} must be an exact integer");
            }
        }
    }

    #[test]
    fn collect_covers_both_machines_and_reconfigurations() {
        let snap = collect();
        for key in [
            "vtime.machine-a.tl2.t1.tx_per_sec",
            "vtime.machine-a.htm.t8.fallbacks",
            "vtime.machine-a.switch.latency_ns",
            "vtime.machine-b.swiss.t48.virtual_ns",
            "vtime.machine-b.resize.shrink_ns",
            "vtime.machine-b.resize.grow_ns",
            "vtime.machine-a.conflict.tl2.goodput_pm",
            "vtime.machine-a.conflict.htm.cause.conflict",
            "vtime.machine-b.conflict.swiss.wasted_vns",
            "vtime.machine-b.conflict.norec.stripe1.id",
        ] {
            assert!(snap.contains_key(key), "missing {key}");
        }
        // Same process, second collection: identical bytes.
        assert_eq!(
            crate::snapshot::render(&snap),
            crate::snapshot::render(&collect())
        );
    }
}
