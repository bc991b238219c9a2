//! Golden-fixture tests for the virtual-time reports.
//!
//! The fixtures under `tests/golden/` are the byte-exact renders of both
//! machines' scalability, conflict and durability reports at the canonical
//! seed — the `experiments vtime` and `experiments durable` stdout blocks.
//! Any change to the cost model, the scheduler, the workload plan or the
//! render format shows up here as a reviewable diff. Regenerate
//! intentionally with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p tmsim --test golden_vtime
//! ```

use std::path::Path;
use tmsim::vtime::{conflict_profile, durable_report, vtime_report, REPORT_SEED};
use tmsim::MachineModel;

fn check_render(machine: &MachineModel, name: &str, got: String) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &got).unwrap();
    }
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden fixture {}: {e}", path.display()));
    assert_eq!(
        got, want,
        "{name} for {} drifted from its golden fixture; if the change is \
         intentional, regenerate with UPDATE_GOLDEN=1 and review the diff",
        machine.name
    );
}

fn check(machine: &MachineModel, name: &str) {
    check_render(machine, name, vtime_report(machine, REPORT_SEED).render());
}

#[test]
fn machine_a_scalability_curves_match_golden() {
    check(&MachineModel::machine_a(), "vtime_machine_a.txt");
}

#[test]
fn machine_b_scalability_curves_match_golden() {
    check(&MachineModel::machine_b(), "vtime_machine_b.txt");
}

#[test]
fn machine_a_conflict_profile_matches_golden() {
    let m = MachineModel::machine_a();
    check_render(
        &m,
        "vtime_conflict_machine_a.txt",
        conflict_profile(&m, REPORT_SEED).render(),
    );
}

#[test]
fn machine_b_conflict_profile_matches_golden() {
    let m = MachineModel::machine_b();
    check_render(
        &m,
        "vtime_conflict_machine_b.txt",
        conflict_profile(&m, REPORT_SEED).render(),
    );
}

#[test]
fn machine_a_durability_tax_matches_golden() {
    let m = MachineModel::machine_a();
    check_render(
        &m,
        "durable_machine_a.txt",
        durable_report(&m, REPORT_SEED).render(),
    );
}

#[test]
fn machine_b_durability_tax_matches_golden() {
    let m = MachineModel::machine_b();
    check_render(
        &m,
        "durable_machine_b.txt",
        durable_report(&m, REPORT_SEED).render(),
    );
}
