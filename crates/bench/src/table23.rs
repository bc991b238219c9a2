//! Tables 2 and 3: the experimental test-bed — machine profiles and the
//! tuned parameter space.

use crate::harness::print_table;
use polytm::ConfigSpace;
use tmsim::MachineModel;

/// Print Table 2 (machines) and Table 3 (tuned parameters).
pub fn run() {
    let machines = [MachineModel::machine_a(), MachineModel::machine_b()];
    let rows: Vec<Vec<String>> = machines
        .iter()
        .map(|m| {
            vec![
                m.name.to_string(),
                m.cores.to_string(),
                m.hw_threads.to_string(),
                m.sockets.to_string(),
                if m.has_htm { "yes" } else { "no" }.to_string(),
                format!("{:.1}", m.energy.base_watts),
            ]
        })
        .collect();
    print_table(
        "Table 2 — simulated machines",
        &["machine", "cores", "hw-threads", "sockets", "HTM", "base W"],
        &rows,
    );

    let mut rows = Vec::new();
    for space in [ConfigSpace::machine_a(), ConfigSpace::machine_b()] {
        let stm = space.configs().iter().filter(|c| c.htm.is_none()).count();
        let threads: std::collections::BTreeSet<usize> =
            space.configs().iter().map(|c| c.threads).collect();
        rows.push(vec![
            space.name.to_string(),
            space.len().to_string(),
            stm.to_string(),
            (space.len() - stm).to_string(),
            format!("{threads:?}"),
        ]);
    }
    print_table(
        "Table 3 — tuned configuration space",
        &[
            "machine",
            "total configs",
            "STM",
            "HTM/Hybrid",
            "thread counts",
        ],
        &rows,
    );
}
