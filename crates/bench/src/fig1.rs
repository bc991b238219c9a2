//! Figure 1: performance heterogeneity of TM applications.
//!
//! 1a — throughput/Joule of three configurations on Machine A for genome,
//! red-black tree and labyrinth, normalized to the per-workload best.
//! 1b — throughput of three configurations on Machine B for vacation,
//! red-black tree and intruder, normalized likewise.

use crate::harness::{f3, print_table};
use polytm::TmConfig;
use tmsim::{MachineModel, PerfModel, WorkloadFamily};

/// The per-workload optimal configurations (the paper highlights each
/// workload's winner and shows how it fares elsewhere).
fn optima(
    model: &PerfModel,
    families: &[WorkloadFamily],
    kpi_of: &dyn Fn(&PerfModel, &tmsim::WorkloadSpec, &TmConfig) -> f64,
) -> Vec<TmConfig> {
    let space = model.machine().config_space();
    families
        .iter()
        .map(|fam| {
            let spec = fam.base_spec();
            *space
                .configs()
                .iter()
                .max_by(|a, b| kpi_of(model, &spec, a).total_cmp(&kpi_of(model, &spec, b)))
                .expect("non-empty space")
        })
        .collect()
}

fn normalized_rows(
    model: &PerfModel,
    families: &[WorkloadFamily],
    picks: &[TmConfig],
    kpi_of: &dyn Fn(&PerfModel, &tmsim::WorkloadSpec, &TmConfig) -> f64,
) -> Vec<Vec<String>> {
    let space = model.machine().config_space();
    families
        .iter()
        .map(|fam| {
            let spec = fam.base_spec();
            let best = space
                .configs()
                .iter()
                .map(|c| kpi_of(model, &spec, c))
                .fold(0.0, f64::max);
            let mut row = vec![fam.name().to_string()];
            for cfg in picks {
                row.push(f3(kpi_of(model, &spec, cfg) / best));
            }
            row
        })
        .collect()
}

/// Run the Figure 1 experiment.
pub fn run() {
    // Fig. 1a: Machine A, throughput per joule.
    let model_a = PerfModel::new(MachineModel::machine_a());
    let tpj = |m: &PerfModel, s: &tmsim::WorkloadSpec, c: &TmConfig| {
        m.throughput(s, c) / m.machine().energy.power_watts(c.threads)
    };
    let fams_a = [
        WorkloadFamily::Memcached,
        WorkloadFamily::Labyrinth,
        WorkloadFamily::Bayes,
    ];
    let picks_a = optima(&model_a, &fams_a, &tpj);
    let rows = normalized_rows(&model_a, &fams_a, &picks_a, &tpj);
    let headers: Vec<String> = std::iter::once("workload".to_string())
        .chain(picks_a.iter().map(|c| c.to_string()))
        .collect();
    let headers_ref: Vec<&str> = headers.iter().map(String::as_str).collect();
    print_table(
        "Fig 1a — Machine A, throughput/Joule normalized to per-workload best\n   (columns = each workload's own optimal configuration)",
        &headers_ref,
        &rows,
    );

    // Fig. 1b: Machine B, raw throughput.
    let model_b = PerfModel::new(MachineModel::machine_b());
    let thr = |m: &PerfModel, s: &tmsim::WorkloadSpec, c: &TmConfig| m.throughput(s, c);
    let fams_b = [
        WorkloadFamily::Ssca2,
        WorkloadFamily::Kmeans,
        WorkloadFamily::Intruder,
    ];
    let picks_b = optima(&model_b, &fams_b, &thr);
    let rows = normalized_rows(&model_b, &fams_b, &picks_b, &thr);
    let headers: Vec<String> = std::iter::once("workload".to_string())
        .chain(picks_b.iter().map(|c| c.to_string()))
        .collect();
    let headers_ref: Vec<&str> = headers.iter().map(String::as_str).collect();
    print_table(
        "Fig 1b — Machine B, throughput normalized to per-workload best\n   (columns = each workload's own optimal configuration)",
        &headers_ref,
        &rows,
    );
    println!(
        "(Shape target: each column is near-best for one workload and far from\n\
         best for another — no configuration dominates.)"
    );
}
