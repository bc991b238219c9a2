//! Figure 6: the Cautious vs Naive early-stop predicates — MDFO (mean,
//! median, 90th percentile) and exploration counts as a function of the
//! threshold ε.

use crate::harness::{f3, pct, print_table, Bench};
use polytm::Kpi;
use recsys::{CfAlgorithm, Similarity};
use rectm::{Controller, ControllerSettings, NormalizationChoice};
use smbo::{Acquisition, StoppingRule};
use tmsim::MachineModel;

const EPSILONS: [f64; 4] = [0.01, 0.05, 0.10, 0.15];

fn sweep(bench: &Bench, train: &[usize], test: &[usize], title: &str) {
    let mut rows = Vec::new();
    for cautious in [true, false] {
        for &eps in &EPSILONS {
            let stopping = if cautious {
                StoppingRule::Cautious { epsilon: eps }
            } else {
                StoppingRule::Naive { epsilon: eps }
            };
            let ctl = Controller::fit(
                &bench.matrix_of(train),
                bench.goal,
                NormalizationChoice::Distillation.build(),
                CfAlgorithm::Knn {
                    similarity: Similarity::Cosine,
                    k: 5,
                },
                ControllerSettings {
                    acquisition: Acquisition::ExpectedImprovement,
                    stopping,
                    n_bags: 10,
                    max_explorations: 20,
                    seed: 3,
                },
            );
            let mut dfos = Vec::new();
            let mut expls = Vec::new();
            for &row in test {
                let out = ctl.optimize(&mut |col| bench.truth[row][col]);
                // This loop is serial driver code, so the buffered
                // controller telemetry can be replayed right away.
                out.emit_trace();
                dfos.push(bench.dfo(row, out.recommended));
                expls.push(out.explored.len() as f64);
            }
            let mean = dfos.iter().sum::<f64>() / dfos.len() as f64;
            rows.push(vec![
                if cautious { "Cautious" } else { "Naive" }.to_string(),
                format!("{eps:.2}"),
                f3(mean),
                f3(pct(&dfos, 50.0)),
                f3(pct(&dfos, 90.0)),
                format!("{:.1}", expls.iter().sum::<f64>() / expls.len() as f64),
            ]);
        }
    }
    print_table(
        title,
        &["rule", "eps", "MDFO mean", "median", "90th", "mean expl."],
        &rows,
    );
}

/// Run Figure 6 with a corpus of `n` workloads per machine.
pub fn run_with(n: usize) {
    let bench_a = Bench::new(MachineModel::machine_a(), Kpi::Edp, n, 0xF16A);
    let (train, test) = bench_a.split(0.3, 21);
    sweep(
        &bench_a,
        &train,
        &test,
        "Fig 6a — stopping predicates, EDP on Machine A",
    );
    let bench_b = Bench::new(MachineModel::machine_b(), Kpi::ExecTime, n, 0xF16B);
    let (train, test) = bench_b.split(0.3, 22);
    sweep(
        &bench_b,
        &train,
        &test,
        "Fig 6b — stopping predicates, exec time on Machine B",
    );
    println!(
        "(Shape target: for any eps, Cautious reaches lower MDFO than Naive;\n\
         lower eps explores more and lands closer to the optimum.)"
    );
}

/// Run Figure 6 at a paper-comparable corpus size.
pub fn run() {
    run_with(120);
}
