//! Figure 5: the Controller's exploration policies (EI vs Variance, Greedy,
//! Random) — MDFO/MAPE as a function of the exploration budget, plus the
//! CDF of DFO after 5 explorations.

use crate::harness::{f3, pct, print_table, Bench};
use polytm::Kpi;
use recsys::{mape, CfAlgorithm, Row, Similarity};
use rectm::{Controller, ControllerSettings, Exploration, NormalizationChoice};
use smbo::{Acquisition, Goal, StoppingRule};
use tmsim::MachineModel;

const BUDGETS: [usize; 7] = [2, 4, 6, 8, 10, 14, 20];

fn controller(bench: &Bench, train: &[usize], acq: Acquisition) -> Controller {
    Controller::fit(
        &bench.matrix_of(train),
        bench.goal,
        NormalizationChoice::Distillation.build(),
        CfAlgorithm::Knn {
            similarity: Similarity::Cosine,
            k: 5,
        },
        ControllerSettings {
            acquisition: acq,
            // Fixed-budget sweep: the rule never fires (EI is never < 0).
            stopping: StoppingRule::Naive { epsilon: 0.0 },
            n_bags: 10,
            max_explorations: *BUDGETS.last().unwrap(),
            seed: 7,
        },
    )
}

/// For one workload: the full exploration (capped at the max budget). Runs
/// inside parx workers, so the controller's telemetry comes back buffered
/// on the `Exploration` and is replayed at the serial fold point.
fn exploration_order(ctl: &Controller, bench: &Bench, row: usize) -> Exploration {
    ctl.optimize(&mut |col| bench.truth[row][col])
}

/// DFO of the best configuration among the first `n` explorations.
fn prefix_dfo(bench: &Bench, row: usize, explored: &[(usize, f64)], n: usize) -> f64 {
    let best = explored
        .iter()
        .take(n.max(1))
        .copied()
        .reduce(|a, b| if bench.goal.better(b.1, a.1) { b } else { a })
        .expect("non-empty exploration");
    bench.dfo(row, best.0)
}

/// MAPE of the model's predictions given the first `n` explorations.
fn prefix_mape(
    ctl: &Controller,
    bench: &Bench,
    row: usize,
    explored: &[(usize, f64)],
    n: usize,
) -> f64 {
    let mut known: Row = vec![None; bench.configs.len()];
    for &(c, v) in explored.iter().take(n.max(1)) {
        known[c] = Some(v);
    }
    let pred = ctl.predict_kpis(&known);
    let pairs: Vec<(f64, f64)> = (0..bench.configs.len())
        .filter(|&c| known[c].is_none())
        .filter_map(|c| pred[c].map(|p| (bench.truth[row][c], p)))
        .collect();
    mape(&pairs)
}

fn policy_sweep(bench: &Bench, train: &[usize], test: &[usize], with_mape: bool) {
    let mut mdfo_rows = Vec::new();
    let mut mape_rows = Vec::new();
    let mut cdf_rows = Vec::new();
    for acq in Acquisition::ALL {
        let ctl = controller(bench, train, acq);
        // Each test workload explores independently against the shared
        // (immutable) controller, so the orders come off the parx pool in
        // test order — identical to the serial sweep at every job count.
        let orders: Vec<Exploration> =
            parx::par_map(test, |&row| exploration_order(&ctl, bench, row));
        // Replay each worker's buffered telemetry here, at the serial fold
        // point, in test order — never from the parallel closures above —
        // so the JSONL stream is byte-identical at every `--jobs`
        // value (crates/bench/tests/determinism.rs).
        for order in &orders {
            order.emit_trace();
        }
        // MDFO per budget.
        let mut row_out = vec![acq.label().to_string()];
        for &n in &BUDGETS {
            let m = test
                .iter()
                .zip(&orders)
                .map(|(&row, order)| prefix_dfo(bench, row, &order.explored, n))
                .sum::<f64>()
                / test.len() as f64;
            row_out.push(f3(m));
        }
        mdfo_rows.push(row_out);
        // CDF of DFO after 5 explorations.
        let dfos5: Vec<f64> = test
            .iter()
            .zip(&orders)
            .map(|(&row, order)| prefix_dfo(bench, row, &order.explored, 5))
            .collect();
        cdf_rows.push(vec![
            acq.label().to_string(),
            f3(pct(&dfos5, 50.0)),
            f3(pct(&dfos5, 80.0)),
            f3(pct(&dfos5, 90.0)),
            f3(pct(&dfos5, 100.0)),
        ]);
        // MAPE per budget (only where requested; it is the expensive part).
        // One parx task per test workload computes that row's MAPE at every
        // budget; the serial fold below then averages per budget in test
        // order, reproducing the serial sums bit-for-bit.
        if with_mape {
            let per_row: Vec<Vec<f64>> = parx::par_map_indexed(test.len(), |i| {
                BUDGETS
                    .iter()
                    .map(|&n| prefix_mape(&ctl, bench, test[i], &orders[i].explored, n))
                    .collect()
            });
            let mut row_out = vec![acq.label().to_string()];
            for (bi, _) in BUDGETS.iter().enumerate() {
                let m = per_row.iter().map(|r| r[bi]).sum::<f64>() / test.len() as f64;
                row_out.push(f3(m));
            }
            mape_rows.push(row_out);
        }
    }
    let headers: Vec<String> = std::iter::once("policy".to_string())
        .chain(BUDGETS.iter().map(|n| format!("n={n}")))
        .collect();
    let headers_ref: Vec<&str> = headers.iter().map(String::as_str).collect();
    print_table("MDFO vs number of explorations", &headers_ref, &mdfo_rows);
    print_table(
        "CDF of DFO after 5 explorations (p50 / p80 / p90 / max)",
        &["policy", "p50", "p80", "p90", "max"],
        &cdf_rows,
    );
    if with_mape {
        print_table("MAPE vs number of explorations", &headers_ref, &mape_rows);
    }
}

/// Run Figure 5 with a corpus of `n` workloads per machine.
pub fn run_with(n: usize) {
    println!("\n== Fig 5a/5b — EDP on Machine A ==");
    let bench_a = Bench::new(MachineModel::machine_a(), Kpi::Edp, n, 0xF15A);
    let (train, test) = bench_a.split(0.3, 11);
    policy_sweep(&bench_a, &train, &test, false);

    println!("\n== Fig 5c/5d — Execution time on Machine B ==");
    let bench_b = Bench::new(MachineModel::machine_b(), Kpi::ExecTime, n, 0xF15B);
    let (train, test) = bench_b.split(0.3, 12);
    policy_sweep(&bench_b, &train, &test, true);

    println!(
        "(Shape target: EI reaches low MDFO with the fewest explorations;\n\
         Variance has good MAPE but poor MDFO; Random needs ~2-4x more\n\
         explorations than EI for the same MDFO.)"
    );
    debug_assert!(matches!(bench_a.goal, Goal::Minimize));
}

/// Run Figure 5 at a paper-comparable corpus size.
pub fn run() {
    run_with(120);
}
