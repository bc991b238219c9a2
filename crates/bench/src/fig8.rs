//! Figure 8 + Table 6: on-line optimization of dynamic workloads.
//!
//! Four applications (red-black tree, STMBench7, TPC-C on Machine A;
//! Memcached on Machine B), each switching between three contrasting
//! workloads every 30 virtual seconds. ProteusTM is *oblivious* of the
//! target application: its training corpus excludes the application's
//! family entirely. The Monitor (1 s period) detects each shift and
//! triggers re-optimization; exploration ticks cost whatever the explored
//! configuration delivers.

use crate::harness::{f3, print_table, TRACE_FAMILIES};
use polytm::{Kpi, TmConfig};
use recsys::{CfAlgorithm, Similarity};
use rectm::{Controller, ControllerSettings, Monitor, NormalizationChoice, Tick};
use smbo::{Acquisition, StoppingRule};
use tmsim::{corpus_with_families, MachineModel, PerfModel, WorkloadFamily, WorkloadSpec};

/// Monitor ticks (virtual seconds) per phase, in Fig. 8 and Fig. 9.
pub const PHASE_TICKS: usize = 30;

/// One Fig. 8 scenario.
pub struct Scenario {
    /// Application name.
    pub name: &'static str,
    /// The machine it runs on.
    pub machine: MachineModel,
    /// Family excluded from the training corpus (obliviousness).
    pub family: WorkloadFamily,
    /// The three phase workloads.
    pub phases: [WorkloadSpec; 3],
}

fn scenarios() -> Vec<Scenario> {
    let rbt = WorkloadFamily::RedBlackTree.base_spec();
    let sb7 = WorkloadFamily::StmBench7.base_spec();
    let tpcc = WorkloadFamily::TpcC.base_spec();
    let mem = WorkloadFamily::Memcached.base_spec();
    vec![
        Scenario {
            name: "Red-Black Tree (Machine A)",
            machine: MachineModel::machine_a(),
            family: WorkloadFamily::RedBlackTree,
            phases: [
                // Read-mostly, scalable, HTM-friendly.
                WorkloadSpec {
                    update_frac: 0.1,
                    contention: 0.1,
                    htm_fit: 0.95,
                    ..rbt
                },
                // Update-heavy with transient capacity pressure.
                WorkloadSpec {
                    update_frac: 0.9,
                    contention: 0.3,
                    htm_fit: 0.55,
                    ..rbt
                },
                // Hot keys: heavy contention.
                WorkloadSpec {
                    update_frac: 0.8,
                    contention: 0.85,
                    scalability: 0.7,
                    ..rbt
                },
            ],
        },
        Scenario {
            name: "STMBench7 (Machine A)",
            machine: MachineModel::machine_a(),
            family: WorkloadFamily::StmBench7,
            phases: [
                // Short operations dominate.
                WorkloadSpec {
                    base_tx_us: 2.0,
                    reads: 60.0,
                    writes: 10.0,
                    htm_fit: 0.8,
                    ..sb7
                },
                // The default heterogeneous mix.
                sb7,
                // Long traversals, read-mostly.
                WorkloadSpec {
                    update_frac: 0.1,
                    contention: 0.2,
                    scalability: 0.85,
                    ..sb7
                },
            ],
        },
        Scenario {
            name: "TPC-C (Machine A)",
            machine: MachineModel::machine_a(),
            family: WorkloadFamily::TpcC,
            phases: [
                // Few warehouses: hot rows, low parallelism pays.
                WorkloadSpec {
                    contention: 0.8,
                    scalability: 0.55,
                    ..tpcc
                },
                // Many warehouses: scalable.
                WorkloadSpec {
                    contention: 0.15,
                    scalability: 0.93,
                    ..tpcc
                },
                // Medium contention, smaller transactions.
                WorkloadSpec {
                    base_tx_us: 8.0,
                    reads: 120.0,
                    writes: 40.0,
                    contention: 0.45,
                    htm_fit: 0.5,
                    ..tpcc
                },
            ],
        },
        Scenario {
            name: "Memcached (Machine B)",
            machine: MachineModel::machine_b(),
            family: WorkloadFamily::Memcached,
            phases: [
                // Read-dominated, perfectly scalable.
                WorkloadSpec {
                    update_frac: 0.05,
                    contention: 0.05,
                    ..mem
                },
                // Write-heavy.
                WorkloadSpec {
                    update_frac: 0.85,
                    contention: 0.25,
                    ..mem
                },
                // Contended hot keys.
                WorkloadSpec {
                    update_frac: 0.6,
                    contention: 0.8,
                    scalability: 0.6,
                    ..mem
                },
            ],
        },
    ]
}

/// The tuner used in the online scenarios.
pub fn online_controller(
    machine: &MachineModel,
    excluded: WorkloadFamily,
    seed: u64,
) -> Controller {
    let families: Vec<WorkloadFamily> = TRACE_FAMILIES
        .iter()
        .copied()
        .filter(|f| *f != excluded)
        .chain([
            WorkloadFamily::StmBench7,
            WorkloadFamily::TpcC,
            WorkloadFamily::Memcached,
        ])
        .filter(|f| *f != excluded)
        .collect();
    let model = PerfModel::new(machine.clone());
    let corpus = corpus_with_families(&families, 90, seed);
    let space = machine.config_space();
    let rows = corpus
        .iter()
        .map(|w| {
            space
                .configs()
                .iter()
                .enumerate()
                .map(|(i, c)| Some(model.noisy_kpi(w.id, &w.spec, c, i, Kpi::Throughput, 0)))
                .collect()
        })
        .collect();
    Controller::fit(
        &recsys::UtilityMatrix::from_rows(rows),
        smbo::Goal::Maximize,
        NormalizationChoice::Distillation.build(),
        CfAlgorithm::Knn {
            similarity: Similarity::Cosine,
            k: 5,
        },
        ControllerSettings {
            acquisition: Acquisition::ExpectedImprovement,
            stopping: StoppingRule::Cautious { epsilon: 0.01 },
            n_bags: 10,
            max_explorations: 12,
            seed,
        },
    )
}

/// What one phase of an on-line run did, folded from its tick record.
pub struct PhaseFold {
    /// Mean KPI over the phase's ticks, explorations included.
    pub mean: f64,
    /// Exploration ticks in the phase.
    pub explorations: usize,
    /// The configuration of the phase's last steady tick, if any.
    pub settled: Option<TmConfig>,
}

/// The phase a tick runs in: `PHASE_TICKS` ticks each, and a round that
/// runs past the end counts in the last phase.
pub fn phase_of(tick: usize, phases: usize) -> usize {
    (tick / PHASE_TICKS).min(phases - 1)
}

/// Fold an on-line record over `configs` into `phases` phases of
/// `PHASE_TICKS` ticks.
pub fn fold_phases(record: &[Tick], configs: &[TmConfig], phases: usize) -> Vec<PhaseFold> {
    (0..phases)
        .map(|p| {
            let ticks: Vec<&Tick> = (0..record.len())
                .filter(|&t| phase_of(t, phases) == p)
                .map(|t| &record[t])
                .collect();
            PhaseFold {
                mean: ticks.iter().map(|t| t.kpi).sum::<f64>() / ticks.len().max(1) as f64,
                explorations: ticks.iter().filter(|t| t.exploring).count(),
                settled: ticks
                    .iter()
                    .rev()
                    .find(|t| !t.exploring)
                    .map(|t| configs[t.config]),
            }
        })
        .collect()
}

/// Result of simulating one scenario.
pub struct SimResult {
    /// ProteusTM's run, folded per phase.
    pub phases: Vec<PhaseFold>,
    /// The optimal configuration of each phase and its throughput.
    pub optima: [(TmConfig, f64); 3],
    /// Index of the Best-Fixed-on-Average configuration.
    pub bfa: TmConfig,
}

/// Simulate one scenario: virtual time in 1-second Monitor ticks.
pub fn simulate(scn: &Scenario, seed: u64) -> SimResult {
    let model = PerfModel::new(scn.machine.clone());
    let space = scn.machine.config_space();
    let configs = space.configs();
    let ctl = online_controller(&scn.machine, scn.family, seed);

    // Ground truth per phase.
    let truth: Vec<Vec<f64>> = scn
        .phases
        .iter()
        .map(|spec| configs.iter().map(|c| model.throughput(spec, c)).collect())
        .collect();
    let optima: [(TmConfig, f64); 3] = std::array::from_fn(|p| {
        let (i, &v) = truth[p]
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .unwrap();
        (configs[i], v)
    });
    let bfa_idx = (0..configs.len())
        .max_by(|&x, &y| {
            let mx: f64 = (0..3).map(|p| truth[p][x] / optima[p].1).sum();
            let my: f64 = (0..3).map(|p| truth[p][y] / optima[p].1).sum();
            mx.total_cmp(&my)
        })
        .unwrap();

    let record = ctl.run_online(
        &mut Monitor::with_defaults(),
        3 * PHASE_TICKS,
        &mut |idx, t| {
            let phase = phase_of(t, 3);
            model.noisy_kpi(
                9_000 + phase as u64,
                &scn.phases[phase],
                &configs[idx],
                idx,
                Kpi::Throughput,
                t as u64,
            )
        },
    );
    SimResult {
        phases: fold_phases(&record, configs, 3),
        optima,
        bfa: configs[bfa_idx],
    }
}

/// Run Figure 8 + Table 6.
pub fn run() {
    for (si, scn) in scenarios().iter().enumerate() {
        let model = PerfModel::new(scn.machine.clone());
        let space = scn.machine.config_space();
        let configs = space.configs();
        let res = simulate(scn, 0xF18 + si as u64);
        let mut rows = Vec::new();
        for p in 0..3 {
            let mut row = vec![
                format!("workload {}", p + 1),
                format!("{}", res.optima[p].0),
                f3(res.optima[p].1),
                f3(res.phases[p].mean),
                res.phases[p].settled.map_or("-".into(), |c| c.to_string()),
                res.phases[p].explorations.to_string(),
            ];
            // MDFO of each phase-optimal config evaluated in phase p, plus BFA.
            for q in 0..3 {
                let x = model.throughput(&scn.phases[p], &res.optima[q].0);
                row.push(format!("{:.0}", (1.0 - x / res.optima[p].1) * 100.0));
            }
            let bfa_idx = configs.iter().position(|c| *c == res.bfa).unwrap();
            let xbfa = model.throughput(&scn.phases[p], &configs[bfa_idx]);
            row.push(format!("{:.0}", (1.0 - xbfa / res.optima[p].1) * 100.0));
            rows.push(row);
        }
        print_table(
            &format!("Fig 8 / Table 6 — {} (BFA = {})", scn.name, res.bfa),
            &[
                "phase",
                "optimal",
                "opt thr",
                "ProteusTM thr",
                "settled",
                "expl",
                "dfo%Opt1",
                "dfo%Opt2",
                "dfo%Opt3",
                "dfo%BFA",
            ],
            &rows,
        );
    }
    println!(
        "(Shape target: ProteusTM settles within a few % of each phase\n\
         optimum after a handful of explorations, while each fixed optimum\n\
         and the BFA lose tens-to-hundreds of % in the other phases.)"
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn online_sim_settles_near_optimum() {
        let scn = &scenarios()[0];
        let res = simulate(scn, 99);
        for p in 0..3 {
            let dfo = 1.0 - res.phases[p].mean / res.optima[p].1;
            // Mean includes exploration dips; stay within 40% per phase.
            assert!(
                dfo < 0.4,
                "phase {p}: mean {} vs optimum {}",
                res.phases[p].mean,
                res.optima[p].1
            );
        }
    }

    #[test]
    fn phase_optima_are_heterogeneous() {
        for scn in scenarios() {
            let model = PerfModel::new(scn.machine.clone());
            let space = scn.machine.config_space();
            let best: Vec<usize> = scn
                .phases
                .iter()
                .map(|spec| {
                    (0..space.len())
                        .max_by(|&x, &y| {
                            model
                                .throughput(spec, &space.configs()[x])
                                .total_cmp(&model.throughput(spec, &space.configs()[y]))
                        })
                        .unwrap()
                })
                .collect();
            let distinct: std::collections::HashSet<_> = best.iter().collect();
            assert!(
                distinct.len() >= 2,
                "{}: phases should prefer different configs, got {best:?}",
                scn.name
            );
        }
    }
}
