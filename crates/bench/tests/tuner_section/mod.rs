//! The benchmark's tuner section (`benchmark/src/tuner.rs`): the training
//! corpus on Machine A, and held-out workloads under noise ids training
//! never uses.

use polytm::Kpi;
use recsys::UtilityMatrix;
use tmsim::{corpus, MachineModel, PerfModel, Workload};

const TRAIN_WORKLOADS: usize = 60;
const TRAIN_SEED: u64 = 0xBA5E;
/// Held-out workloads of one batch.
const HELD_OUT: usize = 40;
const HELD_OUT_SEED: u64 = 0x7E57_0005;
const HELD_OUT_ID_BASE: u64 = 1_000_000;

fn kpi_rows(model: &PerfModel, ws: &[Workload], id_base: u64) -> Vec<Vec<f64>> {
    let space = model.machine().config_space();
    ws.iter()
        .map(|w| {
            space
                .configs()
                .iter()
                .enumerate()
                .map(|(i, c)| model.noisy_kpi(id_base + w.id, &w.spec, c, i, Kpi::Throughput, 0))
                .collect()
        })
        .collect()
}

/// The training matrix and, per held-out workload, the KPI of every
/// configuration.
pub fn train_and_truth() -> (UtilityMatrix, Vec<Vec<f64>>) {
    let model = PerfModel::new(MachineModel::machine_a());
    let train = UtilityMatrix::from_rows(
        kpi_rows(&model, &corpus(TRAIN_WORKLOADS, TRAIN_SEED), 0)
            .into_iter()
            .map(|row| row.into_iter().map(Some).collect())
            .collect(),
    );
    let truth = kpi_rows(&model, &corpus(HELD_OUT, HELD_OUT_SEED), HELD_OUT_ID_BASE);
    (train, truth)
}
