//! RecTM's decisions are pinned: for the benchmark's training matrix and
//! forty held-out workloads, every sampled configuration, every sampled
//! KPI and every recommendation — under each normalization and each
//! model-driven acquisition policy — must stay what it was when the
//! constants below were recorded. A change to the learning path that is
//! meant to be behaviour-preserving (a faster kernel, a reused buffer)
//! passes this test unmodified; one that moves a prediction by one ulp
//! somewhere in 600 explorations almost surely does not.

mod tuner_section;

use rectm::{ControllerSettings, Exploration, NormalizationChoice, RecTm, RecTmOptions};
use smbo::Acquisition;

/// The model-driven acquisition policies (Random consults no prediction).
const ACQUISITIONS: [Acquisition; 3] = [
    Acquisition::ExpectedImprovement,
    Acquisition::Variance,
    Acquisition::Greedy,
];

/// Per normalization, the FNV-1a of its forty explorations under each of
/// [`ACQUISITIONS`], recorded at the commit that introduced this test.
const RECORDED: [(NormalizationChoice, [u64; 3]); 5] = [
    (
        NormalizationChoice::None,
        [
            0x60AA_1448_3556_DC83,
            0xB2D3_9F94_C607_4364,
            0xD035_C137_CCBE_AE26,
        ],
    ),
    (
        NormalizationChoice::GlobalMax,
        [
            0x60AA_1448_3556_DC83,
            0xB2D3_9F94_C607_4364,
            0xD035_C137_CCBE_AE26,
        ],
    ),
    (
        NormalizationChoice::Rc,
        [
            0x7F51_7D98_096F_6D09,
            0xC5EF_3E79_148D_D2AA,
            0x129A_F43F_4FEF_9639,
        ],
    ),
    (
        NormalizationChoice::Ideal,
        [
            0xA872_3674_B2F2_43B6,
            0x5F4A_42E6_51FD_A196,
            0x5A5E_62A1_7B1C_431D,
        ],
    ),
    (
        NormalizationChoice::Distillation,
        [
            0x3018_DA20_D155_AB27,
            0x4DFD_3C84_9F41_1684,
            0xD4C5_CF72_A861_33DC,
        ],
    ),
];

fn fnv(hash: &mut u64, word: u64) {
    for byte in word.to_le_bytes() {
        *hash = (*hash ^ byte as u64).wrapping_mul(0x0000_0100_0000_01B3);
    }
}

fn hash_decisions(decisions: &[Exploration]) -> u64 {
    let mut hash = 0xCBF2_9CE4_8422_2325;
    for d in decisions {
        fnv(&mut hash, d.explored.len() as u64);
        for &(config, kpi) in &d.explored {
            fnv(&mut hash, config as u64);
            fnv(&mut hash, kpi.to_bits());
        }
        fnv(&mut hash, d.recommended as u64);
        fnv(&mut hash, d.best_kpi.to_bits());
    }
    hash
}

#[test]
fn decisions_match_the_recorded_hashes() {
    let (train, truth) = tuner_section::train_and_truth();

    let mut lines = Vec::new();
    for (normalization, recorded) in RECORDED {
        // The CF algorithm depends on the normalization only: the first
        // `offline` tunes it (as the benchmark's does), the others pin it.
        let mut algorithm = None;
        for (acquisition, recorded) in ACQUISITIONS.into_iter().zip(recorded) {
            let rectm = RecTm::offline(
                &train,
                RecTmOptions {
                    normalization,
                    controller: ControllerSettings {
                        acquisition,
                        ..ControllerSettings::default()
                    },
                    fixed_algorithm: algorithm,
                    ..RecTmOptions::default()
                },
            );
            algorithm = Some(rectm.algorithm());
            let decisions: Vec<Exploration> = truth
                .iter()
                .map(|row| rectm.optimize_workload(&mut |c| row[c]))
                .collect();
            let hash = hash_decisions(&decisions);
            let verdict = if hash == recorded { "ok" } else { "MOVED" };
            lines.push(format!(
                "{verdict:5} {normalization:?} / {acquisition:?} ({}): {hash:#018X}, recorded {recorded:#018X}",
                rectm.algorithm()
            ));
        }
    }
    assert!(
        lines.iter().all(|l| l.starts_with("ok")),
        "RecTM decisions moved:\n{}",
        lines.join("\n")
    );
}
