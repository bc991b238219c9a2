//! Figure 4: rating distillation vs the baseline normalizations — MAPE and
//! MDFO as a function of the number of randomly sampled configurations
//! (KNN-cosine, execution time, Machine A).

use crate::harness::{f3, print_table, Bench};
use polytm::Kpi;
use rand::rngs::StdRng;
use rand::SeedableRng;
use recsys::{mape, CfAlgorithm, MfParams, Row, Similarity, UtilityMatrix};
use rectm::{NormalizationChoice, Recommender};
use smbo::Goal;
use tmsim::MachineModel;

const KNOWN_COUNTS: [usize; 5] = [2, 3, 5, 10, 20];

fn knn() -> CfAlgorithm {
    CfAlgorithm::Knn {
        similarity: Similarity::Cosine,
        k: 5,
    }
}

fn mf() -> CfAlgorithm {
    CfAlgorithm::Mf(MfParams {
        factors: 8,
        learning_rate: 0.02,
        regularization: 0.05,
        epochs: 100,
        seed: 4,
    })
}

/// Evaluate one scheme: per test row and sample size, hide all but `k`
/// random columns, predict the rest, and measure MAPE (on the KPI scale)
/// and DFO of the recommendation.
struct SchemeResult {
    mape_by_k: Vec<f64>,
    mdfo_by_k: Vec<f64>,
}

fn eval_scheme(
    bench: &Bench,
    choice: NormalizationChoice,
    algo: CfAlgorithm,
    train: &[usize],
    test: &[usize],
) -> SchemeResult {
    // The "ideal" oracle pre-normalizes every row by its true optimum; the
    // result is already a rating matrix, so it trains with no normalizer.
    // MAPE/MDFO are invariant under the per-row scaling, so evaluating in
    // the pre-normalized space is exact.
    let ideal = choice == NormalizationChoice::Ideal;
    let score_of = |row: usize, col: usize| -> f64 {
        let v = bench.truth[row][col];
        if ideal {
            // Minimization KPI: speed relative to the row's true best.
            bench.best_kpi(row) / v
        } else {
            v
        }
    };
    let goal = if ideal { Goal::Maximize } else { bench.goal };
    let training = UtilityMatrix::from_rows(
        train
            .iter()
            .map(|&r| {
                (0..bench.configs.len())
                    .map(|c| Some(score_of(r, c)))
                    .collect()
            })
            .collect(),
    );
    let normalizer = if ideal {
        NormalizationChoice::None.build()
    } else {
        choice.build()
    };
    let rec = Recommender::fit(&training, goal, normalizer, algo);
    let forced = rec.reference_col();

    let mut mape_by_k = Vec::new();
    let mut mdfo_by_k = Vec::new();
    for (ki, &k) in KNOWN_COUNTS.iter().enumerate() {
        // Every test workload's evaluation is independent (its column
        // sample is seeded from `(ki, ti)`), so it runs on the parx pool;
        // the metric folds below then consume the per-row results in test
        // order, keeping the tables bit-identical at every job count.
        type RowEval = (Vec<(f64, f64)>, Option<f64>);
        let per_row: Vec<RowEval> = parx::par_map_indexed(test.len(), |ti| {
            let row = test[ti];
            let mut rng = StdRng::seed_from_u64((ki * 10_007 + ti) as u64);
            let cols = bench.sample_columns(k, forced, &mut rng);
            let known: Row = {
                let mut out: Row = vec![None; bench.configs.len()];
                for &c in &cols {
                    out[c] = Some(score_of(row, c));
                }
                out
            };
            let pred = rec.predict_kpis(&known);
            let mut pairs = Vec::new();
            for c in 0..bench.configs.len() {
                if known[c].is_none() {
                    if let Some(p) = pred[c] {
                        pairs.push((score_of(row, c), p));
                    }
                }
            }
            // Recommendation quality: DFO of the predicted-best column.
            let dfo = rec.recommend(&known).map(|best| bench.dfo(row, best));
            (pairs, dfo)
        });
        let pairs: Vec<(f64, f64)> = per_row
            .iter()
            .flat_map(|(p, _)| p.iter().copied())
            .collect();
        let dfos: Vec<f64> = per_row.iter().filter_map(|(_, d)| *d).collect();
        mape_by_k.push(mape(&pairs));
        mdfo_by_k.push(if dfos.is_empty() {
            f64::NAN
        } else {
            dfos.iter().sum::<f64>() / dfos.len() as f64
        });
    }
    SchemeResult {
        mape_by_k,
        mdfo_by_k,
    }
}

/// Run Figure 4 with a corpus of `n` workloads.
pub fn run_with(n: usize) {
    let bench = Bench::new(MachineModel::machine_a(), Kpi::ExecTime, n, 0xF164);
    let (train, test) = bench.split(0.3, 42);
    let headers = ["normalization", "k=2", "k=3", "k=5", "k=10", "k=20"];
    for (algo_name, algo) in [("KNN cosine", knn()), ("MF-SGD", mf())] {
        let mut mape_rows = Vec::new();
        let mut mdfo_rows = Vec::new();
        for choice in NormalizationChoice::ALL {
            let res = eval_scheme(&bench, choice, algo, &train, &test);
            let label = choice.label().to_string();
            let mut r1 = vec![label.clone()];
            r1.extend(res.mape_by_k.iter().map(|v| f3(*v)));
            mape_rows.push(r1);
            let mut r2 = vec![label];
            r2.extend(res.mdfo_by_k.iter().map(|v| f3(*v)));
            mdfo_rows.push(r2);
        }
        print_table(
            &format!(
                "Fig 4a — MAPE vs #sampled configurations ({algo_name}, exec time, Machine A)"
            ),
            &headers,
            &mape_rows,
        );
        print_table(
            &format!("Fig 4b — MDFO vs #sampled configurations ({algo_name})"),
            &headers,
            &mdfo_rows,
        );
    }
    println!(
        "(Shape target: no-norm and norm-wrt-max are far worse; RC sits in\n\
         between; distillation tracks the ideal oracle closely. Under\n\
         KNN-cosine, the similarity and the weighted average cancel\n\
         norm-wrt-max's one global constant, but not its inversion: it\n\
         rates scores (1 / exec time), no-norm rates raw exec times, and\n\
         that alone separates the two rows. MF over raw KPIs diverges\n\
         (NaN) — SGD over-fits the largest-scale rows, exactly the failure\n\
         mode §5.1 describes.)"
    );
}

/// Run Figure 4 at the paper's corpus size.
pub fn run() {
    run_with(300);
}
