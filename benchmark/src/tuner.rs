//! The tuner: RecTM (recsys + smbo + rectm) on the simulated Machine-A
//! space of 130 configurations. RecTM does all the work here and the TM
//! none: the cost of fitting, the cost of one decision, and the paper's
//! headline quality numbers — distance from the optimum and explorations.
//!
//! The training matrix is fixed (`corpus(60, 0xBA5E)`); the held-out
//! workloads come from `--seed`, forty fresh ones per batch, so the quality
//! numbers are exact for a seed and average over many workloads.

use crate::refkernel::RefKernel;
use crate::stats::{median, ref_ns, to_ref};
use crate::trace::{Recorder, SpanId};
use crate::world::Oracle;
use polytm::{ConfigSpace, Kpi};
use recsys::{tune_cf, Row, TuningOptions, UtilityMatrix};
use rectm::{Controller, Monitor, NormalizationChoice, RecTm, RecTmOptions, Recommender};
use smbo::{expected_improvement, Goal};
use std::hint::black_box;
use std::time::Instant;
use tmsim::{corpus, MachineModel, PerfModel, Workload};

const TRAIN_WORKLOADS: usize = 60;
const TRAIN_SEED: u64 = 0xBA5E;
/// Held-out workloads per batch, drawn by one `corpus` call.
const BATCH: usize = 40;
/// Decisions timed together: a slice of about 20 ms, like the others.
const DECISIONS_PER_SLICE: usize = 5;
/// Held-out workloads get noise identifiers the training set never uses.
const HELD_OUT_ID_BASE: u64 = 1_000_000;

pub struct TunerPlan {
    /// Timed `RecTm::offline` calls (at least one).
    pub fits: usize,
    /// Batches of forty held-out workloads; the count is fixed by the plan,
    /// not by the clock, so the quality numbers repeat exactly for a seed.
    pub batches: usize,
    /// Traced runs also time the public pieces `offline` is made of, this
    /// many times each, and the single calls a decision is made of.
    pub piece_reps: usize,
}

/// The per-layer timings of a traced run (medians over `piece_reps`).
#[derive(Default)]
pub struct Pieces {
    pub matrix_build_kref: Vec<f64>,
    pub tune_cf_kref: Vec<f64>,
    pub recommender_fit_kref: Vec<f64>,
    pub controller_fit_kref: Vec<f64>,
    pub recommend_kref: Vec<f64>,
    pub monitor_observe_ref: Vec<f64>,
    pub ei_ref: Vec<f64>,
}

pub struct TunerOutcome {
    /// One `RecTm::offline`, millions of refs, per call.
    pub fit_mref: Vec<f64>,
    /// One exploration step of `optimize_workload` (a slice's time over the
    /// configurations its decisions sampled), thousands of refs, per slice.
    /// How many steps a decision takes depends on the workload, so the time
    /// per decision varies by a quarter from slice to slice for reasons that
    /// are not noise; the time per step does not.
    pub step_kref: Vec<f64>,
    /// Distance from the optimum of every decision, percent.
    pub dfo_pct: Vec<f64>,
    /// Configurations sampled by every decision.
    pub explorations: Vec<f64>,
    pub pieces: Option<Pieces>,
}

/// The KPI of every configuration for every workload, as the model's noisy
/// measurement gives it.
fn kpi_rows(
    model: &PerfModel,
    space: &ConfigSpace,
    ws: &[Workload],
    id_base: u64,
) -> Vec<Vec<f64>> {
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

fn to_matrix(rows: &[Vec<f64>]) -> UtilityMatrix {
    UtilityMatrix::from_rows(
        rows.iter()
            .map(|r| r.iter().map(|&v| Some(v)).collect())
            .collect(),
    )
}

/// Times calls between two reference bursts, under a span when asked.
struct Timer<'a> {
    kernel: RefKernel,
    rec: &'a mut Recorder,
    root: SpanId,
}

impl Timer<'_> {
    /// The duration of `f` in refs, and its result.
    fn time<T>(&mut self, f: impl FnOnce() -> T) -> (f64, T) {
        let pre = self.kernel.burst_ns();
        let t0 = Instant::now();
        let out = f();
        let ns = t0.elapsed().as_nanos() as f64;
        let post = self.kernel.burst_ns();
        (to_ref(ns, ref_ns(&[pre, post])), out)
    }

    /// [`Self::time`] inside a span named `name` of slice `slice`.
    fn span<T>(&mut self, name: &str, slice: u32, f: impl FnOnce() -> T) -> (f64, T) {
        let span = self.rec.begin(name, self.root, slice);
        let timed = self.time(f);
        self.rec.end(span, &[]);
        timed
    }
}

pub fn run(
    seed: u64,
    plan: &TunerPlan,
    rec: &mut Recorder,
    root: SpanId,
    oracle: &mut Oracle,
) -> TunerOutcome {
    let model = PerfModel::new(MachineModel::machine_a());
    let space = model.machine().config_space();
    let ncols = space.len();
    let mut timer = Timer {
        kernel: RefKernel::new(0),
        rec,
        root,
    };
    let train_ws = corpus(TRAIN_WORKLOADS, TRAIN_SEED);
    let build = || to_matrix(&kpi_rows(&model, &space, &train_ws, 0));
    let (_, train) = timer.span("matrix_build", 0, build);

    let mut fit_mref = Vec::new();
    let mut rectm = None;
    for _ in 0..plan.fits.max(1) {
        let (refs, fitted) = timer.span("offline_fit", 0, || {
            RecTm::offline(&train, RecTmOptions::default())
        });
        fit_mref.push(refs / 1e6);
        rectm = Some(fitted);
    }
    let rectm = rectm.expect("at least one fit");

    let mut outcome = TunerOutcome {
        fit_mref,
        step_kref: Vec::new(),
        dfo_pct: Vec::new(),
        explorations: Vec::new(),
        pieces: None,
    };
    let mut sample_row = Vec::new();
    let mut slice_id = 0;
    for b in 0..plan.batches {
        let batch_seed = seed ^ 0x7E57_0000 ^ (b as u64).wrapping_mul(0x9E37_79B9);
        let held_out = corpus(BATCH, batch_seed);
        let id_base = HELD_OUT_ID_BASE + (b * BATCH) as u64;
        let truth = kpi_rows(&model, &space, &held_out, id_base);
        let mut decisions = Vec::with_capacity(BATCH);
        for rows in truth.chunks(DECISIONS_PER_SLICE) {
            slice_id += 1;
            let (refs, mut made) = timer.span("decide", slice_id, || {
                rows.iter()
                    .map(|row| rectm.optimize_workload(&mut |c| row[c]))
                    .collect::<Vec<_>>()
            });
            let steps: usize = made.iter().map(|d| d.explored.len()).sum();
            outcome.step_kref.push(refs / 1e3 / steps.max(1) as f64);
            decisions.append(&mut made);
        }
        for (row, d) in truth.iter().zip(&decisions) {
            oracle.attempted += 1;
            let finite = d.best_kpi.is_finite() && d.explored.iter().all(|(_, k)| k.is_finite());
            if d.recommended >= ncols || !finite {
                oracle.fail(
                    1,
                    format!("decision: config {} kpi {}", d.recommended, d.best_kpi),
                );
                continue;
            }
            let best = row.iter().copied().fold(f64::MIN, f64::max);
            outcome
                .dfo_pct
                .push((best - row[d.recommended]) / best * 100.0);
            outcome.explorations.push(d.explored.len() as f64);
        }
        sample_row = truth.into_iter().next().unwrap_or_default();
    }

    if plan.piece_reps > 0 {
        outcome.pieces = Some(pieces(
            &mut timer,
            &build,
            &train,
            &rectm,
            &sample_row,
            plan.piece_reps,
        ));
    }
    outcome
}

/// Time the public pieces one by one. `RecTm::offline` with default options
/// is exactly: distillation-normalise, `tune_cf`, `Recommender::fit`,
/// `Controller::fit`; whatever the whole costs beyond their sum is the
/// residual.
fn pieces(
    timer: &mut Timer,
    build: &dyn Fn() -> UtilityMatrix,
    train: &UtilityMatrix,
    rectm: &RecTm,
    sample_row: &[f64],
    reps: usize,
) -> Pieces {
    let options = RecTmOptions::default();
    let goal = Goal::Maximize;
    let mut p = Pieces::default();
    // With a maximisation goal the score matrix is the KPI matrix itself.
    let mut norm = NormalizationChoice::Distillation.build();
    norm.fit(train);
    let ratings = norm.transform_matrix(train);
    // A decision in progress: the reference configuration and four others.
    let mut known: Row = vec![None; sample_row.len()];
    let reference = rectm.recommender().reference_col().unwrap_or(0);
    for c in [reference, 7, 31, 64, 101] {
        if let Some(k) = sample_row.get(c) {
            known[c] = Some(*k);
        }
    }
    const RECOMMENDS: usize = 200;
    const SINGLE_CALLS: usize = 20_000;
    for _ in 0..reps {
        let (refs, _) = timer.span("matrix_build", 0, || black_box(build()));
        p.matrix_build_kref.push(refs / 1e3);

        let (refs, report) = timer.span("tune_cf", 0, || {
            tune_cf(&ratings, &TuningOptions::default())
        });
        p.tune_cf_kref.push(refs / 1e3);

        let (refs, _) = timer.span("recommender_fit", 0, || {
            Recommender::fit(train, goal, options.normalization.build(), report.best)
        });
        p.recommender_fit_kref.push(refs / 1e3);

        let (refs, _) = timer.span("controller_fit", 0, || {
            Controller::fit(
                train,
                goal,
                options.normalization.build(),
                report.best,
                options.controller,
            )
        });
        p.controller_fit_kref.push(refs / 1e3);

        let (refs, _) = timer.time(|| {
            for _ in 0..RECOMMENDS {
                black_box(rectm.recommender().recommend(black_box(&known)));
            }
        });
        p.recommend_kref.push(refs / 1e3 / RECOMMENDS as f64);

        let mut monitor: Monitor = rectm.monitor();
        let (refs, _) = timer.time(|| {
            // A steady KPI with a small deterministic ripple: no alarm.
            for i in 0..SINGLE_CALLS {
                black_box(monitor.observe(1000.0 + (i % 7) as f64));
            }
        });
        p.monitor_observe_ref.push(refs / SINGLE_CALLS as f64);

        let (refs, _) = timer.time(|| {
            for i in 0..SINGLE_CALLS {
                let mu = 0.5 + (i % 100) as f64 * 0.01;
                black_box(expected_improvement(black_box(mu), 0.2, 1.0, goal));
            }
        });
        p.ei_ref.push(refs / SINGLE_CALLS as f64);
    }
    p
}

/// `rectm.offline_residual_pct`: the share of one whole `RecTm::offline`
/// that the sum of its separately timed pieces does not account for.
pub fn offline_residual_pct(outcome: &TunerOutcome) -> f64 {
    let Some(p) = &outcome.pieces else {
        return f64::NAN;
    };
    let whole = median(&outcome.fit_mref) * 1e3;
    let sum =
        median(&p.tune_cf_kref) + median(&p.recommender_fit_kref) + median(&p.controller_fit_kref);
    (whole - sum) / whole * 100.0
}
