//! Bagging ensembles of CF predictors (paper §5.2).
//!
//! The Controller needs a *probabilistic* model: it estimates the predictive
//! mean µ and variance σ² of each candidate configuration as frequentist
//! statistics over an ensemble of CF learners, each trained on a random
//! subset of the training rows (Breiman-style bagging).

use crate::knn::{KnnModel, Ranking};
use crate::matrix::{Row, UtilityMatrix};
use crate::mf::MfModel;
use crate::predictor::CfAlgorithm;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// An ensemble of identically-configured CF learners trained on bootstrap
/// samples of the training rows.
#[derive(Debug, Clone)]
pub struct BaggingEnsemble {
    members: Members,
}

#[derive(Debug, Clone)]
enum Members {
    /// A KNN member *is* its training rows, so the members share one model
    /// over the training matrix and each keeps only its bootstrap sample.
    Knn {
        model: KnnModel,
        dense: DenseRows,
        samples: Vec<Sample>,
    },
    /// MF members are fitted models, one per bootstrap sample.
    Mf(Vec<MfModel>),
}

impl BaggingEnsemble {
    /// Fit `n_members` learners (the paper uses 10), each on a bootstrap
    /// sample (sampling rows with replacement) of `training`.
    ///
    /// The bootstrap row indices for every member are drawn serially from
    /// one seeded RNG — the exact stream a fully serial fit would draw. KNN
    /// members keep them and share one copy of the rows; MF members are
    /// fitted on the [`parx`] pool (independent fits of milliseconds), so
    /// the ensemble is bit-identical at every job count.
    pub fn fit(
        training: &UtilityMatrix,
        algorithm: CfAlgorithm,
        n_members: usize,
        seed: u64,
    ) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let nrows = training.nrows();
        let bootstraps: Vec<Vec<usize>> = (0..n_members.max(1))
            .map(|_| (0..nrows).map(|_| rng.gen_range(0..nrows)).collect())
            .collect();
        let members = match algorithm {
            // Built by `from_rows`, as a member's own sample matrix would
            // be, so that a matrix with no rows also predicts no columns.
            CfAlgorithm::Knn { similarity, k } => Members::Knn {
                model: KnnModel::fit(
                    UtilityMatrix::from_rows(training.rows().to_vec()),
                    similarity,
                    k,
                ),
                dense: DenseRows::new(training),
                samples: bootstraps.iter().map(|b| Sample::new(b, nrows)).collect(),
            },
            CfAlgorithm::Mf(params) => Members::Mf(parx::par_map(&bootstraps, |sample| {
                let rows: Vec<Row> = sample.iter().map(|&r| training.row(r).clone()).collect();
                MfModel::fit(&UtilityMatrix::from_rows(rows), params)
            })),
        };
        BaggingEnsemble { members }
    }

    /// Number of ensemble members.
    pub fn len(&self) -> usize {
        match &self.members {
            Members::Knn { samples, .. } => samples.len(),
            Members::Mf(models) => models.len(),
        }
    }

    /// Whether the ensemble has no members (never true once fitted).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Predictive mean and variance per column for a workload with the
    /// given known ratings. Columns no member can predict are `None`.
    ///
    /// Each member's prediction is folded into the per-column moments
    /// (Welford) in member order, on the calling thread: this runs between
    /// every two samples of an exploration, and a member predicts in
    /// microseconds — less than spawning the [`parx`] pool's threads costs.
    /// While every prediction covers every column (always, on a complete
    /// matrix) the fold is one pass over plain `f64`s with one count per
    /// member.
    ///
    /// KNN members rank the query's neighbourhood together. Every training
    /// row's similarity is computed once, and the rows are sorted by
    /// |similarity| once. A member's ranking is that ranking's groups of
    /// equal |similarity| in order, each group's rows in the order the member
    /// drew them, repeats included: exactly the stable sort by |similarity|
    /// the member would make of its own rows (DESIGN.md §5). Its *prefix* —
    /// the first `k` rows of its ranking, found by walking the shared ranking
    /// until `k` are taken — are the neighbours of every column all of them
    /// rate, so members with the same prefix share one prediction of those
    /// columns, made in one pass over the prefix rows' dense copies. Only a
    /// column that some prefix row leaves unrated makes a member walk its
    /// whole ranking.
    pub fn predict_stats(&self, known: &Row) -> Vec<Option<(f64, f64)>> {
        if obs::enabled() {
            obs::counter("recsys.bagging.predictions").inc();
        }
        match &self.members {
            Members::Knn {
                model,
                dense,
                samples,
            } => {
                let training = model.training();
                let ranking = model.rank_by(known, |r, _| r);
                let k = model.k();
                let mut moments = Moments::new(training.ncols());
                let mut shared: Vec<Shared> = Vec::new();
                // A member's prefix, its whole ranking when it walks, as
                // `(similarity, row)`, and a walk's scratch.
                let mut prefix = Vec::with_capacity(k);
                let mut all = Vec::new();
                let mut group = Vec::new();
                let mut member: Ranking = Vec::new();
                // Ranked rows looked at to find the members' prefixes.
                let mut scanned = 0;
                for sample in samples {
                    scanned += sample.walk(&ranking, k, &mut prefix, &mut group);
                    let s = match shared
                        .iter()
                        .position(|s| s.rows.iter().eq(prefix.iter().map(|(_, r)| r)))
                    {
                        Some(i) => &shared[i],
                        None => {
                            shared.push(Shared::new(dense, known, &prefix));
                            &shared[shared.len() - 1]
                        }
                    };
                    if s.walk.is_empty() {
                        moments.fold(&s.prediction);
                        continue;
                    }
                    sample.walk(&ranking, usize::MAX, &mut all, &mut group);
                    member.clear();
                    member.extend(all.iter().map(|&(sim, r)| (sim, training.row(r))));
                    let mut walked = s.prediction.clone();
                    for &c in &s.walk {
                        walked.set(c, model.average(&member, c));
                    }
                    moments.fold(&walked);
                }
                if obs::enabled() {
                    obs::counter("recsys.bagging.prefixes").add(shared.len() as u64);
                    obs::counter("recsys.bagging.scanned").add(scanned as u64);
                }
                moments.finish()
            }
            Members::Mf(models) => {
                let mut predictions = models
                    .iter()
                    .map(|m| Prediction::from_row(&m.predict_row(known)))
                    .peekable();
                let mut moments = Moments::new(predictions.peek().map_or(0, |p| p.values.len()));
                predictions.for_each(|p| moments.fold(&p));
                moments.finish()
            }
        }
    }

    /// Ensemble-mean prediction per column (ignoring variance).
    pub fn predict_row(&self, known: &Row) -> Row {
        self.predict_stats(known)
            .into_iter()
            .map(|s| s.map(|(m, _)| m))
            .collect()
    }
}

/// A KNN member's bootstrap sample, by training row: the positions at
/// which each row was drawn, in draw order.
#[derive(Debug, Clone)]
struct Sample {
    /// Row `r`'s positions are `positions[start[r]..start[r + 1]]`.
    start: Vec<usize>,
    positions: Vec<usize>,
}

impl Sample {
    /// Index a bootstrap of row indices below `nrows` (a counting sort).
    fn new(bootstrap: &[usize], nrows: usize) -> Self {
        let mut start = vec![0; nrows + 1];
        for &r in bootstrap {
            start[r + 1] += 1;
        }
        for r in 0..nrows {
            start[r + 1] += start[r];
        }
        let mut next = start.clone();
        let mut positions = vec![0; bootstrap.len()];
        for (p, &r) in bootstrap.iter().enumerate() {
            positions[next[r]] = p;
            next[r] += 1;
        }
        Sample { start, positions }
    }

    fn positions(&self, r: usize) -> &[usize] {
        &self.positions[self.start[r]..self.start[r + 1]]
    }

    /// The first `limit` entries of this member's ranking into `out`, as
    /// `(similarity, row)`, given the shared `ranking` of the training rows
    /// (stable by |similarity|). Each group of equal |similarity| in it
    /// contributes its rows in the order of their positions here, each as
    /// often as it was drawn. Returns the ranked rows looked at.
    fn walk(
        &self,
        ranking: &[(f64, usize)],
        limit: usize,
        out: &mut Vec<(f64, usize)>,
        group: &mut Vec<(usize, f64, usize)>,
    ) -> usize {
        out.clear();
        let mut i = 0;
        while i < ranking.len() && out.len() < limit {
            let abs = ranking[i].0.abs();
            let end = i + ranking[i..]
                .iter()
                .position(|(sim, _)| sim.abs().total_cmp(&abs).is_ne())
                .unwrap_or(ranking.len() - i);
            let room = limit - out.len();
            if end == i + 1 {
                // One row: each draw of it, in any order.
                let (sim, r) = ranking[i];
                let drawn = self.positions(r).len();
                out.extend(std::iter::repeat_n((sim, r), drawn.min(room)));
            } else {
                group.clear();
                for &(sim, r) in &ranking[i..end] {
                    group.extend(self.positions(r).iter().map(|&p| (p, sim, r)));
                }
                // Positions are unique: an unstable sort is the same order.
                group.sort_unstable_by_key(|&(p, _, _)| p);
                out.extend(group.iter().take(room).map(|&(_, sim, r)| (sim, r)));
            }
            i = end;
        }
        i
    }
}

/// The training ratings as one row-major block, 0.0 where a rating is
/// unrated, and each row's unrated columns (none on a complete matrix).
#[derive(Debug, Clone)]
struct DenseRows {
    ncols: usize,
    ratings: Vec<f64>,
    unrated: Vec<Vec<usize>>,
}

impl DenseRows {
    fn new(training: &UtilityMatrix) -> Self {
        let rows = training.rows();
        // Sized up front: a flattened iterator would grow it step by step.
        let mut ratings = Vec::with_capacity(rows.len() * training.ncols());
        ratings.extend(rows.iter().flatten().map(|v| v.unwrap_or(0.0)));
        DenseRows {
            ncols: training.ncols(),
            ratings,
            unrated: rows
                .iter()
                .map(|row| (0..row.len()).filter(|&c| row[c].is_none()).collect())
                .collect(),
        }
    }

    fn row(&self, r: usize) -> &[f64] {
        &self.ratings[r * self.ncols..(r + 1) * self.ncols]
    }
}

/// What the KNN members with one prefix share.
struct Shared {
    /// The prefix's training rows, in ranking order.
    rows: Vec<usize>,
    /// Known entries, and the prefix's average of every column all its rows
    /// rate; the `walk` columns are left for each member to fill.
    prediction: Prediction,
    /// The unknown columns some prefix row leaves unrated, ascending.
    walk: Vec<usize>,
}

impl Shared {
    /// The prediction of a prefix given as `(similarity, row)`.
    ///
    /// A column every prefix row rates has the whole prefix as its
    /// neighbours, so every column is summed in one pass per prefix row:
    /// from `-0.0`, adding `sim · rating` in prefix order, then divided by
    /// the prefix's `Σ|sim|` — exactly `KnnModel::average`'s `Sum<f64>`,
    /// which folds from `-0.0` in iterator order (DESIGN.md §5). A column
    /// some prefix row leaves unrated sums that row's 0.0 too; it is a
    /// `walk` column, which every member that reads this prefix overwrites.
    fn new(dense: &DenseRows, known: &Row, prefix: &[(f64, usize)]) -> Self {
        let ncols = dense.ncols;
        let unknown = |c: usize| known.get(c).copied().flatten().is_none();
        let mut walk: Vec<usize> = prefix
            .iter()
            .flat_map(|&(_, r)| &dense.unrated[r])
            .copied()
            .filter(|&c| unknown(c))
            .collect();
        walk.sort_unstable();
        walk.dedup();
        let mut values = vec![-0.0; ncols];
        for &(sim, r) in prefix {
            for (v, &rating) in values.iter_mut().zip(dense.row(r)) {
                *v += sim * rating;
            }
        }
        let wsum: f64 = prefix.iter().map(|&(sim, _)| sim.abs()).sum();
        for v in &mut values {
            *v /= wsum;
        }
        let mut prediction = Prediction {
            values,
            gaps: Vec::new(),
        };
        // `weighted_mean`'s `None`: no weight to average by.
        if wsum < 1e-12 {
            for c in (0..ncols).filter(|&c| unknown(c) && walk.binary_search(&c).is_err()) {
                prediction.set(c, None);
            }
        }
        for (c, &v) in known.iter().take(ncols).enumerate() {
            if let Some(v) = v {
                prediction.set(c, Some(v));
            }
        }
        Shared {
            rows: prefix.iter().map(|&(_, r)| r).collect(),
            prediction,
            walk,
        }
    }
}

/// One member's prediction: a plain value per column, and the columns it
/// leaves unpredicted.
#[derive(Clone)]
struct Prediction {
    values: Vec<f64>,
    /// Per column, whether it is unpredicted; empty while none is.
    gaps: Vec<bool>,
}

impl Prediction {
    /// Every column predicted, as 0.
    fn new(ncols: usize) -> Self {
        Prediction {
            values: vec![0.0; ncols],
            gaps: Vec::new(),
        }
    }

    fn from_row(row: &[Option<f64>]) -> Self {
        let mut p = Prediction::new(row.len());
        for (c, &v) in row.iter().enumerate() {
            p.set(c, v);
        }
        p
    }

    fn set(&mut self, c: usize, v: Option<f64>) {
        match v {
            Some(v) => {
                self.values[c] = v;
                if let Some(gap) = self.gaps.get_mut(c) {
                    *gap = false;
                }
            }
            None => {
                if self.gaps.is_empty() {
                    self.gaps = vec![false; self.values.len()];
                }
                self.gaps[c] = true;
            }
        }
    }
}

/// Per-column count, mean and sum of squared deviations of the members'
/// predictions, folded one prediction at a time (Welford).
struct Moments {
    /// Predictions folded: every column's count until one has a gap.
    folded: u32,
    /// Per-column counts from the first prediction with a gap on; empty
    /// until then.
    count: Vec<u32>,
    mean: Vec<f64>,
    m2: Vec<f64>,
}

impl Moments {
    fn new(ncols: usize) -> Self {
        Moments {
            folded: 0,
            count: Vec::new(),
            mean: vec![0.0; ncols],
            m2: vec![0.0; ncols],
        }
    }

    fn fold(&mut self, p: &Prediction) {
        self.folded += 1;
        if self.count.is_empty() && p.gaps.is_empty() {
            let n = f64::from(self.folded);
            for ((&v, mean), m2) in p.values.iter().zip(&mut self.mean).zip(&mut self.m2) {
                let delta = v - *mean;
                *mean += delta / n;
                *m2 += delta * (v - *mean);
            }
            return;
        }
        if self.count.is_empty() {
            self.count = vec![self.folded - 1; self.mean.len()];
        }
        for (c, &v) in p.values.iter().enumerate() {
            if p.gaps.get(c) != Some(&true) {
                self.count[c] += 1;
                let delta = v - self.mean[c];
                self.mean[c] += delta / f64::from(self.count[c]);
                self.m2[c] += delta * (v - self.mean[c]);
            }
        }
    }

    /// Mean and population variance per column; `None` where no member
    /// predicted.
    fn finish(self) -> Vec<Option<(f64, f64)>> {
        (0..self.mean.len())
            .map(|c| {
                let n = self.count.get(c).copied().unwrap_or(self.folded);
                (n > 0).then(|| (self.mean[c], self.m2[c] / f64::from(n)))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::knn::Similarity;

    fn training() -> UtilityMatrix {
        UtilityMatrix::from_rows(
            (1..=10)
                .map(|r| (1..=5).map(|c| Some(r as f64 * c as f64 * 0.1)).collect())
                .collect(),
        )
    }

    #[test]
    fn ensemble_reports_mean_and_variance() {
        let e = BaggingEnsemble::fit(
            &training(),
            CfAlgorithm::Knn {
                similarity: Similarity::Cosine,
                k: 3,
            },
            10,
            7,
        );
        assert_eq!(e.len(), 10);
        let stats = e.predict_stats(&vec![Some(0.2), Some(0.4), None, None, None]);
        let (mean, var) = stats[4].expect("predictable column");
        assert!(mean > 0.0);
        assert!(var >= 0.0);
    }

    #[test]
    fn known_columns_have_zero_variance() {
        let e = BaggingEnsemble::fit(
            &training(),
            CfAlgorithm::Knn {
                similarity: Similarity::Cosine,
                k: 3,
            },
            5,
            1,
        );
        let stats = e.predict_stats(&vec![Some(0.3), None, None, None, None]);
        let (mean, var) = stats[0].unwrap();
        assert_eq!(mean, 0.3, "known entries pass through every member");
        assert_eq!(var, 0.0);
    }

    /// `Shared::new` against `KnnModel::average` over the prefix, bit for
    /// bit and per column (the ensemble's fold would hide the sign of a
    /// zero): a zero rating under a negative similarity must stay `-0.0`,
    /// a prefix of weight below 1e-12 leaves gaps, and a column some
    /// prefix row leaves unrated is walked, not averaged.
    #[test]
    fn prefix_pass_matches_average() {
        let mut rng = StdRng::seed_from_u64(0x5EED);
        let value = |rng: &mut StdRng| match rng.gen_range(0..6) {
            0 => 0.0,
            1 => -0.0,
            _ => rng.gen_range(-5.0..5.0),
        };
        let mut negative_zero = 0;
        for case in 0..400 {
            let ncols = rng.gen_range(1..=8);
            let training = UtilityMatrix::from_rows(
                (0..rng.gen_range(1..=6))
                    .map(|_| {
                        (0..ncols)
                            .map(|_| rng.gen_bool(0.85).then(|| value(&mut rng)))
                            .collect()
                    })
                    .collect(),
            );
            let known: Row = (0..ncols)
                .map(|_| rng.gen_bool(0.3).then(|| value(&mut rng)))
                .collect();
            let prefix: Vec<(f64, usize)> = (0..rng.gen_range(0..=3))
                .map(|_| {
                    let sim = match rng.gen_range(0..5) {
                        0 => 0.0,
                        1 => rng.gen_range(-1e-13..1e-13),
                        _ => rng.gen_range(-1.0..1.0),
                    };
                    (sim, rng.gen_range(0..training.nrows()))
                })
                .collect();
            let shared = Shared::new(&DenseRows::new(&training), &known, &prefix);
            let model = KnnModel::fit(training.clone(), Similarity::Cosine, prefix.len());
            let ranking: Vec<(f64, &Row)> = prefix
                .iter()
                .map(|&(sim, r)| (sim, training.row(r)))
                .collect();
            for c in 0..ncols {
                let walked =
                    known[c].is_none() && prefix.iter().any(|&(_, r)| training.get(r, c).is_none());
                assert_eq!(shared.walk.contains(&c), walked, "case {case} column {c}");
                if walked {
                    continue;
                }
                let want = known[c].or_else(|| model.average(&ranking, c));
                let gap = shared.prediction.gaps.get(c) == Some(&true);
                let got = (!gap).then(|| shared.prediction.values[c]);
                assert_eq!(
                    got.map(f64::to_bits),
                    want.map(f64::to_bits),
                    "case {case} column {c}: prefix {prefix:?}, known {known:?}, training {training:?}"
                );
                negative_zero += usize::from(
                    known[c].is_none() && want.is_some_and(|v| v.to_bits() == (-0.0f64).to_bits()),
                );
            }
        }
        assert!(
            negative_zero >= 20,
            "a -0.0 average in only {negative_zero} columns"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let algo = CfAlgorithm::Knn {
            similarity: Similarity::Pearson,
            k: 2,
        };
        let a = BaggingEnsemble::fit(&training(), algo, 4, 99).predict_row(&vec![
            Some(0.1),
            Some(0.2),
            None,
            None,
            None,
        ]);
        let b = BaggingEnsemble::fit(&training(), algo, 4, 99).predict_row(&vec![
            Some(0.1),
            Some(0.2),
            None,
            None,
            None,
        ]);
        assert_eq!(a, b);
    }
}
