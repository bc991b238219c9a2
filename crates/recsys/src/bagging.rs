//! Bagging ensembles of CF predictors (paper §5.2).
//!
//! The Controller needs a *probabilistic* model: it estimates the predictive
//! mean µ and variance σ² of each candidate configuration as frequentist
//! statistics over an ensemble of CF learners, each trained on a random
//! subset of the training rows (Breiman-style bagging).

use crate::knn::{weighted_mean, KnnModel, Ranking};
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
    /// columns. Only a column that some prefix row leaves unrated makes a
    /// member walk its whole ranking.
    pub fn predict_stats(&self, known: &Row) -> Vec<Option<(f64, f64)>> {
        if obs::enabled() {
            obs::counter("recsys.bagging.predictions").inc();
        }
        match &self.members {
            Members::Knn { model, samples } => {
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
                            shared.push(Shared::new(model, known, &prefix));
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

/// What the KNN members with one prefix share.
struct Shared {
    /// The prefix's training rows, in ranking order.
    rows: Vec<usize>,
    /// Known entries, and the prefix's average of every column all its rows
    /// rate; the `walk` columns are left for each member to fill.
    prediction: Prediction,
    /// The unknown columns some prefix row leaves unrated.
    walk: Vec<usize>,
}

impl Shared {
    /// The prediction of a prefix given as `(similarity, row)`.
    fn new(model: &KnnModel, known: &Row, prefix: &[(f64, usize)]) -> Self {
        let training = model.training();
        let ncols = training.ncols();
        // A column every prefix row rates has the whole prefix as its
        // neighbours, so all such columns share `KnnModel::average`'s
        // weight sum.
        let wsum: f64 = prefix.iter().map(|&(sim, _)| sim.abs()).sum();
        let mut prediction = Prediction::new(ncols);
        let mut walk = Vec::new();
        for c in 0..ncols {
            match known.get(c).copied().flatten() {
                Some(v) => prediction.set(c, Some(v)),
                None if prefix.iter().all(|&(_, r)| training.row(r)[c].is_some()) => {
                    let rated = prefix
                        .iter()
                        .filter_map(|&(sim, r)| training.row(r)[c].map(|rating| (sim, rating)));
                    prediction.set(c, weighted_mean(wsum, rated));
                }
                None => walk.push(c),
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
