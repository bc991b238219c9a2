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

/// Everything one [`BaggingEnsemble::predict_stats_in`] builds: the
/// ranking, the members' prefixes and the predictions they share, a
/// walking member's own prediction, the Welford moments and the stats row.
/// It keeps its buffers from call to call, and
/// [`BaggingEnsemble::workspace`] sizes them for the ensemble up front, so
/// a caller that predicts once per step allocates nothing past its first
/// call — KNN members at least; each MF member builds its predicted row.
#[derive(Debug, Default)]
pub struct EnsembleWorkspace {
    ranking: Ranking,
    /// A member's prefix, then its whole ranking if it walks.
    member: Ranking,
    /// A tie group's draws, for [`Sample::walk`].
    group: Vec<(usize, f64, usize)>,
    prefixes: Prefixes,
    /// A member's prediction, where it is not its prefix's.
    own: OwnPrediction,
    moments: Moments,
    stats: Vec<Option<(f64, f64)>>,
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
            CfAlgorithm::Knn { similarity, k } => Members::Knn {
                // A matrix with no rows predicts no columns, as a member's
                // own sample matrix (built by `from_rows`) would.
                model: if nrows == 0 {
                    KnnModel::of(&UtilityMatrix::default(), similarity, k)
                } else {
                    KnnModel::of(training, similarity, k)
                },
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

    /// A workspace sized for this ensemble's predictions.
    pub fn workspace(&self) -> EnsembleWorkspace {
        let Members::Knn { model, samples, .. } = &self.members else {
            return EnsembleWorkspace::default();
        };
        let (nrows, ncols) = (model.nrows(), model.ncols());
        let prefix = model.k().min(nrows);
        EnsembleWorkspace {
            ranking: Ranking::with_capacity(nrows),
            member: Ranking::with_capacity(nrows),
            group: Vec::with_capacity(nrows),
            prefixes: Prefixes::with_capacity(samples.len(), prefix, ncols),
            own: OwnPrediction::with_capacity(ncols),
            moments: Moments::with_capacity(ncols),
            stats: Vec::with_capacity(ncols),
        }
    }

    /// Predictive mean and variance per column for a workload with the
    /// given known ratings. Columns no member can predict are `None`.
    pub fn predict_stats(&self, known: &Row) -> Vec<Option<(f64, f64)>> {
        let mut workspace = self.workspace();
        self.predict_stats_in(known, &mut workspace);
        workspace.stats
    }

    /// [`Self::predict_stats`], built in `workspace`.
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
    /// row's similarity is computed once, and the rows are ranked once, as
    /// far as a member's walk reaches. A member's ranking is that ranking's
    /// groups of equal |similarity| in order, each group's rows in the order
    /// the member drew them, repeats included: exactly the stable sort by
    /// |similarity| the member would make of its own rows (DESIGN.md §5).
    /// Its *prefix* — the first `k` rows of its ranking, found by walking
    /// the shared ranking until `k` are taken — are the neighbours of every
    /// column all of them rate, so members with the same prefix share one
    /// prediction of those columns, made in one pass over the prefix rows'
    /// dense copies. Only a column that some prefix row leaves unrated makes
    /// a member walk its whole ranking.
    pub fn predict_stats_in<'w>(
        &self,
        known: &Row,
        workspace: &'w mut EnsembleWorkspace,
    ) -> &'w [Option<(f64, f64)>] {
        if obs::enabled() {
            obs::counter("recsys.bagging.predictions").inc();
        }
        let EnsembleWorkspace {
            ranking,
            member,
            group,
            prefixes,
            own,
            moments,
            stats,
        } = workspace;
        match &self.members {
            Members::Knn {
                model,
                dense,
                samples,
            } => {
                model.rank(known, ranking);
                let k = model.k();
                moments.reset(model.ncols());
                prefixes.reset(model.ncols());
                // Ranked rows looked at to find the members' prefixes.
                let mut scanned = 0;
                for sample in samples {
                    scanned += member.fill_ordered(|out| sample.walk(ranking, k, out, group));
                    let prefix = member.entries();
                    let p = prefixes
                        .find(prefix)
                        .unwrap_or_else(|| prefixes.push(dense, known, prefix));
                    if prefixes.walk(p).is_empty() {
                        moments.fold(prefixes.prediction(p));
                        continue;
                    }
                    member.fill_ordered(|out| sample.walk(ranking, usize::MAX, out, group));
                    own.copy_from(prefixes.prediction(p));
                    for &c in prefixes.walk(p) {
                        own.set(c, model.average(member, c));
                    }
                    moments.fold(own.prediction());
                }
                if obs::enabled() {
                    obs::counter("recsys.bagging.prefixes").add(prefixes.len() as u64);
                    obs::counter("recsys.bagging.scanned").add(scanned as u64);
                }
            }
            Members::Mf(models) => {
                moments.reset(0);
                for (m, model) in models.iter().enumerate() {
                    let row = model.predict_row(known);
                    if m == 0 {
                        moments.reset(row.len());
                    }
                    own.copy_row(&row);
                    moments.fold(own.prediction());
                }
            }
        }
        moments.finish(stats);
        stats
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
    /// `(similarity, row)`, given the shared `ranking` of the training rows.
    /// Each group of equal |similarity| in it contributes its rows in the
    /// order of their positions here, each as often as it was drawn.
    /// Returns the ranked rows looked at.
    fn walk(
        &self,
        ranking: &mut Ranking,
        limit: usize,
        out: &mut Vec<(f64, usize)>,
        group: &mut Vec<(usize, f64, usize)>,
    ) -> usize {
        out.clear();
        let mut i = 0;
        while i < ranking.len() && out.len() < limit {
            let end = ranking.group_end(i);
            let room = limit - out.len();
            if end == i + 1 {
                // One row: each draw of it, in any order.
                let (sim, r) = ranking.entries()[i];
                let drawn = self.positions(r).len();
                out.extend(std::iter::repeat_n((sim, r), drawn.min(room)));
            } else {
                group.clear();
                for &(sim, r) in &ranking.entries()[i..end] {
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

/// The members' distinct prefixes, each with what the members that share
/// it share: its prediction and its walk columns. Flat blocks, one slot of
/// `ncols` values per prefix, that keep their capacity from call to call.
#[derive(Debug, Default)]
struct Prefixes {
    ncols: usize,
    /// Per prefix, where its rows and walk columns end, and whether its
    /// prediction leaves a column unpredicted.
    ends: Vec<(usize, usize, bool)>,
    /// The prefixes' training rows, each prefix's in ranking order.
    rows: Vec<usize>,
    /// The unknown columns some row of the prefix leaves unrated, ascending.
    walk: Vec<usize>,
    /// Known entries, and the prefix's average of every column all its
    /// rows rate; the walk columns are left for each member to fill.
    values: Vec<f64>,
    /// Per column, whether it is unpredicted.
    gaps: Vec<bool>,
}

impl Prefixes {
    fn with_capacity(prefixes: usize, rows: usize, ncols: usize) -> Self {
        Prefixes {
            ncols,
            ends: Vec::with_capacity(prefixes),
            rows: Vec::with_capacity(prefixes * rows),
            walk: Vec::with_capacity(prefixes * ncols),
            values: Vec::with_capacity(prefixes * ncols),
            gaps: Vec::with_capacity(prefixes * ncols),
        }
    }

    fn reset(&mut self, ncols: usize) {
        self.ncols = ncols;
        self.ends.clear();
        self.rows.clear();
        self.walk.clear();
        self.values.clear();
        self.gaps.clear();
    }

    fn len(&self) -> usize {
        self.ends.len()
    }

    /// Where prefix `p`'s rows and walk columns start.
    fn starts(&self, p: usize) -> (usize, usize) {
        p.checked_sub(1)
            .map_or((0, 0), |q| (self.ends[q].0, self.ends[q].1))
    }

    fn walk(&self, p: usize) -> &[usize] {
        &self.walk[self.starts(p).1..self.ends[p].1]
    }

    fn prediction(&self, p: usize) -> Prediction<'_> {
        let slot = p * self.ncols..(p + 1) * self.ncols;
        Prediction {
            values: &self.values[slot.clone()],
            gaps: self.ends[p].2.then(|| &self.gaps[slot]),
        }
    }

    /// The prefix with `prefix`'s rows, if there is one yet.
    fn find(&self, prefix: &[(f64, usize)]) -> Option<usize> {
        (0..self.len()).find(|&p| {
            self.rows[self.starts(p).0..self.ends[p].0]
                .iter()
                .eq(prefix.iter().map(|(_, r)| r))
        })
    }

    /// Add the prefix given as `(similarity, row)`; returns its index.
    ///
    /// A column every prefix row rates has the whole prefix as its
    /// neighbours, so every column is summed in one pass per prefix row:
    /// from `-0.0`, adding `sim · rating` in prefix order, then divided by
    /// the prefix's `Σ|sim|` — exactly `KnnModel::average`'s `Sum<f64>`,
    /// which folds from `-0.0` in iterator order (DESIGN.md §5). A column
    /// some prefix row leaves unrated sums that row's 0.0 too; it is a
    /// walk column, which every member that reads this prefix overwrites.
    fn push(&mut self, dense: &DenseRows, known: &Row, prefix: &[(f64, usize)]) -> usize {
        let ncols = self.ncols;
        let unknown = |c: usize| known.get(c).copied().flatten().is_none();
        self.rows.extend(prefix.iter().map(|&(_, r)| r));
        let walk_start = self.walk.len();
        if prefix.iter().any(|&(_, r)| !dense.unrated[r].is_empty()) {
            let unrated = |c: usize| {
                prefix
                    .iter()
                    .any(|&(_, r)| dense.unrated[r].binary_search(&c).is_ok())
            };
            self.walk
                .extend((0..ncols).filter(|&c| unknown(c) && unrated(c)));
        }
        let walk = &self.walk[walk_start..];

        let slot = self.values.len();
        self.values.resize(slot + ncols, -0.0);
        self.gaps.resize(slot + ncols, false);
        let values = &mut self.values[slot..];
        let gaps = &mut self.gaps[slot..];
        for &(sim, r) in prefix {
            for (v, &rating) in values.iter_mut().zip(dense.row(r)) {
                *v += sim * rating;
            }
        }
        let wsum: f64 = prefix.iter().map(|&(sim, _)| sim.abs()).sum();
        for v in values.iter_mut() {
            *v /= wsum;
        }
        // `weighted_mean`'s `None`: no weight to average by.
        let mut gapped = false;
        if wsum < 1e-12 {
            for c in (0..ncols).filter(|&c| unknown(c) && walk.binary_search(&c).is_err()) {
                gaps[c] = true;
                gapped = true;
            }
        }
        for (c, &v) in known.iter().take(ncols).enumerate() {
            if let Some(v) = v {
                values[c] = v;
                gaps[c] = false;
            }
        }
        self.ends.push((self.rows.len(), self.walk.len(), gapped));
        self.ends.len() - 1
    }
}

/// One member's prediction: a plain value per column, and per column
/// whether it is unpredicted — `None` while no column is.
#[derive(Clone, Copy)]
struct Prediction<'a> {
    values: &'a [f64],
    gaps: Option<&'a [bool]>,
}

/// A member's own prediction, built in place.
#[derive(Debug, Default)]
struct OwnPrediction {
    values: Vec<f64>,
    gaps: Vec<bool>,
    /// Whether some column was ever set unpredicted.
    gapped: bool,
}

impl OwnPrediction {
    fn with_capacity(ncols: usize) -> Self {
        OwnPrediction {
            values: Vec::with_capacity(ncols),
            gaps: Vec::with_capacity(ncols),
            gapped: false,
        }
    }

    fn copy_from(&mut self, p: Prediction<'_>) {
        self.values.clear();
        self.values.extend_from_slice(p.values);
        self.gaps.clear();
        match p.gaps {
            Some(gaps) => self.gaps.extend_from_slice(gaps),
            None => self.gaps.resize(p.values.len(), false),
        }
        self.gapped = p.gaps.is_some();
    }

    /// Every column of `row`, unpredicted where it is `None`.
    fn copy_row(&mut self, row: &[Option<f64>]) {
        self.values.clear();
        self.values.extend(row.iter().map(|v| v.unwrap_or(0.0)));
        self.gaps.clear();
        self.gaps.extend(row.iter().map(Option::is_none));
        self.gapped = row.iter().any(Option::is_none);
    }

    fn set(&mut self, c: usize, v: Option<f64>) {
        match v {
            Some(v) => {
                self.values[c] = v;
                self.gaps[c] = false;
            }
            None => {
                self.gaps[c] = true;
                self.gapped = true;
            }
        }
    }

    fn prediction(&self) -> Prediction<'_> {
        Prediction {
            values: &self.values,
            gaps: self.gapped.then_some(self.gaps.as_slice()),
        }
    }
}

/// Per-column count, mean and sum of squared deviations of the members'
/// predictions, folded one prediction at a time (Welford).
#[derive(Debug, Default)]
struct Moments {
    /// Predictions folded: every column's count until one has a gap.
    folded: u32,
    /// Whether a prediction with a gap has been folded: per-column counts
    /// are in `count` from then on.
    counted: bool,
    count: Vec<u32>,
    mean: Vec<f64>,
    m2: Vec<f64>,
}

impl Moments {
    fn with_capacity(ncols: usize) -> Self {
        Moments {
            folded: 0,
            counted: false,
            count: Vec::with_capacity(ncols),
            mean: Vec::with_capacity(ncols),
            m2: Vec::with_capacity(ncols),
        }
    }

    fn reset(&mut self, ncols: usize) {
        self.folded = 0;
        self.counted = false;
        for v in [&mut self.mean, &mut self.m2] {
            v.clear();
            v.resize(ncols, 0.0);
        }
        self.count.clear();
        self.count.resize(ncols, 0);
    }

    fn fold(&mut self, p: Prediction<'_>) {
        self.folded += 1;
        if !self.counted && p.gaps.is_none() {
            let n = f64::from(self.folded);
            for ((&v, mean), m2) in p.values.iter().zip(&mut self.mean).zip(&mut self.m2) {
                let delta = v - *mean;
                *mean += delta / n;
                *m2 += delta * (v - *mean);
            }
            return;
        }
        if !self.counted {
            self.count.fill(self.folded - 1);
            self.counted = true;
        }
        for (c, &v) in p.values.iter().enumerate() {
            if p.gaps.is_none_or(|gaps| !gaps[c]) {
                self.count[c] += 1;
                let delta = v - self.mean[c];
                self.mean[c] += delta / f64::from(self.count[c]);
                self.m2[c] += delta * (v - self.mean[c]);
            }
        }
    }

    /// Mean and population variance per column into `stats`; `None` where
    /// no member predicted.
    fn finish(&self, stats: &mut Vec<Option<(f64, f64)>>) {
        stats.clear();
        stats.extend((0..self.mean.len()).map(|c| {
            let n = if self.counted {
                self.count[c]
            } else {
                self.folded
            };
            (n > 0).then(|| (self.mean[c], self.m2[c] / f64::from(n)))
        }));
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

    /// `Prefixes::push` against `KnnModel::average` over the prefix, bit
    /// for bit and per column (the ensemble's fold would hide the sign of a
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
            // A second prefix first, so that the one checked sits in a
            // later slot of the flat blocks.
            let mut prefixes = Prefixes::default();
            prefixes.reset(ncols);
            let dense = DenseRows::new(&training);
            prefixes.push(&dense, &known, &prefix[..prefix.len() / 2]);
            let p = prefixes.push(&dense, &known, &prefix);
            let shared = prefixes.prediction(p);
            let model = KnnModel::fit(training.clone(), Similarity::Cosine, prefix.len());
            let mut ranking = Ranking::default();
            ranking.fill_ordered(|entries| entries.extend_from_slice(&prefix));
            for c in 0..ncols {
                let walked =
                    known[c].is_none() && prefix.iter().any(|&(_, r)| training.get(r, c).is_none());
                assert_eq!(
                    prefixes.walk(p).contains(&c),
                    walked,
                    "case {case} column {c}"
                );
                if walked {
                    continue;
                }
                let want = known[c].or_else(|| model.average(&mut ranking, c));
                let gap = shared.gaps.is_some_and(|gaps| gaps[c]);
                let got = (!gap).then(|| shared.values[c]);
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
