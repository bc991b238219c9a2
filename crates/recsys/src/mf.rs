//! Matrix-factorization collaborative filtering trained by stochastic
//! gradient descent (§2.2).

use crate::matrix::{known_entries, Row, UtilityMatrix};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// MF hyper-parameters (subject to the random-search tuner).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MfParams {
    /// Latent-factor dimensionality `d`; 0 counts as 1. At most 16: the
    /// SGD kernel is compiled for each `d` up to that, and fitting or
    /// folding in with more panics.
    pub factors: usize,
    /// SGD learning rate.
    pub learning_rate: f64,
    /// L2 regularization weight.
    pub regularization: f64,
    /// SGD epochs over the known entries.
    pub epochs: usize,
    /// RNG seed for the random initialization.
    pub seed: u64,
}

/// The largest [`MfParams::factors`] the SGD kernel is built for.
const MAX_FACTORS: usize = 16;

impl Default for MfParams {
    fn default() -> Self {
        MfParams {
            factors: 8,
            learning_rate: 0.02,
            regularization: 0.05,
            epochs: 200,
            seed: 42,
        }
    }
}

impl MfParams {
    /// The factor count the kernel runs at.
    ///
    /// # Panics
    ///
    /// Panics if `factors` exceeds [`MAX_FACTORS`].
    fn d(&self) -> usize {
        let d = self.factors.max(1);
        assert!(
            d <= MAX_FACTORS,
            "MfParams::factors is {d}, more than the {MAX_FACTORS} the SGD kernel supports"
        );
        d
    }
}

/// A fitted MF model: `R ≈ Pᵀ Q` with users (workloads) in `P` and items
/// (configurations) in `Q`. New workloads are *folded in* by learning a
/// user vector against the frozen item factors.
#[derive(Debug, Clone)]
pub struct MfModel {
    item_factors: Vec<f64>, // ncols × d, row-major
    params: MfParams,
}

/// `Σ p·q` in index order — every prediction and SGD error term.
/// `Iterator::sum` starts from `-0.0`, which adds exactly, so the sum
/// starts from the first product.
fn dot(p: &[f64], q: &[f64]) -> f64 {
    p.iter().zip(q).map(|(p, q)| p * q).sum()
}

/// The `D` factors at offset `at` of a flat, row-major factor matrix.
fn factors<const D: usize>(flat: &[f64], at: usize) -> &[f64; D] {
    flat[at..at + D].try_into().expect("a slice of D factors")
}

/// [`factors`], mutably.
fn factors_mut<const D: usize>(flat: &mut [f64], at: usize) -> &mut [f64; D] {
    (&mut flat[at..at + D])
        .try_into()
        .expect("a slice of D factors")
}

/// [`dot`] at a factor count known at compile time: the same products,
/// added in the same order.
#[inline(always)]
fn dot_d<const D: usize>(p: &[f64; D], q: &[f64; D]) -> f64 {
    let mut sum = p[0] * q[0];
    for f in 1..D {
        sum += p[f] * q[f];
    }
    sum
}

/// One independent SGD model: a fixed sequence of steps, one per known
/// entry, repeated every epoch. Steps of different chains touch disjoint
/// factors, so interleaving them changes no chain's bits.
trait Chain {
    /// Steps per epoch.
    fn len(&self) -> usize;
    /// The step on known entry `k`, at `D` factors.
    fn step<const D: usize>(&mut self, k: usize, lr: f64, reg: f64);
}

/// Run every chain's epochs side by side, so that one chain's steps fill
/// the latency of another's: each epoch takes entry `k` of every chain for
/// each `k` they all have, then finishes each chain's remaining entries
/// alone. Within a chain the steps keep their order.
///
/// Always inlined, so that [`sgd`]'s AVX2 build compiles it for AVX2.
#[inline(always)]
fn lockstep<const D: usize, C: Chain>(chains: &mut [C], epochs: usize, lr: f64, reg: f64) {
    let common = chains.iter().map(C::len).min().unwrap_or(0);
    for _ in 0..epochs {
        for k in 0..common {
            for chain in chains.iter_mut() {
                chain.step::<D>(k, lr, reg);
            }
        }
        for chain in chains.iter_mut() {
            for k in common..chain.len() {
                chain.step::<D>(k, lr, reg);
            }
        }
    }
}

/// `params.epochs` SGD passes over every chain in [`lockstep`], at the
/// factor count compiled for `params.factors`: [`sgd_any`] compiled for
/// AVX2 when the processor has it, else for the baseline. Both builds
/// compute the same bits (`parx::wide`).
fn sgd<C: Chain>(chains: &mut [C], params: &MfParams) {
    parx::wide(
        #[inline(always)]
        || sgd_any(chains, params),
    )
}

/// [`sgd`] compiled for whatever instruction set its caller is.
#[inline(always)]
fn sgd_any<C: Chain>(chains: &mut [C], params: &MfParams) {
    let (lr, reg, epochs) = (params.learning_rate, params.regularization, params.epochs);
    macro_rules! lockstep_at {
        ($($d:literal)*) => {
            match params.d() {
                $($d => lockstep::<$d, C>(chains, epochs, lr, reg),)*
                _ => unreachable!("MfParams::d caps the factor count"),
            }
        };
    }
    lockstep_at!(1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16)
}

/// Training on one matrix: both factor matrices are flat and row-major
/// with stride `d`, drawn user by user and then item by item; each known
/// entry is stored as the offsets of its two factor rows.
struct Fit {
    users: Vec<f64>,
    items: Vec<f64>,
    entries: Vec<(usize, usize, f64)>,
}

impl Fit {
    fn new(training: &UtilityMatrix, params: &MfParams) -> Self {
        let d = params.d();
        let mut rng = StdRng::seed_from_u64(params.seed);
        let users: Vec<f64> = (0..training.nrows() * d)
            .map(|_| rng.gen_range(-0.1..0.1))
            .collect();
        let items: Vec<f64> = (0..training.ncols() * d)
            .map(|_| rng.gen_range(-0.1..0.1))
            .collect();
        let entries: Vec<(usize, usize, f64)> = (0..training.nrows())
            .flat_map(move |r| {
                training
                    .known_in_row(r)
                    .map(move |(c, v)| (r * d, c * d, v))
            })
            .collect();
        Fit {
            users,
            items,
            entries,
        }
    }
}

impl Chain for Fit {
    fn len(&self) -> usize {
        self.entries.len()
    }

    #[inline(always)]
    fn step<const D: usize>(&mut self, k: usize, lr: f64, reg: f64) {
        let (u, i, r) = self.entries[k];
        // Copies in and out: the compiler cannot tell that the two rows
        // never overlap, and only on copies does it pair the factors into
        // packed arithmetic.
        let mut pu = *factors::<D>(&self.users, u);
        let mut qi = *factors::<D>(&self.items, i);
        let err = r - dot_d(&pu, &qi);
        for f in 0..D {
            let (p0, q0) = (pu[f], qi[f]);
            pu[f] += lr * (err * q0 - reg * p0);
            qi[f] += lr * (err * p0 - reg * q0);
        }
        *factors_mut::<D>(&mut self.users, u) = pu;
        *factors_mut::<D>(&mut self.items, i) = qi;
    }
}

/// One row's fold-in: its user vector against the frozen item factors,
/// one step per known entry of the row.
struct FoldIn<'a> {
    user: [f64; MAX_FACTORS],
    /// The row's known entries, as (item factor offset, rating).
    observed: &'a [(usize, f64)],
    items: &'a [f64],
}

impl Chain for FoldIn<'_> {
    fn len(&self) -> usize {
        self.observed.len()
    }

    #[inline(always)]
    fn step<const D: usize>(&mut self, k: usize, lr: f64, reg: f64) {
        let (i, r) = self.observed[k];
        let mut pu = *factors::<D>(&self.user, 0);
        let qi = factors::<D>(self.items, i);
        let err = r - dot_d(&pu, qi);
        for f in 0..D {
            pu[f] += lr * (err * qi[f] - reg * pu[f]);
        }
        *factors_mut::<D>(&mut self.user, 0) = pu;
    }
}

/// Rows [`MfModel::predict_rows`] folds in side by side.
const FOLD_IN_GROUP: usize = 4;

impl MfModel {
    /// Train item factors on the training matrix's known entries.
    pub fn fit(training: &UtilityMatrix, params: MfParams) -> Self {
        let mut chain = [Fit::new(training, &params)];
        Self::sgd_fits(&mut chain, params);
        let [fit] = chain;
        MfModel {
            item_factors: fit.items,
            params,
        }
    }

    /// [`Self::fit`] on each matrix, the fits trained side by side: the
    /// models are those `fit` returns, bit for bit.
    pub fn fit_folds(trainings: &[&UtilityMatrix], params: MfParams) -> Vec<Self> {
        let mut chains: Vec<Fit> = trainings.iter().map(|t| Fit::new(t, &params)).collect();
        Self::sgd_fits(&mut chains, params);
        chains
            .into_iter()
            .map(|fit| MfModel {
                item_factors: fit.items,
                params,
            })
            .collect()
    }

    fn sgd_fits(chains: &mut [Fit], params: MfParams) {
        sgd(chains, &params);
        if obs::enabled() {
            let steps: usize = chains.iter().map(Fit::len).sum();
            obs::counter("recsys.mf.sgd_steps").add((params.epochs * steps) as u64);
        }
    }

    /// Learn a user vector for a new workload (frozen item factors), then
    /// predict every column. Known entries pass through unchanged.
    pub fn predict_row(&self, known: &Row) -> Row {
        self.predict_rows(std::slice::from_ref(known))
            .pop()
            .expect("one row in, one row out")
    }

    /// [`Self::predict_row`] for each row; the rows' user vectors are
    /// learnt side by side, a few rows at a time.
    pub fn predict_rows(&self, rows: &[Row]) -> Vec<Row> {
        let d = self.params.d();
        let mut rng = StdRng::seed_from_u64(self.params.seed ^ 0x9E37);
        let mut start = [0.0; MAX_FACTORS];
        for p in &mut start[..d] {
            *p = rng.gen_range(-0.1..0.1);
        }
        let observed: Vec<(usize, f64)> = rows
            .iter()
            .flat_map(|known| known_entries(known).map(|(i, r)| (i * d, r)))
            .collect();
        if obs::enabled() {
            obs::counter("recsys.mf.foldin_steps")
                .add((self.params.epochs * observed.len()) as u64);
        }
        let mut out = Vec::with_capacity(rows.len());
        let mut chains: [FoldIn; FOLD_IN_GROUP] = std::array::from_fn(|_| FoldIn {
            user: start,
            observed: &[],
            items: &self.item_factors,
        });
        let mut rest = &observed[..];
        for group in rows.chunks(FOLD_IN_GROUP) {
            let chains = &mut chains[..group.len()];
            for (known, chain) in group.iter().zip(chains.iter_mut()) {
                let (mine, later) = rest.split_at(known_entries(known).count());
                rest = later;
                chain.user = start;
                chain.observed = mine;
            }
            sgd(chains, &self.params);
            for (known, chain) in group.iter().zip(chains.iter()) {
                let user = &chain.user[..d];
                out.push(
                    self.item_factors
                        .chunks_exact(d)
                        .enumerate()
                        .map(|(i, qi)| {
                            known
                                .get(i)
                                .copied()
                                .flatten()
                                .or_else(|| Some(dot(user, qi)))
                        })
                        .collect(),
                );
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A rank-1 ratings matrix: user scale × item profile.
    fn rank1(nrows: usize, ncols: usize) -> UtilityMatrix {
        let rows = (0..nrows)
            .map(|r| {
                (0..ncols)
                    .map(|c| Some((r + 1) as f64 * 0.3 * (c + 1) as f64 * 0.2))
                    .collect()
            })
            .collect();
        UtilityMatrix::from_rows(rows)
    }

    #[test]
    fn mf_reconstructs_low_rank_structure() {
        let m = rank1(8, 6);
        let model = MfModel::fit(&m, MfParams::default());
        // Hide the last three columns of a known-profile row and fold in.
        let mut known = m.row(3).clone();
        known[3] = None;
        known[4] = None;
        known[5] = None;
        let pred = model.predict_row(&known);
        for (c, p) in pred.iter().enumerate().take(6).skip(3) {
            let truth = m.get(3, c).unwrap();
            let err = (p.unwrap() - truth).abs() / truth;
            assert!(err < 0.15, "col {c}: predicted {p:?} vs {truth}");
        }
    }

    #[test]
    fn known_entries_pass_through() {
        let m = rank1(4, 4);
        let model = MfModel::fit(&m, MfParams::default());
        let known: Row = vec![Some(123.0), None, None, None];
        let pred = model.predict_row(&known);
        assert_eq!(pred[0], Some(123.0));
    }

    /// `nrows × ncols` ratings in `[0.5, 2)`, each known with probability
    /// `density`.
    fn sparse(nrows: usize, ncols: usize, density: f64, rng: &mut StdRng) -> UtilityMatrix {
        let rows = (0..nrows)
            .map(|_| {
                (0..ncols)
                    .map(|_| rng.gen_bool(density).then(|| rng.gen_range(0.5..2.0)))
                    .collect()
            })
            .collect();
        UtilityMatrix::from_rows(rows)
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// [`sgd`] runs the kernel compiled for AVX2 when the processor has it;
    /// [`sgd_any`] called here is compiled into this test function, at the
    /// baseline. Both must train the same bits at every factor count, for
    /// fits of unequal lengths side by side and for fold-in groups whose
    /// rows know no, one or many columns.
    #[test]
    fn dispatched_kernel_matches_the_baseline_bit_for_bit() {
        const NCOLS: usize = 9;
        let mut rng = StdRng::seed_from_u64(59);
        for d in 1..=MAX_FACTORS {
            let params = MfParams {
                factors: d,
                learning_rate: 0.05,
                regularization: 0.02,
                epochs: 12,
                seed: d as u64,
            };
            let trainings: Vec<UtilityMatrix> = (0..4)
                .map(|i| sparse(5 + 3 * i, NCOLS, 0.4 + 0.15 * i as f64, &mut rng))
                .collect();
            for n in 1..=4 {
                let fits = || -> Vec<Fit> {
                    trainings[..n]
                        .iter()
                        .map(|t| Fit::new(t, &params))
                        .collect()
                };
                let (mut wide, mut base) = (fits(), fits());
                sgd(&mut wide, &params);
                sgd_any(&mut base, &params);
                for (w, b) in wide.iter().zip(&base) {
                    assert_eq!(bits(&w.users), bits(&b.users), "d {d}, {n} fits");
                    assert_eq!(bits(&w.items), bits(&b.items), "d {d}, {n} fits");
                }
            }

            let items: Vec<f64> = (0..NCOLS * d).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let mut start = [0.0; MAX_FACTORS];
            for p in &mut start[..d] {
                *p = rng.gen_range(-0.1..0.1);
            }
            let rating = |c: usize| (c * d, 0.5 + c as f64 / NCOLS as f64);
            let observed: [Vec<(usize, f64)>; 4] = [
                Vec::new(),
                vec![rating(4)],
                (0..NCOLS).step_by(2).map(rating).collect(),
                (0..NCOLS).map(rating).collect(),
            ];
            for n in 1..=4 {
                for first in 0..observed.len() {
                    let group = || -> Vec<FoldIn> {
                        (0..n)
                            .map(|j| FoldIn {
                                user: start,
                                observed: &observed[(first + j) % observed.len()],
                                items: &items,
                            })
                            .collect()
                    };
                    let (mut wide, mut base) = (group(), group());
                    sgd(&mut wide, &params);
                    sgd_any(&mut base, &params);
                    for (w, b) in wide.iter().zip(&base) {
                        assert_eq!(bits(&w.user), bits(&b.user), "d {d}, {n} rows");
                    }
                }
            }
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let m = rank1(5, 5);
        let p = MfParams::default();
        let a = MfModel::fit(&m, p).predict_row(&vec![Some(0.5), None, None, None, None]);
        let b = MfModel::fit(&m, p).predict_row(&vec![Some(0.5), None, None, None, None]);
        assert_eq!(a, b);
    }
}
