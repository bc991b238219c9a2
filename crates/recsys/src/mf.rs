//! Matrix-factorization collaborative filtering trained by stochastic
//! gradient descent (§2.2).

use crate::matrix::{known_entries, Row, UtilityMatrix};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// MF hyper-parameters (subject to the random-search tuner).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MfParams {
    /// Latent-factor dimensionality `d`.
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

/// A fitted MF model: `R ≈ Pᵀ Q` with users (workloads) in `P` and items
/// (configurations) in `Q`. New workloads are *folded in* by learning a
/// user vector against the frozen item factors.
#[derive(Debug, Clone)]
pub struct MfModel {
    item_factors: Vec<f64>, // ncols × d, row-major
    params: MfParams,
}

/// `Σ p·q` in index order — every prediction and SGD error term.
fn dot(p: &[f64], q: &[f64]) -> f64 {
    p.iter().zip(q).map(|(p, q)| p * q).sum()
}

impl MfModel {
    /// Train item factors on the training matrix's known entries.
    ///
    /// Both factor matrices are flat and row-major with stride `d`, drawn
    /// user by user and then item by item; each known entry is stored as
    /// the offsets of its two factor rows.
    pub fn fit(training: &UtilityMatrix, params: MfParams) -> Self {
        let d = params.factors.max(1);
        let mut rng = StdRng::seed_from_u64(params.seed);
        let mut users: Vec<f64> = (0..training.nrows() * d)
            .map(|_| rng.gen_range(-0.1..0.1))
            .collect();
        let mut items: Vec<f64> = (0..training.ncols() * d)
            .map(|_| rng.gen_range(-0.1..0.1))
            .collect();
        let entries: Vec<(usize, usize, f64)> = (0..training.nrows())
            .flat_map(move |r| {
                training
                    .known_in_row(r)
                    .map(move |(c, v)| (r * d, c * d, v))
            })
            .collect();
        let (lr, reg) = (params.learning_rate, params.regularization);
        for _ in 0..params.epochs {
            for &(u, i, r) in &entries {
                let pu = &mut users[u..u + d];
                let qi = &mut items[i..i + d];
                let err = r - dot(pu, qi);
                for (p, q) in pu.iter_mut().zip(qi.iter_mut()) {
                    let (p0, q0) = (*p, *q);
                    *p += lr * (err * q0 - reg * p0);
                    *q += lr * (err * p0 - reg * q0);
                }
            }
        }
        if obs::enabled() {
            obs::counter("recsys.mf.sgd_steps").add((params.epochs * entries.len()) as u64);
        }
        MfModel {
            item_factors: items,
            params,
        }
    }

    /// Learn a user vector for a new workload (frozen item factors), then
    /// predict every column. Known entries pass through unchanged.
    pub fn predict_row(&self, known: &Row) -> Row {
        let d = self.params.factors.max(1);
        let mut rng = StdRng::seed_from_u64(self.params.seed ^ 0x9E37);
        let mut user: Vec<f64> = (0..d).map(|_| rng.gen_range(-0.1..0.1)).collect();
        let observed: Vec<(&[f64], f64)> = known_entries(known)
            .map(|(i, r)| (&self.item_factors[i * d..(i + 1) * d], r))
            .collect();
        let (lr, reg) = (self.params.learning_rate, self.params.regularization);
        for _ in 0..self.params.epochs {
            for &(qi, r) in &observed {
                let err = r - dot(&user, qi);
                for (pu, q) in user.iter_mut().zip(qi) {
                    *pu += lr * (err * q - reg * *pu);
                }
            }
        }
        self.item_factors
            .chunks_exact(d)
            .enumerate()
            .map(|(i, qi)| {
                known
                    .get(i)
                    .copied()
                    .flatten()
                    .or_else(|| Some(dot(&user, qi)))
            })
            .collect()
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

    #[test]
    fn deterministic_given_seed() {
        let m = rank1(5, 5);
        let p = MfParams::default();
        let a = MfModel::fit(&m, p).predict_row(&vec![Some(0.5), None, None, None, None]);
        let b = MfModel::fit(&m, p).predict_row(&vec![Some(0.5), None, None, None, None]);
        assert_eq!(a, b);
    }
}
