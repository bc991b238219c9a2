//! Workload corpus generation: hundreds of named workload variants
//! (the paper's "over 300 workloads" of §6.1).

use crate::workload::{WorkloadFamily, WorkloadSpec};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One concrete workload: a family instance with perturbed parameters
/// (different inputs, update ratios, data sizes...).
#[derive(Debug, Clone, PartialEq)]
pub struct Workload {
    /// Corpus-wide identifier (also the noise seed).
    pub id: u64,
    /// Family + variant name, e.g. `vacation/7`.
    pub name: String,
    /// The family this variant belongs to.
    pub family: WorkloadFamily,
    /// Its performance-model descriptor.
    pub spec: WorkloadSpec,
}

fn jitter(rng: &mut StdRng, v: f64, rel: f64) -> f64 {
    v * (1.0 + rng.gen_range(-rel..rel))
}

fn clamp01(v: f64) -> f64 {
    v.clamp(0.005, 0.995)
}

/// Generate a deterministic corpus of `n` workloads drawn from the given
/// families (round-robin), perturbing each family's base characteristics
/// the way different program inputs and configuration knobs would.
pub fn corpus_with_families(families: &[WorkloadFamily], n: usize, seed: u64) -> Vec<Workload> {
    assert!(!families.is_empty(), "at least one family required");
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|i| {
            let family = families[i % families.len()];
            let base = family.base_spec();
            let spec = WorkloadSpec {
                base_tx_us: jitter(&mut rng, base.base_tx_us, 0.4).max(0.05),
                reads: jitter(&mut rng, base.reads, 0.4).max(1.0),
                writes: jitter(&mut rng, base.writes, 0.4).max(1.0),
                contention: clamp01(jitter(&mut rng, base.contention, 0.5)),
                update_frac: clamp01(jitter(&mut rng, base.update_frac, 0.4)),
                scalability: clamp01(jitter(&mut rng, base.scalability, 0.1)),
                htm_fit: clamp01(jitter(&mut rng, base.htm_fit, 0.4)),
                noise: base.noise,
                work_txs: base.work_txs,
            };
            Workload {
                id: i as u64,
                name: format!("{}/{}", family.name(), i / families.len()),
                family,
                spec,
            }
        })
        .collect()
}

/// The default corpus over all 15 families.
pub fn corpus(n: usize, seed: u64) -> Vec<Workload> {
    corpus_with_families(&WorkloadFamily::ALL, n, seed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_is_deterministic() {
        let a = corpus(30, 7);
        let b = corpus(30, 7);
        assert_eq!(a, b);
        let c = corpus(30, 8);
        assert_ne!(a, c);
    }

    #[test]
    fn corpus_covers_all_families() {
        let ws = corpus(300, 1);
        let fams: std::collections::HashSet<_> = ws.iter().map(|w| w.family).collect();
        assert_eq!(fams.len(), 15);
        assert_eq!(ws.len(), 300);
        // Unique ids and names.
        let ids: std::collections::HashSet<_> = ws.iter().map(|w| w.id).collect();
        assert_eq!(ids.len(), 300);
    }

    #[test]
    fn variants_differ_within_a_family() {
        let ws = corpus_with_families(&[WorkloadFamily::Vacation], 10, 3);
        assert!(ws.windows(2).any(|w| w[0].spec != w[1].spec));
        assert!(ws.iter().all(|w| w.name.starts_with("vacation/")));
    }

    #[test]
    fn parameters_stay_in_valid_ranges() {
        for w in corpus(500, 11) {
            let s = &w.spec;
            assert!(s.base_tx_us > 0.0);
            assert!((0.0..=1.0).contains(&s.contention));
            assert!((0.0..=1.0).contains(&s.update_frac));
            assert!((0.0..=1.0).contains(&s.scalability));
            assert!((0.0..=1.0).contains(&s.htm_fit));
        }
    }
}
