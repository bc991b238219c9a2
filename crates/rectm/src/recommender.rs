//! The Recommender: CF-based performance prediction over normalized KPIs.

use recsys::{CfAlgorithm, CfPredictor, Normalization, Row, UtilityMatrix};
use smbo::Goal;
use std::fmt;

/// Predicts the KPI of every configuration for a workload from the few
/// configurations sampled so far (paper §5.1).
///
/// Internally all KPIs are converted to a "higher is better" *score* space
/// (minimization KPIs are inverted), normalized into ratings, and fed to a
/// CF predictor; predictions travel the inverse path back to KPI space.
pub struct Recommender {
    normalizer: Box<dyn Normalization + Send + Sync>,
    predictor: CfPredictor,
    algorithm: CfAlgorithm,
    goal: Goal,
    ncols: usize,
}

impl Recommender {
    /// Build a recommender from a fully-profiled training matrix of raw
    /// KPIs. The normalizer is fitted here, then the CF predictor is fitted
    /// on the normalized ratings.
    pub fn fit(
        training_kpis: &UtilityMatrix,
        goal: Goal,
        mut normalizer: Box<dyn Normalization + Send + Sync>,
        algorithm: CfAlgorithm,
    ) -> Self {
        let scores = if normalizer.wants_scores() {
            to_scores(training_kpis, goal)
        } else {
            training_kpis.clone()
        };
        normalizer.fit(&scores);
        let ratings = normalizer.transform_matrix(&scores);
        let predictor = CfPredictor::fit(ratings, algorithm);
        Recommender {
            normalizer,
            predictor,
            algorithm,
            goal,
            ncols: training_kpis.ncols(),
        }
    }

    /// Number of configuration columns.
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// The CF algorithm in use.
    pub fn algorithm(&self) -> CfAlgorithm {
        self.algorithm
    }

    /// The optimization direction.
    pub fn goal(&self) -> Goal {
        self.goal
    }

    /// The configuration that must be profiled first, if the normalization
    /// requires a reference sample (rating distillation's C*).
    pub fn reference_col(&self) -> Option<usize> {
        self.normalizer.reference_col()
    }

    /// Predict the KPI of every configuration given the sampled ones.
    /// Known entries pass through; columns that cannot be predicted yet
    /// (e.g. before the reference sample) stay `None`.
    pub fn predict_kpis(&self, known_kpis: &Row) -> Row {
        let inverted = self.normalizer.wants_scores();
        let known_scores = if inverted {
            row_to_scores(known_kpis, self.goal)
        } else {
            known_kpis.clone()
        };
        let Some(known_ratings) = self.normalizer.to_ratings(&known_scores) else {
            return known_kpis.clone();
        };
        let predicted = self.predictor.predict_row(&known_ratings);
        predicted
            .iter()
            .enumerate()
            .map(|(c, r)| {
                r.map(|rating| {
                    let score = self.normalizer.to_kpi(&known_scores, c, rating);
                    if inverted {
                        from_score(score, self.goal)
                    } else {
                        score
                    }
                })
            })
            .collect()
    }

    /// The configuration with the best *predicted* KPI.
    pub fn recommend(&self, known_kpis: &Row) -> Option<usize> {
        let predictions = self.predict_kpis(known_kpis);
        let mut best: Option<(usize, f64)> = None;
        for (c, v) in predictions.iter().enumerate() {
            if let Some(v) = v {
                if best.is_none() || self.goal.better(*v, best.unwrap().1) {
                    best = Some((c, *v));
                }
            }
        }
        best.map(|(c, _)| c)
    }
}

impl fmt::Debug for Recommender {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Recommender")
            .field("normalizer", &self.normalizer.name())
            .field("algorithm", &self.algorithm)
            .field("ncols", &self.ncols)
            .finish()
    }
}

/// Convert raw KPIs to the internal "higher is better" score space.
pub(crate) fn to_scores(m: &UtilityMatrix, goal: Goal) -> UtilityMatrix {
    match goal {
        Goal::Maximize => m.clone(),
        Goal::Minimize => UtilityMatrix::from_rows(
            m.rows()
                .iter()
                .map(|r| r.iter().map(|v| v.map(|x| 1.0 / x.max(1e-12))).collect())
                .collect(),
        ),
    }
}

pub(crate) fn row_to_scores(row: &Row, goal: Goal) -> Row {
    let mut scores = Row::with_capacity(row.len());
    scores_into(row, goal, &mut scores);
    scores
}

/// [`row_to_scores`] into `scores`, which keeps its buffer.
pub(crate) fn scores_into(row: &Row, goal: Goal, scores: &mut Row) {
    scores.clear();
    match goal {
        Goal::Maximize => scores.extend_from_slice(row),
        Goal::Minimize => scores.extend(row.iter().map(|v| v.map(|x| 1.0 / x.max(1e-12)))),
    }
}

pub(crate) fn from_score(score: f64, goal: Goal) -> f64 {
    match goal {
        Goal::Maximize => score,
        Goal::Minimize => 1.0 / score.max(1e-12),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use recsys::{DistillationNorm, Similarity};

    /// Two workload archetypes at wildly different KPI scales: "scales
    /// with threads" and "thrashes with threads" (columns = 1,2,4,8 thr).
    fn training(goal: Goal) -> UtilityMatrix {
        let mut rows = Vec::new();
        for scale in [1.0, 10.0, 1000.0] {
            // Scalable: throughput grows / time shrinks with the column.
            let scalable: Row = (0..4)
                .map(|c| {
                    let x = (1 << c) as f64;
                    Some(match goal {
                        Goal::Maximize => scale * x,
                        Goal::Minimize => scale / x,
                    })
                })
                .collect();
            // Anti-scalable: the opposite trend.
            let anti: Row = (0..4)
                .map(|c| {
                    let x = (1 << c) as f64;
                    Some(match goal {
                        Goal::Maximize => scale * 8.0 / x,
                        Goal::Minimize => scale * x / 8.0,
                    })
                })
                .collect();
            rows.push(scalable);
            rows.push(anti);
        }
        UtilityMatrix::from_rows(rows)
    }

    fn knn() -> CfAlgorithm {
        CfAlgorithm::Knn {
            similarity: Similarity::Cosine,
            k: 2,
        }
    }

    #[test]
    fn recommends_high_threads_for_scalable_throughput_workload() {
        let _serial = crate::serial();
        let rec = Recommender::fit(
            &training(Goal::Maximize),
            Goal::Maximize,
            Box::new(DistillationNorm::new()),
            knn(),
        );
        let c_ref = rec.reference_col().expect("distillation has a reference");
        // New scalable workload at yet another scale, sampled at C* and col 0.
        let mut known: Row = vec![None; 4];
        known[c_ref] = Some(77.0 * (1 << c_ref) as f64);
        known[0] = Some(77.0);
        assert_eq!(rec.recommend(&known), Some(3), "should pick 8 threads");
    }

    #[test]
    fn recommends_low_threads_for_anti_scalable_workload() {
        let _serial = crate::serial();
        let rec = Recommender::fit(
            &training(Goal::Maximize),
            Goal::Maximize,
            Box::new(DistillationNorm::new()),
            knn(),
        );
        let c_ref = rec.reference_col().unwrap();
        let mut known: Row = vec![None; 4];
        let scale = 0.42;
        known[c_ref] = Some(scale * 8.0 / (1 << c_ref) as f64);
        if c_ref != 3 {
            known[3] = Some(scale);
        } else {
            known[0] = Some(scale * 8.0);
        }
        assert_eq!(rec.recommend(&known), Some(0), "should pick 1 thread");
    }

    #[test]
    fn minimization_kpis_recommend_smallest() {
        let _serial = crate::serial();
        let rec = Recommender::fit(
            &training(Goal::Minimize),
            Goal::Minimize,
            Box::new(DistillationNorm::new()),
            knn(),
        );
        let c_ref = rec.reference_col().unwrap();
        let mut known: Row = vec![None; 4];
        known[c_ref] = Some(5.0 / (1 << c_ref) as f64); // exec time shrinking
        known[0] = Some(5.0);
        assert_eq!(rec.recommend(&known), Some(3));
    }

    #[test]
    fn predictions_are_in_kpi_space() {
        let _serial = crate::serial();
        let rec = Recommender::fit(
            &training(Goal::Maximize),
            Goal::Maximize,
            Box::new(DistillationNorm::new()),
            knn(),
        );
        let c_ref = rec.reference_col().unwrap();
        // Two samples are needed to identify the trend (one reference pins
        // the scale, a second disambiguates scalable from anti-scalable).
        let mut known: Row = vec![None; 4];
        known[c_ref] = Some(50.0 * (1 << c_ref) as f64);
        let second = if c_ref == 0 { 1 } else { 0 };
        known[second] = Some(50.0 * (1 << second) as f64);
        let pred = rec.predict_kpis(&known);
        // The scalable neighbour trend at this scale: col 3 ≈ 400.
        let p3 = pred[3].expect("prediction for col 3");
        assert!((p3 - 400.0).abs() / 400.0 < 0.3, "got {p3}");
    }

    #[test]
    fn unpredictable_before_reference_sample() {
        let _serial = crate::serial();
        let rec = Recommender::fit(
            &training(Goal::Maximize),
            Goal::Maximize,
            Box::new(DistillationNorm::new()),
            knn(),
        );
        let c_ref = rec.reference_col().unwrap();
        let other = (c_ref + 1) % 4;
        let mut known: Row = vec![None; 4];
        known[other] = Some(10.0);
        // Without C*, distillation cannot place the workload on the shared
        // scale: recommend falls back to the only known column.
        assert_eq!(rec.recommend(&known), Some(other));
    }
}
