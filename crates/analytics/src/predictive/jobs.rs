//! Job duration and resource prediction from submission metadata.
//!
//! The paper's predictive Applications cell: at submission time the
//! scheduler knows only *who* submits *what shape* of job (user, node
//! count, requested walltime) — yet that is enough, because users resubmit
//! similar work (PRIONN, Wyatt et al.; McKenna et al.; Evalix, Emeras
//! et al.). The canonical baseline is a per-user history model with a k-NN
//! fallback over submission features, which is what this module implements.

use serde::Serialize;

/// What the scheduler knows at submission time.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct Submission {
    /// Submitting user.
    pub user: u32,
    /// Nodes requested.
    pub nodes: u32,
    /// Requested walltime, seconds.
    pub requested_walltime_s: f64,
}

/// A completed job the predictor can learn from.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct Outcome {
    /// The submission.
    pub submission: Submission,
    /// Actual runtime, seconds.
    pub runtime_s: f64,
    /// Mean power per node, watts (for resource prediction).
    pub mean_node_power_w: f64,
}

/// Per-user recency-weighted duration predictor with k-NN fallback.
#[derive(Debug, Clone, Default)]
pub struct JobPredictor {
    history: Vec<Outcome>,
}

/// A duration/power prediction with its provenance.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct Prediction {
    /// Predicted runtime, seconds.
    pub runtime_s: f64,
    /// Predicted mean per-node power, watts.
    pub mean_node_power_w: f64,
    /// `true` when the prediction came from the user's own history,
    /// `false` when the global k-NN fallback produced it.
    pub from_user_history: bool,
}

impl JobPredictor {
    /// Creates an empty predictor.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a completed job.
    pub fn observe(&mut self, outcome: Outcome) {
        self.history.push(outcome);
    }

    /// Number of outcomes learned from.
    pub fn observations(&self) -> usize {
        self.history.len()
    }

    /// Predicts runtime/power for a new submission. `None` before any
    /// history exists.
    ///
    /// Strategy: if the user has history, use the recency-weighted mean of
    /// their own similar jobs (same node count preferred); otherwise fall
    /// back to the k nearest submissions of any user in (nodes,
    /// log-walltime) space.
    pub fn predict(&self, s: Submission) -> Option<Prediction> {
        if self.history.is_empty() {
            return None;
        }
        let user_jobs: Vec<&Outcome> = self
            .history
            .iter()
            .filter(|o| o.submission.user == s.user)
            .collect();
        if !user_jobs.is_empty() {
            // Prefer exact node-count matches; otherwise any of the user's
            // jobs.
            let same_size: Vec<&&Outcome> = user_jobs
                .iter()
                .filter(|o| o.submission.nodes == s.nodes)
                .collect();
            let pool: Vec<&Outcome> = if same_size.is_empty() {
                user_jobs.clone()
            } else {
                same_size.into_iter().copied().collect()
            };
            // Users overestimate walltime *consistently*, so the stable
            // quantity to learn is the runtime/walltime ratio, not the
            // absolute runtime (the insight behind the cited predictors).
            // Recency weights: newest job weight 1, halving every 8 jobs
            // back.
            let n = pool.len();
            let mut wsum = 0.0;
            let mut ratio = 0.0;
            let mut pw = 0.0;
            for (i, o) in pool.iter().enumerate() {
                let age = (n - 1 - i) as f64;
                let w = 0.5f64.powf(age / 8.0);
                wsum += w;
                ratio += w * (o.runtime_s / o.submission.requested_walltime_s.max(1.0));
                pw += w * o.mean_node_power_w;
            }
            let ratio = (ratio / wsum).clamp(0.0, 1.0);
            return Some(Prediction {
                runtime_s: ratio * s.requested_walltime_s,
                mean_node_power_w: pw / wsum,
                from_user_history: true,
            });
        }
        // Global k-NN fallback.
        let k = 5.min(self.history.len());
        let mut scored: Vec<(f64, &Outcome)> = self
            .history
            .iter()
            .map(|o| (Self::distance(&o.submission, &s), o))
            .collect();
        scored.sort_by(|a, b| a.0.total_cmp(&b.0));
        let top = &scored[..k];
        Some(Prediction {
            runtime_s: top.iter().map(|(_, o)| o.runtime_s).sum::<f64>() / k as f64,
            mean_node_power_w: top.iter().map(|(_, o)| o.mean_node_power_w).sum::<f64>() / k as f64,
            from_user_history: false,
        })
    }

    fn distance(a: &Submission, b: &Submission) -> f64 {
        let dn = (a.nodes as f64).ln() - (b.nodes as f64).ln();
        let dw = a.requested_walltime_s.max(1.0).ln() - b.requested_walltime_s.max(1.0).ln();
        (dn * dn + dw * dw).sqrt()
    }

    /// Mean absolute percentage error of the predictor evaluated by
    /// chronological replay: each outcome is predicted before being
    /// observed. Jobs with no available prediction are skipped; returns
    /// `None` if nothing could be scored.
    pub fn replay_mape(outcomes: &[Outcome]) -> Option<f64> {
        let mut p = JobPredictor::new();
        let mut errs = Vec::new();
        for &o in outcomes {
            if let Some(pred) = p.predict(o.submission) {
                if o.runtime_s > 1e-9 {
                    errs.push(((pred.runtime_s - o.runtime_s) / o.runtime_s).abs());
                }
            }
            p.observe(o);
        }
        (!errs.is_empty()).then(|| errs.iter().sum::<f64>() / errs.len() as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(user: u32, nodes: u32, wall: f64, rt: f64) -> Outcome {
        Outcome {
            submission: Submission {
                user,
                nodes,
                requested_walltime_s: wall,
            },
            runtime_s: rt,
            mean_node_power_w: 200.0 + rt / 100.0,
        }
    }

    #[test]
    fn empty_predictor_returns_none() {
        let p = JobPredictor::new();
        assert!(p
            .predict(Submission {
                user: 1,
                nodes: 2,
                requested_walltime_s: 100.0
            })
            .is_none());
    }

    #[test]
    fn user_history_dominates() {
        let mut p = JobPredictor::new();
        for _ in 0..5 {
            p.observe(outcome(1, 4, 3_600.0, 1_000.0));
            p.observe(outcome(2, 4, 3_600.0, 5_000.0));
        }
        let pred = p
            .predict(Submission {
                user: 1,
                nodes: 4,
                requested_walltime_s: 3_600.0,
            })
            .unwrap();
        assert!(pred.from_user_history);
        assert!((pred.runtime_s - 1_000.0).abs() < 1.0);
    }

    #[test]
    fn recency_weighting_tracks_behaviour_change() {
        let mut p = JobPredictor::new();
        // User used to run 1000 s jobs, recently runs 100 s jobs.
        for _ in 0..20 {
            p.observe(outcome(1, 2, 600.0, 1_000.0));
        }
        for _ in 0..20 {
            p.observe(outcome(1, 2, 600.0, 100.0));
        }
        let pred = p
            .predict(Submission {
                user: 1,
                nodes: 2,
                requested_walltime_s: 600.0,
            })
            .unwrap();
        assert!(
            pred.runtime_s < 300.0,
            "recent behaviour wins: {}",
            pred.runtime_s
        );
    }

    #[test]
    fn unknown_user_falls_back_to_knn() {
        let mut p = JobPredictor::new();
        for i in 0..10 {
            p.observe(outcome(i, 8, 7_200.0, 2_000.0));
            p.observe(outcome(i + 100, 1, 60.0, 30.0));
        }
        let big = p
            .predict(Submission {
                user: 999,
                nodes: 8,
                requested_walltime_s: 7_000.0,
            })
            .unwrap();
        assert!(!big.from_user_history);
        assert!((big.runtime_s - 2_000.0).abs() < 1.0);
        let small = p
            .predict(Submission {
                user: 999,
                nodes: 1,
                requested_walltime_s: 90.0,
            })
            .unwrap();
        assert!((small.runtime_s - 30.0).abs() < 1.0);
    }

    #[test]
    fn node_count_match_preferred_over_other_sizes() {
        let mut p = JobPredictor::new();
        p.observe(outcome(1, 1, 600.0, 100.0));
        p.observe(outcome(1, 16, 6_000.0, 4_000.0));
        let pred = p
            .predict(Submission {
                user: 1,
                nodes: 16,
                requested_walltime_s: 6_000.0,
            })
            .unwrap();
        // Ratio learned from the 16-node job (2/3), not the 1-node job
        // (1/6).
        assert!((pred.runtime_s - 4_000.0).abs() < 1.0, "{}", pred.runtime_s);
    }

    #[test]
    fn replay_beats_walltime_guess_on_habitual_users() {
        // Users consistently use 30% of requested walltime.
        let mut outcomes = Vec::new();
        for round in 0..30 {
            for user in 0..5 {
                let wall = 1_000.0 * (user + 1) as f64;
                let rt = wall * 0.3 + (round % 3) as f64 * 5.0;
                outcomes.push(outcome(user, 4, wall, rt));
            }
        }
        let mape = JobPredictor::replay_mape(&outcomes).unwrap();
        // Walltime-as-estimate would be off by ~233%; history should be
        // within a few percent.
        assert!(mape < 0.1, "mape {mape}");
    }
}
