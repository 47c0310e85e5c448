//! Application fingerprinting: classifying what a job *is* from how it
//! behaves.
//!
//! The paper's Applications-pillar diagnostic cell cites Taxonomist (Ates
//! et al.) and DeMasi et al., which identify applications (including
//! cryptominers smuggled into HPC systems) from monitoring features.
//! [`NearestCentroid`] keeps one centroid per class in standardized feature
//! space; it is fast, interpretable, and the baseline in the cited works.

use serde::Serialize;
use std::collections::BTreeMap;

/// Behavioural features of one job, as accumulated by monitoring.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct JobFeatures {
    /// Mean CPU utilization over the job's life.
    pub mean_cpu: f64,
    /// Variance of CPU utilization (flatness: miners ≈ 0).
    pub var_cpu: f64,
    /// Mean per-node memory footprint, GiB.
    pub mean_mem_gib: f64,
    /// Mean per-node network demand, GB/s.
    pub mean_net_gbps: f64,
}

impl JobFeatures {
    /// Feature vector layout used by the classifiers.
    pub fn to_vec(self) -> [f64; 4] {
        [
            self.mean_cpu,
            self.var_cpu,
            self.mean_mem_gib,
            self.mean_net_gbps,
        ]
    }
}

/// Per-dimension standardization (z-scaling) fitted on training data.
#[derive(Debug, Clone)]
struct Scaler {
    mean: [f64; 4],
    std: [f64; 4],
}

impl Scaler {
    fn fit(xs: &[[f64; 4]]) -> Self {
        let n = xs.len().max(1) as f64;
        let mut mean = [0.0; 4];
        for x in xs {
            for d in 0..4 {
                mean[d] += x[d] / n;
            }
        }
        let mut std = [0.0; 4];
        for x in xs {
            for d in 0..4 {
                std[d] += (x[d] - mean[d]).powi(2) / n;
            }
        }
        for s in &mut std {
            *s = s.sqrt().max(1e-9);
        }
        Scaler { mean, std }
    }

    fn apply(&self, x: &[f64; 4]) -> [f64; 4] {
        let mut out = [0.0; 4];
        for d in 0..4 {
            out[d] = (x[d] - self.mean[d]) / self.std[d];
        }
        out
    }
}

fn dist2(a: &[f64; 4], b: &[f64; 4]) -> f64 {
    a.iter().zip(b).map(|(x, y)| (x - y).powi(2)).sum()
}

/// Nearest-centroid classifier over standardized job features.
#[derive(Debug, Clone)]
pub struct NearestCentroid<L> {
    scaler: Scaler,
    centroids: Vec<(L, [f64; 4])>,
}

impl<L: Clone + Ord> NearestCentroid<L> {
    /// Fits centroids from labelled examples.
    ///
    /// # Panics
    /// Panics if `examples` is empty.
    pub fn fit(examples: &[(L, JobFeatures)]) -> Self {
        assert!(!examples.is_empty(), "need training examples");
        let raw: Vec<[f64; 4]> = examples.iter().map(|(_, f)| f.to_vec()).collect();
        let scaler = Scaler::fit(&raw);
        let mut sums: BTreeMap<L, ([f64; 4], usize)> = BTreeMap::new();
        for ((label, _), x) in examples.iter().zip(&raw) {
            let scaled = scaler.apply(x);
            let e = sums.entry(label.clone()).or_insert(([0.0; 4], 0));
            for (acc, v) in e.0.iter_mut().zip(scaled) {
                *acc += v;
            }
            e.1 += 1;
        }
        let centroids = sums
            .into_iter()
            .map(|(label, (sum, n))| {
                let mut c = [0.0; 4];
                for d in 0..4 {
                    c[d] = sum[d] / n as f64;
                }
                (label, c)
            })
            .collect();
        NearestCentroid { scaler, centroids }
    }

    /// Predicts the label of `features`, with a confidence in `(0, 1]`
    /// derived from the margin between the best and second-best centroid
    /// (1.0 when only one class exists).
    pub fn predict(&self, features: JobFeatures) -> (L, f64) {
        let x = self.scaler.apply(&features.to_vec());
        let mut scored: Vec<(f64, &L)> = self
            .centroids
            .iter()
            .map(|(l, c)| (dist2(&x, c), l))
            .collect();
        scored.sort_by(|a, b| a.0.total_cmp(&b.0));
        let best = scored[0].0.sqrt();
        let confidence = if scored.len() < 2 {
            1.0
        } else {
            let second = scored[1].0.sqrt();
            ((second - best) / second.max(1e-9)).clamp(0.0, 1.0)
        };
        (scored[0].1.clone(), confidence)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn miner() -> JobFeatures {
        JobFeatures {
            mean_cpu: 0.99,
            var_cpu: 0.0001,
            mean_mem_gib: 2.0,
            mean_net_gbps: 0.01,
        }
    }

    fn hpc_compute() -> JobFeatures {
        JobFeatures {
            mean_cpu: 0.92,
            var_cpu: 0.02,
            mean_mem_gib: 24.0,
            mean_net_gbps: 0.3,
        }
    }

    fn io_job() -> JobFeatures {
        JobFeatures {
            mean_cpu: 0.4,
            var_cpu: 0.05,
            mean_mem_gib: 48.0,
            mean_net_gbps: 5.0,
        }
    }

    fn jitter(f: JobFeatures, eps: f64) -> JobFeatures {
        JobFeatures {
            mean_cpu: f.mean_cpu + eps,
            var_cpu: (f.var_cpu + eps * 0.001).max(0.0),
            mean_mem_gib: f.mem_plus(eps * 10.0),
            mean_net_gbps: f.mean_net_gbps + eps.abs(),
        }
    }

    impl JobFeatures {
        fn mem_plus(self, d: f64) -> f64 {
            self.mean_mem_gib + d
        }
    }

    fn training() -> Vec<(&'static str, JobFeatures)> {
        let mut ex = Vec::new();
        for i in 0..10 {
            let eps = (i as f64 - 5.0) * 0.004;
            ex.push(("miner", jitter(miner(), eps)));
            ex.push(("compute", jitter(hpc_compute(), eps)));
            ex.push(("io", jitter(io_job(), eps)));
        }
        ex
    }

    #[test]
    fn nearest_centroid_identifies_classes() {
        let nc = NearestCentroid::fit(&training());
        assert_eq!(nc.predict(miner()).0, "miner");
        assert_eq!(nc.predict(hpc_compute()).0, "compute");
        assert_eq!(nc.predict(io_job()).0, "io");
    }

    #[test]
    fn confidence_reflects_margin() {
        let nc = NearestCentroid::fit(&training());
        let (_, conf_clear) = nc.predict(miner());
        // A point halfway between compute and miner gets low confidence.
        let ambiguous = JobFeatures {
            mean_cpu: 0.955,
            var_cpu: 0.01,
            mean_mem_gib: 13.0,
            mean_net_gbps: 0.15,
        };
        let (_, conf_amb) = nc.predict(ambiguous);
        assert!(conf_clear > conf_amb, "{conf_clear} vs {conf_amb}");
    }

    #[test]
    fn single_class_gives_full_confidence() {
        let nc = NearestCentroid::fit(&[("only", miner())]);
        let (label, conf) = nc.predict(io_job());
        assert_eq!(label, "only");
        assert_eq!(conf, 1.0);
    }

    #[test]
    #[should_panic(expected = "training examples")]
    fn empty_training_panics() {
        NearestCentroid::<&str>::fit(&[]);
    }
}
