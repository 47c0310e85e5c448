//! Application auto-tuning over discrete parameter spaces.
//!
//! The prescriptive Applications cell (Autotune, Miceli et al.; Active
//! Harmony, Ţăpuş et al.): find the parameter configuration (tile sizes,
//! thread counts, communication knobs) minimising a measured objective.
//! [`coordinate_descent`] over a [`ParameterSpace`] cycles through the
//! parameters, line-searching one axis at a time; it is quick and good on
//! separable spaces (Active Harmony's core loop is of this family). It
//! reports the evaluations spent, since real objective probes are full
//! application runs.

/// A discrete parameter space: each axis has an ordered list of candidate
/// values.
#[derive(Debug, Clone)]
pub struct ParameterSpace {
    axes: Vec<Vec<f64>>,
}

impl ParameterSpace {
    /// Creates a space from per-axis candidate lists.
    ///
    /// # Panics
    /// Panics if any axis is empty or the space has no axes.
    pub fn new(axes: Vec<Vec<f64>>) -> Self {
        assert!(!axes.is_empty(), "space needs at least one axis");
        assert!(axes.iter().all(|a| !a.is_empty()), "axes must be non-empty");
        ParameterSpace { axes }
    }

    /// Number of axes.
    pub fn dims(&self) -> usize {
        self.axes.len()
    }

    /// Total number of configurations.
    pub fn size(&self) -> usize {
        self.axes.iter().map(|a| a.len()).product()
    }

    /// Concrete values of a configuration given per-axis indices.
    ///
    /// # Panics
    /// Panics on out-of-range indices.
    pub fn values(&self, idx: &[usize]) -> Vec<f64> {
        assert_eq!(idx.len(), self.dims(), "index arity mismatch");
        idx.iter()
            .zip(&self.axes)
            .map(|(&i, axis)| axis[i])
            .collect()
    }

    /// Axis lengths.
    pub fn axis_len(&self, axis: usize) -> usize {
        self.axes[axis].len()
    }
}

/// Outcome of a tuning run.
#[derive(Debug, Clone, PartialEq)]
pub struct TuneResult {
    /// Best per-axis indices found.
    pub best_idx: Vec<usize>,
    /// Best concrete values.
    pub best_values: Vec<f64>,
    /// Objective at the best configuration.
    pub best_cost: f64,
    /// Objective evaluations spent.
    pub evaluations: usize,
}

/// Coordinate descent from `start` (per-axis indices): repeatedly sweeps
/// each axis keeping the others fixed, until a full cycle makes no
/// improvement or `max_evaluations` is exhausted.
pub fn coordinate_descent(
    space: &ParameterSpace,
    start: Vec<usize>,
    max_evaluations: usize,
    mut objective: impl FnMut(&[f64]) -> f64,
) -> TuneResult {
    let mut best_idx = start;
    let mut evals = 0usize;
    let mut best_cost = {
        evals += 1;
        objective(&space.values(&best_idx))
    };
    let mut improved = true;
    while improved && evals < max_evaluations {
        improved = false;
        for axis in 0..space.dims() {
            let original = best_idx[axis];
            for candidate in 0..space.axis_len(axis) {
                if candidate == original || evals >= max_evaluations {
                    continue;
                }
                best_idx[axis] = candidate;
                evals += 1;
                let cost = objective(&space.values(&best_idx));
                if cost < best_cost {
                    best_cost = cost;
                    improved = true;
                } else {
                    best_idx[axis] = original;
                }
                if improved && best_idx[axis] == candidate {
                    // Keep the improvement as the new reference on this axis.
                    break;
                }
            }
        }
    }
    TuneResult {
        best_values: space.values(&best_idx),
        best_idx,
        best_cost,
        evaluations: evals,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid() -> ParameterSpace {
        ParameterSpace::new(vec![
            (1..=16).map(|x| x as f64).collect(), // e.g. thread count
            vec![16.0, 32.0, 64.0, 128.0, 256.0], // e.g. tile size
        ])
    }

    #[test]
    fn space_accounting() {
        let s = grid();
        assert_eq!(s.dims(), 2);
        assert_eq!(s.size(), 80);
        assert_eq!(s.values(&[0, 4]), vec![1.0, 256.0]);
    }

    #[test]
    fn coordinate_descent_on_separable_objective() {
        let s = grid();
        // Optimal at threads=8, tile=64.
        let obj = |v: &[f64]| (v[0] - 8.0).powi(2) + ((v[1] - 64.0) / 16.0).powi(2);
        let r = coordinate_descent(&s, vec![0, 0], 500, obj);
        assert_eq!(r.best_values, vec![8.0, 64.0]);
        assert!(r.evaluations < 100);
    }

    #[test]
    fn budgets_are_respected() {
        let s = grid();
        let mut calls = 0usize;
        let r = coordinate_descent(&s, vec![0, 0], 7, |v| {
            calls += 1;
            v[0] + v[1]
        });
        assert!(calls <= 7);
        assert_eq!(calls, r.evaluations);
    }

    #[test]
    fn single_point_space_works() {
        let s = ParameterSpace::new(vec![vec![3.0]]);
        let r = coordinate_descent(&s, vec![0], 10, |v| v[0]);
        assert_eq!(r.best_values, vec![3.0]);
        assert_eq!(r.evaluations, 1);
    }
}
