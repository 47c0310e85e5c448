//! Scalar setpoint optimization by golden-section search.
//!
//! The cooling-setpoint tuning cell (Conficoni et al., Jiang et al.): total
//! facility power as a function of the inlet-water setpoint is unimodal —
//! too cold wastes chiller work, too warm wastes IT leakage/fan power — so
//! golden-section search over the legal range finds the optimum with few
//! probes. Probes are *expensive* (each one means running the plant at the
//! candidate setpoint for a settling period), which is why a
//! few-evaluations method is the right family and why the optimizer also
//! supports an explicit probe budget.

/// Result of a setpoint optimization.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Optimum {
    /// The best knob value found.
    pub knob: f64,
    /// Objective value at the optimum.
    pub cost: f64,
    /// Number of objective evaluations used.
    pub evaluations: usize,
}

/// Minimises a unimodal `objective` over `[lo, hi]` by golden-section
/// search, stopping when the bracket is below `tolerance` or when
/// `max_evaluations` probes were spent.
///
/// # Panics
/// Panics if `lo >= hi` or `tolerance <= 0`.
pub fn golden_section_min(
    lo: f64,
    hi: f64,
    tolerance: f64,
    max_evaluations: usize,
    mut objective: impl FnMut(f64) -> f64,
) -> Optimum {
    assert!(lo < hi, "bracket must be non-empty");
    assert!(tolerance > 0.0, "tolerance must be positive");
    const INV_PHI: f64 = 0.618_033_988_749_894_9;
    let mut a = lo;
    let mut b = hi;
    let mut evals = 0usize;
    let mut probe = |x: f64, evals: &mut usize| {
        *evals += 1;
        objective(x)
    };
    let mut c = b - (b - a) * INV_PHI;
    let mut d = a + (b - a) * INV_PHI;
    let mut fc = probe(c, &mut evals);
    let mut fd = probe(d, &mut evals);
    while (b - a) > tolerance && evals < max_evaluations {
        if fc < fd {
            b = d;
            d = c;
            fd = fc;
            c = b - (b - a) * INV_PHI;
            fc = probe(c, &mut evals);
        } else {
            a = c;
            c = d;
            fc = fd;
            d = a + (b - a) * INV_PHI;
            fd = probe(d, &mut evals);
        }
    }
    let (knob, cost) = if fc < fd { (c, fc) } else { (d, fd) };
    Optimum {
        knob,
        cost,
        evaluations: evals,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finds_parabola_minimum() {
        let opt = golden_section_min(0.0, 10.0, 1e-6, 200, |x| (x - 3.7).powi(2) + 1.0);
        assert!((opt.knob - 3.7).abs() < 1e-4, "{}", opt.knob);
        assert!((opt.cost - 1.0).abs() < 1e-6);
    }

    #[test]
    fn respects_evaluation_budget() {
        let mut calls = 0;
        let opt = golden_section_min(0.0, 100.0, 1e-12, 10, |x| {
            calls += 1;
            (x - 50.0).powi(2)
        });
        assert_eq!(calls, opt.evaluations);
        assert!(opt.evaluations <= 10);
        // Even with a tiny budget the answer should be in the right region.
        assert!((opt.knob - 50.0).abs() < 25.0);
    }

    #[test]
    fn boundary_minimum_is_found() {
        let opt = golden_section_min(2.0, 8.0, 1e-5, 100, |x| x); // min at left edge
        assert!(opt.knob < 2.01, "{}", opt.knob);
    }

    #[test]
    fn cooling_shaped_objective() {
        // U-shaped facility power vs setpoint: chiller work falls with
        // setpoint, IT leakage rises with it.
        let facility_power =
            |sp: f64| 400.0 / (sp - 10.0) + 0.8 * (sp - 18.0).max(0.0).powi(2) * 0.1 + 100.0;
        let opt = golden_section_min(18.0, 45.0, 0.01, 100, facility_power);
        // Analytic optimum of 400/(x−10) + 0.08(x−18)² near x ≈ 24.
        assert!(opt.knob > 20.0 && opt.knob < 32.0, "{}", opt.knob);
    }

    #[test]
    #[should_panic(expected = "bracket")]
    fn rejects_empty_bracket() {
        golden_section_min(5.0, 5.0, 0.1, 10, |x| x);
    }
}
