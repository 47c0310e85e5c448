//! Property-based tests of the analytics algorithms: correlation bounds,
//! transform round-trips, forecaster totality and optimizer invariants.

use hpc_oda::analytics::descriptive::stats::correlation;
use hpc_oda::analytics::predictive::fft::{fft, ifft, Complex};
use hpc_oda::analytics::predictive::forecast::{Forecaster, Holt, SimpleExp};
use hpc_oda::analytics::prescriptive::setpoint::golden_section_min;
use proptest::prelude::*;

proptest! {
    /// FFT∘IFFT is the identity (up to float error) for any signal.
    #[test]
    fn fft_round_trip(xs in prop::collection::vec(-1e3f64..1e3, 1..=64)) {
        // Pad to the next power of two.
        let n = xs.len().next_power_of_two();
        let mut buf: Vec<Complex> = xs.iter().map(|&x| (x, 0.0)).collect();
        buf.resize(n, (0.0, 0.0));
        let orig = buf.clone();
        fft(&mut buf);
        ifft(&mut buf);
        for (a, b) in orig.iter().zip(&buf) {
            prop_assert!((a.0 - b.0).abs() < 1e-6 * (1.0 + a.0.abs()));
            prop_assert!(b.1.abs() < 1e-6);
        }
    }

    /// Parseval: signal energy is conserved by the FFT.
    #[test]
    fn fft_parseval(xs in prop::collection::vec(-100f64..100.0, 1..=32)) {
        let n = xs.len().next_power_of_two();
        let mut buf: Vec<Complex> = xs.iter().map(|&x| (x, 0.0)).collect();
        buf.resize(n, (0.0, 0.0));
        let time_energy: f64 = buf.iter().map(|c| c.0 * c.0 + c.1 * c.1).sum();
        fft(&mut buf);
        let freq_energy: f64 = buf.iter().map(|c| c.0 * c.0 + c.1 * c.1).sum::<f64>() / n as f64;
        prop_assert!((time_energy - freq_energy).abs() < 1e-6 * (1.0 + time_energy));
    }

    /// Forecasters stay within the data's convex hull on constant-ish
    /// series and never panic on any input.
    #[test]
    fn forecasters_are_total(xs in prop::collection::vec(-1e6f64..1e6, 0..200), h in 1usize..20) {
        let mut se = SimpleExp::new(0.4);
        let mut holt = Holt::new(0.5, 0.3);
        for &x in &xs {
            se.update(x);
            holt.update(x);
        }
        if let Some(f) = se.forecast(h) {
            let lo = xs.iter().copied().fold(f64::INFINITY, f64::min);
            let hi = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            prop_assert!(f >= lo - 1e-9 && f <= hi + 1e-9, "SES is an average");
        }
        let _ = holt.forecast(h); // must not panic; value may extrapolate
    }

    /// Golden-section finds the minimum of a random parabola within
    /// tolerance.
    #[test]
    fn golden_section_finds_parabola_min(center in -50f64..50.0, scale in 0.1f64..10.0) {
        let opt = golden_section_min(-100.0, 100.0, 1e-4, 200, |x| scale * (x - center).powi(2));
        prop_assert!((opt.knob - center).abs() < 1e-2, "knob {} vs {}", opt.knob, center);
    }

    /// Correlation is symmetric, bounded, and exactly ±1 for affine
    /// relations.
    #[test]
    fn correlation_properties(
        xs in prop::collection::vec(-1e3f64..1e3, 3..100),
        a in prop::sample::select(vec![-2.5f64, -1.0, 0.5, 3.0]),
        b in -10f64..10.0,
    ) {
        let ys: Vec<f64> = xs.iter().map(|&x| a * x + b).collect();
        if let Some(r) = correlation(&xs, &ys) {
            prop_assert!((r.abs() - 1.0).abs() < 1e-9, "affine → |r|=1, got {r}");
            prop_assert_eq!(r.signum(), a.signum());
            let r2 = correlation(&ys, &xs).unwrap();
            prop_assert!((r - r2).abs() < 1e-12);
        }
    }
}
