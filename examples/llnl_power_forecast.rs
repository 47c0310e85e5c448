//! The LLNL utility-notification scenario (paper §V-C, Abdulla et al.):
//! Fourier analysis of historical site power finds periodic spike
//! patterns; extrapolating them forecasts the ±threshold power swings the
//! utility must be notified about.
//!
//! ```text
//! cargo run --release --example llnl_power_forecast
//! ```

use hpc_oda::analytics::descriptive::dashboard::sparkline;
use hpc_oda::analytics::predictive::fft::{dominant_periods, predicted_swings};
use hpc_oda::analytics::predictive::harmonic::HarmonicModel;

fn main() {
    // Six days of 15-minute site power samples: a small simulated site,
    // smoothed to model the aggregate of a large one, plus the periodic
    // operational loads whose patterns the LLNL analysis discovered.
    let trace = oda_bench::e7_llnl::build_trace(6.0, 5);

    println!("site power, day 1 (96 × 15-min buckets):");
    println!("  {}", sparkline(&trace[..96]));

    // Step 1 (diagnostic): what periods dominate the spectrum?
    println!("\ndominant periods in the power spectrum:");
    for (period_samples, power) in dominant_periods(&trace, 4) {
        println!(
            "  {:>6.1} samples = {:>5.1} h   (spectral power {:.0})",
            period_samples,
            period_samples * 0.25,
            power
        );
    }

    // Step 2 (predictive): harmonic fit at the daily fundamental, forecast
    // the last day, and flag notification-worthy swings.
    let split = trace.len() - 96;
    let model = HarmonicModel::fit(&trace[..split], 96.0, 40).expect("five days of history");
    let forecast = model.forecast(96);
    let mean = trace.iter().sum::<f64>() / trace.len() as f64;
    let threshold = mean * 0.12;
    let predicted = predicted_swings(&forecast, threshold, 2);
    let actual = predicted_swings(&trace[split..], threshold, 2);

    println!("\nforecast of the final day vs truth:");
    println!("  truth     {}", sparkline(&trace[split..]));
    println!("  forecast  {}", sparkline(&forecast));
    println!("\nnotification rule: swing > {threshold:.2} kW within 30 min (scaled 750 kW/15 min)");
    println!("  actual events    at buckets {actual:?}");
    println!("  predicted events at buckets {predicted:?}");
    let hits = actual
        .iter()
        .filter(|&&a| predicted.iter().any(|&p| p.abs_diff(a) <= 2))
        .count();
    println!(
        "  anticipated {hits}/{} events ahead of time — enough to notify the utility",
        actual.len()
    );
}
