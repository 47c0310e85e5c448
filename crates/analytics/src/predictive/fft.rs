//! Radix-2 FFT and spectral power-spike forecasting — the LLNL use case of
//! §V-C.
//!
//! LLNL must notify its utility when site power moves by more than 750 kW
//! within 15 minutes; they used Fourier analysis of historical power data
//! to find periodic spike patterns and forecast the notifications (Abdulla
//! et al., 2018). This module provides:
//!
//! * an in-place iterative radix-2 complex FFT (and inverse),
//! * a power-spectrum helper with dominant-period extraction,
//! * [`predicted_swings`] — the threshold-crossing test applied to a
//!   forecast (the forecast itself is
//!   [`HarmonicModel`](super::harmonic::HarmonicModel)'s).

use std::f64::consts::PI;

/// One complex value `(re, im)`.
pub type Complex = (f64, f64);

/// In-place iterative radix-2 FFT.
///
/// # Panics
/// Panics if the length is not a power of two (callers pad or truncate —
/// see [`next_pow2_below`]).
pub fn fft(data: &mut [Complex]) {
    fft_dir(data, false);
}

/// In-place inverse FFT (includes the 1/n normalisation).
///
/// # Panics
/// Panics if the length is not a power of two.
pub fn ifft(data: &mut [Complex]) {
    fft_dir(data, true);
    let n = data.len() as f64;
    for v in data.iter_mut() {
        v.0 /= n;
        v.1 /= n;
    }
}

fn fft_dir(data: &mut [Complex], inverse: bool) {
    let n = data.len();
    assert!(n.is_power_of_two(), "FFT length must be a power of two");
    if n <= 1 {
        return;
    }
    // Bit-reversal permutation.
    let bits = n.trailing_zeros();
    for i in 0..n {
        let j = i.reverse_bits() >> (usize::BITS - bits);
        if i < j {
            data.swap(i, j);
        }
    }
    // Butterflies.
    let sign = if inverse { 1.0 } else { -1.0 };
    let mut len = 2;
    while len <= n {
        let ang = sign * 2.0 * PI / len as f64;
        let (wr, wi) = (ang.cos(), ang.sin());
        for start in (0..n).step_by(len) {
            let (mut cr, mut ci) = (1.0f64, 0.0f64);
            for k in 0..len / 2 {
                let a = data[start + k];
                let b = data[start + k + len / 2];
                let t = (b.0 * cr - b.1 * ci, b.0 * ci + b.1 * cr);
                data[start + k] = (a.0 + t.0, a.1 + t.1);
                data[start + k + len / 2] = (a.0 - t.0, a.1 - t.1);
                let (ncr, nci) = (cr * wr - ci * wi, cr * wi + ci * wr);
                cr = ncr;
                ci = nci;
            }
        }
        len <<= 1;
    }
}

/// Largest power of two `≤ n` (0 for `n == 0`).
pub fn next_pow2_below(n: usize) -> usize {
    if n == 0 {
        0
    } else {
        1 << (usize::BITS - 1 - n.leading_zeros())
    }
}

/// Power spectrum of a real series (length truncated to a power of two).
/// Returns `(frequency_bin, power)` for bins `1..n/2` (DC excluded).
pub fn power_spectrum(series: &[f64]) -> Vec<(usize, f64)> {
    let n = next_pow2_below(series.len());
    if n < 4 {
        return Vec::new();
    }
    let tail = &series[series.len() - n..];
    let mean = tail.iter().sum::<f64>() / n as f64;
    let mut buf: Vec<Complex> = tail.iter().map(|&x| (x - mean, 0.0)).collect();
    fft(&mut buf);
    (1..n / 2)
        .map(|k| (k, (buf[k].0.powi(2) + buf[k].1.powi(2)) / n as f64))
        .collect()
}

/// The `top_k` dominant periods (in samples) of a series, strongest first.
pub fn dominant_periods(series: &[f64], top_k: usize) -> Vec<(f64, f64)> {
    let n = next_pow2_below(series.len());
    let mut spec = power_spectrum(series);
    spec.sort_by(|a, b| b.1.total_cmp(&a.1));
    spec.into_iter()
        .take(top_k)
        .map(|(k, p)| (n as f64 / k as f64, p))
        .collect()
}

/// Detects predicted threshold-crossing swings: returns offsets `h` (in
/// samples, 0-based from the forecast start) where the forecast moves by
/// more than `delta` within `window` samples — the "notify the utility"
/// events of the LLNL case.
pub fn predicted_swings(forecast: &[f64], delta: f64, window: usize) -> Vec<usize> {
    let mut hits = Vec::new();
    for i in 0..forecast.len() {
        let end = (i + window).min(forecast.len());
        if end <= i + 1 {
            continue;
        }
        let w = &forecast[i..end];
        let lo = w.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = w.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        if hi - lo > delta {
            hits.push(i);
        }
    }
    hits
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fft_round_trips() {
        let orig: Vec<Complex> = (0..64).map(|i| ((i as f64).sin(), 0.0)).collect();
        let mut buf = orig.clone();
        fft(&mut buf);
        ifft(&mut buf);
        for (a, b) in orig.iter().zip(&buf) {
            assert!((a.0 - b.0).abs() < 1e-9);
            assert!(b.1.abs() < 1e-9);
        }
    }

    #[test]
    fn fft_of_pure_tone_is_a_single_bin() {
        let n = 128;
        let k = 5;
        let mut buf: Vec<Complex> = (0..n)
            .map(|i| ((2.0 * PI * k as f64 * i as f64 / n as f64).cos(), 0.0))
            .collect();
        fft(&mut buf);
        for (bin, v) in buf.iter().enumerate() {
            let mag = (v.0 * v.0 + v.1 * v.1).sqrt();
            if bin == k || bin == n - k {
                assert!((mag - n as f64 / 2.0).abs() < 1e-6, "bin {bin}: {mag}");
            } else {
                assert!(mag < 1e-6, "bin {bin}: {mag}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn fft_rejects_non_pow2() {
        let mut buf = vec![(0.0, 0.0); 12];
        fft(&mut buf);
    }

    #[test]
    fn dominant_periods_finds_the_cycle() {
        let series: Vec<f64> = (0..512)
            .map(|i| 100.0 + 10.0 * (2.0 * PI * i as f64 / 32.0).sin())
            .collect();
        let periods = dominant_periods(&series, 1);
        assert!((periods[0].0 - 32.0).abs() < 1.0, "{periods:?}");
    }

    #[test]
    fn predicted_swings_finds_big_moves() {
        // Flat, then a 1000-unit step at offset 10.
        let mut fc = vec![0.0; 10];
        fc.extend(vec![1_000.0; 10]);
        let hits = predicted_swings(&fc, 750.0, 3);
        // Offsets 8 and 9 see the step inside their 3-wide window.
        assert!(hits.contains(&8) && hits.contains(&9), "{hits:?}");
        assert!(!hits.contains(&0));
        assert!(!hits.contains(&15));
        // Small moves do not trigger.
        assert!(predicted_swings(&[0.0, 100.0, 200.0], 750.0, 3).is_empty());
    }
}
