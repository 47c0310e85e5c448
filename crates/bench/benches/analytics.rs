//! B3/B4 — analytics algorithm throughput: detectors, feature extraction
//! (including the CS-vs-raw ablation), forecasters, FFT/harmonic fits and
//! classifiers.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use oda_analytics::descriptive::quantile::P2Quantile;
use oda_analytics::descriptive::stats::{correlation, RollingStats, Welford};
use oda_analytics::diagnostic::detector::{
    AnomalyDetector, EwmaControlChart, IqrDetector, ZScoreDetector,
};
use oda_analytics::diagnostic::smoothing::CorrelationSmoothing;
use oda_analytics::predictive::ar::ArModel;
use oda_analytics::predictive::fft::{fft, SpectralForecaster};
use oda_analytics::predictive::forecast::{Forecaster, HoltWinters};
use oda_analytics::predictive::harmonic::HarmonicModel;
use oda_analytics::predictive::regression::RidgeRegression;
use std::hint::black_box;

fn series(n: usize) -> Vec<f64> {
    (0..n)
        .map(|i| {
            10.0 + 3.0 * (i as f64 / 24.0).sin()
                + ((i as u64).wrapping_mul(2654435761) % 100) as f64 * 0.01
        })
        .collect()
}

fn bench_streaming_stats(c: &mut Criterion) {
    let mut g = c.benchmark_group("streaming_stats");
    let xs = series(10_000);
    g.throughput(Throughput::Elements(xs.len() as u64));
    g.bench_function("welford_10k", |b| {
        b.iter(|| {
            let mut w = Welford::new();
            for &x in &xs {
                w.push(x);
            }
            black_box(w.variance())
        });
    });
    g.bench_function("rolling_256_10k", |b| {
        b.iter(|| {
            let mut r = RollingStats::new(256);
            for &x in &xs {
                r.push(x);
            }
            black_box(r.mean())
        });
    });
    g.bench_function("p2_quantile_10k", |b| {
        b.iter(|| {
            let mut p = P2Quantile::new(0.95);
            for &x in &xs {
                p.push(x);
            }
            black_box(p.value())
        });
    });
    g.finish();
}

fn bench_detectors(c: &mut Criterion) {
    let mut g = c.benchmark_group("detectors");
    let xs = series(10_000);
    g.throughput(Throughput::Elements(xs.len() as u64));
    g.bench_function("zscore_10k", |b| {
        b.iter(|| {
            let mut d = ZScoreDetector::new(128, 4.0);
            let mut hits = 0u32;
            for &x in &xs {
                if d.observe(x) >= 1.0 {
                    hits += 1;
                }
            }
            black_box(hits)
        });
    });
    g.bench_function("iqr_10k", |b| {
        b.iter(|| {
            let mut d = IqrDetector::new(128, 1.5);
            let mut hits = 0u32;
            for &x in &xs {
                if d.observe(x) >= 1.0 {
                    hits += 1;
                }
            }
            black_box(hits)
        });
    });
    g.bench_function("ewma_chart_10k", |b| {
        b.iter(|| {
            let mut d = EwmaControlChart::new(0.2, 3.0);
            let mut hits = 0u32;
            for &x in &xs {
                if d.observe(x) >= 1.0 {
                    hits += 1;
                }
            }
            black_box(hits)
        });
    });
    let fleet: Vec<Vec<f64>> = (0..512).map(|_| series(512)).collect();
    g.bench_function("fleet_scan_512", |b| {
        b.iter(|| {
            let hits: u32 = fleet
                .iter()
                .map(|s| {
                    let mut d = ZScoreDetector::new(64, 4.0);
                    s.iter().filter(|&&x| d.observe(x) >= 1.0).count() as u32
                })
                .sum();
            black_box(hits)
        });
    });
    g.finish();
}

fn bench_features(c: &mut Criterion) {
    let mut g = c.benchmark_group("features");
    // CS ablation: descriptor vs raw-vector distance work for a 64-sensor
    // node state.
    let training: Vec<Vec<f64>> = (0..64).map(|_| series(512)).collect();
    let cs = CorrelationSmoothing::fit(&training, 4);
    let snapshot: Vec<f64> = training.iter().map(|s| s[100]).collect();
    g.bench_function("cs_fit_64x512", |b| {
        b.iter(|| black_box(CorrelationSmoothing::fit(&training, 4).order().len()));
    });
    g.bench_function("cs_descriptor_64", |b| {
        b.iter(|| black_box(cs.descriptor(&snapshot).len()));
    });
    g.bench_function("correlation_512", |b| {
        b.iter(|| black_box(correlation(&training[0], &training[1])));
    });
    g.finish();
}

fn bench_forecasters(c: &mut Criterion) {
    let mut g = c.benchmark_group("forecasters");
    let xs = series(4_096);
    g.bench_function("holt_winters_update_4k", |b| {
        b.iter(|| {
            let mut hw = HoltWinters::new(0.3, 0.05, 0.3, 96);
            for &x in &xs {
                hw.update(x);
            }
            black_box(hw.forecast(96))
        });
    });
    g.bench_function("ar8_fit_4k", |b| {
        b.iter(|| black_box(ArModel::fit(&xs, 8).map(|m| m.residual_std)));
    });
    g.bench_function("ridge_fit_1000x8", |b| {
        let rows: Vec<Vec<f64>> = (0..1_000)
            .map(|i| {
                (0..8)
                    .map(|j| ((i * 7 + j * 13) % 100) as f64 * 0.01)
                    .collect()
            })
            .collect();
        let ys: Vec<f64> = rows.iter().map(|r| r.iter().sum()).collect();
        b.iter(|| black_box(RidgeRegression::fit(&rows, &ys, 0.1).map(|m| m.weights()[0])));
    });
    for n in [1_024usize, 8_192] {
        g.bench_with_input(BenchmarkId::new("fft", n), &n, |b, &n| {
            let data: Vec<(f64, f64)> = (0..n).map(|i| ((i as f64 * 0.1).sin(), 0.0)).collect();
            b.iter(|| {
                let mut buf = data.clone();
                fft(&mut buf);
                black_box(buf[1].0)
            });
        });
    }
    g.bench_function("spectral_fit_4k_top12", |b| {
        b.iter(|| black_box(SpectralForecaster::fit(&xs, 12).map(|m| m.value_at(0.0))));
    });
    g.bench_function("harmonic_fit_768_h40", |b| {
        let day = series(768);
        b.iter(|| black_box(HarmonicModel::fit(&day, 96.0, 40).map(|m| m.rmse)));
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_streaming_stats,
    bench_detectors,
    bench_features,
    bench_forecasters
);
criterion_main!(benches);
