//! Chaos soak harness: the full ODA runtime under monitoring-path fault injection.
//!
//! Drives a [`DataCenter`] tick by tick with monitoring-path faults injected,
//! consumes the (possibly corrupted) sensor streams exactly the way the
//! analytics layer does — bus subscription → alert engine → gap-tolerant
//! forecasters — and scores how gracefully the pipeline degrades:
//!
//! * **usable-window fraction** — share of fixed-length evaluation windows
//!   in which every watched sensor still delivered at least half of its
//!   expected finite samples;
//! * **alert behaviour** — alerts raised under faults vs. a clean run at the
//!   same simulation seed (the difference is the false-alert overhead the
//!   corruption caused), plus a count of alert events carrying non-finite
//!   readings (must stay zero: NaN never constitutes alert evidence);
//! * **forecast abstention** — how often the gap-tolerant forecasters
//!   declined to extrapolate because more than half their recent input was
//!   missing;
//! * **determinism** — an order-sensitive digest over everything the
//!   pipeline consumed; two runs with identical `(seed, schedule)` must
//!   produce identical digests.
//!
//! The same harness backs `bin/chaos.rs` (the operator-facing soak) and the
//! `tests/chaos.rs` integration suite.

use oda_analytics::predictive::forecast::{Forecaster, GapTolerant, Holt};
use oda_core::analytics_type::AnalyticsType;
use oda_core::cells;
use oda_core::runtime::{OdaRuntime, RuntimeConfig, SimControlPlane};
use oda_sim::prelude::*;
use oda_telemetry::alert::{AlertEngine, AlertRule, AlertSeverity, Condition};
use oda_telemetry::hash::{fnv1a_fold, FNV_OFFSET};
use oda_telemetry::metrics::MetricsRegistry;
use oda_telemetry::pattern::SensorPattern;
use oda_telemetry::reading::Timestamp;
use oda_telemetry::sensor::SensorId;
use oda_telemetry::storage::{BackendKind, StorageConfig};
use serde::Serialize;
use std::collections::HashMap;

/// Configuration of one soak run.
#[derive(Debug, Clone)]
pub struct SoakConfig {
    /// Site seed (plant + workload + corruption RNG all derive from
    /// their own sub-seeds, so the clean and faulty runs share a plant).
    pub seed: u64,
    /// Number of simulation ticks to run.
    pub ticks: u64,
    /// Evaluation-window length in ticks.
    pub window_ticks: u64,
    /// Faults injected into the site; empty runs the clean baseline.
    pub schedule: Vec<Fault>,
    /// Worker count for the closed-loop ODA runtime the soak drives
    /// once per evaluation window (wired through
    /// `DataCenterConfig::workers`). The determinism check must hold at
    /// *any* worker count — the replay gate runs this soak at 1 and 4.
    pub workers: usize,
    /// Archive backend the site runs over. The digest contract is
    /// backend-invariant: in-memory and persistent must consume
    /// identical streams and drive identical passes.
    pub backend: BackendKind,
    /// If set, restart the archive (flush, drop bus + hot store, recover
    /// from WAL + segments) after this many evaluation windows have closed.
    /// With a durable backend and complete durable history, the digest must
    /// be bit-identical to an uninterrupted run.
    pub restart_at_window: Option<u64>,
}

impl SoakConfig {
    /// A clean baseline run.
    pub fn clean(seed: u64, ticks: u64) -> Self {
        SoakConfig {
            seed,
            ticks,
            window_ticks: 1_000,
            schedule: Vec::new(),
            workers: 1,
            backend: BackendKind::InMemory,
            restart_at_window: None,
        }
    }

    /// A faulted run under `schedule`.
    pub fn faulty(seed: u64, ticks: u64, schedule: Vec<Fault>) -> Self {
        SoakConfig {
            schedule,
            ..Self::clean(seed, ticks)
        }
    }

    /// Sets the runtime worker count. Builder-style.
    #[must_use]
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Sets the archive backend. Builder-style.
    #[must_use]
    pub fn with_backend(mut self, backend: BackendKind) -> Self {
        self.backend = backend;
        self
    }

    /// Restarts the archive after `window` evaluation windows. Builder-style.
    #[must_use]
    pub fn with_restart_at_window(mut self, window: u64) -> Self {
        self.restart_at_window = Some(window);
        self
    }
}

/// Everything a soak run measured.
#[derive(Debug, Clone, Serialize)]
pub struct SoakReport {
    /// Ticks simulated.
    pub ticks: u64,
    /// Evaluation windows scored.
    pub windows: u64,
    /// Windows in which every watched sensor delivered ≥ 50% of its
    /// expected finite samples.
    pub usable_windows: u64,
    /// Alert *raise* events observed.
    pub alerts_raised: u64,
    /// Alert raise/clear events total.
    pub alert_events: u64,
    /// Alert events whose triggering reading was non-finite (must be 0).
    pub nan_alert_events: u64,
    /// Per-window forecasts the gap-tolerant layer produced.
    pub forecasts_made: u64,
    /// Per-window forecasts abstained (> 50% of recent input missing).
    pub forecasts_abstained: u64,
    /// Readings the fault layer suppressed outright.
    pub suppressed: u64,
    /// Readings the fault layer altered (value or timestamp).
    pub corrupted: u64,
    /// Store-side rejections (out-of-order + non-finite) over all sensors.
    pub store_rejected: u64,
    /// Largest inter-sample gap archived for any sensor, milliseconds.
    pub max_gap_ms: u64,
    /// Batches the bus delivered to subscribers.
    pub bus_delivered: u64,
    /// Batches the bus shed on full subscriber channels.
    pub bus_dropped: u64,
    /// Maximum number of faults simultaneously active.
    pub max_concurrent_faults: usize,
    /// Jobs the site completed (burst-load faults must still make progress).
    pub jobs_completed: usize,
    /// Closed-loop analytics passes driven (one per evaluation window).
    pub runtime_passes: u64,
    /// Prescriptions the runtime applied through the sim control plane.
    pub prescriptions_applied: u64,
    /// Prescriptions deferred to an operator (or unrecognised).
    pub prescriptions_deferred: u64,
    /// Archive restarts performed mid-run.
    pub restarts: u64,
    /// Readings the durable backend recovered across restarts (0 without a
    /// restart or with the in-memory backend).
    pub recovered_readings: u64,
    /// Order-sensitive FNV-1a digest over every consumed reading and alert
    /// transition; equal seeds + equal schedules ⇒ equal digests.
    pub digest: u64,
}

impl SoakReport {
    /// Fraction of windows with usable output, in `[0, 1]`.
    pub fn usable_fraction(&self) -> f64 {
        if self.windows == 0 {
            return 1.0;
        }
        self.usable_windows as f64 / self.windows as f64
    }
}

/// The sensors the soak pipeline watches end to end.
const WATCHED: [&str; 3] = ["/facility/power/it_kw", "/hw/node0/temp_c", "/facility/pue"];

/// A hand-built schedule with a guaranteed overlap of all seven
/// monitoring-path fault kinds (every fault is active during
/// `[0.45, 0.46) × horizon`); `bin/chaos` adds `faults::randomized`
/// background faults on top.
pub fn demo_schedule(ticks: u64, tick_ms: u64) -> Vec<Fault> {
    let h = ticks.saturating_mul(tick_ms);
    let at = |frac: f64| Timestamp::from_millis((h as f64 * frac) as u64);
    vec![
        Fault::new(
            FaultKind::SensorDropout {
                pattern: "/hw/node0/temp_c".to_owned(),
            },
            at(0.10),
            at(0.60),
        ),
        Fault::new(
            FaultKind::NanBurst {
                pattern: "/hw/*/power_w".to_owned(),
                p: 0.3,
            },
            at(0.20),
            at(0.70),
        ),
        Fault::new(
            FaultKind::Spike {
                pattern: "/facility/power/it_kw".to_owned(),
                magnitude: 40.0,
                p: 0.2,
            },
            at(0.25),
            at(0.75),
        ),
        Fault::new(
            FaultKind::StuckAt {
                pattern: "/hw/node1/util".to_owned(),
            },
            at(0.30),
            at(0.80),
        ),
        Fault::new(
            FaultKind::ClockJitter {
                pattern: "/hw/node2/*".to_owned(),
                max_skew_ms: 15_000,
            },
            at(0.35),
            at(0.65),
        ),
        Fault::new(
            FaultKind::NodeFailure { node: NodeId(3) },
            at(0.40),
            at(0.60),
        ),
        Fault::new(
            FaultKind::BurstLoad {
                jobs: 4,
                duration_s: 600.0,
            },
            at(0.45),
            at(0.46),
        ),
    ]
}

struct Watched {
    sensor: SensorId,
    forecaster: GapTolerant<Holt>,
    /// Value seen in the current sampling frame, if any.
    frame_value: Option<f64>,
    /// Finite samples seen in the current evaluation window.
    window_finite: u64,
}

/// Runs one soak and scores it.
pub fn run_soak(cfg: &SoakConfig) -> SoakReport {
    let mut config = DataCenterConfig::tiny();
    config.workers = cfg.workers;
    config.storage = StorageConfig {
        backend: cfg.backend,
        ..StorageConfig::default()
    };
    let sample_every = config.sample_every_ticks;
    let window_ms = cfg.window_ticks * config.tick_ms;
    let mut dc = DataCenter::builder(config).seed(cfg.seed).build();
    for fault in &cfg.schedule {
        dc.inject_fault(fault.clone());
    }

    // The closed-loop analytics runtime the soak drives once per evaluation
    // window. Scheduling telemetry (busy/contention counters) is
    // determinism-exempt, so metrics stay disabled; everything the replay
    // contract *does* cover — artifacts, prescriptions, emission order —
    // folds into the digest at window close.
    let mut runtime = OdaRuntime::with_config(
        window_ms,
        RuntimeConfig::serial()
            .with_workers(dc.config().workers)
            .with_seed(cfg.seed),
    )
    .with_metrics(MetricsRegistry::disabled())
    .with_capability(
        AnalyticsType::Diagnostic,
        Box::new(cells::diagnostic::InfraAnomalyDetector::new()),
    )
    .with_capability(
        AnalyticsType::Predictive,
        Box::new(cells::predictive::InfraForecaster::new()),
    )
    .with_capability(
        AnalyticsType::Prescriptive,
        Box::new(cells::prescriptive::CoolingOptimizer::new()),
    )
    .with_capability(
        AnalyticsType::Prescriptive,
        Box::new(cells::prescriptive::DvfsTuner::new()),
    );

    let lookup = |name: &str| dc.registry().lookup(name).expect("watched sensor exists");
    let mut watched: Vec<Watched> = WATCHED
        .iter()
        .map(|name| Watched {
            sensor: lookup(name),
            // Holt handles trends in power/temperature; fill gaps up to 3
            // samples, abstain when >50% of the last 40 samples are missing.
            forecaster: GapTolerant::new(Holt::new(0.4, 0.1), 3, 40),
            frame_value: None,
            window_finite: 0,
        })
        .collect();

    let mut alerts = AlertEngine::new(vec![
        AlertRule::new(
            "node0-overtemp",
            lookup("/hw/node0/temp_c"),
            Condition::Above(90.0),
            AlertSeverity::Warning,
        )
        .with_debounce(2)
        .with_clear_debounce(3)
        .with_cooldown_ms(120_000),
        AlertRule::new(
            "pue-implausible",
            lookup("/facility/pue"),
            Condition::Outside { lo: 0.5, hi: 3.0 },
            AlertSeverity::Critical,
        )
        .with_clear_debounce(2),
        AlertRule::new(
            "it-power-implausible",
            lookup("/facility/power/it_kw"),
            Condition::Outside {
                lo: 0.0,
                hi: 1_000.0,
            },
            AlertSeverity::Critical,
        )
        .with_clear_debounce(2),
    ]);

    let mut sub = dc
        .bus()
        .subscription(SensorPattern::new("/**"))
        .capacity(4_096)
        .named("chaos-soak")
        .subscribe();

    let mut report = SoakReport {
        ticks: cfg.ticks,
        windows: 0,
        usable_windows: 0,
        alerts_raised: 0,
        alert_events: 0,
        nan_alert_events: 0,
        forecasts_made: 0,
        forecasts_abstained: 0,
        suppressed: 0,
        corrupted: 0,
        store_rejected: 0,
        max_gap_ms: 0,
        bus_delivered: 0,
        bus_dropped: 0,
        restarts: 0,
        recovered_readings: 0,
        max_concurrent_faults: 0,
        jobs_completed: 0,
        runtime_passes: 0,
        prescriptions_applied: 0,
        prescriptions_deferred: 0,
        digest: FNV_OFFSET,
    };
    let expected_per_window = (cfg.window_ticks / sample_every).max(1);

    let by_sensor: HashMap<SensorId, usize> = watched
        .iter()
        .enumerate()
        .map(|(i, w)| (w.sensor, i))
        .collect();

    for tick in 1..=cfg.ticks {
        dc.step();
        report.max_concurrent_faults = report
            .max_concurrent_faults
            .max(dc.faults().active_at(dc.now()).len());

        // Consume everything published this tick, in publish order.
        while let Ok(batch) = sub.rx.try_recv() {
            let sensor = batch.sensor;
            for &reading in &batch.readings {
                fnv1a_fold(&mut report.digest, &sensor.0.to_le_bytes());
                fnv1a_fold(&mut report.digest, &reading.ts.0.to_le_bytes());
                fnv1a_fold(&mut report.digest, &reading.value.to_bits().to_le_bytes());
                for event in alerts.observe(sensor, reading) {
                    report.alert_events += 1;
                    if event.active {
                        report.alerts_raised += 1;
                    }
                    if !event.reading.value.is_finite() {
                        report.nan_alert_events += 1;
                    }
                    fnv1a_fold(&mut report.digest, event.rule.as_bytes());
                    fnv1a_fold(&mut report.digest, &[event.active as u8]);
                }
                if let Some(&i) = by_sensor.get(&sensor) {
                    watched[i].frame_value = Some(reading.value);
                }
            }
        }

        // Close the sampling frame: a watched sensor that published nothing
        // this frame is a *gap*, which the forecaster must be told about.
        if tick % sample_every == 0 {
            for w in &mut watched {
                let x = w.frame_value.take().unwrap_or(f64::NAN);
                if x.is_finite() {
                    w.window_finite += 1;
                }
                w.forecaster.update(x);
            }
        }

        // Close the evaluation window.
        if tick % cfg.window_ticks == 0 {
            report.windows += 1;
            let usable = watched
                .iter()
                .all(|w| 2 * w.window_finite >= expected_per_window);
            if usable {
                report.usable_windows += 1;
            }
            for w in &mut watched {
                match w.forecaster.forecast(1) {
                    Some(_) => report.forecasts_made += 1,
                    None => report.forecasts_abstained += 1,
                }
                w.window_finite = 0;
            }

            // Drive the full analytics pipeline over the closed window and
            // let its prescriptions actuate the simulator — the faulted run
            // exercises the feedback loop under corruption too. The pass
            // output is covered by the scheduler's determinism contract, so
            // it folds into the replay digest at any worker count.
            let store = std::sync::Arc::clone(dc.store());
            let registry = dc.registry().clone();
            let now = dc.now();
            let pass = runtime.pass(store, registry, now, &mut SimControlPlane { dc: &mut dc });
            report.runtime_passes += 1;
            report.prescriptions_applied += pass.applied as u64;
            report.prescriptions_deferred += pass.deferred as u64;
            fnv1a_fold(&mut report.digest, &pass.run.output_digest().to_le_bytes());
            fnv1a_fold(&mut report.digest, &(pass.applied as u64).to_le_bytes());
            fnv1a_fold(&mut report.digest, &(pass.deferred as u64).to_le_bytes());

            // Archive restart drill: at the configured window boundary (all
            // published batches drained, pass complete), tear the bus + hot
            // store down and recover from the durable tier. The digest folds
            // nothing during the restart itself — with a durable backend the
            // recovered hot state is bit-identical, so every subsequent pass
            // must produce the same output as an uninterrupted run.
            if cfg.restart_at_window == Some(report.windows) {
                let recovery = dc
                    .restart_archive()
                    .expect("the soak's archive must reopen over its own storage fs");
                report.recovered_readings += recovery.readings_recovered;
                report.restarts += 1;
                sub = dc
                    .bus()
                    .subscription(SensorPattern::new("/**"))
                    .capacity(4_096)
                    .named("chaos-soak")
                    .subscribe();
            }
        }
    }

    report.suppressed = dc.faults().suppressed();
    report.corrupted = dc.faults().corrupted();
    let health = dc.store().health_report();
    report.store_rejected = health.total_rejected();
    report.max_gap_ms = health.max_gap_ms();
    report.bus_delivered = dc.bus().delivered_total();
    report.bus_dropped = dc.bus().dropped_total();
    report.jobs_completed = dc.finished_jobs().len();
    fnv1a_fold(&mut report.digest, &report.suppressed.to_le_bytes());
    fnv1a_fold(&mut report.digest, &report.corrupted.to_le_bytes());
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_soak_is_fully_usable_and_quiet() {
        let r = run_soak(&SoakConfig::clean(3, 2_000));
        assert_eq!(r.windows, 2);
        assert_eq!(r.usable_windows, 2);
        assert_eq!(r.suppressed, 0);
        assert_eq!(r.nan_alert_events, 0);
        assert_eq!(r.forecasts_abstained, 0);
    }

    #[test]
    fn soak_digest_is_worker_count_invariant() {
        let ticks = 2_000;
        let schedule = demo_schedule(ticks, 1_000);
        let serial = run_soak(&SoakConfig::faulty(9, ticks, schedule.clone()));
        let parallel = run_soak(&SoakConfig::faulty(9, ticks, schedule).with_workers(4));
        assert_eq!(serial.digest, parallel.digest);
        assert_eq!(serial.prescriptions_applied, parallel.prescriptions_applied);
        assert_eq!(
            serial.prescriptions_deferred,
            parallel.prescriptions_deferred
        );
        assert_eq!(serial.runtime_passes, 2);
    }

    #[test]
    fn soak_digest_is_backend_invariant_and_restart_safe() {
        let ticks = 2_000;
        let base = run_soak(&SoakConfig::clean(5, ticks));
        let persistent =
            run_soak(&SoakConfig::clean(5, ticks).with_backend(BackendKind::Persistent));
        assert_eq!(
            base.digest, persistent.digest,
            "backend choice must not perturb the pipeline"
        );
        let restarted = run_soak(
            &SoakConfig::clean(5, ticks)
                .with_backend(BackendKind::Persistent)
                .with_restart_at_window(1),
        );
        assert_eq!(restarted.restarts, 1);
        assert!(
            restarted.recovered_readings > 0,
            "restart must recover durable readings"
        );
        assert_eq!(
            base.digest, restarted.digest,
            "recovery must be bit-identical"
        );
    }

    #[test]
    fn faulty_soak_is_deterministic_and_degrades_gracefully() {
        let ticks = 3_000;
        let schedule = demo_schedule(ticks, 1_000);
        let a = run_soak(&SoakConfig::faulty(21, ticks, schedule.clone()));
        let b = run_soak(&SoakConfig::faulty(21, ticks, schedule));
        assert_eq!(a.digest, b.digest);
        assert_eq!(a.suppressed, b.suppressed);
        assert!(a.suppressed > 0, "dropout windows must suppress readings");
        assert_eq!(a.nan_alert_events, 0, "NaN must never reach an alert");
        assert!(a.max_concurrent_faults >= 3);
    }
}
