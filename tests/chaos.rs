//! Chaos integration suite: one test per monitoring-path fault kind,
//! driving the full pipeline (simulator → bus → store → alerts →
//! forecasts) at a fixed seed and asserting *bounded degradation* — the
//! pipeline never panics, non-finite values never become alert evidence,
//! forecasters abstain when most of their input is missing, and replaying
//! the same seed reproduces the degraded run bit for bit.

use hpc_oda::analytics::predictive::forecast::{Forecaster, GapTolerant, Holt};
use hpc_oda::sim::prelude::*;
use hpc_oda::telemetry::alert::{AlertEngine, AlertRule, AlertSeverity, Condition};
use hpc_oda::telemetry::reading::Timestamp;

const TICKS: u64 = 1_800; // 30 simulated minutes at 1 s per tick
const SAMPLE_EVERY: u64 = 10;

fn run_site(seed: u64, schedule: Vec<Fault>) -> DataCenter {
    let mut dc = DataCenter::builder(DataCenterConfig::tiny())
        .seed(seed)
        .build();
    for fault in schedule {
        dc.inject_fault(fault);
    }
    dc.run_ticks(TICKS);
    dc
}

fn mins(m: u64) -> Timestamp {
    Timestamp::from_millis(m * 60_000)
}

#[test]
fn sensor_dropout_leaves_gap_but_other_streams_flow() {
    let schedule = vec![Fault::new(
        FaultKind::SensorDropout {
            pattern: "/hw/node0/temp_c".to_owned(),
        },
        mins(5),
        mins(25),
    )];
    let dc = run_site(7, schedule);
    let temp0 = dc.registry().lookup("/hw/node0/temp_c").unwrap();
    let temp1 = dc.registry().lookup("/hw/node1/temp_c").unwrap();

    let during = dc.store().range(temp0, mins(5), mins(25));
    assert!(during.is_empty(), "dropout window must archive nothing");
    assert!(!dc.store().range(temp1, mins(5), mins(25)).is_empty());
    // The gap is visible in the health report.
    let health = dc.store().sensor_health(temp0).unwrap();
    assert!(
        health.max_gap_ms >= 19 * 60_000,
        "gap {} ms",
        health.max_gap_ms
    );
    assert!(dc.faults().suppressed() > 0);
}

#[test]
fn stuck_at_latches_archived_values() {
    let schedule = vec![Fault::new(
        FaultKind::StuckAt {
            pattern: "/facility/outside_temp".to_owned(),
        },
        mins(5),
        mins(30),
    )];
    let dc = run_site(8, schedule);
    let outside = dc.registry().lookup("/facility/outside_temp").unwrap();
    let stuck: Vec<f64> = dc
        .store()
        .range(outside, mins(6), mins(29))
        .iter()
        .map(|r| r.value)
        .collect();
    assert!(stuck.len() > 10);
    assert!(
        stuck.windows(2).all(|w| w[0] == w[1]),
        "stuck sensor must repeat one value"
    );
    // The clean run varies (weather drifts over 25 minutes).
    let clean = run_site(8, Vec::new());
    let varied: Vec<f64> = clean
        .store()
        .range(outside, mins(6), mins(29))
        .iter()
        .map(|r| r.value)
        .collect();
    assert!(varied.windows(2).any(|w| w[0] != w[1]));
}

#[test]
fn nan_burst_never_reaches_store_or_alerts() {
    let schedule = vec![Fault::new(
        FaultKind::NanBurst {
            pattern: "/hw/node0/power_w".to_owned(),
            p: 1.0,
        },
        mins(5),
        mins(25),
    )];
    let mut dc = DataCenter::builder(DataCenterConfig::tiny())
        .seed(9)
        .build();
    for fault in schedule {
        dc.inject_fault(fault);
    }
    let power0 = dc.registry().lookup("/hw/node0/power_w").unwrap();
    // A rule any finite power reading violates: if NaN carried alert
    // evidence, the fault window would emit events with NaN readings.
    let mut alerts = AlertEngine::new(vec![AlertRule::new(
        "power-seen",
        power0,
        Condition::Above(-1.0),
        AlertSeverity::Info,
    )]);
    let sub = dc
        .bus()
        .subscription("/hw/node0/power_w")
        .capacity(4_096)
        .named("chaos-alerts")
        .subscribe();
    dc.run_ticks(TICKS);
    while let Ok(batch) = sub.rx.try_recv() {
        for &r in &batch.readings {
            for event in alerts.observe(batch.sensor, r) {
                assert!(
                    event.reading.value.is_finite(),
                    "alert carried a non-finite reading"
                );
            }
        }
    }
    // Every archived sample is finite; the rejections are counted.
    assert!(dc
        .store()
        .last_n(power0, 10_000)
        .iter()
        .all(|r| r.value.is_finite()));
    let health = dc.store().sensor_health(power0).unwrap();
    assert!(health.rejected_non_finite > 0);
}

#[test]
fn spike_raises_false_alerts_that_a_clean_run_does_not() {
    let pue_rule = |dc: &DataCenter| {
        AlertRule::new(
            "pue-implausible",
            dc.registry().lookup("/facility/pue").unwrap(),
            Condition::Outside { lo: 0.5, hi: 3.0 },
            AlertSeverity::Critical,
        )
    };
    let drive = |schedule: Vec<Fault>| -> u64 {
        let mut dc = DataCenter::builder(DataCenterConfig::tiny())
            .seed(11)
            .build();
        for fault in schedule {
            dc.inject_fault(fault);
        }
        let mut alerts = AlertEngine::new(vec![pue_rule(&dc)]);
        let sub = dc
            .bus()
            .subscription("/facility/pue")
            .capacity(4_096)
            .named("chaos-pue")
            .subscribe();
        dc.run_ticks(TICKS);
        let mut raised = 0;
        while let Ok(batch) = sub.rx.try_recv() {
            for &r in &batch.readings {
                raised += alerts
                    .observe(batch.sensor, r)
                    .iter()
                    .filter(|e| e.active)
                    .count() as u64;
            }
        }
        raised
    };
    let spikes = vec![Fault::new(
        FaultKind::Spike {
            pattern: "/facility/pue".to_owned(),
            magnitude: 50.0,
            p: 0.5,
        },
        mins(5),
        mins(25),
    )];
    assert_eq!(drive(Vec::new()), 0, "clean PUE must stay plausible");
    assert!(drive(spikes) > 0, "spikes must trip the range rule");
}

#[test]
fn clock_jitter_causes_counted_out_of_order_rejections() {
    let schedule = vec![Fault::new(
        FaultKind::ClockJitter {
            pattern: "/hw/node0/*".to_owned(),
            max_skew_ms: 30_000,
        },
        mins(5),
        mins(25),
    )];
    let dc = run_site(12, schedule);
    let health = dc.store().health_report();
    assert!(
        health.total_rejected() > 0,
        "backward skews must be rejected"
    );
    // Whatever was archived is still strictly time-ordered per sensor.
    let temp0 = dc.registry().lookup("/hw/node0/temp_c").unwrap();
    let series = dc.store().last_n(temp0, 10_000);
    assert!(series.windows(2).all(|w| w[0].ts < w[1].ts));
}

#[test]
fn node_failure_blacks_out_the_node_and_only_the_node() {
    let schedule = vec![Fault::new(
        FaultKind::NodeFailure { node: NodeId(2) },
        mins(5),
        mins(25),
    )];
    let dc = run_site(13, schedule);
    for stream in [
        "/hw/node2/temp_c",
        "/hw/node2/power_w",
        "/sw/node2/sys_mem_gib",
    ] {
        let id = dc.registry().lookup(stream).unwrap();
        assert!(
            dc.store().range(id, mins(5), mins(25)).is_empty(),
            "{stream} must be dark during the failure"
        );
    }
    let other = dc.registry().lookup("/hw/node1/temp_c").unwrap();
    assert!(!dc.store().range(other, mins(5), mins(25)).is_empty());
}

#[test]
fn burst_load_adds_jobs_without_corrupting_telemetry() {
    let schedule = vec![Fault::new(
        FaultKind::BurstLoad {
            jobs: 6,
            duration_s: 300.0,
        },
        mins(5),
        mins(6),
    )];
    let faulty = run_site(14, schedule);
    let clean = run_site(14, Vec::new());
    assert!(
        faulty.snapshot().completed > clean.snapshot().completed,
        "burst jobs must run to completion"
    );
    let tf = faulty.faults();
    assert_eq!(tf.suppressed(), 0);
    assert_eq!(tf.corrupted(), 0);
}

#[test]
fn forecaster_abstains_when_most_of_the_window_is_missing() {
    // Dropout covers ~70% of the run; feed the gap-tolerant forecaster one
    // sample (or NaN) per sampling frame, the way the soak harness does.
    let schedule = vec![Fault::new(
        FaultKind::SensorDropout {
            pattern: "/facility/power/it_kw".to_owned(),
        },
        mins(8),
        mins(30),
    )];
    let mut dc = DataCenter::builder(DataCenterConfig::tiny())
        .seed(15)
        .build();
    for fault in schedule {
        dc.inject_fault(fault);
    }
    let it = dc.registry().lookup("/facility/power/it_kw").unwrap();
    let mut forecaster = GapTolerant::new(Holt::new(0.4, 0.1), 3, 40);
    let sub = dc
        .bus()
        .subscription("/facility/power/it_kw")
        .capacity(64)
        .named("chaos-forecast")
        .subscribe();
    let mut frame = None;
    for tick in 1..=TICKS {
        dc.step();
        while let Ok(batch) = sub.rx.try_recv() {
            frame = batch.readings.last().map(|r| r.value);
        }
        if tick % SAMPLE_EVERY == 0 {
            forecaster.update(frame.take().unwrap_or(f64::NAN));
        }
    }
    assert!(dc.store().sensor_health(it).unwrap().len > 0);
    assert!(
        forecaster.missing_fraction() > 0.5,
        "dropout must dominate the recent window"
    );
    assert_eq!(forecaster.forecast(1), None, "forecaster must abstain");
}

#[test]
fn persistent_soak_digest_survives_a_mid_run_archive_restart_at_any_worker_count() {
    use hpc_oda::telemetry::storage::BackendKind;
    use oda_bench::chaos::{run_soak, SoakConfig};

    const SOAK_TICKS: u64 = 2_000; // 2 evaluation windows at the default width
    let soak = |workers: usize| SoakConfig::clean(23, SOAK_TICKS).with_workers(workers);
    // The in-memory baseline pins what an uninterrupted volatile archive
    // produces; the durable lanes must reproduce it bit for bit.
    let baseline = run_soak(&soak(1));
    for workers in [1usize, 4] {
        let persistent = run_soak(&soak(workers).with_backend(BackendKind::Persistent));
        let restarted = run_soak(
            &soak(workers)
                .with_backend(BackendKind::Persistent)
                .with_restart_at_window(1),
        );
        assert_eq!(restarted.restarts, 1, "the drill must have fired");
        assert!(
            restarted.recovered_readings > 0,
            "recovery must replay the durable archive"
        );
        assert_eq!(
            persistent.digest, restarted.digest,
            "workers={workers}: restart-in-the-middle changed the output digest"
        );
        if workers == 1 {
            assert_eq!(
                baseline.digest, persistent.digest,
                "persistent backend changed the output digest vs in-memory"
            );
        }
    }
}

#[test]
fn identical_seeds_reproduce_the_degraded_run_exactly() {
    let schedule = || {
        vec![
            Fault::new(
                FaultKind::NanBurst {
                    pattern: "/hw/*/power_w".to_owned(),
                    p: 0.4,
                },
                mins(3),
                mins(20),
            ),
            Fault::new(
                FaultKind::Spike {
                    pattern: "/facility/pue".to_owned(),
                    magnitude: 10.0,
                    p: 0.3,
                },
                mins(6),
                mins(22),
            ),
            Fault::new(
                FaultKind::SensorDropout {
                    pattern: "/hw/node3/*".to_owned(),
                },
                mins(8),
                mins(18),
            ),
        ]
    };
    let a = run_site(16, schedule());
    let b = run_site(16, schedule());
    let ta = a.faults();
    let tb = b.faults();
    assert_eq!(ta.suppressed(), tb.suppressed());
    assert_eq!(ta.corrupted(), tb.corrupted());
    for name in ["/facility/pue", "/hw/node0/power_w", "/hw/node3/temp_c"] {
        let ia = a.registry().lookup(name).unwrap();
        let ib = b.registry().lookup(name).unwrap();
        assert_eq!(
            a.store().last_n(ia, 10_000),
            b.store().last_n(ib, 10_000),
            "series {name} must replay identically"
        );
    }
    // And all three fault kinds were concurrently active mid-run.
    assert!(ta.active_at(mins(10)).len() >= 3);
}
