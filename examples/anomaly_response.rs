//! The ENI anomaly-response scenario (paper §V-A, Fig. 3, Bortot et al.):
//! a *diagnostic* component identifies an infrastructure anomaly, a
//! *prescriptive* component responds — both inside the Building
//! Infrastructure pillar, but requiring two different disciplines.
//!
//! A cooling-plant degradation is injected mid-run; the runtime detects it
//! from the plant's specific power and prescribes a response, which the
//! control plane applies. The example prints the KPI trajectory so the
//! detection → response → relief sequence is visible.
//!
//! ```text
//! cargo run --release --example anomaly_response
//! ```

use hpc_oda::analytics::prescriptive::recommend::{recommend, Diagnosis};
use hpc_oda::core::analytics_type::AnalyticsType;
use hpc_oda::core::capability::{Action, Artifact, CapabilityContext};
use hpc_oda::core::cells::diagnostic::InfraAnomalyDetector;
use hpc_oda::core::cells::prescriptive::CoolingOptimizer;
use hpc_oda::core::runtime::{OdaRuntime, RuntimeConfig};
use hpc_oda::sim::prelude::*;
use hpc_oda::telemetry::query::TimeRange;
use hpc_oda::telemetry::reading::Timestamp;

fn main() {
    let mut dc = DataCenter::builder(DataCenterConfig::small())
        .seed(17)
        .build();
    // The plant degrades (fouled heat exchanger) three hours in.
    dc.inject_fault(Fault::new(
        FaultKind::CoolingDegradation { factor: 2.5 },
        Timestamp::from_hours(3),
        Timestamp::from_hours(48),
    ));

    let mut runtime = OdaRuntime::with_config(0, RuntimeConfig::serial())
        .with_capability(
            AnalyticsType::Diagnostic,
            Box::new(InfraAnomalyDetector::new()),
        )
        .with_capability(
            AnalyticsType::Prescriptive,
            Box::new(CoolingOptimizer::new()),
        );

    println!("hour   PUE    cooling kW   setpoint   events");
    let mut responded = false;
    for hour in 1..=8 {
        dc.run_for_hours(1.0);
        let ctx = CapabilityContext::new(
            dc.site().plane(),
            TimeRange::new(Timestamp::ZERO, dc.now() + 1),
            dc.now(),
        );
        let run = runtime.run(ctx);
        let mut events = Vec::new();
        for artifact in run.artifacts() {
            match artifact {
                Artifact::Diagnosis {
                    kind,
                    subject,
                    severity,
                    ..
                } => {
                    events.push(format!("DETECTED {kind} on {subject} (sev {severity:.2})"));
                    // Operators also get ranked recommendations.
                    let recs = recommend(&[Diagnosis {
                        kind: kind.clone(),
                        subject: subject.clone(),
                        severity: *severity,
                    }]);
                    events.push(format!("RECOMMEND: {}", recs[0].action));
                }
                // The control plane applies the setpoint. Once the anomaly
                // response fired, the conservative setting is latched until
                // the plant is serviced — normal operation must not
                // silently override it.
                Artifact::Prescription { action, .. } if !responded => match action {
                    Action::CoolingSetpoint(sp) => dc.set_cooling_setpoint(*sp),
                    Action::ServiceTicket(text) => {
                        events.push(format!("RESPONSE latched: {text}"));
                        responded = true;
                    }
                    _ => {}
                },
                _ => {}
            }
        }
        let snap = dc.snapshot();
        println!(
            "{hour:>4}   {:<6.3} {:<12.2} {:<10.1} {}",
            snap.pue,
            snap.cooling_power_kw,
            snap.setpoint_c,
            events.join(" | ")
        );
    }
    println!(
        "\nThe diagnostic stage needed data-science expertise; the prescriptive stage\n\
         needed plant knowledge and control access — the two-discipline fusion §V-A\n\
         identifies as the cost of multi-type ODA."
    );
}
