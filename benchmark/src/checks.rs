//! Correctness checks. Any failure makes the run report `correct: false`,
//! counts as a failed operation and turns the exit code non-zero.
//!
//! Each check is a plain function from observed values to a verdict, so the
//! tests at the bottom can hand it a deliberately corrupted observation and
//! see it fire.

use oda_telemetry::bus::{Subscription, TelemetryBus};
use oda_telemetry::query::{Aggregation, TimeRange};
use oda_telemetry::reading::{Reading, Timestamp};
use oda_telemetry::sensor::SensorId;
use oda_telemetry::storage::codec::fnv1a64;
use std::collections::BTreeMap;

/// Verdicts of one run.
#[derive(Debug, Default)]
pub struct Checks {
    pub run: u64,
    pub failures: Vec<String>,
}

impl Checks {
    pub fn record(&mut self, verdict: Result<(), String>) {
        self.run += 1;
        if let Err(why) = verdict {
            eprintln!("CHECK FAILED: {why}");
            self.failures.push(why);
        }
    }
}

/// Ledger: everything published was either accepted or rejected, and the
/// fault-free stream gives the store nothing to reject.
pub fn ledger(published: u64, accepted: u64, rejected: u64) -> Result<(), String> {
    if published != accepted + rejected {
        return Err(format!(
            "ledger: published {published} != accepted {accepted} + rejected {rejected}"
        ));
    }
    if rejected != 0 {
        return Err(format!(
            "ledger: {rejected} readings rejected from a fault-free stream"
        ));
    }
    Ok(())
}

/// Durability: the durable tier(s) hold exactly the accepted readings.
pub fn durable_matches(what: &str, durable_len: u64, accepted: u64) -> Result<(), String> {
    if durable_len == accepted {
        Ok(())
    } else {
        Err(format!(
            "{what}: durable_len {durable_len} != accepted {accepted}"
        ))
    }
}

/// Two digests that must agree (cross-plane, recovery, determinism).
pub fn digests_equal(what: &str, expected: u64, got: u64) -> Result<(), String> {
    if expected == got {
        Ok(())
    } else {
        Err(format!(
            "{what}: digest {got:016x} != expected {expected:016x}"
        ))
    }
}

/// The `x-result-digest` header against a locally computed digest.
pub fn header_digest_equals(what: &str, header: Option<&str>, expected: u64) -> Result<(), String> {
    match header.and_then(|h| u64::from_str_radix(h, 16).ok()) {
        Some(got) => digests_equal(what, expected, got),
        None => Err(format!("{what}: missing or malformed x-result-digest")),
    }
}

/// Cache: a served hit equals uncached re-execution byte for byte.
pub fn bodies_equal(what: &str, served: &[u8], fresh: &[u8]) -> Result<(), String> {
    if served == fresh {
        Ok(())
    } else {
        Err(format!(
            "{what}: served body ({} B) differs from fresh execution ({} B)",
            served.len(),
            fresh.len()
        ))
    }
}

/// Count-valued metrics of two rounds of one seed.
pub fn counts_equal(
    first: &BTreeMap<&'static str, u64>,
    later: &BTreeMap<&'static str, u64>,
) -> Result<(), String> {
    for (name, value) in first {
        let other = later.get(name).copied();
        if other != Some(*value) {
            return Err(format!(
                "determinism: {name} was {value} in round 0 and {other:?} in a later round"
            ));
        }
    }
    Ok(())
}

/// FNV-1a over readings, bit-level (timestamps and IEEE-754 value bits).
pub fn readings_digest<'a>(series: impl IntoIterator<Item = &'a [Reading]>) -> u64 {
    let mut bytes = Vec::new();
    for readings in series {
        bytes.extend_from_slice(&(readings.len() as u64).to_le_bytes());
        for r in readings {
            bytes.extend_from_slice(&r.ts.0.to_le_bytes());
            bytes.extend_from_slice(&r.value.to_bits().to_le_bytes());
        }
    }
    fnv1a64(&bytes)
}

/// Aggregations every path must reproduce bit for bit. Mean and sum are
/// left out on purpose: tiers and shards may legitimately add in another
/// order.
pub const REFERENCE_AGGS: [Aggregation; 4] = [
    Aggregation::Count,
    Aggregation::Min,
    Aggregation::Max,
    Aggregation::Last,
];

/// The reference model: the `/facility/**` stream as captured from a bus
/// subscription, in plain vectors, folded with plain loops.
pub struct Reference {
    sub: Subscription,
    sensors: Vec<SensorId>,
    series: BTreeMap<SensorId, Vec<Reading>>,
}

impl Reference {
    /// Subscribes before the first tick so nothing is missed.
    pub fn attach(bus: &TelemetryBus) -> Reference {
        let mut sensors = bus
            .registry()
            .matching(&oda_telemetry::pattern::SensorPattern::new("/facility/**"));
        sensors.sort_unstable_by_key(|s| s.index());
        Reference {
            sub: bus
                .subscription("/facility/**")
                .named("e2e-reference")
                .subscribe(),
            series: sensors.iter().map(|s| (*s, Vec::new())).collect(),
            sensors,
        }
    }

    /// Moves delivered batches into the vectors; call at least once per
    /// tick so the bounded channel never sheds.
    pub fn drain(&mut self) {
        while let Ok(batch) = self.sub.rx.try_recv() {
            self.series
                .entry(batch.sensor)
                .or_default()
                .extend(batch.readings);
        }
    }

    /// Flips one bit of the newest captured reading of the first sensor.
    #[cfg(test)]
    pub fn corrupt(&mut self) {
        let newest = self
            .series
            .values_mut()
            .next()
            .and_then(|series| series.last_mut())
            .expect("reference holds readings");
        newest.value = f64::from_bits(newest.value.to_bits() ^ 1);
    }

    /// Batches the bus shed for this subscriber; must stay zero.
    pub fn shed(&self) -> u64 {
        self.sub.dropped()
    }

    pub fn sensors(&self) -> &[SensorId] {
        &self.sensors
    }

    /// Per-sensor scalar of `agg` over `range`, folded the obvious way.
    pub fn fold(&self, agg: Aggregation, range: TimeRange) -> Vec<Option<f64>> {
        self.sensors
            .iter()
            .map(|s| {
                let mut in_range = self.series[s]
                    .iter()
                    .filter(|r| r.ts >= range.start && r.ts < range.end)
                    .map(|r| r.value)
                    .peekable();
                in_range.peek()?;
                Some(match agg {
                    Aggregation::Count => in_range.count() as f64,
                    Aggregation::Min => in_range.fold(f64::INFINITY, f64::min),
                    Aggregation::Max => in_range.fold(f64::NEG_INFINITY, f64::max),
                    Aggregation::Last => in_range.last().unwrap_or(f64::NAN),
                    other => unreachable!("{other:?} is not a reference aggregation"),
                })
            })
            .collect()
    }
}

/// One path's scalars against the reference fold, bit for bit.
pub fn scalars_match(
    path: &str,
    agg: Aggregation,
    expected: &[Option<f64>],
    got: &[Option<f64>],
) -> Result<(), String> {
    let bits = |v: &[Option<f64>]| v.iter().map(|x| x.map(f64::to_bits)).collect::<Vec<_>>();
    if bits(expected) == bits(got) {
        Ok(())
    } else {
        Err(format!(
            "reference: {path} path disagrees on {agg:?}: expected {expected:?}, got {got:?}"
        ))
    }
}

/// The window the reference is compared on: the trailing hour, which every
/// workload's ring still holds in full.
pub fn reference_window(now: Timestamp) -> TimeRange {
    TimeRange::trailing(now, crate::site::PASS_WINDOW_MS)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(ts: u64, value: f64) -> Reading {
        Reading::new(Timestamp::from_millis(ts), value)
    }

    #[test]
    fn every_check_passes_on_truth_and_fires_on_a_corrupted_observation() {
        let mut checks = Checks::default();

        assert!(ledger(100, 100, 0).is_ok());
        assert!(ledger(100, 99, 0).is_err());
        assert!(ledger(100, 99, 1).is_err());

        assert!(durable_matches("site", 50, 50).is_ok());
        assert!(durable_matches("site", 49, 50).is_err());

        assert!(digests_equal("recovery", 7, 7).is_ok());
        assert!(digests_equal("recovery", 7, 8).is_err());

        assert!(header_digest_equals("cross-plane", Some("00000000000000ff"), 255).is_ok());
        assert!(header_digest_equals("cross-plane", Some("00000000000000fe"), 255).is_err());
        assert!(header_digest_equals("cross-plane", None, 255).is_err());

        assert!(bodies_equal("cache", b"{\"values\":[1.0]}", b"{\"values\":[1.0]}").is_ok());
        assert!(bodies_equal("cache", b"{\"values\":[1.0]}", b"{\"values\":[1.5]}").is_err());

        let a = BTreeMap::from([("store.accepted", 10u64), ("fs.sync_calls", 3)]);
        let mut b = a.clone();
        assert!(counts_equal(&a, &b).is_ok());
        b.insert("fs.sync_calls", 4);
        assert!(counts_equal(&a, &b).is_err());

        let truth = [Some(1.0), None, Some(-0.0)];
        assert!(scalars_match("raw", Aggregation::Min, &truth, &truth).is_ok());
        // Equal as floats, different bits: still a mismatch.
        let signed_zero = [Some(1.0), None, Some(0.0)];
        assert!(scalars_match("raw", Aggregation::Min, &truth, &signed_zero).is_err());

        checks.record(Ok(()));
        checks.record(ledger(1, 0, 0));
        assert_eq!((checks.run, checks.failures.len()), (2, 1));
    }

    #[test]
    fn readings_digest_sees_every_bit() {
        let a = vec![r(1, 1.0), r(2, 2.0)];
        let mut b = a.clone();
        assert_eq!(readings_digest([&a[..]]), readings_digest([&b[..]]));
        b[1].value = f64::from_bits(2.0f64.to_bits() + 1);
        assert_ne!(readings_digest([&a[..]]), readings_digest([&b[..]]));
        // Series boundaries are part of the content.
        assert_ne!(
            readings_digest([&a[..1], &a[1..]]),
            readings_digest([&a[..]])
        );
    }
}
