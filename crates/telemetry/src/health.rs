//! Health accounting for the monitoring path itself.
//!
//! ODA treats telemetry as best-effort: collectors die, sensors latch, slow
//! consumers shed load. Analytics stages therefore need to know not just
//! *what* the data says but *how much data there is to say it with*. This
//! module surfaces that meta-telemetry: per-sensor ingest statistics
//! (last-seen timestamps, gap sizes, rejection counters) rolled up into a
//! [`HealthReport`] the pipeline — and the chaos harness — can interrogate.

use crate::reading::Timestamp;
use crate::sensor::SensorId;
use serde::Serialize;

/// Ingest-side health of one sensor's series.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct SensorHealth {
    /// The sensor this row describes.
    pub sensor: SensorId,
    /// Readings currently retained.
    pub len: usize,
    /// Timestamp of the newest accepted reading.
    pub last_seen: Option<Timestamp>,
    /// Readings evicted by ring-buffer wrap-around.
    pub evicted: u64,
    /// Readings rejected for an out-of-order timestamp (clock skew,
    /// replayed batches).
    pub rejected_out_of_order: u64,
    /// Readings rejected for a NaN/infinite value.
    pub rejected_non_finite: u64,
    /// Largest gap between consecutive accepted readings, milliseconds.
    pub max_gap_ms: u64,
}

impl SensorHealth {
    /// Total readings rejected at ingest for this sensor.
    pub fn rejected(&self) -> u64 {
        self.rejected_out_of_order + self.rejected_non_finite
    }
}

/// Occupancy of one rollup tier, aggregated over all sensors.
///
/// `buckets`/`evicted` are sums across sensors; `capacity` is the
/// *per-sensor* ring limit, so a store with `n` sensors saturates at
/// `n * capacity` buckets for the tier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct TierOccupancy {
    /// Bucket width of the tier, milliseconds.
    pub bucket_ms: u64,
    /// Per-sensor bucket-ring capacity.
    pub capacity: usize,
    /// Buckets currently retained, summed over sensors.
    pub buckets: u64,
    /// Buckets evicted by ring wrap-around, summed over sensors.
    pub evicted: u64,
}

/// Point-in-time roll-up of every sensor's ingest health.
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct HealthReport {
    /// Per-sensor rows, ordered by sensor index.
    pub sensors: Vec<SensorHealth>,
    /// Rollup-tier occupancy, one row per configured tier (empty for
    /// raw-only stores). Defaults to empty when deserialising reports
    /// produced before tiers existed.
    #[serde(default)]
    pub rollups: Vec<TierOccupancy>,
}

impl HealthReport {
    /// Number of sensors with at least one retained or rejected reading.
    pub fn sensor_count(&self) -> usize {
        self.sensors.len()
    }

    /// Health row for `sensor`, if it ever reached the store.
    pub fn sensor(&self, sensor: SensorId) -> Option<&SensorHealth> {
        self.sensors.iter().find(|h| h.sensor == sensor)
    }

    /// Total readings currently retained.
    pub fn total_len(&self) -> usize {
        self.sensors.iter().map(|h| h.len).sum()
    }

    /// Total readings evicted by wrap-around.
    pub fn total_evicted(&self) -> u64 {
        self.sensors.iter().map(|h| h.evicted).sum()
    }

    /// Total readings rejected at ingest (out-of-order + non-finite).
    pub fn total_rejected(&self) -> u64 {
        self.sensors.iter().map(|h| h.rejected()).sum()
    }

    /// Largest accepted inter-reading gap across all sensors, milliseconds.
    pub fn max_gap_ms(&self) -> u64 {
        self.sensors.iter().map(|h| h.max_gap_ms).max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(idx: u32, last_seen: Option<u64>) -> SensorHealth {
        SensorHealth {
            sensor: SensorId(idx),
            len: 4,
            last_seen: last_seen.map(Timestamp::from_millis),
            evicted: 2,
            rejected_out_of_order: 1,
            rejected_non_finite: 3,
            max_gap_ms: 500 * (idx as u64 + 1),
        }
    }

    #[test]
    fn totals_roll_up() {
        let rep = HealthReport {
            sensors: vec![row(0, Some(1_000)), row(1, Some(9_000))],
            rollups: Vec::new(),
        };
        assert_eq!(rep.sensor_count(), 2);
        assert_eq!(rep.total_len(), 8);
        assert_eq!(rep.total_evicted(), 4);
        assert_eq!(rep.total_rejected(), 8);
        assert_eq!(rep.max_gap_ms(), 1_000);
        assert!(rep.sensor(SensorId(1)).is_some());
        assert!(rep.sensor(SensorId(7)).is_none());
    }

    #[test]
    fn report_serialises_tier_occupancy() {
        let full = HealthReport {
            sensors: Vec::new(),
            rollups: vec![TierOccupancy {
                bucket_ms: 10_000,
                capacity: 1_024,
                buckets: 3,
                evicted: 1,
            }],
        };
        let json = serde_json::to_string(&full).unwrap();
        assert!(
            json.contains("\"rollups\""),
            "tier occupancy must be exported: {json}"
        );
        assert!(
            json.contains("\"bucket_ms\":10000"),
            "tier width must be exported: {json}"
        );
    }
}
