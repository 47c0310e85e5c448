//! Timestamps and sensor readings.
//!
//! All timestamps in the workspace are *simulation* timestamps: milliseconds
//! since the start of the monitored epoch. Using a dedicated newtype rather
//! than raw integers keeps the millisecond convention from leaking and makes
//! unit mistakes a type error.

use serde::Serialize;
use std::fmt;
use std::ops::{Add, Sub};

/// A point in time, measured in milliseconds since the epoch of the monitored
/// system (for simulated data centers: the start of the simulation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize)]
pub struct Timestamp(pub u64);

impl Timestamp {
    /// The zero timestamp (start of the epoch).
    pub const ZERO: Timestamp = Timestamp(0);
    /// The greatest representable timestamp.
    pub const MAX: Timestamp = Timestamp(u64::MAX);

    /// Builds a timestamp from whole milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        Timestamp(ms)
    }

    /// Builds a timestamp from whole seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        Timestamp(s * 1_000)
    }

    /// Builds a timestamp from whole minutes.
    #[inline]
    pub const fn from_mins(m: u64) -> Self {
        Timestamp(m * 60_000)
    }

    /// Builds a timestamp from whole hours.
    #[inline]
    pub const fn from_hours(h: u64) -> Self {
        Timestamp(h * 3_600_000)
    }

    /// Milliseconds since the epoch.
    #[inline]
    pub const fn as_millis(self) -> u64 {
        self.0
    }

    /// Seconds since the epoch, truncated.
    #[inline]
    pub const fn as_secs(self) -> u64 {
        self.0 / 1_000
    }

    /// Seconds since the epoch as a float (for arithmetic in models).
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Hours since the epoch as a float.
    #[inline]
    pub fn as_hours_f64(self) -> f64 {
        self.0 as f64 / 3_600_000.0
    }

    /// Saturating difference in milliseconds (`self - earlier`).
    #[inline]
    pub fn millis_since(self, earlier: Timestamp) -> u64 {
        self.0.saturating_sub(earlier.0)
    }

    /// The timestamp truncated down to a multiple of `bucket_ms`.
    ///
    /// Used by downsampling and windowed aggregation; `bucket_ms` must be
    /// non-zero.
    #[inline]
    pub fn bucket(self, bucket_ms: u64) -> Timestamp {
        Timestamp(self.0 - self.0 % bucket_ms)
    }
}

impl Add<u64> for Timestamp {
    type Output = Timestamp;
    #[inline]
    fn add(self, ms: u64) -> Timestamp {
        Timestamp(self.0.saturating_add(ms))
    }
}

impl Sub<u64> for Timestamp {
    type Output = Timestamp;
    #[inline]
    fn sub(self, ms: u64) -> Timestamp {
        Timestamp(self.0.saturating_sub(ms))
    }
}

impl fmt::Display for Timestamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let total_s = self.0 / 1_000;
        let (h, m, s, ms) = (
            total_s / 3_600,
            (total_s / 60) % 60,
            total_s % 60,
            self.0 % 1_000,
        );
        write!(f, "{h:02}:{m:02}:{s:02}.{ms:03}")
    }
}

/// A single timestamped sensor value.
///
/// Values are `f64` throughout: all the quantities the framework monitors
/// (power, temperature, utilization, counters converted to rates) fit a
/// double without precision concerns, and a uniform value type keeps the
/// analytics layer free of generic plumbing.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct Reading {
    /// When the value was observed.
    pub ts: Timestamp,
    /// The observed value, in the sensor's registered [`crate::sensor::Unit`].
    pub value: f64,
}

impl Reading {
    /// Creates a reading.
    #[inline]
    pub const fn new(ts: Timestamp, value: f64) -> Self {
        Reading { ts, value }
    }

    /// `true` if the value is a usable number (not NaN or infinite).
    ///
    /// Real monitoring pipelines regularly see garbage samples from flaky
    /// collectors; the store rejects non-finite values at the door so the
    /// analytics layer can assume clean data.
    #[inline]
    pub fn is_finite(&self) -> bool {
        self.value.is_finite()
    }
}

/// A batch of readings for one sensor, as published on the bus.
///
/// Batching amortises channel overhead when a collector flushes a sampling
/// interval's worth of values at once.
#[derive(Debug, Clone, Serialize)]
pub struct ReadingBatch {
    /// The sensor all readings in `readings` belong to.
    pub sensor: crate::sensor::SensorId,
    /// The readings, in non-decreasing timestamp order.
    pub readings: Vec<Reading>,
}

impl ReadingBatch {
    /// Creates a batch holding a single reading.
    pub fn single(sensor: crate::sensor::SensorId, reading: Reading) -> Self {
        ReadingBatch {
            sensor,
            readings: vec![reading],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timestamp_conversions_round_trip() {
        assert_eq!(Timestamp::from_secs(5).as_millis(), 5_000);
        assert_eq!(Timestamp::from_mins(2).as_secs(), 120);
        assert_eq!(Timestamp::from_hours(1).as_millis(), 3_600_000);
        assert!((Timestamp::from_millis(1_500).as_secs_f64() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn timestamp_bucketing_truncates_down() {
        let t = Timestamp::from_millis(12_345);
        assert_eq!(t.bucket(1_000), Timestamp::from_millis(12_000));
        assert_eq!(t.bucket(5_000), Timestamp::from_millis(10_000));
        // Already aligned timestamps are unchanged.
        assert_eq!(
            Timestamp::from_millis(10_000).bucket(5_000).as_millis(),
            10_000
        );
    }

    #[test]
    fn timestamp_arithmetic_saturates() {
        assert_eq!((Timestamp::ZERO - 100).as_millis(), 0);
        assert_eq!((Timestamp::MAX + 100), Timestamp::MAX);
        assert_eq!(
            Timestamp::from_secs(1).millis_since(Timestamp::from_secs(2)),
            0
        );
        assert_eq!(
            Timestamp::from_secs(2).millis_since(Timestamp::from_secs(1)),
            1_000
        );
    }

    #[test]
    fn timestamp_display_is_wall_clock_style() {
        let t = Timestamp::from_millis(3_600_000 + 61_500);
        assert_eq!(t.to_string(), "01:01:01.500");
    }

    #[test]
    fn reading_finiteness() {
        assert!(Reading::new(Timestamp::ZERO, 1.0).is_finite());
        assert!(!Reading::new(Timestamp::ZERO, f64::NAN).is_finite());
        assert!(!Reading::new(Timestamp::ZERO, f64::INFINITY).is_finite());
    }

    #[test]
    fn timestamp_ordering_matches_millis() {
        let a = Timestamp::from_secs(1);
        let b = Timestamp::from_secs(2);
        assert!(a < b);
        assert_eq!(a.max(b), b);
    }
}
