//! Telemetry export: CSV serialisation of archived series.
//!
//! Production ODA feeds dashboards and offline analysis from its archive;
//! the portable lowest common denominator is CSV. The export is **wide**:
//! one row per aligned time bucket with one column per sensor, the shape
//! spreadsheet/plotting users prefer (missing buckets are empty cells).

use crate::query::{Query, QueryEngine, TimeRange};
use crate::sensor::{SensorId, SensorRegistry};
use crate::store::TimeSeriesStore;
use std::fmt::Write as _;

/// Escapes a CSV field (quotes it when needed).
fn field(s: &str) -> String {
    if s.contains(',') || s.contains('"') || s.contains('\n') {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_owned()
    }
}

/// Exports the given sensors over `range` in wide form, aligned to
/// `bucket_ms` buckets (bucket means). Missing values are empty cells.
///
/// # Panics
/// Panics if `bucket_ms == 0`.
pub fn to_csv_wide(
    store: &TimeSeriesStore,
    registry: &SensorRegistry,
    sensors: &[SensorId],
    range: TimeRange,
    bucket_ms: u64,
) -> String {
    let q = QueryEngine::new(store);
    let (grid, matrix) = Query::sensors(sensors)
        .range(range)
        .align(bucket_ms)
        .run(&q)
        .aligned();
    let mut out = String::from("timestamp_ms");
    for &s in sensors {
        let name = registry
            .name(s)
            .map(|n| n.to_string())
            .unwrap_or_else(|| format!("#{}", s.0));
        out.push(',');
        out.push_str(&field(&name));
    }
    out.push('\n');
    for (bi, t) in grid.iter().enumerate() {
        let _ = write!(out, "{}", t.as_millis());
        for row in &matrix {
            if row[bi].is_nan() {
                out.push(',');
            } else {
                let _ = write!(out, ",{}", row[bi]);
            }
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reading::{Reading, Timestamp};
    use crate::sensor::{SensorKind, Unit};

    fn setup() -> (TimeSeriesStore, SensorRegistry, Vec<SensorId>) {
        let reg = SensorRegistry::new();
        let a = reg.register("/hw/node0/power_w", SensorKind::Power, Unit::Watts);
        let b = reg.register("/facility/pue", SensorKind::Indicator, Unit::Dimensionless);
        let store = TimeSeriesStore::with_capacity(64);
        for t in 0..4u64 {
            store.insert(a, Reading::new(Timestamp::from_secs(t), 100.0 + t as f64));
        }
        store.insert(b, Reading::new(Timestamp::from_secs(1), 1.5));
        (store, reg, vec![a, b])
    }

    #[test]
    fn wide_form_aligns_with_empty_cells() {
        let (store, reg, sensors) = setup();
        let csv = to_csv_wide(&store, &reg, &sensors, TimeRange::all(), 1_000);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "timestamp_ms,/hw/node0/power_w,/facility/pue");
        // 4 buckets (0..4 s); PUE present only in bucket 1.
        assert_eq!(lines.len(), 1 + 4);
        assert_eq!(lines[1], "0,100,");
        assert_eq!(lines[2], "1000,101,1.5");
        assert!(lines[3].starts_with("2000,102"));
    }

    #[test]
    fn csv_fields_are_escaped() {
        assert_eq!(field("plain"), "plain");
        assert_eq!(field("a,b"), "\"a,b\"");
        assert_eq!(field("say \"hi\""), "\"say \"\"hi\"\"\"");
    }

    #[test]
    fn wide_header_escapes_sensor_names_with_commas() {
        // A comma in a sensor name must not shift columns: the header cell
        // goes through field() escaping exactly like long-form rows do.
        let reg = SensorRegistry::new();
        let odd = reg.register(
            "/rack0/ambient,rear_c",
            SensorKind::Temperature,
            Unit::Celsius,
        );
        let plain = reg.register("/rack0/supply_c", SensorKind::Temperature, Unit::Celsius);
        let store = TimeSeriesStore::with_capacity(8);
        store.insert(odd, Reading::new(Timestamp::ZERO, 21.0));
        store.insert(plain, Reading::new(Timestamp::ZERO, 18.5));
        let csv = to_csv_wide(&store, &reg, &[odd, plain], TimeRange::all(), 1_000);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(
            lines[0],
            "timestamp_ms,\"/rack0/ambient,rear_c\",/rack0/supply_c"
        );
        // Both the header and the data row parse to exactly 3 columns.
        assert_eq!(lines[1], "0,21,18.5");
        let header_cols = lines[0].matches(',').count() - lines[0].matches(",rear").count();
        assert_eq!(header_cols, 2, "quoted comma must not add a column");
    }
}
