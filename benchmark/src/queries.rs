//! The four query classes, as a client would send them.

use oda_sim::datacenter::DataCenter;
use oda_telemetry::query::{Aggregation, Query, TimeRange};
use oda_telemetry::reading::Timestamp;
use oda_telemetry::sensor::SensorId;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// One sensor by exact name, trailing minute, mean: the fixed
    /// per-request cost dominates. Unique range, so never a cache hit.
    Point,
    /// A pool of eight rack-sized dashboard aggregates over the full axis,
    /// repeated verbatim: planner-tiered and the only cacheable class.
    Dash,
    /// One sensor, 50-minute window, forced raw scan: the scan dominates.
    Raw,
    /// One node's sensors aligned on a one-minute grid over the trailing
    /// hour: the multi-sensor path and the largest response body.
    Aligned,
}

impl Class {
    pub const ALL: [Class; 4] = [Class::Point, Class::Dash, Class::Raw, Class::Aligned];

    pub fn name(self) -> &'static str {
        match self {
            Class::Point => "point",
            Class::Dash => "dash",
            Class::Raw => "raw",
            Class::Aligned => "aligned",
        }
    }

    pub fn index(self) -> usize {
        self as usize
    }
}

/// Dashboards in the pool: the power draw of every node whose number starts
/// with the digit `1..=8` (39 sensors for `1`, 11 for the others).
const DASHBOARDS: usize = 8;

const RAW_WINDOW_MS: u64 = 3_000_000;

/// Builds the request stream of one site. Request `i` is of class `i % 4`;
/// everything else about it follows from `i` and the site's clock.
pub struct QueryMix {
    node_count: usize,
    raw_sensors: Vec<SensorId>,
    /// The pattern grammar has whole-component wildcards only, so a
    /// dashboard names its sensors by id, as a saved dashboard would.
    dashboards: Vec<Vec<SensorId>>,
}

impl QueryMix {
    pub fn new(dc: &DataCenter) -> QueryMix {
        let power = &dc.sensors().node_power;
        let dashboards = (1..=DASHBOARDS)
            .map(|digit| {
                let digit = digit.to_string();
                (0..power.len())
                    .filter(|node| node.to_string().starts_with(&digit))
                    .map(|node| power[node])
                    .collect()
            })
            .collect();
        QueryMix {
            node_count: dc.node_count(),
            raw_sensors: dc.sensors().node_temp.clone(),
            dashboards,
        }
    }

    pub fn class_of(i: usize) -> Class {
        Class::ALL[i % 4]
    }

    /// The `i`-th request at simulated time `now`.
    pub fn query(&self, i: usize, now: Timestamp) -> Query {
        let nth = i / 4;
        let node = nth % self.node_count;
        // A window that starts a millisecond later per request (counted from
        // where the history begins, should the window reach back further):
        // distinct ranges, so only `dash` can be served from the cache.
        let trailing = |window_ms: u64| {
            let start = now.as_millis().saturating_sub(window_ms) + nth as u64;
            TimeRange::new(Timestamp::from_millis(start), now + 1)
        };
        match Self::class_of(i) {
            Class::Point => Query::sensors(format!("/hw/node{node}/power_w").as_str())
                .range(trailing(60_000))
                .aggregate(Aggregation::Mean),
            Class::Dash => {
                Query::sensors(&self.dashboards[nth % DASHBOARDS]).aggregate(Aggregation::Mean)
            }
            Class::Raw => Query::sensors(self.raw_sensors[node])
                .range(trailing(RAW_WINDOW_MS))
                .aggregate(Aggregation::Max)
                .raw_scan(),
            Class::Aligned => Query::sensors(format!("/hw/node{node}/*").as_str())
                .range(trailing(3_600_000))
                .align(60_000),
        }
    }
}
