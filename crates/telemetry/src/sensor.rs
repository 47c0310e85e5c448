//! Sensor identity, metadata, and the interning registry.
//!
//! Sensors are named hierarchically with slash-separated components mirroring
//! the physical/logical topology of the data center, e.g.
//!
//! ```text
//! /facility/chiller0/power
//! /hw/rack3/node12/cpu0/temperature
//! /sw/scheduler/queue_length
//! /app/job1234/flops
//! ```
//!
//! The first component identifies the *pillar domain* the sensor belongs to
//! (`facility`, `hw`, `sw`, `app`), which lets the framework layer route
//! sensors to pillar-scoped capabilities without any extra bookkeeping.
//!
//! Names are interned once at registration into a dense [`SensorId`] (a
//! `u32`), which every other component uses as a key. Interning keeps hot
//! paths (ingest, query) free of string hashing and keeps per-reading memory
//! at 16 bytes.

use crate::pattern::SensorPattern;
use parking_lot::RwLock;
use serde::Serialize;
use std::collections::BTreeMap;
use std::fmt;
use std::ops::Bound;
use std::sync::Arc;

/// Dense interned identifier of a registered sensor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize)]
pub struct SensorId(pub u32);

impl SensorId {
    /// The raw index. Valid indices are `0..registry.len()`.
    #[inline]
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for SensorId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// Physical kind of the monitored quantity.
///
/// The kind is advisory metadata used by dashboards and by analytics that
/// select their inputs semantically (e.g. a thermal model asks for all
/// `Temperature` sensors under a node).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum SensorKind {
    /// Electrical power draw.
    Power,
    /// Cumulative energy.
    Energy,
    /// A temperature.
    Temperature,
    /// Utilization fraction of a resource (0..=1).
    Utilization,
    /// A frequency (CPU clock, fan speed).
    Frequency,
    /// Volumetric or mass flow (cooling loops).
    Flow,
    /// A dimensionless count (queue lengths, error counters).
    Count,
    /// A rate of events or bytes per second.
    Rate,
    /// A ratio or derived efficiency indicator (PUE, ITUE, slowdown).
    Indicator,
}

/// Unit of measure for a sensor's values.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum Unit {
    /// Watts.
    Watts,
    /// Kilowatts.
    Kilowatts,
    /// Joules.
    Joules,
    /// Degrees Celsius.
    Celsius,
    /// Fraction in `0..=1`.
    Fraction,
    /// Percent in `0..=100`.
    Percent,
    /// Hertz.
    Hertz,
    /// Megahertz.
    Megahertz,
    /// Litres per second.
    LitresPerSecond,
    /// Bytes per second.
    BytesPerSecond,
    /// Operations (or events) per second.
    OpsPerSecond,
    /// Plain count, no unit.
    Dimensionless,
    /// Seconds.
    Seconds,
}

impl Unit {
    /// Short human-readable suffix used by dashboards.
    pub fn suffix(self) -> &'static str {
        match self {
            Unit::Watts => "W",
            Unit::Kilowatts => "kW",
            Unit::Joules => "J",
            Unit::Celsius => "°C",
            Unit::Fraction => "",
            Unit::Percent => "%",
            Unit::Hertz => "Hz",
            Unit::Megahertz => "MHz",
            Unit::LitresPerSecond => "L/s",
            Unit::BytesPerSecond => "B/s",
            Unit::OpsPerSecond => "op/s",
            Unit::Dimensionless => "",
            Unit::Seconds => "s",
        }
    }
}

/// Immutable metadata describing a registered sensor.
#[derive(Debug, Clone, Serialize)]
pub struct SensorMeta {
    /// The interned identifier.
    pub id: SensorId,
    /// Full hierarchical name, e.g. `/hw/node3/cpu_power`.
    pub name: Arc<str>,
    /// What physical quantity this sensor reports.
    pub kind: SensorKind,
    /// Unit of the reported values.
    pub unit: Unit,
}

impl SensorMeta {
    /// The top-level domain component of the name (`facility`, `hw`, ...),
    /// or an empty string for degenerate names.
    pub fn domain(&self) -> &str {
        self.name
            .trim_start_matches('/')
            .split('/')
            .next()
            .unwrap_or("")
    }

    /// The final component of the name (the metric leaf, e.g. `cpu_power`).
    pub fn leaf(&self) -> &str {
        self.name.rsplit('/').next().unwrap_or("")
    }
}

#[derive(Default)]
struct RegistryInner {
    metas: Vec<SensorMeta>,
    by_name: BTreeMap<Arc<str>, SensorId>,
}

/// Thread-safe interning registry of all sensors in a deployment.
///
/// Registration is idempotent: registering the same name twice returns the
/// existing id (kind/unit of the first registration win). The registry is
/// cheap to clone — clones share the same underlying map.
#[derive(Clone, Default)]
pub struct SensorRegistry {
    inner: Arc<RwLock<RegistryInner>>,
}

impl SensorRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers `name` (idempotently) and returns its id.
    ///
    /// # Panics
    /// Panics unless `name` is an absolute hierarchical path in canonical
    /// form: a `/` before each of one or more non-empty components, so no
    /// doubled and no trailing `/`. Patterns ignore empty components, so
    /// a second spelling of a name could only ever be a second id for
    /// the name every pattern sees.
    pub fn register(&self, name: &str, kind: SensorKind, unit: Unit) -> SensorId {
        assert!(
            name.strip_prefix('/')
                .is_some_and(|path| path.split('/').all(|c| !c.is_empty())),
            "sensor names must be absolute hierarchical paths without empty \
             components, got {name:?}"
        );
        let mut inner = self.inner.write();
        if let Some(&id) = inner.by_name.get(name) {
            return id;
        }
        let id = SensorId(inner.metas.len() as u32);
        let name: Arc<str> = Arc::from(name);
        inner.metas.push(SensorMeta {
            id,
            name: Arc::clone(&name),
            kind,
            unit,
        });
        inner.by_name.insert(name, id);
        id
    }

    /// Looks up a sensor by exact name.
    pub fn lookup(&self, name: &str) -> Option<SensorId> {
        self.inner.read().by_name.get(name).copied()
    }

    /// Returns the metadata for `id`, if registered.
    pub fn meta(&self, id: SensorId) -> Option<SensorMeta> {
        self.inner.read().metas.get(id.index()).cloned()
    }

    /// Returns the full name for `id`, if registered.
    pub fn name(&self, id: SensorId) -> Option<Arc<str>> {
        self.inner
            .read()
            .metas
            .get(id.index())
            .map(|m| Arc::clone(&m.name))
    }

    /// Number of registered sensors.
    pub fn len(&self) -> usize {
        self.inner.read().metas.len()
    }

    /// `true` if no sensors are registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot of all sensor metadata, ordered by id.
    pub fn all(&self) -> Vec<SensorMeta> {
        self.inner.read().metas.clone()
    }

    /// Ids of all sensors whose name matches `pattern`, in ascending id
    /// order.
    ///
    /// Resolved through the sorted name index: an all-literal pattern is
    /// one lookup, and a pattern with a literal head (`/hw/node5/*`)
    /// tests only the head itself and the names under it. Only a pattern
    /// whose first component is a wildcard tests every name.
    pub fn matching(&self, pattern: &SensorPattern) -> Vec<SensorId> {
        let inner = self.inner.read();
        let Some((prefix, all_literal)) = pattern.literal_prefix() else {
            return inner
                .metas
                .iter()
                .filter(|m| pattern.matches(&m.name))
                .map(|m| m.id)
                .collect();
        };
        // Registered names have no empty components, so a name the
        // pattern matches is the head itself or lies under `head/`.
        let head = &prefix[..prefix.len() - 1];
        if all_literal {
            return inner.by_name.get(head).copied().into_iter().collect();
        }
        let mut ids: Vec<SensorId> = inner
            .by_name
            .get(head)
            .filter(|_| pattern.matches(head))
            .copied()
            .into_iter()
            .chain(
                inner
                    .by_name
                    .range::<str, _>((Bound::Included(prefix.as_str()), Bound::Unbounded))
                    .take_while(|(name, _)| name.starts_with(&prefix))
                    .filter(|(name, _)| pattern.matches(name))
                    .map(|(_, &id)| id),
            )
            .collect();
        ids.sort_unstable();
        ids
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_is_idempotent_and_dense() {
        let reg = SensorRegistry::new();
        let a = reg.register("/hw/node0/power", SensorKind::Power, Unit::Watts);
        let b = reg.register("/hw/node1/power", SensorKind::Power, Unit::Watts);
        let a2 = reg.register("/hw/node0/power", SensorKind::Power, Unit::Watts);
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(a.index(), 0);
        assert_eq!(b.index(), 1);
        assert_eq!(reg.len(), 2);
    }

    #[test]
    #[should_panic(expected = "absolute hierarchical paths")]
    fn relative_names_are_rejected() {
        SensorRegistry::new().register("power", SensorKind::Power, Unit::Watts);
    }

    #[test]
    #[should_panic(expected = "without empty components")]
    fn names_with_a_trailing_slash_are_rejected() {
        SensorRegistry::new().register("/hw/node0/power/", SensorKind::Power, Unit::Watts);
    }

    #[test]
    #[should_panic(expected = "without empty components")]
    fn names_with_a_doubled_slash_are_rejected() {
        SensorRegistry::new().register("/hw//node0/power", SensorKind::Power, Unit::Watts);
    }

    #[test]
    fn lookup_and_meta_round_trip() {
        let reg = SensorRegistry::new();
        let id = reg.register(
            "/facility/chiller0/power",
            SensorKind::Power,
            Unit::Kilowatts,
        );
        assert_eq!(reg.lookup("/facility/chiller0/power"), Some(id));
        assert_eq!(reg.lookup("/facility/chiller1/power"), None);
        let meta = reg.meta(id).unwrap();
        assert_eq!(meta.domain(), "facility");
        assert_eq!(meta.leaf(), "power");
        assert_eq!(meta.unit, Unit::Kilowatts);
    }

    #[test]
    fn pattern_matching_selects_subtrees() {
        let reg = SensorRegistry::new();
        reg.register("/hw/node0/power", SensorKind::Power, Unit::Watts);
        reg.register("/hw/node1/power", SensorKind::Power, Unit::Watts);
        reg.register("/hw/node1/temp", SensorKind::Temperature, Unit::Celsius);
        let pat = SensorPattern::new("/hw/*/power");
        assert_eq!(reg.matching(&pat).len(), 2);
        let pat = SensorPattern::new("/hw/node1/**");
        assert_eq!(reg.matching(&pat).len(), 2);
    }

    /// The names of the benchmark's site (`DataCenterConfig::medium`):
    /// 17 facility, scheduler and application sensors, seven per node on
    /// 128 nodes, two per rack on 8 racks.
    fn medium_site() -> SensorRegistry {
        let reg = SensorRegistry::new();
        let add = |name: &str| {
            reg.register(name, SensorKind::Count, Unit::Dimensionless);
        };
        for name in [
            "/facility/outside_temp",
            "/facility/cooling/power_kw",
            "/facility/cooling/setpoint_c",
            "/facility/cooling/inlet_c",
            "/facility/cooling/mode",
            "/facility/cooling/cop",
            "/facility/power/utility_kw",
            "/facility/power/it_kw",
            "/facility/power/loss_kw",
            "/facility/pue",
            "/sw/sched/queue_len",
            "/sw/sched/running",
            "/sw/sched/utilization",
            "/sw/sched/completed_total",
            "/sw/sched/killed_total",
            "/app/active_jobs",
            "/app/arrivals_total",
        ] {
            add(name);
        }
        for leaf in ["power_w", "temp_c", "util", "freq_ghz", "fan", "mem_gib"] {
            for node in 0..128 {
                add(&format!("/hw/node{node}/{leaf}"));
            }
        }
        for node in 0..128 {
            add(&format!("/sw/node{node}/sys_mem_gib"));
        }
        for rack in 0..8 {
            add(&format!("/hw/rack{rack}/uplink_contention"));
            add(&format!("/hw/rack{rack}/uplink_offered_gbps"));
        }
        assert_eq!(reg.len(), 929);
        reg
    }

    #[test]
    fn resolution_tests_only_the_names_a_literal_head_leaves_open() {
        use crate::pattern::tally;
        let reg = medium_site();
        tally::take();
        assert_eq!(reg.matching(&"/hw/node5/power_w".into()).len(), 1);
        assert_eq!(tally::take(), 0, "an exact name is one index lookup");
        let under = reg
            .all()
            .iter()
            .filter(|m| m.name.starts_with("/hw/node5/"))
            .count();
        assert_eq!(under, 6);
        tally::take();
        assert_eq!(reg.matching(&"/hw/node5/*".into()).len(), under);
        assert_eq!(tally::take(), under, "only the names under /hw/node5/");
        assert_eq!(reg.matching(&"/*/node5/power_w".into()).len(), 1);
        assert_eq!(tally::take(), 929, "a wildcard head tests every name");
    }

    #[test]
    fn a_served_query_resolves_once_and_a_warmed_engine_looks_up_no_metric() {
        use crate::metrics::lookups;
        use crate::pattern::tally;
        use crate::plane::{LocalPlane, QueryPlane};
        use crate::query::{Aggregation, Query};
        use crate::store::TimeSeriesStore;
        let plane = LocalPlane {
            store: Arc::new(TimeSeriesStore::with_capacity(8)),
            registry: medium_site(),
        };
        let query = Query::sensors("/hw/node5/*").aggregate(Aggregation::Mean);
        // The first query over a store looks its instruments up.
        plane.query(query.clone());
        tally::take();
        lookups::take();

        // A served miss: resolve, snapshot versions, execute pinned.
        let sensors = plane.resolve(&query);
        plane.sensor_versions(&sensors);
        let result = plane.query(query.pinned(sensors.clone()));
        assert_eq!(result.sensors(), sensors);
        assert_eq!(
            tally::take(),
            6,
            "each name under /hw/node5/ is tested once"
        );
        assert_eq!(lookups::take(), 0, "the store's instruments are reused");
    }

    #[test]
    fn clones_share_state() {
        let reg = SensorRegistry::new();
        let clone = reg.clone();
        let id = reg.register("/hw/node0/power", SensorKind::Power, Unit::Watts);
        assert_eq!(clone.lookup("/hw/node0/power"), Some(id));
    }
}
