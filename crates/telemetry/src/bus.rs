//! The telemetry ingest bus.
//!
//! Producers (the simulator's telemetry taps, or any collector) publish
//! [`ReadingBatch`]es; consumers subscribe with a [`SensorPattern`] plus a
//! resolved list of sensor ids and receive matching batches over a bounded
//! crossbeam channel. The bus also writes every published batch straight
//! into its archive — a [`StorageBackend`] over a [`TimeSeriesStore`] —
//! which is how the archive stays current without every consumer
//! re-implementing persistence.
//!
//! A bus is built whole, by one constructor, [`TelemetryBus::with_archive`]:
//! its owner hands it the sensor registry, the archive and the metrics
//! registry its instruments record into. Nothing is attached later and
//! nothing falls back to a process-wide default.
//!
//! Delivery semantics are *at-most-once per subscriber with back-pressure
//! shedding*: if a subscriber's channel is full the batch is dropped for that
//! subscriber and a drop counter is incremented. Monitoring pipelines prefer
//! losing samples over stalling the collection path — a slow analysis job
//! must never be able to freeze ingest.
//!
//! Subscriptions are created with the fluent [`SubscriptionBuilder`]:
//!
//! ```
//! use oda_telemetry::prelude::*;
//! use std::sync::Arc;
//! let store = Arc::new(TimeSeriesStore::with_capacity(1024));
//! let archive = Arc::new(InMemoryBackend::new(store));
//! let bus = TelemetryBus::with_archive(SensorRegistry::new(), archive, MetricsRegistry::new());
//! let sub = bus.subscription("/hw/**").capacity(256).named("alert-engine").subscribe();
//! assert_eq!(sub.name(), "alert-engine");
//! ```
//!
//! The name doubles as the `subscriber` label on the bus's per-subscriber
//! `bus_delivered_total` / `bus_shed_total` metrics, so a dashboard can tell
//! *which* consumer is shedding. Dropping a [`Subscription`] unsubscribes it
//! from the bus automatically; as a second line of defense, `publish` reaps
//! any subscriber whose receiver is gone (disconnected channels are removed
//! and counted as `bus_reaped_total`, never as sheds).

use crate::metrics::{Counter, Histogram, MetricsRegistry};
use crate::pattern::SensorPattern;
use crate::reading::ReadingBatch;
use crate::sensor::{SensorId, SensorRegistry};
use crate::storage::StorageBackend;
use crate::store::TimeSeriesStore;
use crossbeam_channel::{bounded, Receiver, Sender, TrySendError};
use parking_lot::{Mutex, RwLock, RwLockReadGuard};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Weak};

/// A set of sensor ids as a bitmap: ids are dense, so membership — asked
/// once per published batch per subscriber — is one word test.
#[derive(Default)]
struct SensorSet(Vec<u64>);

impl SensorSet {
    fn contains(&self, id: SensorId) -> bool {
        self.0
            .get((id.0 / 64) as usize)
            .is_some_and(|word| word & (1 << (id.0 % 64)) != 0)
    }

    fn insert(&mut self, id: SensorId) {
        let at = (id.0 / 64) as usize;
        if self.0.len() <= at {
            self.0.resize(at + 1, 0);
        }
        if let Some(word) = self.0.get_mut(at) {
            *word |= 1 << (id.0 % 64);
        }
    }
}

impl FromIterator<SensorId> for SensorSet {
    fn from_iter<I: IntoIterator<Item = SensorId>>(ids: I) -> Self {
        let mut set = SensorSet::default();
        for id in ids {
            set.insert(id);
        }
        set
    }
}

struct Subscriber {
    id: u64,
    sensors: SensorSet,
    /// Every sensor id below this has been matched against `pattern`: one
    /// that is absent from `sensors` is a known non-match. Ids are dense and
    /// append-only, so only ids at or above it can still need resolving.
    resolved_below: u32,
    pattern: SensorPattern,
    tx: Sender<ReadingBatch>,
    dropped: Arc<AtomicU64>,
    m_delivered: Counter,
    m_shed: Counter,
}

/// Removes the subscriber entry when the owning [`Subscription`] is dropped.
struct UnsubscribeGuard {
    id: u64,
    subscribers: Weak<RwLock<Vec<Subscriber>>>,
}

impl Drop for UnsubscribeGuard {
    fn drop(&mut self) {
        if let Some(subs) = self.subscribers.upgrade() {
            subs.write().retain(|s| s.id != self.id);
        }
    }
}

/// Receiving side of a bus subscription.
///
/// Dropping the subscription removes its entry from the bus, so a departed
/// consumer stops inflating shed counts immediately.
pub struct Subscription {
    id: u64,
    name: String,
    /// Channel on which matching batches arrive.
    pub rx: Receiver<ReadingBatch>,
    dropped: Arc<AtomicU64>,
    #[allow(dead_code)] // held only for its Drop impl
    guard: UnsubscribeGuard,
}

impl Subscription {
    /// Number of batches dropped for this subscriber because its channel was
    /// full when the bus tried to deliver.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Opaque subscription id, used to unsubscribe.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The subscriber name used as the `subscriber` metric label
    /// (defaults to `sub-<id>` unless set via [`SubscriptionBuilder::named`]).
    pub fn name(&self) -> &str {
        &self.name
    }
}

/// Fluent builder returned by [`TelemetryBus::subscription`].
#[must_use = "call .subscribe() to register the subscription"]
pub struct SubscriptionBuilder<'a> {
    bus: &'a TelemetryBus,
    pattern: SensorPattern,
    capacity: usize,
    name: Option<String>,
}

impl SubscriptionBuilder<'_> {
    /// Default channel capacity when [`Self::capacity`] is not called.
    pub const DEFAULT_CAPACITY: usize = 1_024;

    /// Sets the bounded channel capacity in batches (default
    /// [`Self::DEFAULT_CAPACITY`]; clamped to at least 1). When the channel
    /// is full, further deliveries to this subscriber are shed.
    pub fn capacity(mut self, batches: usize) -> Self {
        self.capacity = batches.max(1);
        self
    }

    /// Names the subscriber; the name becomes the `subscriber` label on its
    /// `bus_delivered_total` / `bus_shed_total` counters.
    pub fn named(mut self, name: impl Into<String>) -> Self {
        self.name = Some(name.into());
        self
    }

    /// Registers the subscription on the bus.
    ///
    /// The pattern is resolved against the registry *at subscription time and
    /// on the first publish of a sensor registered later*: sensors registered
    /// after the subscription that match the pattern are picked up
    /// automatically, and a sensor is matched against the pattern only once.
    pub fn subscribe(self) -> Subscription {
        let (tx, rx) = bounded(self.capacity);
        let dropped = Arc::new(AtomicU64::new(0));
        let id = {
            let mut next = self.bus.next_id.lock();
            let id = *next;
            *next += 1;
            id
        };
        let name = self.name.unwrap_or_else(|| format!("sub-{id}"));
        // Read before matching: a sensor registered in between is then
        // matched twice rather than never.
        let resolved_below = self.bus.registry.len() as u32;
        let sensors = self
            .bus
            .registry
            .matching(&self.pattern)
            .into_iter()
            .collect();
        let labels: &[(&str, &str)] = &[("subscriber", name.as_str())];
        self.bus.subscribers.write().push(Subscriber {
            id,
            sensors,
            resolved_below,
            pattern: self.pattern,
            tx,
            dropped: Arc::clone(&dropped),
            m_delivered: self.bus.metrics.counter("bus_delivered_total", labels),
            m_shed: self.bus.metrics.counter("bus_shed_total", labels),
        });
        Subscription {
            id,
            name,
            rx,
            dropped,
            guard: UnsubscribeGuard {
                id,
                subscribers: Arc::downgrade(&self.bus.subscribers),
            },
        }
    }
}

// Compile-time audit: the bus is published to from the simulator and read
// by runtime workers concurrently; it must stay fully thread-safe.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<TelemetryBus>();
    assert_send_sync::<crate::sensor::SensorRegistry>();
    assert_send_sync::<crate::metrics::MetricsRegistry>();
};

/// Fan-out pub/sub bus for telemetry, archiving everything it publishes.
pub struct TelemetryBus {
    registry: SensorRegistry,
    archive: Arc<dyn StorageBackend>,
    subscribers: Arc<RwLock<Vec<Subscriber>>>,
    next_id: Mutex<u64>,
    published: AtomicU64,
    delivered: AtomicU64,
    dropped: AtomicU64,
    reaped: AtomicU64,
    metrics: MetricsRegistry,
    m_publish_total: Counter,
    m_readings_total: Counter,
    m_reaped_total: Counter,
    /// Publishes that had to match sensors registered after a subscription
    /// against its pattern (once per new sensor range, not per publish).
    m_late_resolves: Counter,
    m_publish_ns: Histogram,
    /// Publishes that found the subscriber table lock already held
    /// (concurrent publishers, or a publish racing a subscribe). Varies
    /// run to run — scheduling telemetry, not part of replay determinism.
    m_contention: Counter,
}

impl TelemetryBus {
    /// Creates a bus resolving patterns against `registry`, archiving every
    /// published batch through `archive` (in-memory or persistent
    /// [`StorageBackend`]) and recording its instruments into `metrics` —
    /// pass [`MetricsRegistry::disabled`] for a zero-overhead bus.
    pub fn with_archive(
        registry: SensorRegistry,
        archive: Arc<dyn StorageBackend>,
        metrics: MetricsRegistry,
    ) -> Self {
        TelemetryBus {
            registry,
            archive,
            subscribers: Arc::new(RwLock::new(Vec::new())),
            next_id: Mutex::new(0),
            published: AtomicU64::new(0),
            delivered: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            reaped: AtomicU64::new(0),
            m_publish_total: metrics.counter("bus_publish_total", &[]),
            m_readings_total: metrics.counter("bus_readings_total", &[]),
            m_reaped_total: metrics.counter("bus_reaped_total", &[]),
            m_late_resolves: metrics.counter("bus_late_resolves_total", &[]),
            m_publish_ns: metrics.histogram("bus_publish_ns", &[]),
            m_contention: metrics.counter("bus_publish_contention_total", &[]),
            metrics,
        }
    }

    /// The registry this bus resolves patterns against.
    pub fn registry(&self) -> &SensorRegistry {
        &self.registry
    }

    /// The hot store of the archive.
    pub fn store(&self) -> &Arc<TimeSeriesStore> {
        self.archive.store()
    }

    /// The archive backend every publish writes through.
    pub fn archive(&self) -> &Arc<dyn StorageBackend> {
        &self.archive
    }

    /// The metrics registry this bus's instruments record into.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// Total batches published since creation.
    pub fn published(&self) -> u64 {
        self.published.load(Ordering::Relaxed)
    }

    /// Total successful subscriber deliveries since creation.
    pub fn delivered_total(&self) -> u64 {
        self.delivered.load(Ordering::Relaxed)
    }

    /// Total deliveries shed across all subscribers because their channel
    /// was full. Monotonically non-decreasing. Disconnected receivers are
    /// *reaped*, not shed — see [`Self::reaped_total`].
    pub fn dropped_total(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Total subscribers removed because their receiver was found
    /// disconnected during a publish.
    pub fn reaped_total(&self) -> u64 {
        self.reaped.load(Ordering::Relaxed)
    }

    /// Number of currently registered subscribers.
    pub fn subscriber_count(&self) -> usize {
        self.subscribers.read().len()
    }

    /// Starts building a subscription to all sensors matching `pattern`
    /// (a [`SensorPattern`] or a pattern string like `"/hw/**"`).
    ///
    /// Defaults: capacity [`SubscriptionBuilder::DEFAULT_CAPACITY`] batches,
    /// name `sub-<id>`. Finish with [`SubscriptionBuilder::subscribe`].
    pub fn subscription(&self, pattern: impl Into<SensorPattern>) -> SubscriptionBuilder<'_> {
        SubscriptionBuilder {
            bus: self,
            pattern: pattern.into(),
            capacity: SubscriptionBuilder::DEFAULT_CAPACITY,
            name: None,
        }
    }

    /// Removes a subscription by id. Idempotent. (Dropping the
    /// [`Subscription`] does this automatically.)
    pub fn unsubscribe(&self, id: u64) {
        self.subscribers.write().retain(|s| s.id != id);
    }

    /// Publishes a batch: a one-element [`publish_many`](Self::publish_many).
    /// Returns the number of subscribers it was delivered to.
    pub fn publish(&self, batch: ReadingBatch) -> usize {
        self.publish_many(std::slice::from_ref(&batch))
    }

    /// Publishes a group of batches — one sampling tick's readings — in
    /// order: archives the group through [`StorageBackend::insert_many`],
    /// then delivers each batch to every
    /// matching subscriber under one pass over the subscriber table. Every
    /// subscriber receives exactly the sequence it would from publishing the
    /// batches one by one; counters count batches. Returns the number of
    /// deliveries made.
    ///
    /// Subscribers whose receiving side has been dropped are removed during
    /// the publish (reaped) rather than counted as sheds.
    pub fn publish_many(&self, batches: &[ReadingBatch]) -> usize {
        let timer = self.m_publish_ns.start_timer();
        self.published
            .fetch_add(batches.len() as u64, Ordering::Relaxed);
        self.m_publish_total.add(batches.len() as u64);
        self.m_readings_total
            .add(batches.iter().map(|b| b.readings.len() as u64).sum());
        self.archive.insert_many(batches);
        let newest = batches.iter().map(|b| b.sensor.0).max();
        let mut delivered = 0;
        let mut dead: Vec<u64> = Vec::new();
        {
            let mut subs = self.read_subscribers();
            if subs.iter().any(|s| Some(s.resolved_below) <= newest) {
                drop(subs);
                self.resolve_late();
                subs = self.read_subscribers();
            }
            for batch in batches {
                for sub in subs.iter() {
                    if sub.sensors.contains(batch.sensor) && !dead.contains(&sub.id) {
                        delivered += self.deliver(sub, batch, &mut dead);
                    }
                }
            }
        }
        if !dead.is_empty() {
            let mut subs = self.subscribers.write();
            let before = subs.len();
            subs.retain(|s| !dead.contains(&s.id));
            let reaped = (before - subs.len()) as u64;
            self.reaped.fetch_add(reaped, Ordering::Relaxed);
            self.m_reaped_total.add(reaped);
        }
        self.m_publish_ns.observe_timer(timer);
        delivered
    }

    fn read_subscribers(&self) -> RwLockReadGuard<'_, Vec<Subscriber>> {
        match self.subscribers.try_read() {
            Some(guard) => guard,
            None => {
                self.m_contention.inc();
                self.subscribers.read()
            }
        }
    }

    /// Matches every sensor registered since a subscriber last looked
    /// against its pattern and advances its watermark, so each sensor is
    /// resolved once per subscriber and never again. An id the registry does
    /// not hold (yet) stays above the watermark.
    fn resolve_late(&self) {
        let lowest = self
            .subscribers
            .read()
            .iter()
            .map(|s| s.resolved_below)
            .min();
        let registered = self.registry.len() as u32;
        let Some(lowest) = lowest.filter(|&l| l < registered) else {
            return;
        };
        // Names are fetched before the table is locked for writing, so the
        // registry lock is never taken under it.
        let late: Vec<(SensorId, Arc<str>)> = (lowest..registered)
            .filter_map(|id| Some((SensorId(id), self.registry.name(SensorId(id))?)))
            .collect();
        for sub in self.subscribers.write().iter_mut() {
            for (id, name) in &late {
                if id.0 >= sub.resolved_below && sub.pattern.matches(name) {
                    sub.sensors.insert(*id);
                }
            }
            sub.resolved_below = sub.resolved_below.max(registered);
        }
        self.m_late_resolves.inc();
    }

    fn deliver(&self, sub: &Subscriber, batch: &ReadingBatch, dead: &mut Vec<u64>) -> usize {
        match sub.tx.try_send(batch.clone()) {
            Ok(()) => {
                self.delivered.fetch_add(1, Ordering::Relaxed);
                sub.m_delivered.inc();
                1
            }
            Err(TrySendError::Full(_)) => {
                sub.dropped.fetch_add(1, Ordering::Relaxed);
                self.dropped.fetch_add(1, Ordering::Relaxed);
                sub.m_shed.inc();
                0
            }
            Err(TrySendError::Disconnected(_)) => {
                // Receiver is gone: schedule the subscriber for reaping and
                // do not count this as a shed — nobody wanted the batch.
                dead.push(sub.id);
                0
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reading::{Reading, Timestamp};
    use crate::sensor::{SensorKind, Unit};
    use crate::storage::InMemoryBackend;

    /// A bus archiving into a fresh 64-reading in-memory store.
    fn in_memory(reg: SensorRegistry, metrics: MetricsRegistry) -> TelemetryBus {
        let store = Arc::new(TimeSeriesStore::with_capacity(64));
        TelemetryBus::with_archive(reg, Arc::new(InMemoryBackend::new(store)), metrics)
    }

    fn setup() -> (SensorRegistry, TelemetryBus, SensorId, SensorId) {
        let reg = SensorRegistry::new();
        let a = reg.register("/hw/node0/power", SensorKind::Power, Unit::Watts);
        let b = reg.register("/facility/pdu0/power", SensorKind::Power, Unit::Kilowatts);
        let bus = in_memory(reg.clone(), MetricsRegistry::new());
        (reg, bus, a, b)
    }

    fn metered_setup() -> (MetricsRegistry, TelemetryBus, SensorId) {
        let reg = SensorRegistry::new();
        let a = reg.register("/hw/node0/power", SensorKind::Power, Unit::Watts);
        let metrics = MetricsRegistry::new();
        let bus = in_memory(reg, metrics.clone());
        (metrics, bus, a)
    }

    fn batch(s: SensorId, v: f64) -> ReadingBatch {
        ReadingBatch::single(s, Reading::new(Timestamp::ZERO, v))
    }

    #[test]
    fn subscribers_receive_matching_batches_only() {
        let (_reg, bus, a, b) = setup();
        let sub = bus.subscription("/hw/**").capacity(8).subscribe();
        assert_eq!(bus.publish(batch(a, 1.0)), 1);
        assert_eq!(bus.publish(batch(b, 2.0)), 0);
        let got = sub.rx.try_recv().unwrap();
        assert_eq!(got.sensor, a);
        assert!(sub.rx.try_recv().is_err());
    }

    #[test]
    fn sensor_set_membership_spans_words() {
        let ids = [0, 63, 64, 65, 1_000];
        let set: SensorSet = ids.iter().map(|&i| SensorId(i)).collect();
        for i in 0..1_100 {
            assert_eq!(set.contains(SensorId(i)), ids.contains(&i), "{i}");
        }
        assert!(!set.contains(SensorId(u32::MAX)));
    }

    #[test]
    fn late_registered_sensors_are_picked_up() {
        let (reg, bus, _a, _b) = setup();
        let sub = bus.subscription("/hw/**").capacity(8).subscribe();
        let c = reg.register("/hw/node1/temp", SensorKind::Temperature, Unit::Celsius);
        assert_eq!(bus.publish(batch(c, 55.0)), 1);
        assert_eq!(sub.rx.try_recv().unwrap().sensor, c);
    }

    #[test]
    fn full_subscriber_sheds_and_counts_drops() {
        let (_reg, bus, a, _b) = setup();
        let sub = bus.subscription("/hw/**").capacity(2).subscribe();
        for _ in 0..5 {
            bus.publish(batch(a, 1.0));
        }
        assert_eq!(sub.dropped(), 3);
        assert_eq!(sub.rx.len(), 2);
    }

    #[test]
    fn unsubscribe_stops_delivery() {
        let (_reg, bus, a, _b) = setup();
        let sub = bus.subscription("/**").capacity(8).subscribe();
        bus.publish(batch(a, 1.0));
        bus.unsubscribe(sub.id());
        bus.publish(batch(a, 2.0));
        assert_eq!(sub.rx.len(), 1);
    }

    #[test]
    fn bus_archives_everything() {
        let (_reg, bus, a, _b) = setup();
        bus.publish(ReadingBatch {
            sensor: a,
            readings: vec![
                Reading::new(Timestamp::from_millis(0), 100.0),
                Reading::new(Timestamp::from_millis(10), 110.0),
            ],
        });
        assert_eq!(bus.store().series_len(a), 2);
        assert_eq!(bus.published(), 1);
    }

    #[test]
    fn bus_totals_track_delivery_and_shedding() {
        let (_reg, bus, a, _b) = setup();
        let sub = bus.subscription("/hw/**").capacity(2).subscribe();
        for _ in 0..5 {
            bus.publish(batch(a, 1.0));
        }
        assert_eq!(bus.published(), 5);
        assert_eq!(bus.delivered_total(), 2);
        assert_eq!(bus.dropped_total(), 3);
        assert_eq!(sub.dropped(), 3);
        // Draining and publishing again resumes delivery; totals only grow.
        while sub.rx.try_recv().is_ok() {}
        bus.publish(batch(a, 2.0));
        assert_eq!(bus.delivered_total(), 3);
        assert_eq!(bus.dropped_total(), 3);
    }

    #[test]
    fn multiple_subscribers_fan_out() {
        let (_reg, bus, a, _b) = setup();
        let s1 = bus.subscription("/hw/**").capacity(4).subscribe();
        let s2 = bus.subscription("/hw/node0/*").capacity(4).subscribe();
        let s3 = bus.subscription("/facility/**").capacity(4).subscribe();
        assert_eq!(bus.publish(batch(a, 1.0)), 2);
        assert_eq!(s1.rx.len(), 1);
        assert_eq!(s2.rx.len(), 1);
        assert_eq!(s3.rx.len(), 0);
    }

    #[test]
    fn dropping_subscription_auto_unsubscribes() {
        // Regression: a dropped Subscription used to leave its Subscriber
        // entry behind, so every later publish shed into the dead channel
        // and drop counts grew forever.
        let (_reg, bus, a, _b) = setup();
        {
            let _sub = bus.subscription("/hw/**").capacity(1).subscribe();
            assert_eq!(bus.subscriber_count(), 1);
            bus.publish(batch(a, 1.0));
        } // _sub dropped here
        assert_eq!(bus.subscriber_count(), 0);
        bus.publish(batch(a, 2.0));
        bus.publish(batch(a, 3.0));
        assert_eq!(bus.publish(batch(a, 4.0)), 0);
        assert_eq!(bus.dropped_total(), 0, "no sheds into dead channels");
    }

    #[test]
    fn publish_reaps_disconnected_receivers_without_counting_sheds() {
        let (metrics, bus, a) = metered_setup();
        let sub = bus
            .subscription("/hw/**")
            .capacity(4)
            .named("doomed")
            .subscribe();
        // Simulate a consumer that dropped its receiver while the bus entry
        // survived (e.g. the Subscription was leaked): take the struct apart,
        // drop the receiver, and suppress the Drop-based unsubscribe.
        let Subscription { rx, guard, .. } = sub;
        drop(rx);
        std::mem::forget(guard);
        assert_eq!(bus.subscriber_count(), 1);
        assert_eq!(bus.publish(batch(a, 1.0)), 0);
        assert_eq!(
            bus.subscriber_count(),
            0,
            "dead subscriber reaped on publish"
        );
        assert_eq!(bus.reaped_total(), 1);
        assert_eq!(bus.dropped_total(), 0, "disconnected is reaped, not shed");
        assert_eq!(metrics.snapshot().counter("bus_reaped_total"), Some(1));
        // Later publishes see no subscribers at all.
        assert_eq!(bus.publish(batch(a, 2.0)), 0);
        assert_eq!(bus.reaped_total(), 1);
    }

    #[test]
    fn named_subscribers_get_labeled_metrics() {
        let (metrics, bus, a) = metered_setup();
        let alerts = bus
            .subscription("/hw/**")
            .capacity(1)
            .named("alerts")
            .subscribe();
        let _dash = bus
            .subscription("/hw/**")
            .capacity(8)
            .named("dash")
            .subscribe();
        for _ in 0..3 {
            bus.publish(batch(a, 1.0));
        }
        let snap = metrics.snapshot();
        assert_eq!(
            snap.counter("bus_delivered_total{subscriber=\"alerts\"}"),
            Some(1)
        );
        assert_eq!(
            snap.counter("bus_shed_total{subscriber=\"alerts\"}"),
            Some(2)
        );
        assert_eq!(
            snap.counter("bus_delivered_total{subscriber=\"dash\"}"),
            Some(3)
        );
        assert_eq!(snap.counter("bus_publish_total"), Some(3));
        assert_eq!(snap.counter("bus_readings_total"), Some(3));
        assert_eq!(snap.histogram("bus_publish_ns").unwrap().count, 3);
        assert_eq!(alerts.name(), "alerts");
    }

    #[test]
    fn a_non_matching_sensor_is_resolved_once_not_on_every_publish() {
        // Regression: only positive matches were remembered, so a sensor a
        // subscriber does not match re-ran name lookup, the table write
        // lock and the pattern match on every publish, forever.
        let reg = SensorRegistry::new();
        let metrics = MetricsRegistry::new();
        let bus = in_memory(reg.clone(), metrics.clone());
        let sub = bus.subscription("/facility/**").capacity(8).subscribe();
        let other = reg.register("/hw/node0/power", SensorKind::Power, Unit::Watts);
        for _ in 0..10_000 {
            assert_eq!(bus.publish(batch(other, 1.0)), 0);
        }
        let snap = metrics.snapshot();
        assert_eq!(snap.counter("bus_late_resolves_total"), Some(1));
        assert_eq!(snap.counter("bus_publish_contention_total"), Some(0));
        // A matching sensor registered later still is picked up, once.
        let pdu = reg.register("/facility/pdu0/power", SensorKind::Power, Unit::Kilowatts);
        assert_eq!(bus.publish(batch(pdu, 2.0)), 1);
        assert_eq!(bus.publish(batch(pdu, 3.0)), 1);
        assert_eq!(bus.publish(batch(other, 4.0)), 0);
        assert_eq!(sub.rx.len(), 2);
        let snap = metrics.snapshot();
        assert_eq!(snap.counter("bus_late_resolves_total"), Some(2));
        assert_eq!(snap.counter("bus_publish_contention_total"), Some(0));
    }

    #[test]
    fn publish_many_is_publish_in_a_loop() {
        // Same scene twice: a wide subscriber, a narrow one that sheds at
        // capacity 2, one whose receiver is gone (reaped on first contact),
        // a store, and a sensor registered after everyone subscribed.
        type Scene = (TelemetryBus, Arc<TimeSeriesStore>, Vec<Subscription>);
        fn scene() -> (Scene, Vec<ReadingBatch>) {
            let reg = SensorRegistry::new();
            let a = reg.register("/hw/node0/power", SensorKind::Power, Unit::Watts);
            let b = reg.register("/facility/pdu0/power", SensorKind::Power, Unit::Kilowatts);
            let bus = in_memory(reg.clone(), MetricsRegistry::new());
            let store = Arc::clone(bus.store());
            let wide = bus.subscription("/**").capacity(64).subscribe();
            let narrow = bus.subscription("/hw/**").capacity(2).subscribe();
            let Subscription { rx, guard, .. } = bus.subscription("/**").capacity(4).subscribe();
            drop(rx);
            std::mem::forget(guard);
            let late = reg.register("/hw/node1/temp", SensorKind::Temperature, Unit::Celsius);
            let batches = (0..12u64)
                .map(|i| {
                    let sensor = [a, b, late, a][i as usize % 4];
                    let ts = Timestamp::from_millis(i * 10);
                    // Every fifth value is rejected by the store.
                    let value = if i % 5 == 4 { f64::NAN } else { i as f64 };
                    ReadingBatch::single(sensor, Reading::new(ts, value))
                })
                .collect();
            ((bus, store, vec![wide, narrow]), batches)
        }
        fn observe((bus, store, subs): &Scene) -> impl PartialEq + std::fmt::Debug {
            let received: Vec<Vec<(SensorId, u64)>> = subs
                .iter()
                .map(|s| {
                    std::iter::from_fn(|| s.rx.try_recv().ok())
                        .map(|b| (b.sensor, b.readings[0].value.to_bits()))
                        .collect()
                })
                .collect();
            let shed: Vec<u64> = subs.iter().map(Subscription::dropped).collect();
            let archived: Vec<Vec<Reading>> = (0..3)
                .map(|s| store.range(SensorId(s), Timestamp::ZERO, Timestamp::MAX))
                .collect();
            let totals = (
                bus.published(),
                bus.delivered_total(),
                bus.dropped_total(),
                bus.reaped_total(),
                bus.subscriber_count(),
            );
            (received, shed, format!("{archived:?}"), totals)
        }

        let (one, batches) = scene();
        let mut delivered_one = 0;
        for b in &batches {
            delivered_one += one.0.publish(b.clone());
        }
        let (many, _) = scene();
        let delivered_many = many.0.publish_many(&batches);
        assert_eq!(delivered_one, delivered_many);
        assert!(many.0.dropped_total() > 0 && many.0.reaped_total() == 1);
        let (one, many) = (observe(&one), observe(&many));
        assert_eq!(one, many);
    }

    #[test]
    fn default_subscriber_names_are_unique() {
        let (_reg, bus, _a, _b) = setup();
        let s1 = bus.subscription("/hw/**").subscribe();
        let s2 = bus.subscription("/hw/**").subscribe();
        assert_ne!(s1.name(), s2.name());
        assert!(s1.name().starts_with("sub-"));
    }
}
