//! Subscription fan-out: one bus subscription per distinct client pattern,
//! many streaming clients.
//!
//! The [`FanoutHub`] groups streaming clients by pattern — spellings that
//! compile to the same [`SensorPattern`] form one group — and holds one
//! [`TelemetryBus`] subscription per group. The bus resolves each sensor
//! against each group's pattern once, late-registered sensors included,
//! and delivers only the batches the group wants, so the hub renders a
//! frame only when some client wants it and never matches sensor names
//! itself. The last client out of a group drops its subscription, so an
//! idle hub costs the bus nothing.
//!
//! The cost moves onto the publishing side and grows with the number of
//! distinct patterns, which only the number of attached streaming
//! connections bounds: every publish pays one set lookup per batch per
//! distinct pattern, plus a batch clone into each group's channel the batch
//! matches. Within one pump a batch several patterns matched is rendered
//! once, so rendering does not grow with them.
//!
//! Backpressure is strictly local: each client owns a bounded frame
//! buffer (the server's holds `SUB_BUFFER_FRAMES` = 256). When the
//! serving loop cannot flush a client as fast as the bus produces — a
//! slow reader, a congested socket — the *oldest* buffered frames for
//! that client are shed and counted, and every other client is entirely
//! unaffected. A frame is shared by `Arc` across buffers, so fan-out cost
//! per extra client is one pointer push, not one JSON render. Batches the
//! bus sheds because a group's channel filled between pumps are counted in
//! [`FanoutStats::bus_dropped`].
//!
//! Frames are newline-delimited JSON (`application/x-ndjson`):
//!
//! ```json
//! {"sensor":17,"name":"/hw/node3/power","readings":[{"ts_ms":120000,"value":213.5}]}
//! ```

use oda_telemetry::bus::{Subscription, TelemetryBus};
use oda_telemetry::pattern::SensorPattern;
use oda_telemetry::reading::{ReadingBatch, Timestamp};
use oda_telemetry::sensor::{SensorId, SensorRegistry};
use serde_json::Value;
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

/// Monotone hub-wide fan-out counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FanoutStats {
    /// Batches drained from the bus subscriptions (a batch matching two
    /// clients' different patterns counts once per pattern).
    pub batches_in: u64,
    /// Frames enqueued into client buffers (one per matching client).
    pub frames_enqueued: u64,
    /// Frames dequeued by the serving loop for writing.
    pub frames_dequeued: u64,
    /// Frames shed because a client's buffer was full (oldest-first).
    pub frames_shed: u64,
    /// Clients ever attached.
    pub clients_attached: u64,
    /// Clients detached (client close or server shutdown of the stream).
    pub clients_detached: u64,
    /// Batches the bus shed before the hub saw them, because a pattern's
    /// subscription channel was full when the bus delivered.
    pub bus_dropped: u64,
}

struct FanoutClient {
    /// Key of the [`PatternGroup`] this client belongs to.
    group: String,
    buf: VecDeque<Arc<Vec<u8>>>,
    limit: usize,
    shed: u64,
    delivered: u64,
}

/// The clients that asked for one pattern, fed by one bus subscription.
struct PatternGroup {
    sub: Subscription,
    clients: Vec<u64>,
    /// `sub.dropped()` as last added to [`FanoutStats::bus_dropped`].
    dropped_seen: u64,
}

impl PatternGroup {
    /// Adds what the bus shed for this group since the last look to
    /// `stats.bus_dropped`.
    fn count_bus_dropped(&mut self, stats: &mut FanoutStats) {
        let dropped = self.sub.dropped();
        stats.bus_dropped += dropped - self.dropped_seen;
        self.dropped_seen = dropped;
    }

    /// Drains the group's channel, renders each batch (or finds it already
    /// rendered) and pushes the frame into every member's buffer, shedding
    /// the oldest frames of any member over its limit. Returns the number
    /// of batches drained.
    fn drain_into(
        &mut self,
        clients: &mut BTreeMap<u64, FanoutClient>,
        rendered: &mut Rendered<'_>,
        stats: &mut FanoutStats,
    ) -> usize {
        self.count_bus_dropped(stats);
        let mut frames: Vec<Arc<Vec<u8>>> = Vec::new();
        while let Ok(batch) = self.sub.rx.try_recv() {
            frames.push(rendered.frame(batch));
        }
        stats.batches_in += frames.len() as u64;
        for key in &self.clients {
            let Some(client) = clients.get_mut(key) else {
                continue;
            };
            for frame in &frames {
                client.buf.push_back(Arc::clone(frame));
                stats.frames_enqueued += 1;
                while client.buf.len() > client.limit {
                    client.buf.pop_front();
                    client.shed += 1;
                    stats.frames_shed += 1;
                }
            }
        }
        frames.len()
    }
}

/// The frames rendered so far in one drain of the groups, so a batch that
/// several patterns matched is rendered once. Each group's channel holds
/// its own clone of a batch, so a frame is found again by the batch's
/// content: equal content renders to equal bytes.
struct Rendered<'a> {
    registry: &'a SensorRegistry,
    /// Keyed by sensor and first timestamp: the batches rendered there.
    frames: BTreeMap<(SensorId, Option<Timestamp>), Vec<RenderedBatch>>,
}

type RenderedBatch = (ReadingBatch, Arc<Vec<u8>>);

impl<'a> Rendered<'a> {
    fn new(registry: &'a SensorRegistry) -> Self {
        Rendered {
            registry,
            frames: BTreeMap::new(),
        }
    }

    /// The frame for `batch`, rendered unless an equal batch already was.
    fn frame(&mut self, batch: ReadingBatch) -> Arc<Vec<u8>> {
        let key = (batch.sensor, batch.readings.first().map(|r| r.ts));
        let seen = self.frames.entry(key).or_default();
        if let Some((_, frame)) = seen.iter().find(|(b, _)| same_readings(b, &batch)) {
            return Arc::clone(frame);
        }
        let frame = Arc::new(render_frame(self.registry, &batch));
        seen.push((batch, Arc::clone(&frame)));
        frame
    }
}

/// `true` if the two batches' readings are bit-identical.
fn same_readings(a: &ReadingBatch, b: &ReadingBatch) -> bool {
    a.readings.len() == b.readings.len()
        && a.readings
            .iter()
            .zip(&b.readings)
            .all(|(x, y)| x.ts == y.ts && x.value.to_bits() == y.value.to_bits())
}

/// Per-pattern bus subscriptions multiplexed over many bounded client
/// buffers.
pub struct FanoutHub {
    /// Subscribed on per pattern; its sensor registry names frames.
    bus: Arc<TelemetryBus>,
    /// Keyed by [`SensorPattern::canonical`].
    groups: BTreeMap<String, PatternGroup>,
    clients: BTreeMap<u64, FanoutClient>,
    stats: FanoutStats,
}

impl FanoutHub {
    /// Creates a hub over `bus`, naming frames' sensors from its registry.
    /// No bus subscription exists until the first client attaches.
    pub fn new(bus: Arc<TelemetryBus>) -> Self {
        FanoutHub {
            bus,
            groups: BTreeMap::new(),
            clients: BTreeMap::new(),
            stats: FanoutStats::default(),
        }
    }

    /// Attaches streaming client `key` with `pattern`, buffering at most
    /// `buffer_frames` rendered frames. The first client of a pattern opens
    /// that pattern's bus subscription; spellings of one pattern
    /// (`/hw/**`, `//hw/**/`) share it. The client receives the batches
    /// published from now on. Returns `false` (and attaches nothing) if
    /// `key` is already attached.
    ///
    /// # Panics
    /// Panics if `pattern` is not absolute (see
    /// [`oda_telemetry::pattern::SensorPattern::new`]).
    pub fn attach(&mut self, key: u64, pattern: &str, buffer_frames: usize) -> bool {
        if self.clients.contains_key(&key) {
            return false;
        }
        let pattern = SensorPattern::new(pattern);
        let canonical = pattern.canonical();
        let group = match self.groups.entry(canonical.clone()) {
            Entry::Occupied(o) => {
                // What the group already holds was published before this
                // client attached: it goes to the members it was meant for.
                let group = o.into_mut();
                let mut rendered = Rendered::new(self.bus.registry());
                group.drain_into(&mut self.clients, &mut rendered, &mut self.stats);
                group
            }
            Entry::Vacant(v) => v.insert(PatternGroup {
                sub: self
                    .bus
                    .subscription(pattern)
                    .named("serve-fanout")
                    .subscribe(),
                clients: Vec::new(),
                dropped_seen: 0,
            }),
        };
        group.clients.push(key);
        self.clients.insert(
            key,
            FanoutClient {
                group: canonical,
                buf: VecDeque::new(),
                limit: buffer_frames.max(1),
                shed: 0,
                delivered: 0,
            },
        );
        self.stats.clients_attached += 1;
        true
    }

    /// Detaches client `key`, dropping its buffered frames. The last client
    /// of a pattern drops that pattern's bus subscription, so an idle
    /// server costs the bus nothing.
    pub fn detach(&mut self, key: u64) {
        let Some(client) = self.clients.remove(&key) else {
            return;
        };
        self.stats.clients_detached += 1;
        if let Entry::Occupied(mut group) = self.groups.entry(client.group) {
            group.get_mut().clients.retain(|&k| k != key);
            if group.get().clients.is_empty() {
                group.get_mut().count_bus_dropped(&mut self.stats);
                group.remove();
            }
        }
    }

    /// Number of attached clients.
    pub fn client_count(&self) -> usize {
        self.clients.len()
    }

    /// Number of distinct patterns attached clients asked for — one bus
    /// subscription each.
    pub fn pattern_count(&self) -> usize {
        self.groups.len()
    }

    /// Drains every batch the bus has delivered to each pattern's
    /// subscription since the last pump and distributes rendered frames to
    /// that pattern's client buffers, shedding the oldest frames of any
    /// client over its limit. A batch several patterns matched is rendered
    /// once. Returns the number of batches drained.
    pub fn pump(&mut self) -> usize {
        let mut rendered = Rendered::new(self.bus.registry());
        self.groups
            .values_mut()
            .map(|group| group.drain_into(&mut self.clients, &mut rendered, &mut self.stats))
            .sum()
    }

    /// Pops the next buffered frame for client `key`, if any.
    pub fn next_frame(&mut self, key: u64) -> Option<Arc<Vec<u8>>> {
        let client = self.clients.get_mut(&key)?;
        let frame = client.buf.pop_front()?;
        client.delivered += 1;
        self.stats.frames_dequeued += 1;
        Some(frame)
    }

    /// `(delivered, shed, buffered)` frame counts for client `key`.
    pub fn client_counts(&self, key: u64) -> Option<(u64, u64, usize)> {
        self.clients
            .get(&key)
            .map(|c| (c.delivered, c.shed, c.buf.len()))
    }

    /// Hub-wide counters.
    pub fn stats(&self) -> FanoutStats {
        self.stats
    }
}

/// Renders one bus batch as an NDJSON frame (trailing newline included).
fn render_frame(registry: &SensorRegistry, batch: &ReadingBatch) -> Vec<u8> {
    let readings = Value::Array(
        batch
            .readings
            .iter()
            .map(|r| {
                Value::Object(vec![
                    ("ts_ms".to_string(), Value::U64(r.ts.0)),
                    ("value".to_string(), Value::F64(r.value)),
                ])
            })
            .collect(),
    );
    let mut fields = vec![("sensor".to_string(), Value::U64(u64::from(batch.sensor.0)))];
    if let Some(name) = registry.name(batch.sensor) {
        fields.push(("name".to_string(), Value::Str(name.to_string())));
    }
    fields.push(("readings".to_string(), readings));
    let mut line = serde_json::to_string(&Value::Object(fields))
        .unwrap_or_default()
        .into_bytes();
    line.push(b'\n');
    line
}

#[cfg(test)]
mod tests {
    use super::*;
    use oda_telemetry::hash::splitmix64;
    use oda_telemetry::prelude::*;
    use std::collections::BTreeSet;

    /// A bus over `registry` archiving into a fresh in-memory store.
    fn bus_over(registry: SensorRegistry) -> Arc<TelemetryBus> {
        let store = Arc::new(TimeSeriesStore::with_capacity(64));
        let archive = Arc::new(InMemoryBackend::new(store));
        Arc::new(TelemetryBus::with_archive(
            registry,
            archive,
            MetricsRegistry::new(),
        ))
    }

    fn bus_with(names: &[&str]) -> (Arc<TelemetryBus>, Vec<SensorId>) {
        let registry = SensorRegistry::new();
        let ids = names
            .iter()
            .map(|n| registry.register(n, SensorKind::Power, Unit::Watts))
            .collect();
        (bus_over(registry), ids)
    }

    fn publish(bus: &TelemetryBus, sensor: SensorId, ts: u64, value: f64) {
        bus.publish(ReadingBatch::single(
            sensor,
            Reading::new(Timestamp::from_millis(ts), value),
        ));
    }

    #[test]
    fn frames_fan_out_filtered_by_pattern() {
        let (bus, ids) = bus_with(&["/hw/n0/power", "/hw/n1/power", "/facility/pue"]);
        let mut hub = FanoutHub::new(Arc::clone(&bus));
        assert!(hub.attach(1, "/hw/**", 16));
        assert!(hub.attach(2, "/facility/**", 16));
        assert!(!hub.attach(2, "/facility/**", 16), "double attach");

        publish(&bus, ids[0], 10, 1.0);
        publish(&bus, ids[2], 10, 1.4);
        assert_eq!(hub.pump(), 2);

        let f = hub.next_frame(1).expect("hw client gets hw frame");
        let text = String::from_utf8_lossy(&f);
        assert!(text.contains("\"name\":\"/hw/n0/power\""), "{text}");
        assert!(text.ends_with('\n'));
        assert!(hub.next_frame(1).is_none(), "facility frame filtered out");

        let f = hub.next_frame(2).expect("facility client gets pue frame");
        assert!(String::from_utf8_lossy(&f).contains("/facility/pue"));
    }

    #[test]
    fn slow_consumer_sheds_oldest_frames_only_for_itself() {
        let (bus, ids) = bus_with(&["/hw/n0/power"]);
        let mut hub = FanoutHub::new(Arc::clone(&bus));
        hub.attach(1, "/**", 2); // slow: buffer of 2
        hub.attach(2, "/**", 16); // fast

        for i in 0..5 {
            publish(&bus, ids[0], 10 * (i + 1), i as f64);
        }
        hub.pump();

        // Slow client kept only the 2 newest frames.
        let (_, shed, buffered) = hub.client_counts(1).expect("client 1");
        assert_eq!((shed, buffered), (3, 2));
        let newest_first = hub.next_frame(1).expect("frame");
        assert!(String::from_utf8_lossy(&newest_first).contains("\"value\":3.0"));

        // Fast client saw everything.
        let (_, shed, buffered) = hub.client_counts(2).expect("client 2");
        assert_eq!((shed, buffered), (0, 5));
        assert_eq!(hub.stats().frames_shed, 3);
        assert_eq!(hub.stats().frames_enqueued, 10);
    }

    #[test]
    fn frames_are_shared_not_recloned() {
        let (bus, ids) = bus_with(&["/hw/n0/power"]);
        let mut hub = FanoutHub::new(Arc::clone(&bus));
        for k in 0..100 {
            let pattern = if k % 2 == 0 { "/**" } else { "/hw/*/power" };
            hub.attach(k, pattern, 8);
        }
        publish(&bus, ids[0], 10, 1.0);
        assert_eq!(hub.pump(), 2, "one batch, drained once per pattern");
        let a = hub.next_frame(0).expect("frame");
        let b = hub.next_frame(1).expect("frame");
        assert!(
            Arc::ptr_eq(&a, &b),
            "rendered once whichever pattern matched"
        );
        // All 100 buffers held one allocation: 98 still hold it.
        assert_eq!(Arc::strong_count(&a), 100);
        // Equal readings of another sensor are a different frame.
        let (bus, ids) = bus_with(&["/hw/n0/power", "/hw/n1/power"]);
        let mut hub = FanoutHub::new(Arc::clone(&bus));
        hub.attach(0, "/**", 8);
        hub.attach(1, "/hw/*/power", 8);
        publish(&bus, ids[0], 10, 1.0);
        publish(&bus, ids[1], 10, 1.0);
        publish(&bus, ids[0], 10, 2.0);
        hub.pump();
        for key in [0, 1] {
            let frames: Vec<_> = std::iter::from_fn(|| hub.next_frame(key)).collect();
            assert_eq!(frames.len(), 3);
            let text: Vec<_> = frames.iter().map(|f| String::from_utf8_lossy(f)).collect();
            assert!(text[0].contains("/hw/n0/power") && text[0].contains("\"value\":1.0"));
            assert!(text[1].contains("/hw/n1/power"));
            assert!(text[2].contains("\"value\":2.0"));
        }
    }

    #[test]
    fn last_detach_drops_the_bus_subscription() {
        let (bus, ids) = bus_with(&["/hw/n0/power"]);
        let mut hub = FanoutHub::new(Arc::clone(&bus));
        hub.attach(1, "/**", 8);
        hub.attach(2, "/hw/**", 8);
        hub.attach(3, "/hw/**", 8);
        assert_eq!(bus.subscriber_count(), 2, "one subscription per pattern");
        assert_eq!(hub.pattern_count(), 2);
        hub.detach(2);
        assert_eq!(bus.subscriber_count(), 2, "/hw/** still has a client");
        hub.detach(1);
        hub.detach(3);
        assert_eq!(bus.subscriber_count(), 0, "idle hub must not load the bus");
        assert_eq!(hub.pattern_count(), 0);
        // Re-attach resubscribes.
        hub.attach(4, "/hw/**", 8);
        assert_eq!(bus.subscriber_count(), 1);
        publish(&bus, ids[0], 10, 1.0);
        assert_eq!(hub.pump(), 1);
        assert_eq!(hub.stats().clients_detached, 3);
    }

    #[test]
    fn late_registered_sensor_reaches_matching_clients() {
        let (bus, _) = bus_with(&["/hw/n0/power"]);
        let mut hub = FanoutHub::new(Arc::clone(&bus));
        hub.attach(1, "/hw/**", 8);
        hub.attach(2, "/hw/*/power", 8);
        hub.attach(3, "/facility/**", 8);
        // Register after attach; the bus picks it up, and so must the hub.
        let late = bus
            .registry()
            .register("/hw/n9/power", SensorKind::Power, Unit::Watts);
        publish(&bus, late, 10, 9.0);
        hub.pump();
        for key in [1, 2] {
            let f = hub.next_frame(key).expect("late sensor frame");
            assert!(String::from_utf8_lossy(&f).contains("/hw/n9/power"));
        }
        assert!(hub.next_frame(3).is_none());
    }

    #[test]
    fn batches_shed_by_the_bus_are_counted() {
        let (bus, ids) = bus_with(&["/hw/n0/power"]);
        let mut hub = FanoutHub::new(Arc::clone(&bus));
        hub.attach(1, "/**", 2_048);
        for i in 0..1_100 {
            publish(&bus, ids[0], i, i as f64);
        }
        hub.pump();
        let stats = hub.stats();
        assert_eq!(stats.bus_dropped, 76, "1 100 batches into a 1 024 channel");
        assert_eq!(stats.frames_enqueued, 1_024);
        assert_eq!(stats.frames_shed, 0);
        // Observed deltas: a second pump adds nothing new.
        hub.pump();
        assert_eq!(hub.stats().bus_dropped, 76);
        // Overflow again, then the last client leaves before any pump: the
        // group's final sheds are still counted.
        for i in 0..1_030 {
            publish(&bus, ids[0], i, i as f64);
        }
        hub.detach(1);
        assert_eq!(hub.stats().bus_dropped, 82);
        assert_eq!(hub.pattern_count(), 0);
    }

    #[test]
    fn equivalent_spellings_share_one_subscription() {
        let (bus, ids) = bus_with(&["/hw/n0/power"]);
        let mut hub = FanoutHub::new(Arc::clone(&bus));
        for (key, spelling) in ["/hw/**", "/hw/**/", "//hw/**", "/hw//**"]
            .iter()
            .enumerate()
        {
            hub.attach(key as u64, spelling, 8);
        }
        assert_eq!(bus.subscriber_count(), 1);
        assert_eq!(hub.pattern_count(), 1);
        publish(&bus, ids[0], 10, 1.0);
        assert_eq!(hub.pump(), 1, "rendered once for all four spellings");
        let first = hub.next_frame(0).expect("frame");
        assert_eq!(Arc::strong_count(&first), 4);
        for key in [1, 2] {
            hub.detach(key);
        }
        hub.detach(0);
        assert_eq!(
            bus.subscriber_count(),
            1,
            "the /hw//** client is still attached"
        );
        hub.detach(3);
        assert_eq!(bus.subscriber_count(), 0);
    }

    /// One client of the reference model: a dedicated bus subscription
    /// opened when the client attached, and the buffer the hub should hold.
    struct Expected {
        pattern: &'static str,
        sub: Subscription,
        limit: usize,
        buf: VecDeque<Vec<u8>>,
        shed: u64,
        delivered: u64,
    }

    impl Expected {
        /// Moves what the dedicated subscription received into the buffer,
        /// shedding the oldest frames over the limit.
        fn fill(&mut self, registry: &SensorRegistry) {
            while let Ok(batch) = self.sub.rx.try_recv() {
                self.buf.push_back(render_frame(registry, &batch));
                if self.buf.len() > self.limit {
                    self.buf.pop_front();
                    self.shed += 1;
                }
            }
        }
    }

    #[test]
    fn clients_receive_what_a_dedicated_subscription_would() {
        // Random attach/detach over overlapping patterns (and one that
        // matches nothing), publishes that register sensors late, pumps and
        // partial drains. The hub's bus and the reference bus share one
        // registry and see the same publishes.
        const PATTERNS: [&str; 4] = ["/hw/**", "/hw/*/power", "/facility/**", "/none/**"];
        const LEAVES: [&str; 3] = ["power", "temp", "pue"];
        for seed in 0..24u64 {
            let mut state = seed << 32;
            let mut rand = |n: u64| {
                state += 1;
                splitmix64(state) % n
            };
            let (bus, mut ids) = bus_with(&["/hw/n0/power", "/hw/n0/temp", "/facility/pue"]);
            let registry = bus.registry().clone();
            let reference = bus_over(registry.clone());
            let mut hub = FanoutHub::new(Arc::clone(&bus));
            let mut model: BTreeMap<u64, Expected> = BTreeMap::new();
            let mut shared: BTreeMap<(&str, Vec<u8>), Arc<Vec<u8>>> = BTreeMap::new();
            let mut shed_total = 0;
            let mut value = 0u64;
            for _ in 0..300 {
                match rand(6) {
                    0 => {
                        let key = rand(6);
                        let pattern = PATTERNS[rand(4) as usize];
                        let limit = 1 + rand(4) as usize;
                        let attached = hub.attach(key, pattern, limit);
                        assert_eq!(attached, !model.contains_key(&key));
                        if attached {
                            // A joiner flushes what its pattern's members
                            // were already sent into their buffers.
                            for exp in model.values_mut().filter(|e| e.pattern == pattern) {
                                exp.fill(&registry);
                            }
                            let sub = reference.subscription(pattern).subscribe();
                            model.insert(
                                key,
                                Expected {
                                    pattern,
                                    sub,
                                    limit,
                                    buf: VecDeque::new(),
                                    shed: 0,
                                    delivered: 0,
                                },
                            );
                        }
                    }
                    1 => {
                        let key = rand(6);
                        hub.detach(key);
                        if let Some(gone) = model.remove(&key) {
                            shed_total += gone.shed;
                        }
                    }
                    2 => {
                        let root = if rand(2) == 0 { "hw" } else { "facility" };
                        let leaf = LEAVES[rand(3) as usize];
                        let name = format!("/{root}/n{}/{leaf}", rand(50));
                        ids.push(registry.register(&name, SensorKind::Power, Unit::Watts));
                    }
                    3 | 4 => {
                        for _ in 0..=rand(6) {
                            let sensor = ids[rand(ids.len() as u64) as usize];
                            value += 1;
                            let batch = ReadingBatch::single(
                                sensor,
                                Reading::new(Timestamp::from_millis(value), value as f64),
                            );
                            bus.publish(batch.clone());
                            reference.publish(batch);
                        }
                    }
                    _ => {
                        hub.pump();
                        for (key, exp) in &mut model {
                            exp.fill(&registry);
                            for _ in 0..rand(exp.limit as u64 + 2) {
                                let got = hub.next_frame(*key);
                                let want = exp.buf.pop_front();
                                assert_eq!(got.as_deref(), want.as_ref(), "seed {seed}");
                                let Some(got) = got else { break };
                                exp.delivered += 1;
                                let first = shared
                                    .entry((exp.pattern, got.to_vec()))
                                    .or_insert_with(|| Arc::clone(&got));
                                assert!(Arc::ptr_eq(first, &got), "one render per pattern");
                            }
                            assert_eq!(
                                hub.client_counts(*key),
                                Some((exp.delivered, exp.shed, exp.buf.len())),
                                "seed {seed} client {key}"
                            );
                        }
                    }
                }
                let live: BTreeSet<&str> = model.values().map(|e| e.pattern).collect();
                assert_eq!(bus.subscriber_count(), live.len(), "seed {seed}");
                assert_eq!(hub.pattern_count(), live.len());
                assert_eq!(hub.client_count(), model.len());
            }
            let in_model: u64 = model.values().map(|e| e.shed).sum();
            assert_eq!(hub.stats().frames_shed, shed_total + in_model);
            assert_eq!(hub.stats().bus_dropped, 0);
        }
    }
}
