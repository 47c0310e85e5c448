//! The serving loop: endpoints, admission, cache, fan-out, backpressure.
//!
//! [`Server`] is a single-threaded readiness loop over a
//! [`crate::net::ServerNet`]. One [`Server::poll`] tick accepts pending
//! connections, reads and parses whatever bytes have arrived (pipelined
//! requests included), dispatches complete requests, pumps the fan-out
//! hub, and flushes outbound buffers as far as the transport allows —
//! never blocking on any of it. Driving the same tick function from a
//! test over [`crate::net::SimNet`] and from production over
//! [`crate::net::RealNet`] exercises identical logic.
//!
//! ## Endpoints
//!
//! | Method | Path | Metered | Description |
//! |--------|------|---------|-------------|
//! | GET  | `/healthz`          | no  | liveness probe |
//! | GET  | `/metrics`          | no  | Prometheus text exposition |
//! | GET  | `/api/v1/sensors`   | no  | sensor inventory (`?pattern=`) |
//! | POST | `/api/v1/query`     | yes | execute a canonical-wire [`Query`] |
//! | GET  | `/api/v1/query`     | yes | same, query in `?q=` (urlencoded) |
//! | GET  | `/api/v1/subscribe` | sub-quota | NDJSON live stream (`?pattern=`) |
//! | GET  | `/api/v1/tenants`   | no  | per-tenant admission counters |
//! | GET  | `/api/v1/stats`     | no  | server / cache / fan-out counters |
//!
//! Every request counts once in `serving_requests_total`, labelled
//! `endpoint=` its path when the path is in the table and
//! `endpoint="other"` when it is not.
//!
//! *Metered* endpoints pass through the [`AdmissionController`] under the
//! tenant named by the `X-Tenant` header (`"anonymous"` when absent):
//! an empty token bucket is `429` with a `Retry-After` hint, a full
//! concurrency cap is `503`. A query's concurrency slot is held until its
//! response has **fully flushed** — a slow reader holds its slot, so
//! saturation reflects real downstream pressure.
//!
//! Query responses carry `X-Cache: hit|miss` and `X-Result-Digest` (the
//! [`oda_telemetry::query::QueryResult::digest`] of the rendered result),
//! so a client can verify the cache's bit-equality contract externally.

use crate::cache::{CacheStats, QueryCache};
use crate::config::ServingConfig;
use crate::fanout::{FanoutHub, FanoutStats};
use crate::http::{error_body, parse_request, response, streaming_head, HttpRequest, ParseOutcome};
use crate::net::{ConnId, IoResult, ServerNet};
use crate::tenant::{Admission, AdmissionController, TenantCounters};
use oda_telemetry::bus::TelemetryBus;
use oda_telemetry::metrics::{Counter, MetricsRegistry};
use oda_telemetry::pattern::SensorPattern;
use oda_telemetry::plane::QueryPlane;
use oda_telemetry::query::Query;
use serde_json::Value;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Tenant charged when a request carries no `X-Tenant` header.
pub const ANONYMOUS_TENANT: &str = "anonymous";

/// Read granularity of the poll loop, bytes.
pub(crate) const READ_CHUNK: usize = 4096;

/// Per-connection outbound high-water mark, bytes. Streaming frames are
/// not copied into a connection whose backlog exceeds this.
pub(crate) const OUT_HIGH_WATER: usize = 256 * 1024;

/// Per-subscriber fan-out buffer, in frames; the oldest frames are shed
/// when a slow consumer falls this far behind.
pub(crate) const SUB_BUFFER_FRAMES: usize = 256;

/// Every path the server routes. `serving_requests_total` labels a request
/// to one of these with its path and any other request
/// `endpoint="other"`, so clients cannot grow the label set.
const ROUTES: [&str; 7] = [
    "/healthz",
    "/metrics",
    "/api/v1/sensors",
    "/api/v1/query",
    "/api/v1/subscribe",
    "/api/v1/tenants",
    "/api/v1/stats",
];

/// Monotone whole-server counters (admission, cache and fan-out counters
/// live on their own subsystems; see [`Server::admission`],
/// [`Server::cache_stats`], [`Server::fanout_stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Connections accepted.
    pub connections_accepted: u64,
    /// Connections refused because `max_connections` was reached.
    pub connections_rejected: u64,
    /// Connections fully torn down.
    pub connections_closed: u64,
    /// Complete HTTP requests dispatched.
    pub requests_total: u64,
    /// Responses with a 2xx status.
    pub responses_2xx: u64,
    /// Responses with a 4xx status (including every `429`).
    pub responses_4xx: u64,
    /// Responses with a 5xx status (including every `503`).
    pub responses_5xx: u64,
    /// Bytes successfully handed to the transport.
    pub bytes_written: u64,
    /// Streaming subscriptions opened.
    pub subscriptions_opened: u64,
}

/// A query's (status, extra headers, body); the body is the cache's own
/// copy on a hit.
type QueryReply = (u16, Vec<(&'static str, String)>, Arc<Vec<u8>>);

/// One tracked connection.
struct Conn {
    id: ConnId,
    /// Unparsed inbound bytes.
    in_buf: Vec<u8>,
    /// Outbound bytes not yet accepted by the transport…
    out: Vec<u8>,
    /// …up to this cursor, which have been.
    written: usize,
    /// Admitted tenants whose concurrency slot is released when `out`
    /// fully drains (pipelining can stack several).
    pending_releases: Vec<String>,
    /// `Some(tenant)` once this connection is a live NDJSON stream.
    stream_tenant: Option<String>,
    /// Close the connection once `out` fully drains.
    close_after_flush: bool,
}

impl Conn {
    fn unflushed(&self) -> usize {
        self.out.len().saturating_sub(self.written)
    }
}

/// The multi-tenant serving frontend. See the [module docs](self).
pub struct Server<N: ServerNet> {
    net: Arc<N>,
    config: ServingConfig,
    plane: Arc<dyn QueryPlane>,
    /// The bus's registry: `/metrics` renders it, and the server's own
    /// request/shed/cache counters record into it.
    metrics: MetricsRegistry,
    /// The server's counter handles by (metric name, label value), each
    /// looked up in `metrics` on first use: a series appears in
    /// `/metrics` once something counted into it, and a request pays no
    /// registry lookup. Every label value is one of a fixed set.
    counters: BTreeMap<(&'static str, &'static str), Counter>,
    admission: AdmissionController,
    cache: QueryCache,
    fanout: FanoutHub,
    conns: BTreeMap<u64, Conn>,
    stats: ServerStats,
}

impl<N: ServerNet> Server<N> {
    /// Creates a server over `net` answering queries from `plane` — a
    /// [`oda_telemetry::plane::LocalPlane`] over one store or a collector
    /// cluster's coordinator; responses and digests are bit-identical
    /// either way, and a plane with shards adds a per-shard occupancy
    /// section to `/api/v1/stats`. `/api/v1/subscribe` streams what `bus`
    /// publishes, and `/metrics` renders the bus's registry, which the
    /// server's own request/shed/cache counters record into.
    pub fn new(
        net: Arc<N>,
        config: ServingConfig,
        plane: Arc<dyn QueryPlane>,
        bus: Arc<TelemetryBus>,
    ) -> Self {
        let cache = QueryCache::new(config.cache_capacity);
        let admission = AdmissionController::new(config.clone());
        Server {
            net,
            config,
            plane,
            metrics: bus.metrics().clone(),
            counters: BTreeMap::new(),
            admission,
            cache,
            fanout: FanoutHub::new(bus),
            conns: BTreeMap::new(),
            stats: ServerStats::default(),
        }
    }

    /// Runs one non-blocking tick: accept, read + dispatch, pump fan-out,
    /// flush. Returns the number of complete requests dispatched, so
    /// callers can sleep when the loop goes idle.
    pub fn poll(&mut self) -> usize {
        self.accept_pending();
        let dispatched = self.read_and_dispatch();
        self.pump_streams();
        self.flush();
        dispatched
    }

    // ----- poll phases -----------------------------------------------------

    fn accept_pending(&mut self) {
        while let Some(id) = self.net.poll_accept() {
            if self.conns.len() >= self.config.max_connections {
                self.net.close(id);
                self.stats.connections_rejected += 1;
                continue;
            }
            self.stats.connections_accepted += 1;
            self.conns.insert(
                id.0,
                Conn {
                    id,
                    in_buf: Vec::new(),
                    out: Vec::new(),
                    written: 0,
                    pending_releases: Vec::new(),
                    stream_tenant: None,
                    close_after_flush: false,
                },
            );
        }
    }

    fn read_and_dispatch(&mut self) -> usize {
        let keys: Vec<u64> = self.conns.keys().copied().collect();
        let mut dispatched = 0;
        for key in keys {
            let Some(conn) = self.conns.get_mut(&key) else {
                continue;
            };
            let id = conn.id;
            // Drain everything the transport has for us right now.
            let mut chunk = vec![0u8; READ_CHUNK];
            let mut peer_closed = false;
            loop {
                match self.net.read(id, &mut chunk) {
                    IoResult::Ready(n) => {
                        conn.in_buf.extend(chunk.get(..n).unwrap_or_default());
                        if conn.in_buf.len() > self.config.max_request_bytes {
                            break;
                        }
                    }
                    IoResult::WouldBlock => break,
                    IoResult::Closed => {
                        peer_closed = true;
                        break;
                    }
                }
            }
            if conn.in_buf.len() > self.config.max_request_bytes {
                self.respond(
                    key,
                    413,
                    "application/json",
                    &[],
                    &error_body("request exceeds max_request_bytes"),
                    true,
                );
                continue;
            }
            // Parse as many pipelined requests as are complete.
            while let Some(conn) = self.conns.get_mut(&key) {
                if conn.close_after_flush || conn.stream_tenant.is_some() {
                    // No further requests on a closing or streaming conn.
                    break;
                }
                match parse_request(&conn.in_buf, self.config.max_request_bytes) {
                    ParseOutcome::Incomplete => break,
                    ParseOutcome::Bad(why) => {
                        let body = error_body(why);
                        self.respond(key, 400, "application/json", &[], &body, true);
                        break;
                    }
                    ParseOutcome::Ready { request, consumed } => {
                        conn.in_buf.drain(..consumed.min(conn.in_buf.len()));
                        dispatched += 1;
                        self.stats.requests_total += 1;
                        self.dispatch(key, &request);
                    }
                }
            }
            if peer_closed {
                self.teardown(key);
            }
        }
        dispatched
    }

    /// Moves buffered fan-out frames into streaming connections that have
    /// room below the outbound high-water mark.
    fn pump_streams(&mut self) {
        self.fanout.pump();
        let keys: Vec<u64> = self.conns.keys().copied().collect();
        for key in keys {
            let Some(conn) = self.conns.get_mut(&key) else {
                continue;
            };
            if conn.stream_tenant.is_none() {
                continue;
            }
            while conn.unflushed() < OUT_HIGH_WATER {
                match self.fanout.next_frame(key) {
                    Some(frame) => conn.out.extend_from_slice(&frame),
                    None => break,
                }
            }
        }
    }

    fn flush(&mut self) {
        let keys: Vec<u64> = self.conns.keys().copied().collect();
        for key in keys {
            let Some(conn) = self.conns.get_mut(&key) else {
                continue;
            };
            let id = conn.id;
            let mut closed = false;
            while conn.unflushed() > 0 {
                let data = conn.out.get(conn.written..).unwrap_or_default();
                match self.net.write(id, data) {
                    IoResult::Ready(n) => {
                        conn.written += n;
                        self.stats.bytes_written += n as u64;
                    }
                    IoResult::WouldBlock => break,
                    IoResult::Closed => {
                        closed = true;
                        break;
                    }
                }
            }
            if closed {
                self.teardown(key);
                continue;
            }
            if conn.unflushed() == 0 {
                conn.out.clear();
                conn.written = 0;
                // Fully flushed: every stacked concurrency slot drains now.
                let now = self.net.clock_ns();
                for tenant in std::mem::take(&mut conn.pending_releases) {
                    self.admission.release(&tenant, now);
                }
                if conn.close_after_flush {
                    self.teardown(key);
                }
            }
        }
    }

    /// Releases every resource a connection holds and forgets it.
    fn teardown(&mut self, key: u64) {
        let Some(conn) = self.conns.remove(&key) else {
            return;
        };
        let now = self.net.clock_ns();
        for tenant in &conn.pending_releases {
            self.admission.release(tenant, now);
        }
        if let Some(tenant) = &conn.stream_tenant {
            self.admission.unsubscribe(tenant, now);
            self.fanout.detach(key);
        }
        self.net.close(conn.id);
        self.stats.connections_closed += 1;
    }

    // ----- dispatch --------------------------------------------------------

    fn dispatch(&mut self, key: u64, request: &HttpRequest) {
        let tenant = request
            .header("x-tenant")
            .unwrap_or(ANONYMOUS_TENANT)
            .to_string();
        let path = request.path.as_str();
        let endpoint = ROUTES
            .iter()
            .find(|route| **route == path)
            .map_or("other", |route| route);
        self.count("serving_requests_total", ("endpoint", endpoint));
        match (request.method.as_str(), path) {
            ("GET", "/healthz") => {
                self.respond(
                    key,
                    200,
                    "application/json",
                    &[],
                    b"{\"status\":\"ok\"}",
                    false,
                );
            }
            ("GET", "/metrics") => {
                let text = self.metrics.render_prometheus().into_bytes();
                self.respond(
                    key,
                    200,
                    "text/plain; version=0.0.4; charset=utf-8",
                    &[],
                    &text,
                    false,
                );
            }
            ("GET", "/api/v1/sensors") => self.handle_sensors(key, request),
            ("POST", "/api/v1/query") => {
                let body = String::from_utf8_lossy(&request.body).into_owned();
                self.handle_query(key, &tenant, &body);
            }
            ("GET", "/api/v1/query") => match request.query_param("q") {
                Some(q) => self.handle_query(key, &tenant, &q),
                None => {
                    let body = error_body("missing ?q= query parameter");
                    self.respond(key, 400, "application/json", &[], &body, false);
                }
            },
            ("GET", "/api/v1/subscribe") => self.handle_subscribe(key, &tenant, request),
            ("GET", "/api/v1/tenants") => self.handle_tenants(key),
            ("GET", "/api/v1/stats") => self.handle_stats(key),
            (_, path) if ROUTES.contains(&path) => {
                let body = error_body("method not allowed");
                self.respond(key, 405, "application/json", &[], &body, false);
            }
            _ => {
                let body = error_body("no such endpoint");
                self.respond(key, 404, "application/json", &[], &body, false);
            }
        }
    }

    fn handle_sensors(&mut self, key: u64, request: &HttpRequest) {
        let registry = self.plane.registry();
        let metas = match request.query_param("pattern") {
            Some(p) => {
                let pattern = SensorPattern::new(&p);
                registry
                    .matching(&pattern)
                    .iter()
                    .filter_map(|id| registry.meta(*id))
                    .collect::<Vec<_>>()
            }
            None => registry.all(),
        };
        let sensors = Value::Array(
            metas
                .iter()
                .map(|m| {
                    Value::Object(vec![
                        ("id".to_string(), Value::U64(u64::from(m.id.0))),
                        ("name".to_string(), Value::Str(m.name.to_string())),
                        ("kind".to_string(), Value::Str(format!("{:?}", m.kind))),
                        ("unit".to_string(), Value::Str(m.unit.suffix().to_string())),
                    ])
                })
                .collect(),
        );
        let doc = Value::Object(vec![
            ("count".to_string(), Value::U64(metas.len() as u64)),
            ("sensors".to_string(), sensors),
        ]);
        let body = serde_json::to_string(&doc).unwrap_or_default().into_bytes();
        self.respond(key, 200, "application/json", &[], &body, false);
    }

    fn handle_query(&mut self, key: u64, tenant: &str, raw: &str) {
        match self.admission.try_admit(tenant, self.net.clock_ns()) {
            Admission::Admitted => {}
            Admission::RateLimited { retry_after_ms } => {
                self.count("serving_shed_total", ("kind", "rate_limited"));
                let retry_s = retry_after_ms.div_ceil(1000).max(1);
                let body = error_body("tenant rate limit exceeded");
                self.respond(
                    key,
                    429,
                    "application/json",
                    &[("retry-after", retry_s.to_string())],
                    &body,
                    false,
                );
                return;
            }
            Admission::Saturated => {
                self.count("serving_shed_total", ("kind", "saturated"));
                let body = error_body("tenant concurrency cap reached");
                self.respond(key, 503, "application/json", &[], &body, false);
                return;
            }
        }
        // From here the request holds a concurrency slot; it drains when
        // the response is fully flushed (or the connection dies).
        let (status, headers, body) = self.execute_query(raw);
        self.respond(key, status, "application/json", &headers, &body, false);
        if let Some(conn) = self.conns.get_mut(&key) {
            conn.pending_releases.push(tenant.to_string());
        } else {
            // Connection vanished while responding: drain the slot now.
            self.admission.release(tenant, self.net.clock_ns());
        }
    }

    /// Parses, admits to cache, executes. Returns (status, headers, body).
    ///
    /// The selector is resolved once: the one id list is the cache entry's
    /// sensors, the version snapshot's and the executed query's.
    fn execute_query(&mut self, raw: &str) -> QueryReply {
        let query = match Query::from_json(raw) {
            Ok(q) => q,
            Err(e) => return (400, Vec::new(), Arc::new(error_body(&e.to_string()))),
        };
        // One wire form: the canonical rendering is the cache key, so any
        // two spellings of the same query share an entry.
        let key = query.to_json();
        let sensors = self.plane.resolve(&query);
        // Versions snapshotted BEFORE execution: a concurrent fold can only
        // force a conservative miss later, never a stale hit (cache docs).
        let versions = self.plane.sensor_versions(&sensors);
        if let Some((body, digest)) = self.cache.lookup(&key, &sensors, &versions) {
            self.count("serving_cache_lookup_total", ("outcome", "hit"));
            let headers = vec![
                ("x-cache", "hit".to_string()),
                ("x-result-digest", format!("{digest:016x}")),
            ];
            return (200, headers, body);
        }
        self.count("serving_cache_lookup_total", ("outcome", "miss"));
        let result = self.plane.query(query.pinned(sensors.clone()));
        let digest = result.digest();
        let body = Arc::new(result.to_json().into_bytes());
        self.cache
            .insert(key, sensors, versions, Arc::clone(&body), digest);
        let headers = vec![
            ("x-cache", "miss".to_string()),
            ("x-result-digest", format!("{digest:016x}")),
        ];
        (200, headers, body)
    }

    fn handle_subscribe(&mut self, key: u64, tenant: &str, request: &HttpRequest) {
        let now = self.net.clock_ns();
        if !self.admission.try_subscribe(tenant, now) {
            self.count("serving_shed_total", ("kind", "subscription_quota"));
            let body = error_body("tenant subscription quota reached");
            self.respond(key, 429, "application/json", &[], &body, false);
            return;
        }
        let pattern = request
            .query_param("pattern")
            .unwrap_or_else(|| "/**".to_string());
        if !pattern.starts_with('/') {
            self.admission.unsubscribe(tenant, now);
            let body = error_body("pattern must be an absolute path like /hw/**");
            self.respond(key, 400, "application/json", &[], &body, false);
            return;
        }
        if !self.fanout.attach(key, &pattern, SUB_BUFFER_FRAMES) {
            self.admission.unsubscribe(tenant, now);
            let body = error_body("connection already streaming");
            self.respond(key, 400, "application/json", &[], &body, false);
            return;
        }
        self.stats.subscriptions_opened += 1;
        self.stats.responses_2xx += 1;
        if let Some(conn) = self.conns.get_mut(&key) {
            conn.out
                .extend_from_slice(&streaming_head(200, "application/x-ndjson"));
            conn.stream_tenant = Some(tenant.to_string());
        }
    }

    fn handle_tenants(&mut self, key: u64) {
        let tenants = Value::Array(
            self.admission
                .all_counters()
                .iter()
                .map(|(t, c)| tenant_counters_json(t, c))
                .collect(),
        );
        let totals = self.admission.totals();
        let doc = Value::Object(vec![
            ("tenants".to_string(), tenants),
            ("totals".to_string(), tenant_counters_json("*", &totals)),
        ]);
        let body = serde_json::to_string(&doc).unwrap_or_default().into_bytes();
        self.respond(key, 200, "application/json", &[], &body, false);
    }

    fn handle_stats(&mut self, key: u64) {
        let s = self.stats;
        let c = self.cache.stats();
        let f = self.fanout.stats();
        let u = |n: u64| Value::U64(n);
        let mut sections = vec![
            (
                "server".to_string(),
                Value::Object(vec![
                    (
                        "connections_accepted".to_string(),
                        u(s.connections_accepted),
                    ),
                    (
                        "connections_rejected".to_string(),
                        u(s.connections_rejected),
                    ),
                    ("connections_closed".to_string(), u(s.connections_closed)),
                    ("requests_total".to_string(), u(s.requests_total)),
                    ("responses_2xx".to_string(), u(s.responses_2xx)),
                    ("responses_4xx".to_string(), u(s.responses_4xx)),
                    ("responses_5xx".to_string(), u(s.responses_5xx)),
                    ("bytes_written".to_string(), u(s.bytes_written)),
                    (
                        "subscriptions_opened".to_string(),
                        u(s.subscriptions_opened),
                    ),
                ]),
            ),
            (
                "cache".to_string(),
                Value::Object(vec![
                    ("hits".to_string(), u(c.hits)),
                    ("misses".to_string(), u(c.misses)),
                    ("invalidated".to_string(), u(c.invalidated)),
                    ("inserted".to_string(), u(c.inserted)),
                    ("evicted".to_string(), u(c.evicted)),
                    ("hit_rate".to_string(), Value::F64(c.hit_rate())),
                    ("resident".to_string(), u(self.cache.len() as u64)),
                ]),
            ),
            (
                "fanout".to_string(),
                Value::Object(vec![
                    ("clients".to_string(), u(self.fanout.client_count() as u64)),
                    (
                        "patterns".to_string(),
                        u(self.fanout.pattern_count() as u64),
                    ),
                    ("batches_in".to_string(), u(f.batches_in)),
                    ("frames_enqueued".to_string(), u(f.frames_enqueued)),
                    ("frames_dequeued".to_string(), u(f.frames_dequeued)),
                    ("frames_shed".to_string(), u(f.frames_shed)),
                    ("bus_dropped".to_string(), u(f.bus_dropped)),
                ]),
            ),
        ];
        if let Some(shards) = self.plane.shard_stats() {
            let occupancy = Value::Array(
                shards
                    .occupancy
                    .iter()
                    .map(|o| {
                        Value::Object(vec![
                            ("shard".to_string(), u(u64::from(o.shard.0))),
                            ("alive".to_string(), Value::Bool(o.alive)),
                            ("sensors_owned".to_string(), u(o.sensors_owned)),
                            ("readings".to_string(), u(o.readings)),
                            ("evicted".to_string(), u(o.evicted)),
                            ("durable_len".to_string(), u(o.durable_len)),
                            ("published".to_string(), u(o.published)),
                        ])
                    })
                    .collect(),
            );
            sections.push((
                "shards".to_string(),
                Value::Object(vec![
                    ("count".to_string(), u(shards.count as u64)),
                    ("alive".to_string(), u(shards.alive as u64)),
                    ("epoch".to_string(), u(shards.epoch)),
                    ("rebalances".to_string(), u(shards.rebalances)),
                    ("handoff_errors".to_string(), u(shards.handoff_errors)),
                    ("occupancy".to_string(), occupancy),
                ]),
            ));
        }
        let doc = Value::Object(sections);
        let body = serde_json::to_string(&doc).unwrap_or_default().into_bytes();
        self.respond(key, 200, "application/json", &[], &body, false);
    }

    // ----- plumbing --------------------------------------------------------

    /// Enqueues a framed response on connection `key` and updates status
    /// counters. `close` marks the connection for close-after-flush.
    fn respond(
        &mut self,
        key: u64,
        status: u16,
        content_type: &str,
        extra_headers: &[(&str, String)],
        body: &[u8],
        close: bool,
    ) {
        match status / 100 {
            2 => self.stats.responses_2xx += 1,
            4 => self.stats.responses_4xx += 1,
            5 => self.stats.responses_5xx += 1,
            _ => {}
        }
        self.count("serving_responses_total", ("status", status_label(status)));
        if let Some(conn) = self.conns.get_mut(&key) {
            conn.out
                .extend_from_slice(&response(status, content_type, extra_headers, body));
            if close {
                conn.close_after_flush = true;
            }
        }
    }

    /// Adds one to `name{label}`, through the handle `counters` keeps for
    /// it.
    fn count(&mut self, name: &'static str, label: (&'static str, &'static str)) {
        let metrics = &self.metrics;
        self.counters
            .entry((name, label.1))
            .or_insert_with(|| {
                #[cfg(test)]
                lookups::count();
                metrics.counter(name, &[label])
            })
            .inc();
    }

    // ----- accessors -------------------------------------------------------

    /// Whole-server counters.
    pub fn stats(&self) -> ServerStats {
        self.stats
    }

    /// The admission controller (per-tenant quota counters).
    pub fn admission(&self) -> &AdmissionController {
        &self.admission
    }

    /// Result-cache counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Fan-out hub counters.
    pub fn fanout_stats(&self) -> FanoutStats {
        self.fanout.stats()
    }

    /// Currently open connections.
    pub fn open_connections(&self) -> usize {
        self.conns.len()
    }

    /// The serving configuration.
    pub fn config(&self) -> &ServingConfig {
        &self.config
    }
}

/// Counts the server's metric-registry lookups on the calling thread, for
/// the test that holds a warmed route to none.
#[cfg(test)]
mod lookups {
    use std::cell::Cell;

    thread_local!(static LOOKUPS: Cell<usize> = const { Cell::new(0) });

    pub(super) fn count() {
        LOOKUPS.with(|l| l.set(l.get() + 1));
    }

    /// Lookups made since the last call on this thread.
    pub(super) fn take() -> usize {
        LOOKUPS.with(|l| l.replace(0))
    }
}

fn status_label(status: u16) -> &'static str {
    match status {
        200 => "200",
        400 => "400",
        404 => "404",
        405 => "405",
        413 => "413",
        429 => "429",
        500 => "500",
        503 => "503",
        _ => "other",
    }
}

fn tenant_counters_json(tenant: &str, c: &TenantCounters) -> Value {
    Value::Object(vec![
        ("tenant".to_string(), Value::Str(tenant.to_string())),
        ("offered".to_string(), Value::U64(c.offered)),
        ("admitted".to_string(), Value::U64(c.admitted)),
        (
            "shed_rate_limited".to_string(),
            Value::U64(c.shed_rate_limited),
        ),
        ("shed_saturated".to_string(), Value::U64(c.shed_saturated)),
        ("completed".to_string(), Value::U64(c.completed)),
        ("in_flight".to_string(), Value::U64(c.in_flight())),
        ("reconciles".to_string(), Value::Bool(c.reconciles())),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TenantQuota;
    use crate::net::SimNet;
    use oda_telemetry::prelude::*;
    use oda_telemetry::reading::ReadingBatch;

    struct World {
        net: Arc<SimNet>,
        server: Server<SimNet>,
        bus: Arc<TelemetryBus>,
        sensors: Vec<SensorId>,
    }

    /// A server over a bus archiving into a fresh in-memory store of
    /// `capacity` readings per sensor.
    fn server_over<N: ServerNet>(
        net: Arc<N>,
        config: ServingConfig,
        registry: SensorRegistry,
        capacity: usize,
    ) -> (Server<N>, Arc<TelemetryBus>) {
        let store = Arc::new(TimeSeriesStore::with_capacity(capacity));
        let bus = Arc::new(TelemetryBus::with_archive(
            registry.clone(),
            Arc::new(InMemoryBackend::new(Arc::clone(&store))),
            MetricsRegistry::new(),
        ));
        let plane = Arc::new(LocalPlane { store, registry });
        (Server::new(net, config, plane, Arc::clone(&bus)), bus)
    }

    fn world(config: ServingConfig) -> World {
        let registry = SensorRegistry::new();
        let sensors = vec![
            registry.register("/hw/n0/power", SensorKind::Power, Unit::Watts),
            registry.register("/hw/n1/power", SensorKind::Power, Unit::Watts),
            registry.register("/facility/pue", SensorKind::Count, Unit::Dimensionless),
        ];
        let net = Arc::new(SimNet::new());
        let (server, bus) = server_over(Arc::clone(&net), config, registry, 1024);
        for i in 0..10u64 {
            for &s in &sensors {
                bus.publish(ReadingBatch::single(
                    s,
                    Reading::new(Timestamp::from_millis(100 * i), i as f64 + f64::from(s.0)),
                ));
            }
        }
        World {
            net,
            server,
            bus,
            sensors,
        }
    }

    fn request(w: &mut World, raw: &str) -> (u16, Vec<(String, String)>, Vec<u8>) {
        let conn = w.net.connect();
        w.net.client_send(conn, raw.as_bytes());
        // A few ticks: accept+read on the first, flush partial writes after.
        for _ in 0..64 {
            w.server.poll();
        }
        let reply = w.net.client_recv(conn);
        w.net.client_close(conn);
        w.server.poll();
        parse_response(&reply)
    }

    fn parse_response(raw: &[u8]) -> (u16, Vec<(String, String)>, Vec<u8>) {
        let text = String::from_utf8_lossy(raw);
        let head_end = text.find("\r\n\r\n").expect("complete head");
        let head = &text[..head_end];
        let mut lines = head.split("\r\n");
        let status_line = lines.next().expect("status line");
        let status: u16 = status_line
            .split(' ')
            .nth(1)
            .expect("status code")
            .parse()
            .expect("numeric status");
        let headers = lines
            .map(|l| {
                let (n, v) = l.split_once(':').expect("header");
                (n.trim().to_ascii_lowercase(), v.trim().to_string())
            })
            .collect();
        (status, headers, raw[head_end + 4..].to_vec())
    }

    fn header<'a>(headers: &'a [(String, String)], name: &str) -> Option<&'a str> {
        headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    #[test]
    fn healthz_and_unknown_route() {
        let mut w = world(ServingConfig::default());
        let (status, _, body) = request(&mut w, "GET /healthz HTTP/1.1\r\n\r\n");
        assert_eq!(status, 200);
        assert_eq!(body, b"{\"status\":\"ok\"}");
        let (status, _, _) = request(&mut w, "GET /nope HTTP/1.1\r\n\r\n");
        assert_eq!(status, 404);
        let (status, _, _) = request(&mut w, "DELETE /healthz HTTP/1.1\r\n\r\n");
        assert_eq!(status, 405);
    }

    #[test]
    fn sensors_endpoint_lists_and_filters() {
        let mut w = world(ServingConfig::default());
        let (status, _, body) = request(&mut w, "GET /api/v1/sensors HTTP/1.1\r\n\r\n");
        assert_eq!(status, 200);
        let text = String::from_utf8_lossy(&body);
        assert!(text.contains("\"count\":3"), "{text}");
        let (_, _, body) = request(
            &mut w,
            "GET /api/v1/sensors?pattern=%2Ffacility%2F%2A%2A HTTP/1.1\r\n\r\n",
        );
        let text = String::from_utf8_lossy(&body);
        assert!(
            text.contains("\"count\":1") && text.contains("/facility/pue"),
            "{text}"
        );
    }

    #[test]
    fn query_round_trip_cache_hit_is_bit_identical() {
        let mut w = world(ServingConfig::default());
        let q = format!(
            "{{\"selector\":{{\"ids\":[{}]}},\"shape\":{{\"kind\":\"scalars\",\"agg\":\"mean\"}}}}",
            w.sensors[0].0
        );
        let raw = format!(
            "POST /api/v1/query HTTP/1.1\r\ncontent-length: {}\r\n\r\n{}",
            q.len(),
            q
        );
        let (status, headers, body1) = request(&mut w, &raw);
        assert_eq!(status, 200);
        assert_eq!(header(&headers, "x-cache"), Some("miss"));
        let digest1 = header(&headers, "x-result-digest")
            .expect("digest")
            .to_string();

        let (status, headers, body2) = request(&mut w, &raw);
        assert_eq!(status, 200);
        assert_eq!(header(&headers, "x-cache"), Some("hit"));
        assert_eq!(header(&headers, "x-result-digest"), Some(digest1.as_str()));
        assert_eq!(body1, body2, "cache hit must be bit-identical");

        // GET with urlencoded q hits the same cache entry (one wire form).
        let urlencoded: String = q.bytes().map(|b| format!("%{b:02X}")).collect();
        let (status, headers, body3) = request(
            &mut w,
            &format!("GET /api/v1/query?q={urlencoded} HTTP/1.1\r\n\r\n"),
        );
        assert_eq!(status, 200);
        assert_eq!(header(&headers, "x-cache"), Some("hit"));
        assert_eq!(body1, body3);
    }

    #[test]
    fn a_request_on_a_warmed_route_looks_up_no_metric() {
        let mut w = world(ServingConfig::default());
        let post = |pattern: &str| {
            let q = Query::sensors(pattern)
                .aggregate(Aggregation::Mean)
                .to_json();
            format!(
                "POST /api/v1/query HTTP/1.1\r\ncontent-length: {}\r\n\r\n{q}",
                q.len()
            )
        };
        // Warm the route's series: a miss, then a hit.
        let fleet = post("/hw/*/power");
        request(&mut w, &fleet);
        request(&mut w, &fleet);
        lookups::take();

        let (_, headers, _) = request(&mut w, &fleet);
        assert_eq!(header(&headers, "x-cache"), Some("hit"));
        assert_eq!(lookups::take(), 0, "a repeated request");
        let (_, headers, _) = request(&mut w, &post("/hw/n0/*"));
        assert_eq!(header(&headers, "x-cache"), Some("miss"));
        assert_eq!(lookups::take(), 0, "a new query on the warmed route");
        let (_, headers, _) = request(&mut w, &post("/hw/n9/*"));
        assert_eq!(header(&headers, "x-cache"), Some("miss"));
        assert_eq!(lookups::take(), 0, "a query that resolves to nothing");
    }

    #[test]
    fn write_invalidates_cached_entry() {
        let mut w = world(ServingConfig::default());
        let q = format!("{{\"selector\":{{\"ids\":[{}]}}}}", w.sensors[1].0);
        let raw = format!(
            "POST /api/v1/query HTTP/1.1\r\ncontent-length: {}\r\n\r\n{}",
            q.len(),
            q
        );
        let (_, headers, _) = request(&mut w, &raw);
        assert_eq!(header(&headers, "x-cache"), Some("miss"));
        let (_, headers, _) = request(&mut w, &raw);
        assert_eq!(header(&headers, "x-cache"), Some("hit"));
        // A write to the involved sensor forces a miss and a fresh body.
        w.bus.publish(ReadingBatch::single(
            w.sensors[1],
            Reading::new(Timestamp::from_millis(10_000), 123.0),
        ));
        let (_, headers, body) = request(&mut w, &raw);
        assert_eq!(header(&headers, "x-cache"), Some("miss"));
        assert!(String::from_utf8_lossy(&body).contains("123.0"));
    }

    #[test]
    fn malformed_query_is_400_not_admitted_forever() {
        let mut w = world(ServingConfig::default());
        let q = "{\"oops\":1}";
        let raw = format!(
            "POST /api/v1/query HTTP/1.1\r\ncontent-length: {}\r\n\r\n{}",
            q.len(),
            q
        );
        let (status, _, _) = request(&mut w, &raw);
        assert_eq!(status, 400);
        // The slot still drains: counters reconcile and nothing is stuck.
        let c = w.server.admission().counters(ANONYMOUS_TENANT);
        assert!(c.reconciles());
        assert_eq!(c.in_flight(), 0);
    }

    #[test]
    fn rate_limit_responds_429_with_retry_after() {
        let mut w = world(ServingConfig {
            default_quota: TenantQuota {
                rate_per_sec: 10.0,
                burst: 2.0,
                max_concurrent: 8,
                max_subscriptions: 4,
            },
            ..ServingConfig::default()
        });
        let q = format!("{{\"selector\":{{\"ids\":[{}]}}}}", w.sensors[0].0);
        let raw = format!(
            "POST /api/v1/query HTTP/1.1\r\ncontent-length: {}\r\n\r\n{}",
            q.len(),
            q
        );
        let mut codes = Vec::new();
        for _ in 0..4 {
            let (status, headers, _) = request(&mut w, &raw);
            if status == 429 {
                assert!(header(&headers, "retry-after").is_some());
            }
            codes.push(status);
        }
        assert_eq!(codes, vec![200, 200, 429, 429]);
        let c = w.server.admission().counters(ANONYMOUS_TENANT);
        assert!(c.reconciles());
        assert_eq!(c.shed_rate_limited, 2);
        // Logical time refills the bucket.
        w.net.advance(200_000_000);
        let (status, _, _) = request(&mut w, &raw);
        assert_eq!(status, 200);
    }

    #[test]
    fn zero_rate_quota_renders_sane_retry_after_header() {
        // Regression: a zero-rate quota used to produce
        // retry_after_ms == u64::MAX, rendered via div_ceil(1000) into an
        // astronomically large retry-after header.
        let mut w = world(ServingConfig {
            default_quota: TenantQuota {
                rate_per_sec: 0.0,
                burst: 0.0,
                max_concurrent: 4,
                max_subscriptions: 4,
            },
            ..ServingConfig::default()
        });
        let q = format!("{{\"selector\":{{\"ids\":[{}]}}}}", w.sensors[0].0);
        let raw = format!(
            "POST /api/v1/query HTTP/1.1\r\ncontent-length: {}\r\n\r\n{}",
            q.len(),
            q
        );
        let (status, headers, _) = request(&mut w, &raw);
        assert_eq!(status, 429);
        let retry_s: u64 = header(&headers, "retry-after")
            .expect("retry-after header")
            .parse()
            .expect("numeric retry-after");
        assert!(
            (1..=60).contains(&retry_s),
            "retry-after must be a sane number of seconds, got {retry_s}"
        );
    }

    #[test]
    fn tenants_are_isolated_by_header() {
        let mut w = world(
            ServingConfig {
                default_quota: TenantQuota {
                    rate_per_sec: 1.0,
                    burst: 1.0,
                    max_concurrent: 4,
                    max_subscriptions: 4,
                },
                ..ServingConfig::default()
            }
            .with_tenant("dashboard", TenantQuota::unlimited()),
        );
        let q = format!("{{\"selector\":{{\"ids\":[{}]}}}}", w.sensors[0].0);
        let mk = |tenant: &str| {
            format!(
                "POST /api/v1/query HTTP/1.1\r\nx-tenant: {tenant}\r\ncontent-length: {}\r\n\r\n{}",
                q.len(),
                q
            )
        };
        // The unlimited dashboard tenant never sheds; adhoc burns its one
        // token and then sheds — without affecting the dashboard.
        for _ in 0..5 {
            let (status, _, _) = request(&mut w, &mk("dashboard"));
            assert_eq!(status, 200);
        }
        let (status, _, _) = request(&mut w, &mk("adhoc"));
        assert_eq!(status, 200);
        let (status, _, _) = request(&mut w, &mk("adhoc"));
        assert_eq!(status, 429);
        assert_eq!(
            w.server.admission().counters("dashboard").shed_rate_limited,
            0
        );
        assert_eq!(w.server.admission().counters("adhoc").shed_rate_limited, 1);
    }

    #[test]
    fn streaming_subscription_delivers_ndjson_frames() {
        let mut w = world(ServingConfig::default());
        let conn = w.net.connect();
        w.net.client_send(
            conn,
            b"GET /api/v1/subscribe?pattern=%2Fhw%2F%2A%2A HTTP/1.1\r\nx-tenant: feed\r\n\r\n",
        );
        for _ in 0..8 {
            w.server.poll();
        }
        let head = w.net.client_recv(conn);
        let head_text = String::from_utf8_lossy(&head);
        assert!(head_text.starts_with("HTTP/1.1 200"), "{head_text}");
        assert!(head_text.contains("application/x-ndjson"));

        // Publish: matching frames stream out; non-matching are filtered.
        w.bus.publish(ReadingBatch::single(
            w.sensors[0],
            Reading::new(Timestamp::from_millis(5_000), 55.5),
        ));
        w.bus.publish(ReadingBatch::single(
            w.sensors[2],
            Reading::new(Timestamp::from_millis(5_000), 1.2),
        ));
        for _ in 0..8 {
            w.server.poll();
        }
        let frames = w.net.client_recv(conn);
        let text = String::from_utf8_lossy(&frames);
        assert!(
            text.contains("/hw/n0/power") && text.contains("55.5"),
            "{text}"
        );
        assert!(!text.contains("/facility/pue"));
        let (_, _, stats) = request(&mut w, "GET /api/v1/stats HTTP/1.1\r\n\r\n");
        let stats = String::from_utf8_lossy(&stats);
        assert!(
            stats.contains("\"patterns\":1") && stats.contains("\"bus_dropped\":0"),
            "{stats}"
        );

        // Client departure releases the subscription quota and hub slot.
        w.net.client_close(conn);
        for _ in 0..4 {
            w.server.poll();
        }
        assert_eq!(w.server.fanout_stats().clients_detached, 1);
        assert_eq!(w.server.open_connections(), 0);
    }

    #[test]
    fn subscription_quota_limits_streams_per_tenant() {
        let mut w = world(ServingConfig {
            default_quota: TenantQuota {
                max_subscriptions: 1,
                ..TenantQuota::default()
            },
            ..ServingConfig::default()
        });
        let open = |w: &mut World| {
            let conn = w.net.connect();
            w.net
                .client_send(conn, b"GET /api/v1/subscribe HTTP/1.1\r\n\r\n");
            for _ in 0..8 {
                w.server.poll();
            }
            (conn, w.net.client_recv(conn))
        };
        let (_c1, head1) = open(&mut w);
        assert!(String::from_utf8_lossy(&head1).starts_with("HTTP/1.1 200"));
        let (_c2, head2) = open(&mut w);
        assert!(
            String::from_utf8_lossy(&head2).starts_with("HTTP/1.1 429"),
            "second stream for the same tenant must shed"
        );
    }

    #[test]
    fn max_connections_rejects_excess() {
        let mut w = world(ServingConfig {
            max_connections: 2,
            ..ServingConfig::default()
        });
        let c1 = w.net.connect();
        let c2 = w.net.connect();
        let c3 = w.net.connect();
        w.server.poll();
        assert!(!w.net.server_closed(c1));
        assert!(!w.net.server_closed(c2));
        assert!(w.net.server_closed(c3), "third connection must be refused");
        assert_eq!(w.server.stats().connections_rejected, 1);
    }

    #[test]
    fn oversized_request_gets_413() {
        let mut w = world(ServingConfig {
            max_request_bytes: 128,
            ..ServingConfig::default()
        });
        let big = "x".repeat(4096);
        let raw = format!("POST /api/v1/query HTTP/1.1\r\ncontent-length: 4096\r\n\r\n{big}");
        let (status, _, _) = request(&mut w, &raw);
        assert_eq!(status, 413);
    }

    #[test]
    fn pipelined_requests_answer_in_order() {
        let mut w = world(ServingConfig::default());
        let conn = w.net.connect();
        w.net.client_send(
            conn,
            b"GET /healthz HTTP/1.1\r\n\r\nGET /api/v1/stats HTTP/1.1\r\n\r\n",
        );
        for _ in 0..64 {
            w.server.poll();
        }
        let reply = String::from_utf8_lossy(&w.net.client_recv(conn)).into_owned();
        let first = reply.find("{\"status\":\"ok\"}").expect("healthz body");
        let second = reply.find("\"server\"").expect("stats body");
        assert!(first < second, "{reply}");
    }

    #[test]
    fn metrics_endpoint_renders_prometheus_with_serving_counters() {
        let mut w = world(ServingConfig::default());
        let (status, _, _) = request(&mut w, "GET /healthz HTTP/1.1\r\n\r\n");
        assert_eq!(status, 200);
        let (status, headers, body) = request(&mut w, "GET /metrics HTTP/1.1\r\n\r\n");
        assert_eq!(status, 200);
        assert!(header(&headers, "content-type")
            .expect("content type")
            .starts_with("text/plain"));
        let text = String::from_utf8_lossy(&body);
        assert!(
            text.contains("serving_requests_total{endpoint=\"/healthz\"}"),
            "{text}"
        );
    }

    /// Paths the server does not route share one label: 300 distinct
    /// unknown paths add one `serving_requests_total` series, not 300, in
    /// the snapshot and at `/metrics` alike, and known routes keep theirs.
    #[test]
    fn unknown_paths_share_one_endpoint_label() {
        let mut w = world(ServingConfig::default());
        let (status, _, _) = request(&mut w, "GET /healthz HTTP/1.1\r\n\r\n");
        assert_eq!(status, 200);
        let series = |w: &World| -> Vec<(String, u64)> {
            let snap = w.bus.metrics().snapshot();
            snap.counters
                .into_iter()
                .filter(|c| c.id.starts_with("serving_requests_total"))
                .map(|c| (c.id, c.value))
                .collect()
        };
        let healthz = "serving_requests_total{endpoint=\"/healthz\"}";
        assert_eq!(series(&w), [(healthz.to_string(), 1)]);

        for i in 0..300 {
            let raw = format!("GET /no/such/path/{i} HTTP/1.1\r\n\r\n");
            assert_eq!(request(&mut w, &raw).0, 404);
        }
        let other = "serving_requests_total{endpoint=\"other\"}";
        assert_eq!(
            series(&w),
            [(healthz.to_string(), 1), (other.to_string(), 300)]
        );

        let (status, _, body) = request(&mut w, "GET /metrics HTTP/1.1\r\n\r\n");
        assert_eq!(status, 200);
        let text = String::from_utf8_lossy(&body);
        let rendered: Vec<&str> = text
            .lines()
            .filter(|l| l.starts_with("serving_requests_total"))
            .collect();
        assert_eq!(
            rendered,
            [
                "serving_requests_total{endpoint=\"/healthz\"} 1",
                "serving_requests_total{endpoint=\"/metrics\"} 1",
                "serving_requests_total{endpoint=\"other\"} 300",
            ]
        );
    }

    #[test]
    fn realnet_serves_over_loopback_tcp() {
        use crate::net::RealNet;
        use std::io::{Read as _, Write as _};

        let registry = SensorRegistry::new();
        registry.register("/hw/n0/power", SensorKind::Power, Unit::Watts);
        let net = Arc::new(RealNet::bind("127.0.0.1:0").expect("bind loopback"));
        let addr = net.local_addr().expect("local addr");
        let (mut server, _bus) =
            server_over(Arc::clone(&net), ServingConfig::default(), registry, 64);

        let mut client = std::net::TcpStream::connect(addr).expect("connect");
        client
            .set_read_timeout(Some(std::time::Duration::from_millis(10)))
            .expect("read timeout");
        client
            .write_all(b"GET /healthz HTTP/1.1\r\n\r\n")
            .expect("send request");

        let mut raw = Vec::new();
        let mut buf = [0u8; 4096];
        for _ in 0..500 {
            server.poll();
            match client.read(&mut buf) {
                Ok(0) => break,
                Ok(n) => raw.extend_from_slice(&buf[..n]),
                Err(_) => {} // timeout / would-block; keep polling
            }
            if raw.windows(4).any(|w| w == b"\r\n\r\n") && raw.ends_with(b"}") {
                break;
            }
        }
        let reply = String::from_utf8_lossy(&raw);
        assert!(reply.starts_with("HTTP/1.1 200 OK\r\n"), "{reply}");
        assert!(reply.ends_with(r#"{"status":"ok"}"#), "{reply}");
        drop(client);
        for _ in 0..50 {
            server.poll();
            if server.stats().connections_closed == 1 {
                break;
            }
        }
        assert_eq!(server.stats().connections_closed, 1);
    }
}
