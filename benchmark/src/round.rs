//! One round of a workload: build the site, do the plan's fixed work through
//! the product's front doors, check the results.
//!
//! Everything here talks to the product the way a user does —
//! `DataCenter::builder(..).build()` / `step()`, `DataCenter::serve(SimNet)` /
//! `Server::poll()`, `OdaRuntime::pass`, `archive().range`,
//! `restart_archive()` — and reads only public return values and counters.

use crate::checks::{self, Checks, Reference, REFERENCE_AGGS};
use crate::client::{self, Response};
use crate::ladder::{self, ServingLadder};
use crate::queries::{Class, QueryMix};
use crate::site::{self, due_after, Plan, ScratchDir, Workload, PASS_WINDOW_MS};
use crate::stats::{ratio, Samples};
use crate::timed::{BenchNet, FsSnapshot, NetSnapshot, TimedFs};
use crate::trace::{timed, Tracer};
use oda_core::analytics_type::AnalyticsType;
use oda_core::cells;
use oda_core::runtime::{OdaRuntime, RuntimeConfig, SimControlPlane};
use oda_serve::net::{ConnId, SimNet};
use oda_serve::server::Server;
use oda_sim::datacenter::DataCenter;
use oda_telemetry::metrics::{MetricsRegistry, MetricsSnapshot};
use oda_telemetry::query::{Query, QueryEngine};
use oda_telemetry::reading::Timestamp;
use oda_telemetry::storage::{RealFs, StorageFs};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Served cache hits re-executed uncached and compared, per round.
const CACHE_SAMPLES: u64 = 64;
/// On the sharded site every this-many-th response is re-executed on the
/// unsharded plane and its digest compared.
const CROSS_PLANE_EVERY: usize = 16;

/// Where a run keeps its files and whether it records spans.
pub struct Env {
    /// Parent of the scratch directories (`durable_site` only).
    pub tmp_root: PathBuf,
    /// Present in the traced run: decorators are installed and every call
    /// into the product is recorded as a span.
    pub tracer: Option<Arc<Tracer>>,
}

/// Everything measured, pooled over the rounds of one run.
#[derive(Default)]
pub struct Measured {
    pub setup: Samples,
    pub round_work: Samples,
    pub step: Samples,
    /// `Server::poll` right after a tick, on sites with streaming clients:
    /// the fan-out of that tick's readings.
    pub pump: Samples,
    /// Durable barriers (`flush` / `fence`) closing each ingest phase.
    pub barrier: Samples,
    /// Readings published during measured ticks.
    pub readings: u64,
    /// Per cycle: readings per second of [`Measured::delivery_time`]
    /// (passes, requests and checks excluded).
    pub ingest_rps: Vec<f64>,
    /// Per round: `200` responses per second of request round-trip time.
    pub query_rps: Vec<f64>,
    pub pass: Samples,
    pub request: [Samples; 4],
    pub requests: u64,
    pub responses_ok: u64,
    pub polls: u64,
    pub cache_hits: [u64; 4],
    pub scan: Samples,
    pub restart: Samples,
    pub compact: Samples,
    /// Operations attempted, checks aside: readings, requests, passes,
    /// scans, restarts and compactions.
    pub attempted: u64,
    /// Rejected readings, non-200 responses, panicked capabilities.
    pub failed_ops: u64,
    pub checks: Checks,
    /// Count-valued metrics of the first round; later rounds of the same
    /// seed must reproduce them exactly.
    pub counts: BTreeMap<&'static str, u64>,
    pub rounds: usize,
    /// `VmHWM` at the end of the first round's steady work, and again after
    /// its recovery drills (which the allocator makes seed-sensitive).
    pub rss_steady_mb: f64,
    pub rss_after_drills_mb: f64,
    pub fs_kind: String,
    pub layers: LayerObservations,
}

/// What only the traced run collects, for the per-layer table.
#[derive(Default)]
pub struct LayerObservations {
    pub fs: FsSnapshot,
    pub net: NetSnapshot,
    /// Per analytics stage, Σ capability span wall over all passes.
    pub stage_ns: BTreeMap<AnalyticsType, u64>,
    pub serving: Option<ServingLadder>,
    /// Queries issued and readings scanned by the passes themselves.
    pub pass_queries: u64,
    pub pass_scanned: u64,
    pub scan_readings: u64,
    pub scan_segments_read: u64,
}

impl Measured {
    pub fn attempted_total(&self) -> u64 {
        self.attempted + self.checks.run
    }

    pub fn failed(&self) -> u64 {
        self.failed_ops + self.checks.failures.len() as u64
    }

    /// Ingest wall: Σ `step` plus the durable barriers, passes excluded.
    pub fn ingest_time(&self) -> Duration {
        self.step.total() + self.barrier.total()
    }

    /// Ingest wall up to where every consumer has the readings: with
    /// streaming clients attached, the serving loop's turn that pumps each
    /// tick's frames to them counts too.
    pub fn delivery_time(&self) -> Duration {
        self.ingest_time() + self.pump.total()
    }

    pub fn request_time(&self) -> Duration {
        self.request.iter().map(Samples::total).sum()
    }
}

/// Sum of a counter over all its label sets.
pub fn counter_sum(snap: &MetricsSnapshot, name: &str) -> u64 {
    let labelled = format!("{name}{{");
    snap.counters
        .iter()
        .filter(|c| c.id == name || c.id.starts_with(&labelled))
        .map(|c| c.value)
        .sum()
}

/// A built site with everything a round drives.
struct Site<N: BenchNet> {
    plan: Plan,
    dc: DataCenter,
    sim: Arc<SimNet>,
    net: Arc<N>,
    server: Server<N>,
    runtime: OdaRuntime,
    reference: Reference,
    mix: QueryMix,
    subscribers: Vec<ConnId>,
    fs: Option<Arc<TimedFs>>,
    tracer: Option<Arc<Tracer>>,
    next_request: usize,
    cache_verified: u64,
    /// Wire form of the requests sent, kept for the traced run's replays.
    sent: Vec<(Class, String)>,
    // Declared last, so dropped after the site that writes into it.
    scratch: Option<ScratchDir>,
}

impl<N: BenchNet> Site<N> {
    /// Set-up: everything up to the end of warm-up.
    fn build(plan: &Plan, seed: u64, env: &Env, m: &mut Measured) -> Site<N> {
        let mut builder = DataCenter::builder(site::site_config(plan))
            .seed(seed)
            .metrics(MetricsRegistry::new())
            .serving(site::serving_config());
        let mut scratch = None;
        let mut timed_fs = None;
        if plan.workload == Workload::DurableSite {
            let dir = ScratchDir::create(&env.tmp_root, plan.workload.name())
                .expect("scratch directory for durable_site must be creatable");
            m.fs_kind = site::fs_kind(dir.path());
            let real: Arc<dyn StorageFs> = Arc::new(
                RealFs::new(dir.path()).expect("RealFs opens over a fresh scratch directory"),
            );
            let fs = match &env.tracer {
                Some(tracer) => {
                    let fs = Arc::new(TimedFs::new(real, Some(Arc::clone(tracer))));
                    timed_fs = Some(Arc::clone(&fs));
                    fs as Arc<dyn StorageFs>
                }
                None => real,
            };
            builder = builder.storage_fs(fs);
            scratch = Some(dir);
        }
        let mut dc = builder.build();
        let mut reference = Reference::attach(dc.bus());
        for _ in 0..plan.warmup_ticks {
            dc.step();
            reference.drain();
        }
        let mut runtime =
            OdaRuntime::with_config(PASS_WINDOW_MS, RuntimeConfig::serial().with_seed(seed))
                .with_metrics(MetricsRegistry::new());
        for capability in cells::all_sixteen() {
            let stage = capability.footprint().types()[0];
            runtime.add_capability(stage, capability);
        }
        let sim = Arc::new(SimNet::new());
        let net = N::over(Arc::clone(&sim), env.tracer.clone());
        let mut server = dc.serve(Arc::clone(&net));
        let subscribers = (0..plan.subscribers)
            .map(|_| client::subscribe(&sim, &mut server, "/facility/**"))
            .collect();
        let mut site = Site {
            plan: plan.clone(),
            mix: QueryMix::new(&dc),
            dc,
            sim,
            net,
            server,
            runtime,
            reference,
            subscribers,
            fs: timed_fs,
            tracer: env.tracer.clone(),
            next_request: 0,
            cache_verified: 0,
            sent: Vec::new(),
            scratch,
        };
        site.barrier();
        site
    }

    /// The point up to which ingest is timed: WAL flushed / shards fenced.
    fn barrier(&mut self) -> Duration {
        let tracer = self.tracer.as_deref();
        match self.plan.workload {
            Workload::DurableSite => {
                let (res, wall) = timed(tracer, "storage.flush", || self.dc.archive().flush());
                res.expect("final WAL flush must succeed on a healthy filesystem");
                wall
            }
            Workload::ShardedSite => {
                let cluster = self.dc.cluster().expect("sharded site has a cluster");
                timed(tracer, "cluster.fence", || cluster.fence()).1
            }
            Workload::HotSite | Workload::ServeMixed => Duration::ZERO,
        }
    }

    fn tick(&mut self, m: &mut Measured) {
        let tracer = self.tracer.as_deref();
        if let Some(t) = tracer {
            t.set_op(self.dc.now().as_millis() / 1_000);
        }
        let ((), wall) = timed(tracer, "site.step", || self.dc.step());
        m.step.push(wall);
        self.reference.drain();
        if !self.subscribers.is_empty() {
            // The serving loop turns between ticks: it pumps the tick's
            // frames to the streaming clients, who read them.
            let server = &mut self.server;
            let (_, wall) = timed(tracer, "server.poll_after_tick", || server.poll());
            m.pump.push(wall);
            for &conn in &self.subscribers {
                std::hint::black_box(self.sim.client_recv(conn));
            }
        }
    }

    fn pass(&mut self, m: &mut Measured) {
        let store = Arc::clone(self.dc.store());
        let registry = self.dc.registry().clone();
        let now = self.dc.now();
        let tracer = self.tracer.as_deref();
        let query_counters = |dc: &DataCenter| {
            let snap = dc.metrics().snapshot();
            (
                counter_sum(&snap, "query_total"),
                counter_sum(&snap, "query_readings_scanned_total"),
            )
        };
        let before = tracer.map(|_| query_counters(&self.dc));
        let (report, wall) = timed(tracer, "runtime.pass", || {
            let dc = &mut self.dc;
            self.runtime
                .pass(store, registry, now, &mut SimControlPlane { dc })
        });
        m.pass.push(wall);
        m.attempted += 1;
        if let Some((queries, scanned)) = before {
            let after = query_counters(&self.dc);
            m.layers.pass_queries += after.0 - queries;
            m.layers.pass_scanned += after.1 - scanned;
        }
        for span in &report.run.spans {
            *m.layers.stage_ns.entry(span.stage).or_default() += span.wall_ns;
            if span.panicked {
                m.failed_ops += 1;
                eprintln!("capability {} panicked during a pass", span.capability);
            }
        }
    }

    fn engine(&self) -> QueryEngine<'_> {
        QueryEngine::new(self.dc.store()).with_registry(self.dc.registry().clone())
    }

    /// One timed HTTP exchange for `query`.
    fn exchange(&mut self, wire: &str) -> (Response, Duration) {
        let raw = client::post_query(wire);
        timed(self.tracer.as_deref(), "http.round_trip", || {
            client::round_trip(&self.sim, &mut self.server, &raw)
        })
    }

    fn request(&mut self, m: &mut Measured) {
        let i = self.next_request;
        self.next_request += 1;
        if let Some(t) = &self.tracer {
            t.set_op(i as u64);
        }
        let class = QueryMix::class_of(i);
        let wire = self.mix.query(i, self.dc.now()).to_json();
        let (response, wall) = self.exchange(&wire);
        m.request[class.index()].push(wall);
        m.requests += 1;
        m.attempted += 1;
        m.polls += u64::from(response.polls);
        if response.status == 200 {
            m.responses_ok += 1;
        } else {
            m.failed_ops += 1;
            eprintln!(
                "request {i} ({}) answered {}",
                class.name(),
                response.status
            );
            return;
        }
        if response.cache_hit() {
            m.cache_hits[class.index()] += 1;
        }
        let sample_cache = response.cache_hit() && self.cache_verified < CACHE_SAMPLES;
        let sample_plane =
            self.plan.workload == Workload::ShardedSite && i.is_multiple_of(CROSS_PLANE_EVERY);
        if sample_cache || sample_plane {
            // Uncached re-execution on the site's own unsharded engine.
            let fresh = Query::from_json(&wire)
                .expect("a query this benchmark rendered parses back")
                .run(&self.engine());
            let digest = response.header("x-result-digest");
            if sample_cache {
                self.cache_verified += 1;
                m.checks.record(checks::bodies_equal(
                    "cache",
                    &response.body,
                    fresh.to_json().as_bytes(),
                ));
                m.checks.record(checks::header_digest_equals(
                    "cache",
                    digest,
                    fresh.digest(),
                ));
            }
            if sample_plane {
                m.checks.record(checks::header_digest_equals(
                    "cross-plane",
                    digest,
                    fresh.digest(),
                ));
            }
        }
        if self.tracer.is_some() {
            self.sent.push((class, wire));
        }
    }

    fn scan(&mut self, nth: usize, m: &mut Measured) {
        let sensors = self.reference.sensors();
        let sensor = sensors[nth % sensors.len()];
        let reads_before = self.fs.as_ref().map(|fs| fs.read_calls());
        let (readings, wall) = timed(self.tracer.as_deref(), "archive.range", || {
            self.dc
                .archive()
                .range(sensor, Timestamp::ZERO, Timestamp::MAX)
        });
        m.scan.push(wall);
        m.attempted += 1;
        m.layers.scan_readings += readings.len() as u64;
        if let (Some(fs), Some(before)) = (&self.fs, reads_before) {
            m.layers.scan_segments_read += fs.read_calls() - before;
        }
        if readings.is_empty() {
            m.failed_ops += 1;
            eprintln!("archive scan of {sensor} came back empty");
        }
    }

    /// Accepted and rejected readings according to the site's hot store.
    fn store_ledger(&self) -> (u64, u64, u64) {
        let health = self.dc.store().health_report();
        let evicted = health.total_evicted();
        (
            health.total_len() as u64 + evicted,
            health.total_rejected(),
            evicted,
        )
    }

    /// End-of-work checks: ledgers and the reference model on every path.
    fn verify(&mut self, m: &mut Measured) {
        let (accepted, rejected, _) = self.store_ledger();
        m.failed_ops += rejected;
        m.checks.record(checks::ledger(
            self.dc.bus().published(),
            accepted,
            rejected,
        ));
        m.checks.record(if self.reference.shed() == 0 {
            Ok(())
        } else {
            Err(format!(
                "reference subscription shed {} batches",
                self.reference.shed()
            ))
        });
        if self.plan.workload == Workload::DurableSite {
            m.checks.record(checks::durable_matches(
                "durable_site",
                self.dc.archive().durable_len(),
                accepted,
            ));
        }
        if let Some(cluster) = self.dc.cluster() {
            let durable: u64 = cluster.health().iter().map(|h| h.durable_len).sum();
            m.checks
                .record(checks::durable_matches("sharded_site", durable, accepted));
        }
        let totals = self.server.admission().totals();
        m.checks.record(
            if totals.reconciles() && totals.shed_rate_limited + totals.shed_saturated == 0 {
                Ok(())
            } else {
                Err(format!("admission ledger off or requests shed: {totals:?}"))
            },
        );

        let window = checks::reference_window(self.dc.now());
        let ids = self.reference.sensors().to_vec();
        for agg in REFERENCE_AGGS {
            let expected = self.reference.fold(agg, window);
            let query = Query::sensors(&ids).range(window).aggregate(agg);
            let raw = query.clone().raw_scan().run(&self.engine()).scalars();
            m.checks
                .record(checks::scalars_match("raw", agg, &expected, &raw));
            let tiered = query.clone().run(&self.engine()).scalars();
            m.checks
                .record(checks::scalars_match("tiered", agg, &expected, &tiered));
            let (response, _) = self.exchange(&query.to_json());
            let served = client::scalar_values(&response.body).unwrap_or_default();
            m.checks
                .record(checks::scalars_match("http", agg, &expected, &served));
            if let Some(cluster) = self.dc.cluster() {
                let gathered = cluster.query(query).scalars();
                m.checks
                    .record(checks::scalars_match("cluster", agg, &expected, &gathered));
            }
        }
    }

    /// Digest of what a restart must bring back: every sensor's hot ring
    /// and the archive's view of the facility sensors.
    fn recoverable_digest(&self) -> u64 {
        let store = self.dc.store();
        let hot: Vec<_> = (0..self.dc.registry().len() as u32)
            .map(|s| {
                store.range(
                    oda_telemetry::sensor::SensorId(s),
                    Timestamp::ZERO,
                    Timestamp::MAX,
                )
            })
            .collect();
        let cold: Vec<_> = self
            .reference
            .sensors()
            .iter()
            .map(|&s| self.dc.archive().range(s, Timestamp::ZERO, Timestamp::MAX))
            .collect();
        checks::readings_digest(hot.iter().chain(&cold).map(Vec::as_slice))
    }

    /// Recovery drills, then one compaction (durable_site only).
    fn restarts_and_compaction(
        &mut self,
        m: &mut Measured,
        counts: &mut BTreeMap<&'static str, u64>,
    ) {
        if self.plan.restarts == 0 && !self.plan.compact {
            return;
        }
        let (accepted, _, _) = self.store_ledger();
        let before = self.recoverable_digest();
        for _ in 0..self.plan.restarts {
            let (report, wall) = timed(self.tracer.as_deref(), "site.restart_archive", || {
                self.dc.restart_archive()
            });
            m.restart.push(wall);
            m.attempted += 1;
            let recovered = report.map(|r| r.readings_recovered).unwrap_or(0);
            counts.insert("storage.recovered_readings", recovered);
            m.checks
                .record(checks::durable_matches("recovery", recovered, accepted));
            m.checks.record(checks::digests_equal(
                "recovery",
                before,
                self.recoverable_digest(),
            ));
        }
        if self.plan.compact {
            let (folded, wall) = timed(self.tracer.as_deref(), "storage.compact", || {
                self.dc.archive().compact()
            });
            m.compact.push(wall);
            m.attempted += 1;
            match folded {
                Ok(n) => {
                    counts.insert("storage.segments_folded", n as u64);
                }
                Err(e) => m.checks.record(Err(format!("compaction failed: {e}"))),
            }
            m.checks.record(checks::durable_matches(
                "compaction",
                self.dc.archive().durable_len(),
                accepted,
            ));
        }
    }

    /// Count-valued observations of this round: exact, and identical for
    /// every round of one seed.
    fn counts(&self, polls: u64) -> BTreeMap<&'static str, u64> {
        let mut c = BTreeMap::new();
        let (accepted, rejected, evicted) = self.store_ledger();
        c.insert("store.accepted", accepted);
        c.insert("store.rejected", rejected);
        c.insert("store.evicted", evicted);
        let bus = self.dc.bus();
        c.insert("bus.publish_calls", bus.published());
        c.insert("bus.delivered", bus.delivered_total());
        c.insert("bus.shed", bus.dropped_total());
        let snap = self.dc.metrics().snapshot();
        for (name, counter) in [
            ("storage.wal_syncs", "storage_wal_syncs_total"),
            ("storage.wal_appends", "storage_wal_appends_total"),
            ("storage.segments_sealed", "storage_segments_sealed_total"),
            ("query.executed", "query_total"),
            ("query.readings_scanned", "query_readings_scanned_total"),
            ("query.tier_hits", "query_tier_hit_total"),
            ("query.tier_misses", "query_tier_miss_total"),
        ] {
            c.insert(name, counter_sum(&snap, counter));
        }
        c.insert(
            "storage.bytes_on_disk",
            self.scratch.as_ref().map_or(0, ScratchDir::bytes_on_disk),
        );
        c.insert("storage.durable_len", self.dc.archive().durable_len());
        if let Some(cluster) = self.dc.cluster() {
            let health = cluster.health();
            let per_shard: Vec<u64> = health
                .iter()
                .map(|h| h.report.total_len() as u64 + h.report.total_evicted())
                .collect();
            c.insert(
                "cluster.durable_len",
                health.iter().map(|h| h.durable_len).sum(),
            );
            c.insert("cluster.readings_total", per_shard.iter().sum());
            c.insert(
                "cluster.readings_max_shard",
                per_shard.iter().copied().max().unwrap_or(0),
            );
        }
        let cache = self.server.cache_stats();
        c.insert("cache.hits", cache.hits);
        c.insert("cache.misses", cache.misses);
        c.insert("cache.invalidated", cache.invalidated);
        c.insert("cache.evicted", cache.evicted);
        let fanout = self.server.fanout_stats();
        c.insert("fanout.frames_delivered", fanout.frames_dequeued);
        c.insert("fanout.frames_shed", fanout.frames_shed);
        let totals = self.server.admission().totals();
        c.insert("tenant.offered", totals.offered);
        c.insert(
            "tenant.shed",
            totals.shed_rate_limited + totals.shed_saturated,
        );
        c.insert("server.requests", self.server.stats().requests_total);
        c.insert("server.bytes_written", self.server.stats().bytes_written);
        c.insert("server.polls", polls);
        if let Some(fs) = &self.fs {
            let fs = fs.snapshot();
            c.insert("fs.append_calls", fs.append_calls);
            c.insert("fs.sync_calls", fs.sync_calls);
            c.insert("fs.write_atomic_calls", fs.write_atomic_calls);
            c.insert("fs.bytes_written", fs.bytes_written());
        }
        c
    }
}

/// Runs one round of `plan` and pools what it measured into `m`. Returns the
/// wall time of the round's measured work.
pub fn run_round<N: BenchNet>(plan: &Plan, seed: u64, env: &Env, m: &mut Measured) -> Duration {
    let setup = Instant::now();
    let mut site = Site::<N>::build(plan, seed, env, m);
    m.setup.push(setup.elapsed());

    let polls_before = m.polls;
    let published_before = site.dc.bus().published();
    let (ok_before, request_time_before) = (m.responses_ok, m.request_time());
    let work = Instant::now();
    let mut scans = 0;
    for cycle in 0..plan.cycles {
        let (published, ingest) = (site.dc.bus().published(), m.delivery_time());
        for _ in 0..plan.ticks_per_cycle {
            site.tick(m);
        }
        let barrier = site.barrier();
        m.barrier.push(barrier);
        m.ingest_rps.push(ratio(
            (site.dc.bus().published() - published) as f64,
            (m.delivery_time() - ingest).as_secs_f64(),
        ));
        for _ in 0..due_after(plan.passes, plan.cycles, cycle) {
            site.pass(m);
        }
        for _ in 0..plan.requests_per_cycle {
            site.request(m);
        }
        for _ in 0..due_after(plan.scans, plan.cycles, cycle) {
            site.scan(scans, m);
            scans += 1;
        }
    }
    let mut work_wall = work.elapsed();
    let readings = site.dc.bus().published() - published_before;
    m.readings += readings;
    m.attempted += readings;
    m.query_rps.push(ratio(
        (m.responses_ok - ok_before) as f64,
        (m.request_time() - request_time_before).as_secs_f64(),
    ));

    site.verify(m);
    if m.rounds == 0 {
        m.rss_steady_mb = site::peak_rss_mb();
    }
    let mut counts = site.counts(m.polls - polls_before);
    if site.tracer.is_some() && m.layers.serving.is_none() {
        m.layers.serving = Some(ladder::serving(&site.dc, &site.sent));
    }
    let drills = Instant::now();
    site.restarts_and_compaction(m, &mut counts);
    work_wall += drills.elapsed();
    m.round_work.push(work_wall);
    if m.rounds == 0 {
        m.rss_after_drills_mb = site::peak_rss_mb();
    }

    if let Some(fs) = &site.fs {
        m.layers.fs.add(&fs.snapshot());
    }
    m.layers.net.add(&site.net.net_snapshot());
    if m.rounds == 0 {
        m.counts = counts;
    } else {
        m.checks.record(checks::counts_equal(&m.counts, &counts));
    }
    m.rounds += 1;
    work_wall
}

/// Smoke tests: every workload end to end at a fraction of its size.
#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{self, tests::declared, TraceExtras};
    use crate::timed::TimedNet;

    fn scratch_root(label: &str) -> ScratchDir {
        ScratchDir::create(&std::env::temp_dir(), &format!("tests-{label}")).unwrap()
    }

    fn env(root: &ScratchDir, tracer: Option<Arc<Tracer>>) -> Env {
        Env {
            tmp_root: root.path().to_path_buf(),
            tracer,
        }
    }

    fn value(metrics: &[report::Metric], name: &str) -> f64 {
        metrics
            .iter()
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("{name} not emitted"))
            .value
    }

    /// Two rounds of seed 7 and one of seed 8: correct, every end-to-end
    /// metric present and non-zero, counts repeat for a seed and move with it.
    fn measured_run_is_complete_and_repeatable(workload: Workload) {
        let plan = Plan::smoke(workload);
        let root = scratch_root(workload.name());
        let env = env(&root, None);
        let mut m = Measured::default();
        run_round::<SimNet>(&plan, 7, &env, &mut m);
        run_round::<SimNet>(&plan, 7, &env, &mut m);
        assert_eq!(m.checks.failures, Vec::<String>::new());
        assert_eq!((m.rounds, m.failed()), (2, 0));
        assert!(m.checks.run > 20, "only {} checks ran", m.checks.run);

        let metrics = report::end_to_end(&m);
        let names: Vec<String> = metrics.iter().map(|m| m.name.clone()).collect();
        assert_eq!(names, declared("end_to_end"));
        for metric in &metrics {
            assert!(
                metric.value > 0.0 && metric.value.is_finite(),
                "{} {} on {}",
                metric.name,
                metric.value,
                workload.name()
            );
        }

        let mut other = Measured::default();
        run_round::<SimNet>(&plan, 8, &env, &mut other);
        assert_eq!(other.failed(), 0);
        assert_eq!(
            m.counts.keys().collect::<Vec<_>>(),
            other.counts.keys().collect::<Vec<_>>()
        );
        assert_ne!(m.counts, other.counts, "counts must depend on the seed");

        // Scratch directories are gone once the sites are.
        assert_eq!(std::fs::read_dir(root.path()).unwrap().count(), 0);
    }

    /// One traced round plus the ladder replays: every per-layer metric.
    fn traced(workload: Workload) -> (Measured, Vec<report::Metric>, Arc<Tracer>) {
        let plan = Plan::smoke(workload);
        let root = scratch_root(&format!("traced-{}", workload.name()));
        let tracer = Arc::new(Tracer::new());
        let mut m = Measured::default();
        let mut untraced = Measured::default();
        run_round::<SimNet>(&plan, 7, &env(&root, None), &mut untraced);
        run_round::<TimedNet>(&plan, 7, &env(&root, Some(Arc::clone(&tracer))), &mut m);
        assert_eq!(m.checks.failures, Vec::<String>::new());
        let extras = TraceExtras {
            ingest: ladder::ingest(&plan, 7, root.path()),
            untraced,
        };
        let metrics = report::per_layer(&plan, &m, &extras);
        let names: Vec<String> = metrics.iter().map(|m| m.name.clone()).collect();
        assert_eq!(names, declared("per_layer"));
        assert!(metrics.iter().all(|m| m.value.is_finite()));
        assert_eq!(std::fs::read_dir(root.path()).unwrap().count(), 0);
        (m, metrics, tracer)
    }

    #[test]
    fn hot_site_measured() {
        measured_run_is_complete_and_repeatable(Workload::HotSite);
    }

    #[test]
    fn durable_site_measured() {
        measured_run_is_complete_and_repeatable(Workload::DurableSite);
    }

    #[test]
    fn sharded_site_measured() {
        measured_run_is_complete_and_repeatable(Workload::ShardedSite);
    }

    #[test]
    fn serve_mixed_measured() {
        measured_run_is_complete_and_repeatable(Workload::ServeMixed);
    }

    #[test]
    fn hot_site_traced_leaves_storage_fs_and_cluster_idle() {
        let (_, metrics, tracer) = traced(Workload::HotSite);
        for idle in [
            "fs.sync_calls",
            "fs.bytes_written",
            "storage.wal_syncs",
            "storage.self_ns_per_reading",
            "cluster.durable_len",
            "cluster.ingest_send_ns_per_reading",
        ] {
            assert_eq!(value(&metrics, idle), 0.0, "{idle}");
        }
        for busy in [
            "sim.self_ns_per_reading",
            "bus.self_ns_per_reading",
            "store.append_ns_per_reading",
            "runtime.stage_ms.diagnostic",
            "query.run_ns.raw",
        ] {
            assert!(value(&metrics, busy) > 0.0, "{busy}");
        }
        let totals = tracer.totals();
        assert_eq!(totals["site.step"].0, 20);
        assert!(totals.contains_key("runtime.pass") && totals.contains_key("http.round_trip"));
    }

    #[test]
    fn durable_site_traced_syncs_for_real_and_recovers_everything() {
        let (m, metrics, tracer) = traced(Workload::DurableSite);
        let accepted = value(&metrics, "store.accepted");
        assert_eq!(
            accepted,
            (6.0 + 8.0) * value(&metrics, "sim.readings_per_tick")
        );
        assert_eq!(value(&metrics, "storage.recovered_readings"), accepted);
        assert!(value(&metrics, "fs.sync_calls") >= value(&metrics, "storage.wal_syncs"));
        assert!(value(&metrics, "storage.wal_syncs") > 0.0);
        assert!(value(&metrics, "storage.bytes_per_reading") > 0.0);
        assert!(value(&metrics, "storage.cold_scan_segments_read") >= 1.0);
        assert!(value(&metrics, "fs.write_amp") > 0.0);
        assert!(value(&metrics, "storage.recovery_s") > 0.0);
        assert!(!m.fs_kind.is_empty());
        // Filesystem spans of measured ticks nest under the step that
        // caused them (those of the warm-up have no parent).
        let spans = tracer.spans();
        let parents: std::collections::BTreeSet<&str> = spans
            .iter()
            .filter(|s| s.name == "fs.sync")
            .filter_map(|s| s.parent)
            .map(|p| spans[p as usize].name)
            .collect();
        assert!(parents.contains("site.step"), "{parents:?}");
        let doc = report::trace_document(Workload::DurableSite, 7, &m, &metrics, &tracer);
        assert!(doc.starts_with('{') && doc.trim_end().ends_with("]}"));
    }

    #[test]
    fn sharded_site_traced_attributes_the_cluster() {
        let (_, metrics, _) = traced(Workload::ShardedSite);
        assert_eq!(
            value(&metrics, "cluster.durable_len"),
            value(&metrics, "store.accepted")
        );
        assert!(value(&metrics, "cluster.shard_skew") >= 1.0);
        assert!(value(&metrics, "cluster.ingest_send_ns_per_reading") > 0.0);
        assert!(value(&metrics, "cluster.versions_ns") > 0.0);
        for class in Class::ALL {
            assert!(value(&metrics, &format!("cluster.query_ns.{}", class.name())) > 0.0);
        }
        // Eight dashboards asked twice with no tick in between; every other
        // class asks a window of its own although the clock stands still.
        assert_eq!(value(&metrics, "cache.hit_ratio.dash"), 0.5);
        for class in ["point", "raw", "aligned"] {
            assert_eq!(value(&metrics, &format!("cache.hit_ratio.{class}")), 0.0);
        }
    }

    #[test]
    fn serve_mixed_traced_exercises_cache_fanout_and_net() {
        let (_, metrics, _) = traced(Workload::ServeMixed);
        assert!(value(&metrics, "cache.hit_ratio.dash") > 0.0);
        assert_eq!(value(&metrics, "cache.hit_ratio.raw"), 0.0);
        assert!(value(&metrics, "cache.invalidated") > 0.0);
        assert!(value(&metrics, "fanout.frames_delivered") > 0.0);
        assert!(value(&metrics, "net.bytes_out") > value(&metrics, "net.bytes_in"));
        assert_eq!(value(&metrics, "tenant.shed_share"), 0.0);
        assert!(value(&metrics, "server.polls_per_request") >= 2.0);
    }

    #[test]
    fn a_corrupted_reference_fails_the_run() {
        let plan = Plan::smoke(Workload::HotSite);
        let root = scratch_root("corrupt");
        let mut m = Measured::default();
        let mut site = Site::<SimNet>::build(&plan, 7, &env(&root, None), &mut m);
        site.tick(&mut m);
        site.verify(&mut m);
        assert_eq!(m.checks.failures, Vec::<String>::new());
        site.reference.corrupt();
        site.verify(&mut m);
        assert!(!m.checks.failures.is_empty());
        assert!(m
            .checks
            .failures
            .iter()
            .all(|f| f.starts_with("reference:")));
        // Last sits on the corrupted reading; every path must disagree.
        for path in ["raw", "tiered", "http"] {
            assert!(m.checks.failures.iter().any(|f| f.contains(path)), "{path}");
        }
        assert!(report::result_line(&m, &[]).starts_with("{\"correct\": false"));
    }
}
