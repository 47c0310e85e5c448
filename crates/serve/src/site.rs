//! The monitoring stack of one site: the sensor registry, the telemetry bus
//! with its hot store and archive backend, the optional collector cluster,
//! and the serving frontend over them.
//!
//! The monitored plant does not own any of this; it samples. What crosses
//! from the plant to its [`Site`] is one post-corruption tick of readings
//! per sample ([`Site::ingest`]) and the node failures that take a
//! collector shard down ([`Site::fail_node`]). Every choice between the
//! local plane and the collector cluster is made in this module.

use crate::config::ServingConfig;
use crate::net::ServerNet;
use crate::server::Server;
use oda_telemetry::bus::TelemetryBus;
use oda_telemetry::cluster::{ClusterConfig, ClusterCoordinator};
use oda_telemetry::metrics::MetricsRegistry;
use oda_telemetry::plane::{LocalPlane, QueryPlane};
use oda_telemetry::reading::ReadingBatch;
use oda_telemetry::sensor::SensorRegistry;
use oda_telemetry::storage::{
    open_backend, FsError, RecoveryReport, StorageBackend, StorageConfig, StorageFs,
};
use oda_telemetry::store::{RollupConfig, TimeSeriesStore};
use std::sync::Arc;

/// What [`Site::open`] needs to stand a stack up.
#[derive(Debug, Clone)]
pub struct SiteConfig {
    /// Ring-buffer capacity per sensor in the archive store.
    pub store_capacity: usize,
    /// Rollup-tier layout of the archive store.
    pub rollups: RollupConfig,
    /// Archive storage backend; its engine tuning is also every collector
    /// shard's, since shards always archive persistently.
    pub storage: StorageConfig,
    /// Collector-shard count; `0` runs unsharded.
    pub shards: usize,
    /// Quotas, cache and connection limits used by [`Site::serve`].
    pub serving: ServingConfig,
}

/// One site's monitoring stack.
pub struct Site {
    config: SiteConfig,
    registry: SensorRegistry,
    bus: Arc<TelemetryBus>,
    /// Sharded collector hierarchy (built when `config.shards > 0`). Fed
    /// the same post-corruption stream as the site bus, so either plane
    /// answers any query with the same digest.
    cluster: Option<Arc<ClusterCoordinator>>,
    /// Filesystem the archive backend lives on; held so the archive can be
    /// restarted (recovery drill) over the same durable state.
    archive_fs: Arc<dyn StorageFs>,
}

impl Site {
    /// Opens the stack over a fresh sensor registry: the archive backend
    /// selected by `config.storage` over `archive_fs` (replaying any durable
    /// state), recording into `metrics`, and, when `config.shards > 0`, the
    /// collector-shard hierarchy. The shards archive persistently, with the
    /// site's engine tuning, even when the site itself is in-memory, so a
    /// node-failure rebalance can replay the failed shard's slice
    /// losslessly. Returns the storage error that stopped it: the archive
    /// failing to open (or replay), or a shard failing to open its own.
    pub fn open(
        config: SiteConfig,
        metrics: MetricsRegistry,
        archive_fs: Arc<dyn StorageFs>,
    ) -> Result<Self, FsError> {
        let registry = SensorRegistry::new();
        let bus = Self::build_bus(&config, registry.clone(), metrics, Arc::clone(&archive_fs))?;
        let cluster = match config.shards {
            0 => None,
            shards => Some(Arc::new(ClusterCoordinator::new(
                ClusterConfig {
                    shards,
                    per_sensor_capacity: config.store_capacity,
                    rollups: config.rollups.clone(),
                    engine: config.storage.engine.clone(),
                },
                registry.clone(),
            )?)),
        };
        Ok(Site {
            config,
            registry,
            bus,
            cluster,
            archive_fs,
        })
    }

    /// Builds the archive backend selected by `config.storage` over `fs`
    /// (replaying any durable state into a fresh hot store) and attaches it
    /// to a new bus.
    fn build_bus(
        config: &SiteConfig,
        registry: SensorRegistry,
        metrics: MetricsRegistry,
        fs: Arc<dyn StorageFs>,
    ) -> Result<Arc<TelemetryBus>, FsError> {
        let store = Arc::new(TimeSeriesStore::with_rollups(
            config.store_capacity,
            TimeSeriesStore::DEFAULT_SHARDS,
            metrics.clone(),
            config.rollups.clone(),
        ));
        let backend = open_backend(&config.storage, fs, store)?;
        Ok(Arc::new(TelemetryBus::with_archive(
            registry, backend, metrics,
        )))
    }

    /// Ingests one tick: publishes its batches to the site bus (which
    /// archives them), then moves the same batches into the collector
    /// cluster, so sharded and unsharded queries answer bit-identically.
    pub fn ingest(&self, tick: Vec<ReadingBatch>) {
        self.bus.publish_many(&tick);
        if let Some(cluster) = &self.cluster {
            cluster.ingest_many(tick);
        }
    }

    /// A plant node failed: fails the collector shard hosted on that node
    /// and rebalances its slice onto the survivors from the durable tier.
    /// An unsharded site has no shard to fail.
    pub fn fail_node(&self, node: usize) {
        if let Some(cluster) = &self.cluster {
            cluster.apply_node_failure(node);
        }
    }

    /// Builds a multi-tenant query/subscription frontend over `net`, wired
    /// to this site's query plane ([`Self::plane`]), telemetry bus and
    /// metrics registry. Quotas and cache sizing come from
    /// [`SiteConfig::serving`]. Drive it with
    /// [`Server::poll`] from the experiment loop (or a
    /// [`crate::net::RealNet`] listener thread).
    pub fn serve<N: ServerNet>(&self, net: Arc<N>) -> Server<N> {
        Server::new(
            net,
            self.config.serving.clone(),
            self.plane(),
            Arc::clone(&self.bus),
        )
    }

    /// The site's query plane: the collector cluster's coordinator on a
    /// sharded site, the site store otherwise — the one place that choice
    /// is made (from `config.shards`, via [`Self::cluster`]). The unsharded
    /// store stays the default because it answers and ingests without the
    /// shard channel hop and flush-per-command. A plane handed out before
    /// [`Self::restart_archive`] keeps reading the pre-restart store.
    pub fn plane(&self) -> Arc<dyn QueryPlane> {
        match &self.cluster {
            Some(cluster) => Arc::clone(cluster) as Arc<dyn QueryPlane>,
            None => Arc::new(LocalPlane {
                store: Arc::clone(self.store()),
                registry: self.registry.clone(),
            }),
        }
    }

    /// Simulates an analytics-plane process restart: flushes the archive,
    /// drops the bus and hot store, and rebuilds them over the same storage
    /// filesystem — durable backends recover from WAL + segments, the
    /// in-memory backend comes back empty. Existing bus subscriptions are
    /// disconnected and must be re-established. Returns the recovery report
    /// (all zeros for the in-memory backend, which recovers nothing). A
    /// failed pre-restart flush does not stop the restart (recovery then
    /// finds whatever the filesystem kept); it is counted in the site
    /// registry's `storage_wal_errors_total`. An archive that fails to
    /// reopen — a segment that no longer verifies during replay — is
    /// returned as the error, and the site keeps its pre-restart bus.
    pub fn restart_archive(&mut self) -> Result<RecoveryReport, FsError> {
        let metrics = self.bus.metrics().clone();
        if self.archive().flush().is_err() {
            metrics.counter("storage_wal_errors_total", &[]).inc();
        }
        self.bus = Self::build_bus(
            &self.config,
            self.registry.clone(),
            metrics,
            Arc::clone(&self.archive_fs),
        )?;
        Ok(self.archive().recovery().cloned().unwrap_or_default())
    }

    /// The sensor registry (shared with the bus).
    pub fn registry(&self) -> &SensorRegistry {
        &self.registry
    }

    /// The telemetry bus (subscribe here).
    pub fn bus(&self) -> &Arc<TelemetryBus> {
        &self.bus
    }

    /// The sharded collector hierarchy, when the site was opened with
    /// `config.shards > 0`.
    pub fn cluster(&self) -> Option<&Arc<ClusterCoordinator>> {
        self.cluster.as_ref()
    }

    /// The archive store behind the bus.
    pub fn store(&self) -> &Arc<TimeSeriesStore> {
        self.bus.store()
    }

    /// The archive backend behind the bus (in-memory or persistent).
    pub fn archive(&self) -> &Arc<dyn StorageBackend> {
        self.bus.archive()
    }

    /// The metrics registry the telemetry plane records into.
    pub fn metrics(&self) -> &MetricsRegistry {
        self.bus.metrics()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::SimNet;
    use oda_telemetry::reading::{Reading, Timestamp};
    use oda_telemetry::sensor::{SensorKind, Unit};
    use oda_telemetry::storage::SimFs;

    /// Opens a small unsharded site over `fs`, recording into a fresh
    /// metrics registry of its own.
    fn open(storage: StorageConfig, fs: Arc<dyn StorageFs>) -> Result<Site, FsError> {
        let config = SiteConfig {
            store_capacity: 20_000,
            rollups: RollupConfig::default(),
            storage,
            shards: 0,
            serving: ServingConfig::default(),
        };
        Site::open(config, MetricsRegistry::new(), fs)
    }

    /// Ingests `ticks` ten-second ticks of one reading from each of eight
    /// node power sensors, as a plant's sampler would.
    fn feed(site: &Site, ticks: u64) {
        let sensors: Vec<_> = (0..8)
            .map(|i| {
                let name = format!("/hw/node{i}/power_w");
                site.registry()
                    .register(&name, SensorKind::Power, Unit::Watts)
            })
            .collect();
        for t in 1..=ticks {
            let at = Timestamp::from_secs(10 * t);
            let tick = sensors.iter().enumerate().map(|(i, &sensor)| {
                ReadingBatch::single(sensor, Reading::new(at, 100.0 + (t + i as u64) as f64))
            });
            site.ingest(tick.collect());
        }
    }

    #[test]
    fn failed_pre_restart_flush_is_counted_and_the_restart_completes() {
        let fs = Arc::new(SimFs::new());
        let mut storage = StorageConfig::persistent();
        // Never sync on the ingest path: the WAL tail waits for the
        // pre-restart flush.
        storage.engine.wal_sync_every = usize::MAX;
        let mut site = open(storage, Arc::clone(&fs) as _).unwrap();
        let metrics = site.metrics().clone();
        feed(&site, 36);
        let wal_errors = || metrics.snapshot().counter("storage_wal_errors_total");
        assert_eq!(wal_errors().unwrap_or(0), 0);
        fs.fail_next_syncs(1);
        let report = site.restart_archive();
        assert_eq!(wal_errors(), Some(1));
        // Nothing crashed, so recovery still reads the unsynced tail.
        let report = report.expect("the archive reopens");
        assert!(report.readings_recovered > 0);
    }

    /// Serves every `.seg` file's bytes with one bit flipped from its second
    /// read on — a disk that goes bad between the open that verifies a
    /// segment and the replay that reads it again.
    struct RereadRot {
        inner: SimFs,
        seen: std::sync::Mutex<std::collections::BTreeSet<String>>,
    }

    impl StorageFs for RereadRot {
        fn append(&self, path: &str, bytes: &[u8]) -> Result<(), FsError> {
            self.inner.append(path, bytes)
        }
        fn sync(&self, path: &str) -> Result<(), FsError> {
            self.inner.sync(path)
        }
        fn read(&self, path: &str) -> Result<Vec<u8>, FsError> {
            let mut bytes = self.inner.read(path)?;
            let reread = !self.seen.lock().unwrap().insert(path.to_string());
            if reread && path.ends_with(".seg") {
                if let Some(b) = bytes.get_mut(40) {
                    *b ^= 0x04;
                }
            }
            Ok(bytes)
        }
        fn write_atomic(&self, path: &str, bytes: &[u8]) -> Result<(), FsError> {
            self.inner.write_atomic(path, bytes)
        }
        fn truncate(&self, path: &str, len: u64) -> Result<(), FsError> {
            self.inner.truncate(path, len)
        }
        fn remove(&self, path: &str) -> Result<(), FsError> {
            self.inner.remove(path)
        }
        fn list(&self) -> Result<Vec<String>, FsError> {
            self.inner.list()
        }
        fn clock_ns(&self) -> u64 {
            self.inner.clock_ns()
        }
    }

    /// A persistent archive config sealing a segment every 256 readings,
    /// over a fresh [`RereadRot`].
    fn rotting() -> (StorageConfig, Arc<RereadRot>) {
        let mut storage = StorageConfig::persistent();
        storage.engine.segment_max_readings = 256;
        let fs = Arc::new(RereadRot {
            inner: SimFs::new(),
            seen: Default::default(),
        });
        (storage, fs)
    }

    #[test]
    fn a_segment_that_rots_before_replay_fails_the_restart_by_name() {
        let (storage, fs) = rotting();
        let mut site = open(storage, Arc::clone(&fs) as _).unwrap();
        feed(&site, 36);
        // Sealed segments were written, never read: the restart's open
        // reads (and verifies) each once, its replay reads them again.
        assert!(fs.inner.exists("seg-000000000001.seg"));
        let published = site.bus().published();
        let err = site
            .restart_archive()
            .expect_err("replay must not skip a bad segment");
        assert!(
            matches!(&err, FsError::Io(msg) if msg.contains("seg-000000000001.seg")),
            "the error names the file: {err}"
        );
        // The site keeps its pre-restart bus.
        assert_eq!(site.bus().published(), published);
    }

    #[test]
    fn open_returns_a_bad_segment_by_name_instead_of_panicking() {
        let (storage, fs) = rotting();
        let site = || open(storage.clone(), Arc::clone(&fs) as _);
        let first = site().expect("a fresh filesystem opens");
        feed(&first, 36);
        assert!(fs.inner.exists("seg-000000000001.seg"));
        // A second site over the same files verifies each segment at open
        // and finds it rotten at replay.
        let err = site().err().expect("replay must not skip a bad segment");
        assert!(
            matches!(&err, FsError::Io(msg) if msg.contains("seg-000000000001.seg")),
            "the error names the file: {err}"
        );
    }

    #[test]
    fn separately_opened_sites_do_not_share_metrics() {
        let fresh = || open(StorageConfig::default(), Arc::new(SimFs::new())).unwrap();
        let (a, b) = (fresh(), fresh());
        feed(&a, 36);
        let published = |site: &Site| site.metrics().snapshot().counter("bus_publish_total");
        let a_count = published(&a).unwrap_or(0);
        assert!(a_count > 0);
        assert_eq!(published(&b), Some(0), "B never published");
        // B's `/metrics` serves B's registry, not A's counts.
        let net = Arc::new(SimNet::new());
        let mut server = b.serve(Arc::clone(&net));
        let conn = net.connect();
        net.client_send(conn, b"GET /metrics HTTP/1.1\r\n\r\n");
        for _ in 0..16 {
            server.poll();
        }
        let reply = String::from_utf8_lossy(&net.client_recv(conn)).into_owned();
        assert!(reply.starts_with("HTTP/1.1 200"), "{reply}");
        assert!(reply.contains("\nbus_publish_total 0\n"), "{reply}");
        assert!(!reply.contains(&format!("\nbus_publish_total {a_count}\n")));
    }
}
