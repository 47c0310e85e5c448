//! One collector shard: a store + durable backend owned by a single
//! worker thread, reachable only through a command channel.
//!
//! The channel is the shard's entire public surface — no other thread
//! ever touches the shard's store or archive, so there are no shared
//! locks across shards and every command (ingest, query, versions,
//! health) executes in exactly the order it arrived. That FIFO is what
//! makes scatter-gather deterministic without global fences: a query
//! sent after an ingest on the same shard necessarily observes it.
//!
//! Durability contract: each ingest command — one tick's slice of the
//! batches this shard owns — is archived through the shard's
//! [`StorageBackend`] as one group and the WAL is flushed before the shard
//! moves to the next command. "Accepted" therefore implies "durable",
//! which is what lets [`super::ClusterCoordinator::fail_shard`] rebuild
//! a failed shard's slice from its surviving filesystem without losing
//! a single accepted reading. A flush that fails is counted
//! (`storage_wal_errors_total`, [`ShardHealth::wal_errors`]); the group
//! stays logged and the next successful flush makes it durable.

use crate::cluster::placement::ShardId;
use crate::cluster::{ClusterConfig, SHARD_QUEUE_DEPTH};
use crate::health::HealthReport;
use crate::metrics::MetricsRegistry;
use crate::query::{Query, QueryEngine, QueryResult};
use crate::reading::ReadingBatch;
use crate::sensor::SensorId;
use crate::storage::{DurableBackend, FsError, StorageBackend, StorageFs};
use crate::store::TimeSeriesStore;
use crossbeam_channel::{bounded, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Point-in-time health of one shard, as reported by its worker thread.
#[derive(Debug, Clone)]
pub struct ShardHealth {
    /// Which shard.
    pub shard: ShardId,
    /// The shard store's health report (its slice only).
    pub report: HealthReport,
    /// Readings durably stored by the shard's archive tier.
    pub durable_len: u64,
    /// Batches the shard has ingested since spawn.
    pub published: u64,
    /// Ingest groups and flushes whose WAL write or sync failed since the
    /// shard's archive was opened.
    pub wal_errors: u64,
}

/// Commands a shard worker processes in arrival order.
pub(crate) enum ShardCmd {
    /// Archive a group of batches (fire-and-forget; ack == durable before
    /// the next command runs).
    Ingest(Vec<ReadingBatch>),
    /// Execute a sub-query against the shard's local store. The
    /// coordinator resolves the selector and sends the shard its own ids,
    /// so a shard never matches names.
    Query {
        query: Query,
        reply: Sender<QueryResult>,
    },
    /// Snapshot per-sensor store versions (result-cache validation).
    Versions {
        sensors: Vec<SensorId>,
        reply: Sender<Vec<u64>>,
    },
    /// Report shard health.
    Health { reply: Sender<ShardHealth> },
    /// Barrier: reply once every earlier command has been processed.
    Fence { reply: Sender<()> },
    /// Flush and exit the worker loop (graceful fail-stop: the queue
    /// drains first, modelling delivered-but-unprocessed ingest as
    /// processed; in-flight *network* loss is out of scope here).
    Stop { reply: Sender<()> },
}

/// Handle to a spawned shard: the command sender, the join handle, and
/// the shard's filesystem (the "disk" that survives a node failure).
pub(crate) struct ShardHandle {
    pub(crate) tx: Sender<ShardCmd>,
    pub(crate) join: Option<JoinHandle<()>>,
    pub(crate) fs: Arc<dyn StorageFs>,
}

impl ShardHandle {
    /// Spawns a shard worker over `fs`. If `fs` already holds durable
    /// state (a restart-in-place after a failure), the backend replays it
    /// into the fresh hot store before the first command runs — ring and
    /// rollup state come back bit-identical to the pre-failure shard.
    pub(crate) fn spawn(
        id: ShardId,
        cfg: &ClusterConfig,
        fs: Arc<dyn StorageFs>,
    ) -> Result<ShardHandle, FsError> {
        // Each shard gets its own metrics registry: shard stores reuse the
        // store's internal lock-shard labels, which would collide across
        // collector shards on a shared registry.
        let store = Arc::new(TimeSeriesStore::with_rollups(
            cfg.per_sensor_capacity,
            TimeSeriesStore::DEFAULT_SHARDS,
            MetricsRegistry::new(),
            cfg.rollups.clone(),
        ));
        let archive = DurableBackend::open(Arc::clone(&fs), cfg.engine.clone(), store)?;
        let (tx, rx) = bounded::<ShardCmd>(SHARD_QUEUE_DEPTH);
        let join = std::thread::Builder::new()
            .name(format!("oda-{id}"))
            .spawn(move || run(id, &rx, &archive))
            .map_err(|e| FsError::Io(format!("spawn {id}: {e}")))?;
        Ok(ShardHandle {
            tx,
            join: Some(join),
            fs,
        })
    }

    /// Drains the queue, flushes the archive and joins the worker thread.
    /// Returns the shard's filesystem for recovery/handoff.
    pub(crate) fn stop(mut self) -> Arc<dyn StorageFs> {
        let (reply, done) = bounded(1);
        if self.tx.send(ShardCmd::Stop { reply }).is_ok() {
            let _ = done.recv();
        }
        if let Some(join) = self.join.take() {
            let _ = join.join();
        }
        Arc::clone(&self.fs)
    }
}

/// The worker loop: one command at a time, in arrival order, until Stop
/// or every sender is gone.
fn run(id: ShardId, rx: &Receiver<ShardCmd>, archive: &DurableBackend) {
    let mut published = 0u64;
    // Shares the counter the durable backend bumps for a failed group.
    let wal_errors = archive
        .store()
        .metrics()
        .counter("storage_wal_errors_total", &[]);
    let flush = || {
        if archive.flush().is_err() {
            wal_errors.inc();
        }
    };
    while let Ok(cmd) = rx.recv() {
        match cmd {
            ShardCmd::Ingest(batches) => {
                published += batches.len() as u64;
                archive.insert_many(&batches);
                // Ack == durable: WAL-sync what this command accepted
                // before the next command can observe or extend it.
                flush();
            }
            ShardCmd::Query { query, reply } => {
                let _ = reply.send(query.run(&QueryEngine::new(archive.store())));
            }
            ShardCmd::Versions { sensors, reply } => {
                let store = archive.store();
                let versions = sensors.iter().map(|&s| store.sensor_version(s)).collect();
                let _ = reply.send(versions);
            }
            ShardCmd::Health { reply } => {
                let _ = reply.send(ShardHealth {
                    shard: id,
                    report: archive.health_report(),
                    durable_len: archive.durable_len(),
                    published,
                    wal_errors: wal_errors.get(),
                });
            }
            ShardCmd::Fence { reply } => {
                let _ = reply.send(());
            }
            ShardCmd::Stop { reply } => {
                flush();
                let _ = reply.send(());
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reading::{Reading, Timestamp};
    use crate::storage::SimFs;

    fn group(from: u64, n: u64) -> Vec<ReadingBatch> {
        (from..from + n)
            .map(|i| {
                let r = Reading::new(Timestamp::from_millis(i * 1_000), 0.5 + i as f64);
                ReadingBatch::single(SensorId(0), r)
            })
            .collect()
    }

    fn send(shard: &ShardHandle, cmd: ShardCmd) {
        assert!(shard.tx.send(cmd).is_ok(), "the shard worker is running");
    }

    fn health(shard: &ShardHandle) -> ShardHealth {
        let (reply, rx) = bounded(1);
        send(shard, ShardCmd::Health { reply });
        rx.recv().unwrap()
    }

    #[test]
    fn a_failed_sync_is_counted_and_the_next_flush_makes_the_group_durable() {
        let fs = Arc::new(SimFs::new());
        let shard = ShardHandle::spawn(
            ShardId(0),
            &ClusterConfig::with_shards(1),
            Arc::clone(&fs) as Arc<dyn StorageFs>,
        )
        .unwrap();
        send(&shard, ShardCmd::Ingest(group(0, 3)));
        assert_eq!(health(&shard).wal_errors, 0);
        let synced = fs.durable_len("wal.log").unwrap();

        // Three records stay below the sync interval, so the sync that
        // fails is the command's ack flush.
        fs.fail_next_syncs(1);
        send(&shard, ShardCmd::Ingest(group(3, 3)));
        let h = health(&shard);
        assert_eq!(h.wal_errors, 1, "the failed ack is visible in health");
        assert_eq!(h.durable_len, 6, "the group stays logged");
        assert_eq!(fs.durable_len("wal.log"), Some(synced), "but not synced");

        // The next command's flush succeeds and covers the earlier group.
        send(&shard, ShardCmd::Ingest(group(6, 1)));
        assert_eq!(health(&shard).wal_errors, 1);
        shard.stop();
        fs.crash();
        let (engine, report) = crate::storage::PersistentEngine::open(
            fs as Arc<dyn StorageFs>,
            ClusterConfig::default().engine,
            &MetricsRegistry::disabled(),
        )
        .unwrap();
        assert_eq!(report.readings_recovered, 7);
        assert_eq!(engine.durable_len(), 7);
    }

    #[test]
    fn a_group_whose_own_sync_fails_counts_one_error() {
        let fs = Arc::new(SimFs::new());
        let shard = ShardHandle::spawn(
            ShardId(0),
            &ClusterConfig::with_shards(1),
            Arc::clone(&fs) as Arc<dyn StorageFs>,
        )
        .unwrap();
        // Twenty records reach the sync interval: the group's own sync
        // fails (one error, counted by the backend), then the ack flush
        // retries it and succeeds.
        fs.fail_next_syncs(1);
        send(&shard, ShardCmd::Ingest(group(0, 20)));
        assert_eq!(health(&shard).wal_errors, 1);
        shard.stop();
        fs.crash();
        let (_, report) = crate::storage::PersistentEngine::open(
            fs as Arc<dyn StorageFs>,
            ClusterConfig::default().engine,
            &MetricsRegistry::disabled(),
        )
        .unwrap();
        assert_eq!(report.readings_recovered, 20);
    }
}
