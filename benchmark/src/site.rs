//! The four workloads: which site each builds and how much work one round
//! does, plus the process-level helpers around them (scratch directories,
//! filesystem kind, peak memory).

use oda_serve::config::{ServingConfig, TenantQuota};
use oda_sim::datacenter::DataCenterConfig;
use oda_telemetry::storage::StorageConfig;
use std::path::{Path, PathBuf};

/// Ring capacity per sensor. Smaller than the `hot_site` / `serve_mixed`
/// warm-up, so those rings evict on every append while measured; larger than
/// the one-hour pass window (3 600 ticks), so a pass never sees a clipped
/// window.
pub const STORE_CAPACITY: usize = 4_096;

/// Trailing window every `OdaRuntime::pass` analyses.
pub const PASS_WINDOW_MS: u64 = 3_600_000;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    HotSite,
    DurableSite,
    ShardedSite,
    ServeMixed,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::HotSite,
        Workload::DurableSite,
        Workload::ShardedSite,
        Workload::ServeMixed,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::HotSite => "hot_site",
            Workload::DurableSite => "durable_site",
            Workload::ShardedSite => "sharded_site",
            Workload::ServeMixed => "serve_mixed",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// The fixed work of one round. A round is `cycles` repetitions of
/// *ticks → durable barrier → requests*, with the passes and archive scans
/// spread evenly over the cycles, then the restarts and one compaction.
/// Rounds repeat (each on a freshly built site) until `--seconds` of
/// measured work has been done, so every sample comes from the same state
/// however fast the machine is.
#[derive(Debug, Clone)]
pub struct Plan {
    pub workload: Workload,
    pub shards: usize,
    pub storage: StorageConfig,
    /// Ticks run during set-up, before anything is measured.
    pub warmup_ticks: u64,
    /// Streaming subscribers attached to `/facility/**` during set-up.
    pub subscribers: usize,
    pub cycles: usize,
    pub ticks_per_cycle: u64,
    pub requests_per_cycle: usize,
    pub passes: usize,
    pub scans: usize,
    pub restarts: usize,
    pub compact: bool,
    /// Ticks of the reading stream the traced run captures and replays
    /// through each ingest layer.
    pub capture_ticks: u64,
}

impl Plan {
    /// Full-size plan: each round is ≈2.5 s of measured work on the 2-core
    /// sandbox the sizes were probed on, so `--seconds 15` gives six rounds
    /// (a seventh would start below 2.3 s, a sixth not above 2.7 s).
    pub fn full(workload: Workload) -> Plan {
        let base = Plan {
            workload,
            shards: 0,
            storage: StorageConfig::in_memory(),
            warmup_ticks: 0,
            subscribers: 0,
            cycles: 1,
            ticks_per_cycle: 0,
            requests_per_cycle: 0,
            passes: 0,
            scans: 0,
            restarts: 0,
            compact: false,
            capture_ticks: 60,
        };
        match workload {
            // Ingest-dominated, in memory: sim, bus, store and the runtime
            // do the work; storage, fs, cluster are idle.
            Workload::HotSite => Plan {
                warmup_ticks: 4_200,
                cycles: 11,
                ticks_per_cycle: 400,
                requests_per_cycle: 16,
                passes: 11,
                scans: 22,
                ..base
            },
            // The mirror image: WAL, segments and real fsyncs take almost
            // all of the time; also cold reads and recovery.
            Workload::DurableSite => Plan {
                storage: StorageConfig::persistent(),
                warmup_ticks: 60,
                cycles: 1,
                ticks_per_cycle: 68,
                requests_per_cycle: 256,
                passes: 3,
                scans: 20,
                restarts: 3,
                compact: true,
                ..base
            },
            // Dual plane: every reading also crosses a bounded channel to
            // one of two shard threads; every query is a scatter-gather.
            // Three threads on two cores make any one ingest phase depend
            // on the scheduler, so a round has six short ones.
            Workload::ShardedSite => Plan {
                shards: 2,
                warmup_ticks: 600,
                cycles: 6,
                ticks_per_cycle: 90,
                requests_per_cycle: 760,
                passes: 3,
                scans: 16,
                ..base
            },
            // Query-dominated with writes beside the reads: a tick per 200
            // requests invalidates the cache and feeds the fan-out. Ticks
            // come four at a time: a lone tick after 200 requests finds its
            // lines wherever a neighbour of the shared host left them, which
            // moved `ingest_rps` 15 % between phases of the same machine.
            Workload::ServeMixed => Plan {
                warmup_ticks: 4_200,
                subscribers: 16,
                cycles: 19,
                ticks_per_cycle: 4,
                requests_per_cycle: 800,
                passes: 6,
                scans: 16,
                ..base
            },
        }
    }

    /// Tiny plan for the smoke tests: same shape, a fraction of the work.
    #[cfg(test)]
    pub fn smoke(workload: Workload) -> Plan {
        let full = Plan {
            capture_ticks: 4,
            ..Plan::full(workload)
        };
        match workload {
            Workload::HotSite => Plan {
                warmup_ticks: 80,
                cycles: 2,
                ticks_per_cycle: 10,
                passes: 2,
                scans: 2,
                ..full
            },
            Workload::DurableSite => Plan {
                warmup_ticks: 6,
                ticks_per_cycle: 8,
                requests_per_cycle: 16,
                passes: 1,
                scans: 2,
                restarts: 1,
                ..full
            },
            Workload::ShardedSite => Plan {
                warmup_ticks: 20,
                cycles: 1,
                ticks_per_cycle: 20,
                requests_per_cycle: 64,
                passes: 1,
                scans: 2,
                ..full
            },
            Workload::ServeMixed => Plan {
                warmup_ticks: 80,
                subscribers: 4,
                cycles: 3,
                requests_per_cycle: 40,
                passes: 1,
                scans: 2,
                ..full
            },
        }
    }
}

/// How many of `total` evenly spread events fall after cycle `cycle`.
pub fn due_after(total: usize, cycles: usize, cycle: usize) -> usize {
    (cycle + 1) * total / cycles - cycle * total / cycles
}

/// The site every workload builds on: 128 nodes, 929 sensors, one reading
/// per sensor per tick.
pub fn site_config(plan: &Plan) -> DataCenterConfig {
    DataCenterConfig {
        sample_every_ticks: 1,
        store_capacity: STORE_CAPACITY,
        storage: plan.storage.clone(),
        shards: plan.shards,
        workers: 1,
        ..DataCenterConfig::medium()
    }
}

/// Quotas generous enough that admission runs on every request and sheds
/// none: a shed request would be a failed operation, not load shaping.
pub fn serving_config() -> ServingConfig {
    ServingConfig {
        default_quota: TenantQuota::unlimited(),
        ..ServingConfig::default()
    }
}

/// A directory of the benchmark's own, removed when dropped — on success,
/// on a failed check and while unwinding from a panic alike.
pub struct ScratchDir {
    path: PathBuf,
}

impl ScratchDir {
    /// Creates `<root>/oda-e2e-<pid>-<label>`, emptying any leftover.
    pub fn create(root: &Path, label: &str) -> std::io::Result<ScratchDir> {
        let path = root.join(format!("oda-e2e-{}-{label}", std::process::id()));
        if path.exists() {
            std::fs::remove_dir_all(&path)?;
        }
        std::fs::create_dir_all(&path)?;
        Ok(ScratchDir { path })
    }

    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Bytes held by the regular files directly inside the directory.
    pub fn bytes_on_disk(&self) -> u64 {
        let Ok(entries) = std::fs::read_dir(&self.path) else {
            return 0;
        };
        entries
            .filter_map(|e| e.ok()?.metadata().ok())
            .filter(|m| m.is_file())
            .map(|m| m.len())
            .sum()
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        // Best effort: Drop must not panic, and a leftover directory is
        // reported by the runner, not worth aborting an unwind for.
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// Filesystem type of the mount holding `path`, from `/proc/mounts`
/// (longest mount-point prefix wins); `"unknown"` where that is unreadable.
pub fn fs_kind(path: &Path) -> String {
    let path = std::fs::canonicalize(path).unwrap_or_else(|_| path.to_path_buf());
    let Ok(mounts) = std::fs::read_to_string("/proc/mounts") else {
        return "unknown".to_string();
    };
    fs_kind_from(&mounts, &path)
}

fn fs_kind_from(mounts: &str, path: &Path) -> String {
    mounts
        .lines()
        .filter_map(|line| {
            let mut fields = line.split_whitespace();
            let (_, mount, kind) = (fields.next()?, fields.next()?, fields.next()?);
            path.starts_with(mount).then_some((mount.len(), kind))
        })
        .max_by_key(|(len, _)| *len)
        .map(|(_, kind)| kind.to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Peak resident set of this process in MB (`VmHWM`), `0.0` if unreadable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spread_events_add_up_and_stay_even() {
        for (total, cycles) in [(3, 70), (16, 70), (12, 12), (24, 12), (3, 1), (0, 5)] {
            let per_cycle: Vec<usize> = (0..cycles).map(|c| due_after(total, cycles, c)).collect();
            assert_eq!(per_cycle.iter().sum::<usize>(), total);
            let (lo, hi) = (
                per_cycle.iter().min().unwrap(),
                per_cycle.iter().max().unwrap(),
            );
            assert!(hi - lo <= 1, "{total} over {cycles}: {per_cycle:?}");
        }
    }

    #[test]
    fn fs_kind_picks_the_longest_mount_prefix() {
        let mounts = "/dev/vda / ext4 rw 0 0\ntmpfs /tmp tmpfs rw 0 0\nproc /proc proc rw 0 0\n";
        assert_eq!(fs_kind_from(mounts, Path::new("/tmp/x/y")), "tmpfs");
        assert_eq!(fs_kind_from(mounts, Path::new("/root/repo")), "ext4");
        assert_eq!(fs_kind_from("", Path::new("/root")), "unknown");
    }

    #[test]
    fn scratch_dir_is_removed_on_drop_and_on_panic() {
        let root = std::env::temp_dir();
        let path = {
            let dir = ScratchDir::create(&root, "unit-drop").unwrap();
            std::fs::write(dir.path().join("wal.log"), [0u8; 100]).unwrap();
            assert_eq!(dir.bytes_on_disk(), 100);
            dir.path().to_path_buf()
        };
        assert!(!path.exists());
        let unwound = std::panic::catch_unwind(|| {
            let dir = ScratchDir::create(&std::env::temp_dir(), "unit-panic").unwrap();
            let path = dir.path().to_path_buf();
            std::panic::resume_unwind(Box::new(path));
        });
        let path = *unwound.unwrap_err().downcast::<PathBuf>().unwrap();
        assert!(!path.exists());
    }
}
