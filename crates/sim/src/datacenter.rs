//! The whole simulated site: facility + hardware + scheduler + workload,
//! publishing telemetry and exposing the actuation knobs.
//!
//! [`DataCenter`] is the object every experiment drives. One call to
//! [`DataCenter::step`] advances the coupled models by one tick:
//!
//! 1. weather evolves;
//! 2. scheduled faults (de)activate and mutate the affected models;
//! 3. new jobs arrive and are submitted;
//! 4. finished jobs are reaped, queued jobs are placed (FCFS + backfill);
//! 5. running jobs post their resource demands, the network resolves
//!    contention, job progress integrates;
//! 6. node power/thermal models integrate; the cooling plant and power
//!    distribution close the loop; PUE and energy accumulate;
//! 7. on sampling ticks, every modelled quantity is published to the
//!    telemetry bus (and thereby archived in the store).
//!
//! Analytics never reach into the simulation state: they consume the same
//! sensor streams a real deployment would provide. The only "side channels"
//! are the explicitly-labelled ground-truth accessors (fault schedule, job
//! records) used for *scoring* detectors and predictors, never as their
//! input.

use crate::engine::{SimClock, SimRng};
use crate::facility::cooling::{CoolingConfig, CoolingMode, CoolingOutput, CoolingPlant};
use crate::facility::power::{PowerConfig, PowerDistribution};
use crate::facility::weather::{Weather, WeatherConfig};
use crate::faults::{
    Fault, FaultInjector, FaultKind, FaultSchedule, TelemetryFault, TelemetryFaultKind,
    TelemetryFaultState,
};
use crate::hardware::network::{Network, NetworkConfig};
use crate::hardware::node::{Node, NodeConfig, NodeId};
use crate::hardware::rack::{build_racks, rack_of, Rack, RackId};
use crate::scheduler::job::{JobClass, JobId, JobState};
use crate::scheduler::placement::{FirstFit, PlacementContext, PlacementPolicy};
use crate::scheduler::Scheduler;
use crate::workload::{WorkloadConfig, WorkloadGenerator};
use oda_serve::config::ServingConfig;
use oda_serve::net::ServerNet;
use oda_serve::server::Server;
use oda_telemetry::bus::TelemetryBus;
use oda_telemetry::cluster::{ClusterConfig, ClusterCoordinator};
use oda_telemetry::metrics::MetricsRegistry;
use oda_telemetry::plane::{LocalPlane, QueryPlane};
use oda_telemetry::reading::{Reading, ReadingBatch, Timestamp};
use oda_telemetry::sensor::{SensorId, SensorKind, SensorRegistry, Unit};
use oda_telemetry::storage::{
    open_backend, BackendKind, FsError, RecoveryReport, SimFs, StorageBackend, StorageConfig,
    StorageFs,
};
use oda_telemetry::store::{RollupConfig, TimeSeriesStore};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::Arc;

/// Base for ids handed to operator-submitted jobs (stress tests, what-if
/// replays) so they never collide with workload-generated ids.
const CUSTOM_JOB_ID_BASE: u64 = 1 << 62;

/// Full configuration of a simulated site.
#[derive(Debug, Clone)]
pub struct DataCenterConfig {
    /// Number of racks.
    pub racks: usize,
    /// Nodes per rack.
    pub nodes_per_rack: usize,
    /// Inlet-temperature penalty of the worst-placed rack, °C.
    pub max_rack_inlet_offset_c: f64,
    /// Model integration step, milliseconds.
    pub tick_ms: u64,
    /// Publish telemetry every this many ticks.
    pub sample_every_ticks: u64,
    /// Ring-buffer capacity per sensor in the archive store.
    pub store_capacity: usize,
    /// Rollup-tier layout of the archive store (multi-resolution summary
    /// buckets maintained online per sensor); [`RollupConfig::none`]
    /// disables tiers for raw-only ablation runs.
    pub rollups: RollupConfig,
    /// Archive storage backend: in-memory (default), persistent (WAL +
    /// segment files), or hybrid (hot ring + cold segments). Durable
    /// backends run over a deterministic in-memory filesystem unless an
    /// explicit one is injected via
    /// [`DataCenterBuilder::storage_fs`].
    pub storage: StorageConfig,
    /// Node model parameters.
    pub node: NodeConfig,
    /// Cooling-plant parameters.
    pub cooling: CoolingConfig,
    /// Initial inlet-water setpoint, °C.
    pub initial_setpoint_c: f64,
    /// Power-distribution parameters.
    pub power: PowerConfig,
    /// Climate parameters.
    pub weather: WeatherConfig,
    /// Interconnect parameters.
    pub network: NetworkConfig,
    /// Workload parameters.
    pub workload: WorkloadConfig,
    /// Worker count for analytics runtimes driven against this site
    /// (`oda_core::runtime::RuntimeConfig::workers`). The simulator
    /// itself stays single-threaded and deterministic; this field plumbs
    /// the site's analytics parallelism to soaks, benches and examples so
    /// site + runtime are configured in one place. `1` = serial.
    pub workers: usize,
    /// Collector-shard count for the distributed collector hierarchy.
    /// `0` (the default) runs unsharded: the site bus alone archives
    /// telemetry. `n > 0` additionally stands up a
    /// [`ClusterCoordinator`] with `n` shards that ingests the identical
    /// stream, so sharded and unsharded query paths answer bit-identically.
    pub shards: usize,
}

impl DataCenterConfig {
    /// A small site: 4 racks × 8 nodes = 32 nodes. The default experiment
    /// substrate — large enough for placement and contention effects, small
    /// enough for fast test suites.
    pub fn small() -> Self {
        DataCenterConfig {
            racks: 4,
            nodes_per_rack: 8,
            max_rack_inlet_offset_c: 3.0,
            tick_ms: 1_000,
            sample_every_ticks: 10,
            store_capacity: 100_000,
            rollups: RollupConfig::default(),
            storage: StorageConfig::default(),
            node: NodeConfig::default(),
            cooling: CoolingConfig::default(),
            initial_setpoint_c: 30.0,
            power: PowerConfig {
                ups_capacity_kw: 40.0,
                fixed_overhead_kw: 2.0,
                ..PowerConfig::default()
            },
            weather: WeatherConfig::default(),
            network: NetworkConfig::default(),
            workload: WorkloadConfig::default(),
            workers: 1,
            shards: 0,
        }
    }

    /// A tiny site for unit tests: 2 racks × 4 nodes.
    pub fn tiny() -> Self {
        DataCenterConfig {
            racks: 2,
            nodes_per_rack: 4,
            store_capacity: 20_000,
            power: PowerConfig {
                ups_capacity_kw: 10.0,
                fixed_overhead_kw: 0.5,
                ..PowerConfig::default()
            },
            workload: WorkloadConfig {
                mean_interarrival_s: 60.0,
                max_nodes: 4,
                ..WorkloadConfig::default()
            },
            ..Self::small()
        }
    }

    /// A mid-size site: 8 racks × 16 nodes = 128 nodes, for the heavier
    /// experiments and benches.
    pub fn medium() -> Self {
        DataCenterConfig {
            racks: 8,
            nodes_per_rack: 16,
            power: PowerConfig {
                ups_capacity_kw: 120.0,
                fixed_overhead_kw: 5.0,
                ..PowerConfig::default()
            },
            workload: WorkloadConfig {
                mean_interarrival_s: 45.0,
                max_nodes: 16,
                ..WorkloadConfig::default()
            },
            ..Self::small()
        }
    }

    /// Total node count.
    pub fn node_count(&self) -> usize {
        self.racks * self.nodes_per_rack
    }
}

/// Interned sensor ids for the whole site.
#[derive(Debug, Clone)]
pub struct Sensors {
    /// `/facility/outside_temp`
    pub outside_temp: SensorId,
    /// `/facility/cooling/power_kw`
    pub cooling_power: SensorId,
    /// `/facility/cooling/setpoint_c`
    pub cooling_setpoint: SensorId,
    /// `/facility/cooling/inlet_c` (delivered water temperature)
    pub cooling_inlet: SensorId,
    /// `/facility/cooling/mode` (0 = free cooling, 1 = chiller)
    pub cooling_mode: SensorId,
    /// `/facility/cooling/cop`
    pub cooling_cop: SensorId,
    /// `/facility/power/utility_kw`
    pub utility_power: SensorId,
    /// `/facility/power/it_kw`
    pub it_power: SensorId,
    /// `/facility/power/loss_kw`
    pub loss_power: SensorId,
    /// `/facility/pue`
    pub pue: SensorId,
    /// `/hw/node{i}/power_w`
    pub node_power: Vec<SensorId>,
    /// `/hw/node{i}/temp_c`
    pub node_temp: Vec<SensorId>,
    /// `/hw/node{i}/util`
    pub node_util: Vec<SensorId>,
    /// `/hw/node{i}/freq_ghz`
    pub node_freq: Vec<SensorId>,
    /// `/hw/node{i}/mem_gib`
    pub node_mem: Vec<SensorId>,
    /// `/hw/node{i}/fan`
    pub node_fan: Vec<SensorId>,
    /// `/sw/node{i}/sys_mem_gib` — memory held by the system software
    /// stack (daemons, kernel slabs), reported separately from job memory
    /// as production node exporters do. This is where software memory
    /// leaks show without job-churn interference.
    pub node_sys_mem: Vec<SensorId>,
    /// `/hw/rack{r}/uplink_offered_gbps`
    pub rack_offered: Vec<SensorId>,
    /// `/hw/rack{r}/uplink_contention`
    pub rack_contention: Vec<SensorId>,
    /// `/sw/sched/queue_len`
    pub queue_len: SensorId,
    /// `/sw/sched/running`
    pub running: SensorId,
    /// `/sw/sched/utilization`
    pub sched_util: SensorId,
    /// `/sw/sched/completed_total`
    pub completed_total: SensorId,
    /// `/sw/sched/killed_total`
    pub killed_total: SensorId,
    /// `/app/active_jobs`
    pub active_jobs: SensorId,
    /// `/app/arrivals_total`
    pub arrivals_total: SensorId,
}

impl Sensors {
    fn register(reg: &SensorRegistry, nodes: usize, racks: usize) -> Self {
        let s = |name: &str, kind, unit| reg.register(name, kind, unit);
        Sensors {
            outside_temp: s(
                "/facility/outside_temp",
                SensorKind::Temperature,
                Unit::Celsius,
            ),
            cooling_power: s(
                "/facility/cooling/power_kw",
                SensorKind::Power,
                Unit::Kilowatts,
            ),
            cooling_setpoint: s(
                "/facility/cooling/setpoint_c",
                SensorKind::Temperature,
                Unit::Celsius,
            ),
            cooling_inlet: s(
                "/facility/cooling/inlet_c",
                SensorKind::Temperature,
                Unit::Celsius,
            ),
            cooling_mode: s(
                "/facility/cooling/mode",
                SensorKind::Count,
                Unit::Dimensionless,
            ),
            cooling_cop: s(
                "/facility/cooling/cop",
                SensorKind::Indicator,
                Unit::Dimensionless,
            ),
            utility_power: s(
                "/facility/power/utility_kw",
                SensorKind::Power,
                Unit::Kilowatts,
            ),
            it_power: s("/facility/power/it_kw", SensorKind::Power, Unit::Kilowatts),
            loss_power: s(
                "/facility/power/loss_kw",
                SensorKind::Power,
                Unit::Kilowatts,
            ),
            pue: s("/facility/pue", SensorKind::Indicator, Unit::Dimensionless),
            node_power: (0..nodes)
                .map(|i| {
                    s(
                        &format!("/hw/node{i}/power_w"),
                        SensorKind::Power,
                        Unit::Watts,
                    )
                })
                .collect(),
            node_temp: (0..nodes)
                .map(|i| {
                    s(
                        &format!("/hw/node{i}/temp_c"),
                        SensorKind::Temperature,
                        Unit::Celsius,
                    )
                })
                .collect(),
            node_util: (0..nodes)
                .map(|i| {
                    s(
                        &format!("/hw/node{i}/util"),
                        SensorKind::Utilization,
                        Unit::Fraction,
                    )
                })
                .collect(),
            node_freq: (0..nodes)
                .map(|i| {
                    s(
                        &format!("/hw/node{i}/freq_ghz"),
                        SensorKind::Frequency,
                        Unit::Megahertz,
                    )
                })
                .collect(),
            node_mem: (0..nodes)
                .map(|i| {
                    s(
                        &format!("/hw/node{i}/mem_gib"),
                        SensorKind::Count,
                        Unit::Dimensionless,
                    )
                })
                .collect(),
            node_fan: (0..nodes)
                .map(|i| {
                    s(
                        &format!("/hw/node{i}/fan"),
                        SensorKind::Utilization,
                        Unit::Fraction,
                    )
                })
                .collect(),
            node_sys_mem: (0..nodes)
                .map(|i| {
                    s(
                        &format!("/sw/node{i}/sys_mem_gib"),
                        SensorKind::Count,
                        Unit::Dimensionless,
                    )
                })
                .collect(),
            rack_offered: (0..racks)
                .map(|r| {
                    s(
                        &format!("/hw/rack{r}/uplink_offered_gbps"),
                        SensorKind::Rate,
                        Unit::BytesPerSecond,
                    )
                })
                .collect(),
            rack_contention: (0..racks)
                .map(|r| {
                    s(
                        &format!("/hw/rack{r}/uplink_contention"),
                        SensorKind::Indicator,
                        Unit::Fraction,
                    )
                })
                .collect(),
            queue_len: s(
                "/sw/sched/queue_len",
                SensorKind::Count,
                Unit::Dimensionless,
            ),
            running: s("/sw/sched/running", SensorKind::Count, Unit::Dimensionless),
            sched_util: s(
                "/sw/sched/utilization",
                SensorKind::Utilization,
                Unit::Fraction,
            ),
            completed_total: s(
                "/sw/sched/completed_total",
                SensorKind::Count,
                Unit::Dimensionless,
            ),
            killed_total: s(
                "/sw/sched/killed_total",
                SensorKind::Count,
                Unit::Dimensionless,
            ),
            active_jobs: s("/app/active_jobs", SensorKind::Count, Unit::Dimensionless),
            arrivals_total: s(
                "/app/arrivals_total",
                SensorKind::Count,
                Unit::Dimensionless,
            ),
        }
    }
}

/// Aggregated behavioural record of a job, built up while it runs.
///
/// This is what Applications-pillar analytics consume for per-job feature
/// work (fingerprinting, duration prediction): the telemetry-equivalent of
/// a job-level monitoring summary, without needing one sensor per job.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct JobRecord {
    /// Job id.
    pub id: JobId,
    /// Submitting user.
    pub user: u32,
    /// Ground-truth class (withheld from classifiers during inference).
    pub class: JobClass,
    /// Nodes allocated.
    pub nodes: u32,
    /// Submission time.
    pub submit: Timestamp,
    /// Start time.
    pub start: Option<Timestamp>,
    /// End time.
    pub end: Option<Timestamp>,
    /// Terminal state.
    pub state: JobState,
    /// Requested walltime, seconds.
    pub requested_walltime_s: f64,
    /// Total work, node-seconds.
    pub work_node_seconds: f64,
    /// Mean CPU utilization demanded over the job's life.
    pub mean_cpu: f64,
    /// Variance of the demanded CPU utilization (population).
    pub var_cpu: f64,
    /// Mean per-node memory footprint, GiB.
    pub mean_mem_gib: f64,
    /// Mean per-node network demand, GB/s.
    pub mean_net_gbps: f64,
    /// Total energy consumed by the job's nodes, joules.
    pub energy_j: f64,
    /// Number of samples accumulated.
    pub samples: u64,
}

impl JobRecord {
    fn accumulate(&mut self, cpu: f64, mem: f64, net: f64, power_w: f64, dt_s: f64) {
        // Welford update for the cpu stream.
        self.samples += 1;
        let n = self.samples as f64;
        let d = cpu - self.mean_cpu;
        self.mean_cpu += d / n;
        self.var_cpu += d * (cpu - self.mean_cpu);
        self.mean_mem_gib += (mem - self.mean_mem_gib) / n;
        self.mean_net_gbps += (net - self.mean_net_gbps) / n;
        self.energy_j += power_w * dt_s;
    }

    /// Population variance of the cpu stream.
    pub fn cpu_variance(&self) -> f64 {
        if self.samples == 0 {
            0.0
        } else {
            self.var_cpu / self.samples as f64
        }
    }

    /// Actual runtime, seconds (end − start).
    pub fn runtime_s(&self) -> Option<f64> {
        match (self.start, self.end) {
            (Some(s), Some(e)) => Some(e.millis_since(s) as f64 / 1_000.0),
            _ => None,
        }
    }
}

/// Point-in-time operational summary (what a wallboard would show).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Snapshot {
    /// Simulated time.
    pub now: Timestamp,
    /// Outside air temperature, °C.
    pub outside_c: f64,
    /// Cooling setpoint, °C.
    pub setpoint_c: f64,
    /// Delivered loop temperature, °C.
    pub inlet_c: f64,
    /// `true` when the chiller (not free cooling) served the loop.
    pub on_chiller: bool,
    /// IT power, kW.
    pub it_power_kw: f64,
    /// Cooling-plant power, kW.
    pub cooling_power_kw: f64,
    /// Utility feed, kW.
    pub total_power_kw: f64,
    /// Power usage effectiveness.
    pub pue: f64,
    /// Mean node temperature, °C.
    pub avg_node_temp_c: f64,
    /// Hottest node temperature, °C.
    pub max_node_temp_c: f64,
    /// Scheduler queue length.
    pub queue_len: usize,
    /// Running job count.
    pub running: usize,
    /// Node allocation fraction.
    pub utilization: f64,
    /// Jobs completed so far.
    pub completed: u64,
    /// Jobs killed so far.
    pub killed: u64,
    /// IT energy since start, kWh.
    pub it_energy_kwh: f64,
    /// Utility energy since start, kWh.
    pub utility_energy_kwh: f64,
}

/// The simulated data center.
pub struct DataCenter {
    config: DataCenterConfig,
    clock: SimClock,
    weather_rng: SimRng,
    workload_rng: SimRng,
    weather: Weather,
    cooling: CoolingPlant,
    power: PowerDistribution,
    nodes: Vec<Node>,
    racks: Vec<Rack>,
    network: Network,
    scheduler: Scheduler,
    workload: WorkloadGenerator,
    injector: FaultInjector,
    telemetry_faults: Option<TelemetryFaultState>,
    registry: SensorRegistry,
    bus: Arc<TelemetryBus>,
    /// Sharded collector hierarchy (built when `config.shards > 0`). Fed
    /// the same post-corruption stream as the site bus, so either plane
    /// answers any query with the same digest.
    cluster: Option<Arc<ClusterCoordinator>>,
    /// Filesystem the archive backend lives on; held so the archive can be
    /// restarted (recovery drill) over the same durable state.
    archive_fs: Arc<dyn StorageFs>,
    /// Serving-layer configuration applied by [`DataCenter::serve`].
    serving: ServingConfig,
    sensors: Sensors,
    // Fault state applied to models each tick.
    leak_extra_gib: Vec<f64>,
    leak_rate_gib_per_min: Vec<f64>,
    contention_severity: Vec<f64>,
    hog_demand: Vec<f64>,
    // Live + finished job records.
    records: HashMap<JobId, JobRecord>,
    finished: Vec<JobRecord>,
    arrivals_total: u64,
    next_custom_id: u64,
    // Last-tick plant outputs (telemetry + snapshot).
    last_cooling: CoolingOutput,
    last_it_kw: f64,
    last_utility_kw: f64,
    last_loss_kw: f64,
    it_energy_kwh: f64,
    utility_energy_kwh: f64,
}

/// Staged constructor for [`DataCenter`] — the one way to build a site.
///
/// Every knob that used to be a positional constructor argument is a
/// chained setter with a sensible default, so call sites state only what
/// they care about:
///
/// ```
/// use oda_sim::prelude::*;
///
/// // A default site, deterministic under its seed.
/// let dc = DataCenter::builder(DataCenterConfig::tiny()).seed(42).build();
/// assert_eq!(dc.config().workers, DataCenterConfig::tiny().workers);
/// ```
///
/// Defaults: seed `0`, a fresh [`MetricsRegistry`] of the site's own, a
/// fresh deterministic [`SimFs`] for durable storage, and the
/// [`ServingConfig`] defaults for [`DataCenter::serve`]. The `workers`,
/// `rollups` and `storage` setters override the corresponding
/// [`DataCenterConfig`] fields in place.
pub struct DataCenterBuilder {
    config: DataCenterConfig,
    seed: u64,
    metrics: MetricsRegistry,
    archive_fs: Option<Arc<dyn StorageFs>>,
    serving: ServingConfig,
}

impl DataCenterBuilder {
    /// Starts a builder over `config`.
    pub fn new(config: DataCenterConfig) -> Self {
        DataCenterBuilder {
            config,
            seed: 0,
            metrics: MetricsRegistry::new(),
            archive_fs: None,
            serving: ServingConfig::default(),
        }
    }

    /// Seeds every stochastic model (weather, workload, faults). Two sites
    /// built from the same config and seed evolve identically.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Records the telemetry plane (store write path + bus publish path +
    /// serving frontend) into `metrics` instead of the site's own fresh
    /// registry — so a runtime, or a second site, can share it.
    pub fn metrics(mut self, metrics: MetricsRegistry) -> Self {
        self.metrics = metrics;
        self
    }

    /// Runs the archive backend over an explicit storage filesystem, so
    /// recovery tests can reopen a site over pre-existing durable state (or
    /// a fault-injecting [`SimFs`]). Defaults to a fresh [`SimFs`].
    pub fn storage_fs(mut self, fs: Arc<dyn StorageFs>) -> Self {
        self.archive_fs = Some(fs);
        self
    }

    /// Overrides `config.workers` — the analytics-plane parallelism hint.
    pub fn workers(mut self, workers: usize) -> Self {
        self.config.workers = workers;
        self
    }

    /// Overrides `config.shards` — the collector-shard count. `0` keeps
    /// the site unsharded; `n > 0` stands up a [`ClusterCoordinator`]
    /// with `n` message-passing shards alongside the site bus.
    pub fn shards(mut self, shards: usize) -> Self {
        self.config.shards = shards;
        self
    }

    /// Overrides `config.rollups` — the store's pre-aggregation tiers.
    pub fn rollups(mut self, rollups: RollupConfig) -> Self {
        self.config.rollups = rollups;
        self
    }

    /// Overrides `config.storage` — the durable archive backend selection.
    pub fn storage(mut self, storage: StorageConfig) -> Self {
        self.config.storage = storage;
        self
    }

    /// Sets the quota/cache/fan-out configuration used by
    /// [`DataCenter::serve`].
    pub fn serving(mut self, serving: ServingConfig) -> Self {
        self.serving = serving;
        self
    }

    /// Builds the site.
    ///
    /// # Panics
    /// Panics with the error's text where [`Self::try_build`] returns one.
    pub fn build(self) -> DataCenter {
        self.try_build().unwrap_or_else(|e| panic!("{e}"))
    }

    /// Builds the site, or returns the storage error that stopped it: the
    /// archive backend failing to open (or replay) over the storage
    /// filesystem, or a collector shard failing to open its own.
    pub fn try_build(self) -> Result<DataCenter, FsError> {
        let DataCenterBuilder {
            config,
            seed,
            metrics,
            archive_fs,
            serving,
        } = self;
        let archive_fs = archive_fs.unwrap_or_else(|| Arc::new(SimFs::new()));
        DataCenter::build(config, seed, metrics, archive_fs, serving)
    }
}

impl DataCenter {
    /// Starts a [`DataCenterBuilder`] over `config`.
    pub fn builder(config: DataCenterConfig) -> DataCenterBuilder {
        DataCenterBuilder::new(config)
    }

    /// Constructor body behind [`DataCenterBuilder::try_build`].
    fn build(
        config: DataCenterConfig,
        seed: u64,
        metrics: MetricsRegistry,
        archive_fs: Arc<dyn StorageFs>,
        serving: ServingConfig,
    ) -> Result<Self, FsError> {
        let mut root_rng = SimRng::new(seed);
        let weather_rng = root_rng.fork();
        let mut workload_rng = root_rng.fork();
        let node_count = config.node_count();
        let registry = SensorRegistry::new();
        let sensors = Sensors::register(&registry, node_count, config.racks);
        let bus = Self::build_bus(&config, registry.clone(), metrics, Arc::clone(&archive_fs))?;
        let cluster = Self::build_cluster(&config, &registry)?;
        let racks = build_racks(
            config.racks,
            config.nodes_per_rack,
            config.max_rack_inlet_offset_c,
        );
        let nodes = (0..node_count)
            .map(|i| {
                Node::new(
                    NodeId(i as u32),
                    config.node.clone(),
                    config.initial_setpoint_c,
                )
            })
            .collect();
        let workload = WorkloadGenerator::new(config.workload.clone(), &mut workload_rng);
        Ok(DataCenter {
            clock: SimClock::new(config.tick_ms),
            weather: Weather::new(config.weather.clone()),
            cooling: CoolingPlant::new(config.cooling.clone(), config.initial_setpoint_c),
            power: PowerDistribution::new(config.power.clone()),
            network: Network::new(config.network.clone(), config.racks),
            scheduler: Scheduler::new(node_count, Box::new(FirstFit)),
            injector: FaultInjector::new(),
            telemetry_faults: None,
            leak_extra_gib: vec![0.0; node_count],
            leak_rate_gib_per_min: vec![0.0; node_count],
            contention_severity: vec![0.0; node_count],
            hog_demand: vec![0.0; config.racks],
            records: HashMap::new(),
            finished: Vec::new(),
            arrivals_total: 0,
            next_custom_id: 0,
            last_cooling: CoolingOutput {
                power_kw: 0.0,
                delivered_inlet_c: config.initial_setpoint_c,
                active_mode: CoolingMode::FreeCooling,
                chiller_cop: 0.0,
            },
            last_it_kw: 0.0,
            last_utility_kw: 0.0,
            last_loss_kw: 0.0,
            it_energy_kwh: 0.0,
            utility_energy_kwh: 0.0,
            weather_rng,
            workload_rng,
            nodes,
            racks,
            workload,
            registry,
            bus,
            cluster,
            archive_fs,
            sensors,
            config,
            serving,
        })
    }

    /// Stands up the collector-shard hierarchy when `config.shards > 0`.
    /// The shards archive on durable backends even when the site itself is
    /// in-memory, so a node-failure rebalance can replay the failed
    /// shard's slice losslessly.
    fn build_cluster(
        config: &DataCenterConfig,
        registry: &SensorRegistry,
    ) -> Result<Option<Arc<ClusterCoordinator>>, FsError> {
        if config.shards == 0 {
            return Ok(None);
        }
        let storage = match config.storage.backend {
            BackendKind::InMemory => StorageConfig::hybrid(),
            _ => config.storage.clone(),
        };
        let cluster = ClusterCoordinator::new(
            ClusterConfig {
                shards: config.shards,
                per_sensor_capacity: config.store_capacity,
                rollups: config.rollups.clone(),
                storage,
                ..ClusterConfig::default()
            },
            registry.clone(),
        )?;
        Ok(Some(Arc::new(cluster)))
    }

    /// Builds a multi-tenant query/subscription frontend over `net`, wired
    /// to this site's query plane ([`Self::plane`]), telemetry bus and
    /// metrics registry. Quotas and cache sizing come from
    /// [`DataCenterBuilder::serving`]. Drive it with
    /// [`Server::poll`] from the experiment loop (or a
    /// [`oda_serve::net::RealNet`] listener thread).
    pub fn serve<N: ServerNet>(&self, net: Arc<N>) -> Server<N> {
        Server::new(
            net,
            self.serving.clone(),
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

    /// Builds the archive backend selected by `config.storage` over `fs`
    /// (replaying any durable state into a fresh hot store) and attaches it
    /// to a new bus.
    fn build_bus(
        config: &DataCenterConfig,
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

    // ----- accessors -------------------------------------------------------

    /// Current simulated time.
    pub fn now(&self) -> Timestamp {
        self.clock.now()
    }

    /// Site configuration.
    pub fn config(&self) -> &DataCenterConfig {
        &self.config
    }

    /// The sensor registry (shared with the bus).
    pub fn registry(&self) -> &SensorRegistry {
        &self.registry
    }

    /// The telemetry bus (subscribe here).
    pub fn bus(&self) -> &Arc<TelemetryBus> {
        &self.bus
    }

    /// The sharded collector hierarchy, when the site was built with
    /// [`DataCenterBuilder::shards`] (or `config.shards`) > 0.
    pub fn cluster(&self) -> Option<&Arc<ClusterCoordinator>> {
        self.cluster.as_ref()
    }

    /// The archive store behind the bus.
    pub fn store(&self) -> &Arc<TimeSeriesStore> {
        self.bus.store()
    }

    /// The archive backend behind the bus (in-memory, persistent or hybrid).
    pub fn archive(&self) -> &Arc<dyn StorageBackend> {
        self.bus.archive()
    }

    /// The metrics registry the telemetry plane records into.
    pub fn metrics(&self) -> &MetricsRegistry {
        self.bus.metrics()
    }

    /// Interned sensor ids.
    pub fn sensors(&self) -> &Sensors {
        &self.sensors
    }

    /// The scheduler (read access for experiments).
    pub fn scheduler(&self) -> &Scheduler {
        &self.scheduler
    }

    /// Node state (read access; analytics should prefer telemetry).
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Rack layout.
    pub fn racks(&self) -> &[Rack] {
        &self.racks
    }

    /// Ground truth: the fault schedule.
    pub fn fault_schedule(&self) -> &[Fault] {
        self.injector.schedule()
    }

    /// Ground truth: whether `node` has an active fault at `t`.
    pub fn node_is_faulty(&self, node: NodeId, t: Timestamp) -> bool {
        self.injector.node_is_faulty(node, t)
    }

    /// Records of all finished jobs, in completion order.
    pub fn finished_jobs(&self) -> &[JobRecord] {
        &self.finished
    }

    /// Records of currently-running jobs.
    pub fn running_jobs(&self) -> Vec<&JobRecord> {
        self.records.values().collect()
    }

    /// Total jobs submitted so far.
    pub fn arrivals_total(&self) -> u64 {
        self.arrivals_total
    }

    // ----- actuation (the knobs prescriptive ODA turns) --------------------

    /// Sets one node's DVFS frequency, GHz.
    pub fn set_node_freq(&mut self, node: NodeId, ghz: f64) {
        self.nodes[node.index()].set_freq_ghz(ghz);
    }

    /// Sets every node's DVFS frequency, GHz.
    pub fn set_all_freq(&mut self, ghz: f64) {
        for n in &mut self.nodes {
            n.set_freq_ghz(ghz);
        }
    }

    /// Sets one node's fan speed (fraction).
    pub fn set_node_fan(&mut self, node: NodeId, speed: f64) {
        self.nodes[node.index()].set_fan_speed(speed);
    }

    /// Sets the cooling-loop inlet setpoint, °C.
    pub fn set_cooling_setpoint(&mut self, c: f64) {
        self.cooling.set_setpoint_c(c);
    }

    /// Current cooling setpoint, °C.
    pub fn cooling_setpoint(&self) -> f64 {
        self.cooling.setpoint_c()
    }

    /// Sets the cooling mode knob.
    pub fn set_cooling_mode(&mut self, mode: CoolingMode) {
        self.cooling.set_mode(mode);
    }

    /// Swaps the placement policy.
    pub fn set_placement_policy(&mut self, policy: Box<dyn PlacementPolicy>) {
        self.scheduler.set_policy(policy);
    }

    /// Schedules a fault.
    pub fn inject_fault(&mut self, fault: Fault) {
        self.injector.inject(fault);
    }

    /// Installs a telemetry fault schedule, replacing any previous one.
    ///
    /// Patterns are resolved against the site's sensor registry immediately;
    /// corruption starts affecting published readings from the next tick in
    /// a schedule window. The plant itself is untouched — only what the
    /// analytics layer observes degrades.
    pub fn set_fault_schedule(&mut self, schedule: FaultSchedule) {
        self.telemetry_faults = Some(TelemetryFaultState::new(schedule, &self.registry));
    }

    /// The installed telemetry fault state, if any (degradation ground
    /// truth: suppression/corruption counters and the active schedule).
    pub fn telemetry_faults(&self) -> Option<&TelemetryFaultState> {
        self.telemetry_faults.as_ref()
    }

    /// Submits a custom job directly (bypassing the workload generator).
    ///
    /// The job id is remapped into a reserved range so it cannot collide
    /// with generated ids; the remapped id is returned. Used for stress
    /// testing and plan-based/what-if scheduling experiments.
    pub fn submit_job(&mut self, mut job: crate::scheduler::job::Job) -> JobId {
        self.next_custom_id += 1;
        job.id = JobId(CUSTOM_JOB_ID_BASE + self.next_custom_id);
        job.submit = self.clock.now();
        job.state = JobState::Queued;
        job.assigned.clear();
        job.start = None;
        job.end = None;
        let id = job.id;
        self.arrivals_total += 1;
        self.scheduler.submit(job);
        id
    }

    /// Submits a fleet-wide stress test: `nodes` single-node compute-bound
    /// jobs of `duration_s` seconds each (at nominal clock).
    ///
    /// Periodic stress testing is the technique the paper's survey cites
    /// for improving infrastructure anomaly detection (Bortot et al.):
    /// pushing the plant and the nodes to a *known* operating point makes
    /// thermal and cooling deviations stand out far above their idle-load
    /// signal. Returns the submitted job ids.
    pub fn submit_stress_test(&mut self, nodes: u32, duration_s: f64) -> Vec<JobId> {
        (0..nodes)
            .map(|_| {
                let job = crate::scheduler::job::Job::new(
                    JobId(0), // remapped by submit_job
                    u32::MAX, // reserved "operator" user
                    JobClass::ComputeBound,
                    1,
                    duration_s,
                    duration_s * 1.5,
                    self.clock.now(),
                );
                self.submit_job(job)
            })
            .collect()
    }

    // ----- simulation loop --------------------------------------------------

    /// Advances one tick.
    pub fn step(&mut self) {
        let now = self.clock.advance();
        let dt_s = self.clock.tick_secs();

        // 1. Weather.
        let outside_c = self.weather.step(now, &mut self.weather_rng);

        // 2. Faults.
        let (on, off) = self.injector.step(now);
        for f in on {
            self.apply_fault(&f.kind, true);
        }
        for f in off {
            self.apply_fault(&f.kind, false);
        }
        // Telemetry faults: activations may carry load (BurstLoad).
        if self.telemetry_faults.is_some() {
            let activated: Vec<TelemetryFault> = self
                .telemetry_faults
                .as_mut()
                .map(|tf| tf.step(now))
                .unwrap_or_default();
            for f in activated {
                match f.kind {
                    TelemetryFaultKind::BurstLoad { jobs, duration_s } => {
                        self.submit_stress_test(jobs, duration_s);
                    }
                    TelemetryFaultKind::NodeFailure { node } => {
                        // Chaos-harness node failure: fail the collector
                        // shard hosted on that node and rebalance its slice
                        // onto the survivors from the durable tier.
                        if let Some(cluster) = &self.cluster {
                            cluster.apply_node_failure(node.index());
                        }
                    }
                    _ => {}
                }
            }
        }
        // Memory leaks grow while active.
        for i in 0..self.nodes.len() {
            if self.leak_rate_gib_per_min[i] > 0.0 {
                self.leak_extra_gib[i] += self.leak_rate_gib_per_min[i] * dt_s / 60.0;
            }
        }

        // 3. Arrivals.
        for job in self.workload.arrivals(now, &mut self.workload_rng) {
            self.arrivals_total += 1;
            self.scheduler.submit(job);
        }

        // 4. Reap finished jobs, then schedule.
        for id in self.scheduler.reap(now) {
            if let Some(mut rec) = self.records.remove(&id) {
                let job = self.scheduler.job(id).expect("reaped job exists");
                rec.end = job.end;
                rec.state = job.state;
                self.finished.push(rec);
            }
        }
        let ctx = self.placement_context();
        for id in self.scheduler.schedule(now, &ctx) {
            let job = self.scheduler.job(id).expect("started job exists");
            self.records.insert(
                id,
                JobRecord {
                    id,
                    user: job.user,
                    class: job.class,
                    nodes: job.assigned.len() as u32,
                    submit: job.submit,
                    start: job.start,
                    end: None,
                    state: JobState::Running,
                    requested_walltime_s: job.requested_walltime_s,
                    work_node_seconds: job.work_node_seconds,
                    mean_cpu: 0.0,
                    var_cpu: 0.0,
                    mean_mem_gib: 0.0,
                    mean_net_gbps: 0.0,
                    energy_j: 0.0,
                    samples: 0,
                },
            );
        }

        // 5. Job demands → network → progress; set node loads.
        let running = self.scheduler.running_ids();
        let mut demands: HashMap<JobId, (f64, f64, f64)> = HashMap::new(); // cpu, mem, net
        for &id in &running {
            let job = self.scheduler.job(id).expect("running job exists");
            let x = job.phase_position(job.elapsed_s(now));
            let cpu = job.class.cpu_util(x);
            let mem = job.class.memory_gib(x);
            let net = job.class.net_gbps(x);
            demands.insert(id, (cpu, mem, net));
            // Inter-rack traffic: only jobs spanning >1 rack hit uplinks.
            let mut job_racks: Vec<RackId> = job
                .assigned
                .iter()
                .map(|&n| rack_of(n, self.config.nodes_per_rack))
                .collect();
            job_racks.sort();
            job_racks.dedup();
            if job_racks.len() > 1 {
                let total_net = net * job.assigned.len() as f64;
                self.network.offer(id.0, job_racks, total_net);
            }
        }
        // Network hogs inject external demand.
        for (r, &demand) in self.hog_demand.iter().enumerate() {
            if demand > 0.0 {
                self.network
                    .offer(u64::MAX - r as u64, vec![RackId(r as u32)], demand);
            }
        }
        let net_factors = self.network.resolve();

        // Reset loads; running jobs will set them below.
        let mut node_cpu = vec![0.0f64; self.nodes.len()];
        let mut node_mem = vec![0.0f64; self.nodes.len()];
        for &id in &running {
            let (cpu, mem, net) = demands[&id];
            let net_factor = net_factors.get(&id.0).copied().unwrap_or(1.0);
            let job = self.scheduler.job(id).expect("running job exists");
            // Mean effective compute speed across assigned nodes, including
            // CPU-contention theft.
            let mut speed_sum = 0.0;
            let mut power_sum = 0.0;
            for &n in &job.assigned {
                let steal = self.contention_severity[n.index()];
                speed_sum += self.nodes[n.index()].compute_speed() * (1.0 - steal);
                power_sum += self.nodes[n.index()].power_w();
                // A leaking node thrashes once memory saturates.
                node_cpu[n.index()] = (cpu + steal).min(1.0);
                node_mem[n.index()] = mem + self.leak_extra_gib[n.index()];
            }
            let mean_speed = speed_sum / job.assigned.len() as f64;
            // Swap thrash: if any assigned node's memory is saturated,
            // progress collapses.
            let mem_cap = self.config.node.memory_gib;
            let thrash = job
                .assigned
                .iter()
                .any(|&n| node_mem[n.index()] > mem_cap * 0.95);
            let rate =
                job.class.progress_rate(mean_speed, net_factor) * if thrash { 0.25 } else { 1.0 };
            let nodes_count = job.assigned.len() as f64;
            if let Some(j) = self.scheduler.job_mut(id) {
                j.progress_node_seconds += rate * dt_s * nodes_count;
            }
            if let Some(rec) = self.records.get_mut(&id) {
                rec.accumulate(cpu, mem, net, power_sum, dt_s);
            }
        }
        // Idle nodes with contention faults still show the rogue process.
        for (cpu, &steal) in node_cpu.iter_mut().zip(&self.contention_severity) {
            // odalint: allow(float-eq) -- exact zero is the 'no job scheduled' sentinel, not a computed value
            if *cpu == 0.0 && steal > 0.0 {
                *cpu = steal;
            }
        }
        // A leaking daemon consumes memory whether or not a job is
        // scheduled on the node.
        for (mem, &leak) in node_mem.iter_mut().zip(&self.leak_extra_gib) {
            // odalint: allow(float-eq) -- exact zero is the 'no job scheduled' sentinel, not a computed value
            if *mem == 0.0 && leak > 0.0 {
                *mem = leak;
            }
        }

        // 6. Node physics.
        let inlet = self.last_cooling.delivered_inlet_c;
        let mut it_w = 0.0;
        for (i, node) in self.nodes.iter_mut().enumerate() {
            node.set_load(node_cpu[i], node_mem[i]);
            let rack = rack_of(NodeId(i as u32), self.config.nodes_per_rack);
            let offset = self.racks[rack.index()].inlet_offset_c;
            it_w += node.step(dt_s, inlet + offset);
        }
        let it_kw = it_w / 1_000.0;

        // 7. Plant + distribution + KPIs.
        let cooling_out = self.cooling.step(it_kw, outside_c);
        let power_out = self.power.step(it_kw, cooling_out.power_kw);
        self.last_cooling = cooling_out;
        self.last_it_kw = it_kw;
        self.last_utility_kw = power_out.utility_kw;
        self.last_loss_kw = power_out.distribution_loss_kw;
        let dt_h = dt_s / 3_600.0;
        self.it_energy_kwh += it_kw * dt_h;
        self.utility_energy_kwh += power_out.utility_kw * dt_h;

        // 8. Telemetry.
        if self
            .clock
            .ticks()
            .is_multiple_of(self.config.sample_every_ticks)
        {
            self.publish(now, outside_c);
        }
    }

    /// Runs `n` ticks.
    pub fn run_ticks(&mut self, n: u64) {
        for _ in 0..n {
            self.step();
        }
    }

    /// Runs for `hours` of simulated time.
    pub fn run_for_hours(&mut self, hours: f64) {
        let ticks = (hours * 3_600_000.0 / self.config.tick_ms as f64).ceil() as u64;
        self.run_ticks(ticks);
    }

    /// Current PUE (utility / IT), `1.0` when idle.
    pub fn pue(&self) -> f64 {
        if self.last_it_kw > 1e-9 {
            self.last_utility_kw / self.last_it_kw
        } else {
            1.0
        }
    }

    /// Operational snapshot.
    pub fn snapshot(&self) -> Snapshot {
        let temps: Vec<f64> = self.nodes.iter().map(|n| n.temp_c()).collect();
        let stats = self.scheduler.stats();
        Snapshot {
            now: self.clock.now(),
            outside_c: self.weather.current_c(),
            setpoint_c: self.cooling.setpoint_c(),
            inlet_c: self.last_cooling.delivered_inlet_c,
            on_chiller: self.last_cooling.active_mode == CoolingMode::Chiller,
            it_power_kw: self.last_it_kw,
            cooling_power_kw: self.last_cooling.power_kw,
            total_power_kw: self.last_utility_kw,
            pue: self.pue(),
            avg_node_temp_c: temps.iter().sum::<f64>() / temps.len().max(1) as f64,
            max_node_temp_c: temps.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            queue_len: self.scheduler.queue_len(),
            running: self.scheduler.running_len(),
            utilization: self.scheduler.utilization(self.nodes.len()),
            completed: stats.completed,
            killed: stats.killed,
            it_energy_kwh: self.it_energy_kwh,
            utility_energy_kwh: self.utility_energy_kwh,
        }
    }

    // ----- internals --------------------------------------------------------

    fn placement_context(&self) -> PlacementContext {
        PlacementContext {
            node_temps_c: self.nodes.iter().map(|n| n.temp_c()).collect(),
            node_power_w: self.nodes.iter().map(|n| n.power_w()).collect(),
            rack_inlet_offsets_c: self.racks.iter().map(|r| r.inlet_offset_c).collect(),
            nodes_per_rack: self.config.nodes_per_rack,
        }
    }

    fn apply_fault(&mut self, kind: &FaultKind, activate: bool) {
        match *kind {
            FaultKind::FanFailure { node } => {
                self.nodes[node.index()].set_fan_failed(activate);
                if !activate {
                    self.nodes[node.index()].set_fan_speed(0.3);
                }
            }
            FaultKind::ThermalDegradation { node, factor } => {
                self.nodes[node.index()].set_thermal_degradation(if activate {
                    factor
                } else {
                    1.0
                });
            }
            FaultKind::MemoryLeak { node, gib_per_min } => {
                self.leak_rate_gib_per_min[node.index()] = if activate { gib_per_min } else { 0.0 };
                if !activate {
                    self.leak_extra_gib[node.index()] = 0.0;
                }
            }
            FaultKind::CpuContention { node, severity } => {
                self.contention_severity[node.index()] = if activate {
                    severity.clamp(0.0, 1.0)
                } else {
                    0.0
                };
            }
            FaultKind::NetworkHog { rack, demand_gbps } => {
                self.hog_demand[rack.index()] = if activate { demand_gbps } else { 0.0 };
            }
            FaultKind::CoolingDegradation { factor } => {
                self.cooling
                    .set_degradation(if activate { factor } else { 1.0 });
            }
        }
    }

    fn publish(&mut self, now: Timestamp, outside_c: f64) {
        // Collect the nominal readings first, then pass each through the
        // telemetry-fault corruptor (if installed) on its way to the bus.
        let mut nominal: Vec<(SensorId, f64)> = Vec::with_capacity(64);
        let mut one = |sensor, value| nominal.push((sensor, value));
        let s = &self.sensors;
        one(s.outside_temp, outside_c);
        one(s.cooling_power, self.last_cooling.power_kw);
        one(s.cooling_setpoint, self.cooling.setpoint_c());
        one(s.cooling_inlet, self.last_cooling.delivered_inlet_c);
        one(
            s.cooling_mode,
            if self.last_cooling.active_mode == CoolingMode::Chiller {
                1.0
            } else {
                0.0
            },
        );
        one(s.cooling_cop, self.last_cooling.chiller_cop);
        one(s.utility_power, self.last_utility_kw);
        one(s.it_power, self.last_it_kw);
        one(s.loss_power, self.last_loss_kw);
        one(s.pue, self.pue());
        for (i, node) in self.nodes.iter().enumerate() {
            one(s.node_power[i], node.power_w());
            one(s.node_temp[i], node.temp_c());
            one(s.node_util[i], node.utilization());
            one(s.node_freq[i], node.freq_ghz());
            one(s.node_mem[i], node.memory_used_gib());
            one(s.node_sys_mem[i], 2.0 + self.leak_extra_gib[i]);
            one(s.node_fan[i], node.fan_speed());
        }
        for r in 0..self.racks.len() {
            let link = self.network.link(RackId(r as u32));
            one(s.rack_offered[r], link.offered_gbps);
            one(s.rack_contention[r], link.contention_factor);
        }
        let stats = self.scheduler.stats();
        one(s.queue_len, self.scheduler.queue_len() as f64);
        one(s.running, self.scheduler.running_len() as f64);
        one(s.sched_util, self.scheduler.utilization(self.nodes.len()));
        one(s.completed_total, stats.completed as f64);
        one(s.killed_total, stats.killed as f64);
        one(s.active_jobs, self.scheduler.running_len() as f64);
        one(s.arrivals_total, self.arrivals_total as f64);
        // The tick is the unit of ingest: its post-corruption batches are
        // built once and handed on whole.
        let mut tick: Vec<ReadingBatch> = Vec::with_capacity(nominal.len());
        for (sensor, value) in nominal {
            let reading = Reading::new(now, value);
            let reading = match self.telemetry_faults.as_mut() {
                Some(tf) => tf.corrupt(sensor, reading),
                None => Some(reading),
            };
            tick.extend(reading.map(|r| ReadingBatch::single(sensor, r)));
        }
        self.bus.publish_many(&tick);
        // The shard hierarchy ingests the identical (post-corruption)
        // stream, so sharded and unsharded queries answer bit-identically.
        if let Some(cluster) = &self.cluster {
            cluster.ingest_many(tick);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_quiet_hour_produces_sane_physics() {
        let mut dc = DataCenter::builder(DataCenterConfig::tiny())
            .seed(1)
            .build();
        dc.run_for_hours(1.0);
        let s = dc.snapshot();
        assert!(
            s.it_power_kw > 0.5,
            "8 idle nodes still draw power: {}",
            s.it_power_kw
        );
        assert!(s.total_power_kw > s.it_power_kw);
        assert!(s.pue > 1.0 && s.pue < 2.5, "pue {}", s.pue);
        assert!(s.avg_node_temp_c > 20.0 && s.avg_node_temp_c < 95.0);
        assert!(s.it_energy_kwh > 0.0);
    }

    #[test]
    fn workload_flows_through_scheduler() {
        let mut dc = DataCenter::builder(DataCenterConfig::tiny())
            .seed(2)
            .build();
        dc.run_for_hours(6.0);
        assert!(dc.arrivals_total() > 50);
        let s = dc.snapshot();
        assert!(
            s.completed + s.killed > 10,
            "{} finished",
            s.completed + s.killed
        );
        assert!(!dc.finished_jobs().is_empty());
        // Records carry accumulated features.
        let rec = &dc.finished_jobs()[0];
        assert!(rec.samples > 0);
        assert!(rec.mean_cpu > 0.0);
        assert!(rec.energy_j > 0.0);
    }

    #[test]
    fn failed_pre_restart_flush_is_counted_and_the_restart_completes() {
        let fs = Arc::new(SimFs::new());
        let metrics = MetricsRegistry::new();
        let mut storage = StorageConfig::persistent();
        // Never sync on the ingest path: the WAL tail waits for the
        // pre-restart flush.
        storage.engine.wal_sync_every = usize::MAX;
        let mut dc = DataCenter::builder(DataCenterConfig::tiny())
            .seed(9)
            .metrics(metrics.clone())
            .storage(storage)
            .storage_fs(Arc::clone(&fs) as Arc<dyn StorageFs>)
            .build();
        dc.run_for_hours(0.1);
        let wal_errors = || metrics.snapshot().counter("storage_wal_errors_total");
        assert_eq!(wal_errors().unwrap_or(0), 0);
        fs.fail_next_syncs(1);
        let report = dc.restart_archive();
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

    #[test]
    fn a_segment_that_rots_before_replay_fails_the_restart_by_name() {
        let fs = Arc::new(RereadRot {
            inner: SimFs::new(),
            seen: Default::default(),
        });
        let mut storage = StorageConfig::persistent();
        storage.engine.segment_max_readings = 256;
        let mut dc = DataCenter::builder(DataCenterConfig::tiny())
            .seed(9)
            .storage(storage)
            .storage_fs(Arc::clone(&fs) as Arc<dyn StorageFs>)
            .build();
        dc.run_for_hours(0.1);
        // Sealed segments were written, never read: the restart's open
        // reads (and verifies) each once, its replay reads them again.
        assert!(fs.inner.exists("seg-000000000001.seg"));
        let published = dc.bus().published();
        let err = dc
            .restart_archive()
            .expect_err("replay must not skip a bad segment");
        assert!(
            matches!(&err, FsError::Io(msg) if msg.contains("seg-000000000001.seg")),
            "the error names the file: {err}"
        );
        // The site keeps its pre-restart bus.
        assert_eq!(dc.bus().published(), published);
    }

    #[test]
    fn try_build_returns_a_bad_segment_by_name_instead_of_panicking() {
        let fs = Arc::new(RereadRot {
            inner: SimFs::new(),
            seen: Default::default(),
        });
        let mut storage = StorageConfig::persistent();
        storage.engine.segment_max_readings = 256;
        let site = || {
            DataCenter::builder(DataCenterConfig::tiny())
                .seed(9)
                .storage(storage.clone())
                .storage_fs(Arc::clone(&fs) as Arc<dyn StorageFs>)
        };
        let mut dc = site().try_build().expect("a fresh filesystem opens");
        dc.run_for_hours(0.1);
        assert!(fs.inner.exists("seg-000000000001.seg"));
        // A second site over the same files verifies each segment at open
        // and finds it rotten at replay.
        let err = site()
            .try_build()
            .err()
            .expect("replay must not skip a bad segment");
        assert!(
            matches!(&err, FsError::Io(msg) if msg.contains("seg-000000000001.seg")),
            "the error names the file: {err}"
        );
    }

    #[test]
    fn default_built_sites_do_not_share_metrics() {
        let mut a = DataCenter::builder(DataCenterConfig::tiny())
            .seed(5)
            .build();
        let b = DataCenter::builder(DataCenterConfig::tiny())
            .seed(5)
            .build();
        a.run_for_hours(0.1);
        let published = |dc: &DataCenter| dc.metrics().snapshot().counter("bus_publish_total");
        let a_count = published(&a).unwrap_or(0);
        assert!(a_count > 0);
        assert_eq!(published(&b), Some(0), "B never published");
        // B's `/metrics` serves B's registry, not A's counts.
        let net = Arc::new(oda_serve::net::SimNet::new());
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

    #[test]
    fn telemetry_is_archived() {
        let mut dc = DataCenter::builder(DataCenterConfig::tiny())
            .seed(3)
            .build();
        dc.run_for_hours(0.5);
        let store = dc.store();
        let s = dc.sensors();
        assert!(store.series_len(s.pue) > 100);
        assert!(store.series_len(s.node_power[0]) > 100);
        assert!(store.latest(s.outside_temp).is_some());
    }

    #[test]
    fn archive_maintains_rollup_tiers_online() {
        use oda_telemetry::query::{Aggregation, Query, QueryEngine, TimeRange};

        let mut dc = DataCenter::builder(DataCenterConfig::tiny())
            .seed(11)
            .build();
        dc.run_for_hours(0.5);
        // The default rollup layout is wired through DataCenterConfig, so the
        // archive reports non-empty tier occupancy after half an hour.
        let report = dc.store().health_report();
        assert!(!report.rollups.is_empty(), "rollup occupancy missing");
        assert!(
            report.rollups.iter().any(|t| t.buckets > 0),
            "no rollup buckets folded: {:?}",
            report.rollups
        );
        // A long-window fleet mean over PUE is served from tiers: the planner
        // records a hit and avoids rescanning most raw readings.
        let engine = QueryEngine::new(dc.store());
        let before = dc.metrics().snapshot();
        let mean = Query::sensors(dc.sensors().pue)
            .range(TimeRange::all())
            .aggregate(Aggregation::Mean)
            .run(&engine)
            .scalar()
            .expect("pue series is populated");
        assert!(mean > 1.0 && mean < 2.5, "fleet pue mean {mean}");
        let after = dc.metrics().snapshot();
        let delta =
            |name: &str| after.counter(name).unwrap_or(0) - before.counter(name).unwrap_or(0);
        assert_eq!(
            delta("query_tier_hit_total"),
            1,
            "long window should tier-hit"
        );
        assert!(delta("query_readings_avoided_total") > 0);
    }

    #[test]
    fn same_seed_same_trajectory() {
        let run = |seed| {
            let mut dc = DataCenter::builder(DataCenterConfig::tiny())
                .seed(seed)
                .build();
            dc.run_for_hours(2.0);
            let s = dc.snapshot();
            (s.it_power_kw, s.completed, s.pue)
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn fan_failure_fault_heats_the_node() {
        let mut dc = DataCenter::builder(DataCenterConfig::tiny())
            .seed(4)
            .build();
        dc.inject_fault(Fault::new(
            FaultKind::FanFailure { node: NodeId(0) },
            Timestamp::from_mins(10),
            Timestamp::from_mins(120),
        ));
        dc.run_for_hours(1.0);
        let victim = dc.node(NodeId(0)).temp_c();
        // Compare against the same node position in a fault-free twin.
        let mut clean = DataCenter::builder(DataCenterConfig::tiny())
            .seed(4)
            .build();
        clean.run_for_hours(1.0);
        let healthy = clean.node(NodeId(0)).temp_c();
        assert!(
            victim > healthy + 3.0,
            "victim {victim} vs healthy {healthy}"
        );
        assert!(dc.node_is_faulty(NodeId(0), Timestamp::from_mins(30)));
    }

    #[test]
    fn dvfs_knob_reduces_it_power() {
        let mut fast = DataCenter::builder(DataCenterConfig::tiny())
            .seed(5)
            .build();
        fast.run_for_hours(2.0);
        let mut slow = DataCenter::builder(DataCenterConfig::tiny())
            .seed(5)
            .build();
        slow.set_all_freq(1.5);
        slow.run_for_hours(2.0);
        assert!(
            slow.snapshot().it_energy_kwh < fast.snapshot().it_energy_kwh * 0.95,
            "slow {} vs fast {}",
            slow.snapshot().it_energy_kwh,
            fast.snapshot().it_energy_kwh
        );
    }

    #[test]
    fn cooling_degradation_fault_raises_pue() {
        let mut dc = DataCenter::builder(DataCenterConfig::tiny())
            .seed(5)
            .build();
        dc.inject_fault(Fault::new(
            FaultKind::CoolingDegradation { factor: 3.0 },
            Timestamp::from_mins(30),
            Timestamp::from_mins(240),
        ));
        dc.run_for_hours(0.25); // before fault
        let before = dc.snapshot().pue;
        dc.run_for_hours(1.75); // fault active
        let during = dc.snapshot().pue;
        assert!(during > before, "pue {before} -> {during}");
    }

    #[test]
    fn custom_jobs_and_stress_tests_run() {
        let mut dc = DataCenter::builder(DataCenterConfig::tiny())
            .seed(12)
            .build();
        let ids = dc.submit_stress_test(8, 300.0);
        assert_eq!(ids.len(), 8);
        // Ids are in the reserved range and unique.
        let mut sorted = ids.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), 8);
        assert!(ids.iter().all(|id| id.0 >= CUSTOM_JOB_ID_BASE));
        dc.run_for_hours(0.25);
        // All stress jobs finished and drove the fleet to high utilization
        // while running.
        for id in &ids {
            let job = dc.scheduler().job(*id).expect("stress job exists");
            assert_eq!(job.state, JobState::Completed, "{id:?}");
        }
        // Stress load is visible in telemetry: peak IT power well above
        // idle.
        let q = oda_telemetry::query::QueryEngine::new(dc.store());
        let it = dc.registry().lookup("/facility/power/it_kw").unwrap();
        let peak = oda_telemetry::query::Query::sensors(it)
            .aggregate(oda_telemetry::query::Aggregation::Max)
            .run(&q)
            .scalar()
            .unwrap();
        let idle_estimate = dc.node_count() as f64 * 0.1; // ~100 W/node
        assert!(peak > idle_estimate * 2.0, "peak {peak} kW");
    }

    #[test]
    fn stress_test_sharpens_thermal_fault_signal() {
        // The Bortot-style claim: a known high-load operating point makes
        // a thermal fault's absolute temperature deviation much larger
        // than at idle.
        let delta_at = |stress: bool| {
            let mut dc = DataCenter::builder(DataCenterConfig {
                workload: WorkloadConfig {
                    mean_interarrival_s: 1e9, // no background jobs
                    ..WorkloadConfig::default()
                },
                ..DataCenterConfig::tiny()
            })
            .seed(13)
            .build();
            dc.inject_fault(Fault::new(
                FaultKind::FanFailure { node: NodeId(0) },
                Timestamp::ZERO,
                Timestamp::from_hours(2),
            ));
            if stress {
                dc.submit_stress_test(8, 1_800.0);
            }
            dc.run_for_hours(0.5);
            dc.node(NodeId(0)).temp_c() - dc.node(NodeId(1)).temp_c()
        };
        let idle_delta = delta_at(false);
        let stress_delta = delta_at(true);
        assert!(
            stress_delta > idle_delta * 2.0,
            "stress {stress_delta:.1} °C vs idle {idle_delta:.1} °C"
        );
    }

    #[test]
    fn network_hog_congests_the_rack_uplink() {
        let mut dc = DataCenter::builder(DataCenterConfig::tiny())
            .seed(14)
            .build();
        dc.inject_fault(Fault::new(
            FaultKind::NetworkHog {
                rack: RackId(0),
                demand_gbps: 100.0,
            },
            Timestamp::from_mins(5),
            Timestamp::from_hours(2),
        ));
        dc.run_for_hours(1.0);
        let q = oda_telemetry::query::QueryEngine::new(dc.store());
        let contention = dc.registry().lookup("/hw/rack0/uplink_contention").unwrap();
        let min = oda_telemetry::query::Query::sensors(contention)
            .aggregate(oda_telemetry::query::Aggregation::Min)
            .run(&q)
            .scalar()
            .unwrap();
        assert!(min < 0.4, "uplink must be heavily congested: {min}");
        // The other rack sees at most ordinary job-driven contention, far
        // milder than the hogged uplink.
        let other = dc.registry().lookup("/hw/rack1/uplink_contention").unwrap();
        let other_min = oda_telemetry::query::Query::sensors(other)
            .aggregate(oda_telemetry::query::Aggregation::Min)
            .run(&q)
            .scalar()
            .unwrap();
        assert!(
            min < other_min * 0.6,
            "hogged {min} vs ordinary {other_min}"
        );
    }

    #[test]
    fn cpu_contention_fault_shows_in_utilization_floor() {
        let mut dc = DataCenter::builder(DataCenterConfig {
            workload: WorkloadConfig {
                mean_interarrival_s: 1e9,
                ..WorkloadConfig::default()
            },
            ..DataCenterConfig::tiny()
        })
        .seed(15)
        .build();
        dc.inject_fault(Fault::new(
            FaultKind::CpuContention {
                node: NodeId(2),
                severity: 0.4,
            },
            Timestamp::from_mins(5),
            Timestamp::from_hours(2),
        ));
        dc.run_for_hours(0.5);
        // The idle victim shows the rogue process's utilization.
        assert!((dc.node(NodeId(2)).utilization() - 0.4).abs() < 1e-9);
        assert_eq!(dc.node(NodeId(3)).utilization(), 0.0);
    }

    #[test]
    fn memory_leak_grows_system_memory_telemetry() {
        let mut dc = DataCenter::builder(DataCenterConfig::tiny())
            .seed(16)
            .build();
        dc.inject_fault(Fault::new(
            FaultKind::MemoryLeak {
                node: NodeId(1),
                gib_per_min: 1.0,
            },
            Timestamp::ZERO,
            Timestamp::from_hours(2),
        ));
        dc.run_for_hours(1.0);
        let q = oda_telemetry::query::QueryEngine::new(dc.store());
        let sys = dc.registry().lookup("/sw/node1/sys_mem_gib").unwrap();
        let last = oda_telemetry::query::Query::sensors(sys)
            .aggregate(oda_telemetry::query::Aggregation::Last)
            .run(&q)
            .scalar()
            .unwrap();
        // 1 GiB/min for 60 min, base 2 GiB.
        assert!((last - 62.0).abs() < 3.0, "sys mem {last}");
        // The healthy node stays at the daemon baseline.
        let healthy = dc.registry().lookup("/sw/node0/sys_mem_gib").unwrap();
        let h = oda_telemetry::query::Query::sensors(healthy)
            .aggregate(oda_telemetry::query::Aggregation::Max)
            .run(&q)
            .scalar()
            .unwrap();
        assert!((h - 2.0).abs() < 1e-9);
    }

    #[test]
    fn fault_schedule_degrades_telemetry_not_physics() {
        let sched = |seed| {
            FaultSchedule::new(seed)
                .with(
                    TelemetryFaultKind::SensorDropout {
                        pattern: "/hw/node0/temp_c".into(),
                    },
                    Timestamp::from_mins(10),
                    Timestamp::from_mins(50),
                )
                .with(
                    TelemetryFaultKind::BurstLoad {
                        jobs: 4,
                        duration_s: 600.0,
                    },
                    Timestamp::from_mins(20),
                    Timestamp::from_mins(30),
                )
        };
        let mut clean = DataCenter::builder(DataCenterConfig::tiny())
            .seed(9)
            .build();
        clean.run_for_hours(1.0);
        let mut faulty = DataCenter::builder(DataCenterConfig::tiny())
            .seed(9)
            .build();
        faulty.set_fault_schedule(sched(9));
        faulty.run_for_hours(1.0);
        // The dropout leaves a hole in the archived series but the physics
        // still ran: the store simply saw fewer samples for that sensor.
        let temp0 = faulty.registry().lookup("/hw/node0/temp_c").unwrap();
        let in_window = |dc: &DataCenter| {
            dc.store()
                .range(temp0, Timestamp::from_mins(10), Timestamp::from_mins(50))
                .len()
        };
        assert_eq!(in_window(&faulty), 0, "dropout window must be empty");
        assert!(in_window(&clean) > 0, "clean run archives the window");
        let tf = faulty.telemetry_faults().unwrap();
        assert!(tf.suppressed() > 0);
        // The burst load reached the scheduler as extra operator jobs.
        assert!(
            faulty.scheduler().stats().completed + faulty.scheduler().running_len() as u64
                >= clean.scheduler().stats().completed,
        );
        // Same seed + same schedule replays identically.
        let mut again = DataCenter::builder(DataCenterConfig::tiny())
            .seed(9)
            .build();
        again.set_fault_schedule(sched(9));
        again.run_for_hours(1.0);
        assert_eq!(
            again.telemetry_faults().unwrap().suppressed(),
            tf.suppressed()
        );
        let a: Vec<_> = faulty.store().last_n(temp0, 20);
        let b: Vec<_> = again.store().last_n(temp0, 20);
        assert_eq!(a, b);
    }

    #[test]
    fn snapshot_fields_are_consistent() {
        let mut dc = DataCenter::builder(DataCenterConfig::tiny())
            .seed(9)
            .build();
        dc.run_for_hours(1.0);
        let s = dc.snapshot();
        assert!(s.max_node_temp_c >= s.avg_node_temp_c);
        assert!(s.utilization >= 0.0 && s.utilization <= 1.0);
        assert!(s.utility_energy_kwh >= s.it_energy_kwh);
    }
}
