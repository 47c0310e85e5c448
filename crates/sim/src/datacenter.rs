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
//! 7. on sampling ticks, every modelled quantity is sampled into one tick
//!    of readings and handed to the site's monitoring stack
//!    ([`oda_serve::site::Site`]), which publishes and archives it.
//!
//! The plant samples; the [`Site`] it owns stores and serves. What crosses
//! between them is that tick (after the monitoring-path faults have
//! corrupted it) and the node failures that take a collector shard down.
//!
//! Analytics mostly consume the same sensor streams a real deployment would
//! provide. The fault schedule is ground truth for *scoring* detectors
//! only. Job records are not: four cells (`JobDashboard`,
//! `AppFingerprinter`, `JobDurationPredictor`, `SchedulerDashboard`) take
//! [`JobRecord`]s as *input* through `set_records` / `set_training`, beside
//! the telemetry. ROADMAP item 13 moves them onto the monitoring data.

use crate::engine::{SimClock, SimRng};
use crate::facility::cooling::{CoolingConfig, CoolingMode, CoolingOutput, CoolingPlant};
use crate::facility::power::{PowerConfig, PowerDistribution};
use crate::facility::weather::{Weather, WeatherConfig};
use crate::faults::{Fault, FaultKind, FaultTimeline};
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
use oda_serve::site::{Site, SiteConfig};
use oda_telemetry::bus::TelemetryBus;
use oda_telemetry::cluster::ClusterCoordinator;
use oda_telemetry::metrics::MetricsRegistry;
use oda_telemetry::reading::{Reading, ReadingBatch, Timestamp};
use oda_telemetry::sensor::{SensorId, SensorKind, SensorRegistry, Unit};
use oda_telemetry::storage::{
    FsError, RecoveryReport, SimFs, StorageBackend, StorageConfig, StorageFs,
};
use oda_telemetry::store::{RollupConfig, TimeSeriesStore};
use serde::Serialize;
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
    /// Archive storage backend: in-memory (default) or persistent (WAL +
    /// segment files). The persistent backend runs over a deterministic
    /// in-memory filesystem unless an explicit one is injected via
    /// [`DataCenterBuilder::storage_fs`]. Its engine tuning is also every
    /// collector shard's, since shards always archive persistently.
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
    /// Registers every sensor, in the order the fields are listed here, so
    /// the ids a site hands out never move.
    fn register(reg: &SensorRegistry, nodes: usize, racks: usize) -> Self {
        use SensorKind::*;
        use Unit::*;
        let s = |name: &str, kind, unit| reg.register(name, kind, unit);
        // One sensor per node (or rack) `i`: `{prefix}{i}/{leaf}`.
        let each = |n: usize, prefix: &str, leaf: &str, kind, unit| -> Vec<SensorId> {
            (0..n)
                .map(|i| s(&format!("{prefix}{i}/{leaf}"), kind, unit))
                .collect()
        };
        Sensors {
            outside_temp: s("/facility/outside_temp", Temperature, Celsius),
            cooling_power: s("/facility/cooling/power_kw", Power, Kilowatts),
            cooling_setpoint: s("/facility/cooling/setpoint_c", Temperature, Celsius),
            cooling_inlet: s("/facility/cooling/inlet_c", Temperature, Celsius),
            cooling_mode: s("/facility/cooling/mode", Count, Dimensionless),
            cooling_cop: s("/facility/cooling/cop", Indicator, Dimensionless),
            utility_power: s("/facility/power/utility_kw", Power, Kilowatts),
            it_power: s("/facility/power/it_kw", Power, Kilowatts),
            loss_power: s("/facility/power/loss_kw", Power, Kilowatts),
            pue: s("/facility/pue", Indicator, Dimensionless),
            node_power: each(nodes, "/hw/node", "power_w", Power, Watts),
            node_temp: each(nodes, "/hw/node", "temp_c", Temperature, Celsius),
            node_util: each(nodes, "/hw/node", "util", Utilization, Fraction),
            node_freq: each(nodes, "/hw/node", "freq_ghz", Frequency, Megahertz),
            node_mem: each(nodes, "/hw/node", "mem_gib", Count, Dimensionless),
            node_fan: each(nodes, "/hw/node", "fan", Utilization, Fraction),
            node_sys_mem: each(nodes, "/sw/node", "sys_mem_gib", Count, Dimensionless),
            rack_offered: each(
                racks,
                "/hw/rack",
                "uplink_offered_gbps",
                Rate,
                BytesPerSecond,
            ),
            rack_contention: each(racks, "/hw/rack", "uplink_contention", Indicator, Fraction),
            queue_len: s("/sw/sched/queue_len", Count, Dimensionless),
            running: s("/sw/sched/running", Count, Dimensionless),
            sched_util: s("/sw/sched/utilization", Utilization, Fraction),
            completed_total: s("/sw/sched/completed_total", Count, Dimensionless),
            killed_total: s("/sw/sched/killed_total", Count, Dimensionless),
            active_jobs: s("/app/active_jobs", Count, Dimensionless),
            arrivals_total: s("/app/arrivals_total", Count, Dimensionless),
        }
    }
}

/// Aggregated behavioural record of a job, built up while it runs.
///
/// This is what Applications-pillar analytics consume for per-job feature
/// work (fingerprinting, duration prediction): the telemetry-equivalent of
/// a job-level monitoring summary, without needing one sensor per job.
#[derive(Debug, Clone, Serialize)]
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
#[derive(Debug, Clone, Serialize)]
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
    faults: FaultTimeline,
    /// The monitoring stack the plant's telemetry goes to.
    site: Site,
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
/// [`ServingConfig`] defaults for [`DataCenter::serve`]. The site's shape
/// — workers, shards, rollups, storage — is set on the
/// [`DataCenterConfig`] itself:
///
/// ```
/// use oda_sim::prelude::*;
///
/// let dc = DataCenter::builder(DataCenterConfig {
///     shards: 2,
///     ..DataCenterConfig::tiny()
/// })
/// .build();
/// assert!(dc.site().cluster().is_some());
/// ```
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

    /// Sets the quota, cache and connection limits used by
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
        let config = self.config;
        let mut root_rng = SimRng::new(self.seed);
        let weather_rng = root_rng.fork();
        let mut workload_rng = root_rng.fork();
        let node_count = config.node_count();
        let site = Site::open(
            SiteConfig {
                store_capacity: config.store_capacity,
                rollups: config.rollups.clone(),
                storage: config.storage.clone(),
                shards: config.shards,
                serving: self.serving,
            },
            self.metrics,
            self.archive_fs.unwrap_or_else(|| Arc::new(SimFs::new())),
        )?;
        let sensors = Sensors::register(site.registry(), node_count, config.racks);
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
            faults: FaultTimeline::new(self.seed),
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
            site,
            sensors,
            config,
        })
    }
}

impl DataCenter {
    /// Starts a [`DataCenterBuilder`] over `config`.
    pub fn builder(config: DataCenterConfig) -> DataCenterBuilder {
        DataCenterBuilder::new(config)
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

    /// The monitoring stack this plant's telemetry goes to.
    pub fn site(&self) -> &Site {
        &self.site
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

    /// Ground truth: the fault timeline — the schedule, which nodes carry
    /// an active plant fault, and how many readings the monitoring-path
    /// faults suppressed or corrupted.
    pub fn faults(&self) -> &FaultTimeline {
        &self.faults
    }

    /// Records of all finished jobs, in completion order.
    pub fn finished_jobs(&self) -> &[JobRecord] {
        &self.finished
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

    /// Schedules a fault on the site's timeline.
    ///
    /// A plant fault mutates the affected models while active. A
    /// monitoring-path fault leaves the plant untouched: its sensor patterns
    /// are resolved against the site's registry now, and it corrupts the
    /// readings published during its window.
    pub fn inject_fault(&mut self, fault: Fault) {
        self.faults.inject(fault, self.site.registry());
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

        // 2. Faults. Deactivations go first, so a window that ends on the
        // tick the next one on the same target starts cannot undo it.
        let (on, off) = self.faults.step(now);
        for f in off {
            self.apply_fault(&f.kind, false);
        }
        for f in on {
            self.apply_fault(&f.kind, true);
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
            FaultKind::BurstLoad { jobs, duration_s } if activate => {
                self.submit_stress_test(jobs, duration_s);
            }
            FaultKind::NodeFailure { node } if activate => {
                self.site.fail_node(node.index());
            }
            // The remaining monitoring-path faults act in `publish`.
            _ => {}
        }
    }

    fn publish(&mut self, now: Timestamp, outside_c: f64) {
        // Collect the nominal readings first, then pass each through the
        // fault timeline's corruptor on its way to the bus.
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
            let reading = self.faults.corrupt(sensor, Reading::new(now, value));
            tick.extend(reading.map(|r| ReadingBatch::single(sensor, r)));
        }
        self.site.ingest(tick);
    }
}

// Stack methods the pinned benchmark (`benchmark/src`) calls on the plant,
// forwarded to its site. ROADMAP item 1a's benchmark change moves those
// calls to `dc.site()` and deletes this block.
impl DataCenter {
    /// [`Site::registry`].
    pub fn registry(&self) -> &SensorRegistry {
        self.site.registry()
    }

    /// [`Site::bus`].
    pub fn bus(&self) -> &Arc<TelemetryBus> {
        self.site.bus()
    }

    /// [`Site::store`].
    pub fn store(&self) -> &Arc<TimeSeriesStore> {
        self.site.store()
    }

    /// [`Site::archive`].
    pub fn archive(&self) -> &Arc<dyn StorageBackend> {
        self.site.archive()
    }

    /// [`Site::metrics`].
    pub fn metrics(&self) -> &MetricsRegistry {
        self.site.metrics()
    }

    /// [`Site::cluster`].
    pub fn cluster(&self) -> Option<&Arc<ClusterCoordinator>> {
        self.site.cluster()
    }

    /// [`Site::serve`].
    pub fn serve<N: ServerNet>(&self, net: Arc<N>) -> Server<N> {
        self.site.serve(net)
    }

    /// [`Site::restart_archive`].
    pub fn restart_archive(&mut self) -> Result<RecoveryReport, FsError> {
        self.site.restart_archive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A default tiny site under `seed`.
    fn tiny(seed: u64) -> DataCenter {
        DataCenter::builder(DataCenterConfig::tiny())
            .seed(seed)
            .build()
    }

    #[test]
    fn a_quiet_hour_produces_sane_physics() {
        let mut dc = tiny(1);
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
        let mut dc = tiny(2);
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

    /// Fails every read of the write-ahead log, naming it — a disk with a
    /// bad sector under the WAL.
    struct UnreadableWal(SimFs);

    impl StorageFs for UnreadableWal {
        fn append(&self, path: &str, bytes: &[u8]) -> Result<(), FsError> {
            self.0.append(path, bytes)
        }
        fn sync(&self, path: &str) -> Result<(), FsError> {
            self.0.sync(path)
        }
        fn read(&self, path: &str) -> Result<Vec<u8>, FsError> {
            match path {
                "wal.log" => Err(FsError::Io(format!("{path}: unreadable sector"))),
                _ => self.0.read(path),
            }
        }
        fn write_atomic(&self, path: &str, bytes: &[u8]) -> Result<(), FsError> {
            self.0.write_atomic(path, bytes)
        }
        fn truncate(&self, path: &str, len: u64) -> Result<(), FsError> {
            self.0.truncate(path, len)
        }
        fn remove(&self, path: &str) -> Result<(), FsError> {
            self.0.remove(path)
        }
        fn list(&self) -> Result<Vec<String>, FsError> {
            self.0.list()
        }
        fn clock_ns(&self) -> u64 {
            self.0.clock_ns()
        }
    }

    #[test]
    fn try_build_returns_the_sites_open_error_by_name_instead_of_panicking() {
        let err = DataCenter::builder(DataCenterConfig {
            storage: StorageConfig::persistent(),
            ..DataCenterConfig::tiny()
        })
        .storage_fs(Arc::new(UnreadableWal(SimFs::new())))
        .try_build()
        .err()
        .expect("an archive that cannot read its WAL does not open");
        assert!(
            matches!(&err, FsError::Io(msg) if msg.starts_with("wal.log: ")),
            "the error names the file: {err}"
        );
    }

    #[test]
    fn telemetry_is_archived() {
        let mut dc = tiny(3);
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

        let mut dc = tiny(11);
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
            let mut dc = tiny(seed);
            dc.run_for_hours(2.0);
            let s = dc.snapshot();
            (s.it_power_kw, s.completed, s.pue)
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn fan_failure_fault_heats_the_node() {
        let mut dc = tiny(4);
        dc.inject_fault(Fault::new(
            FaultKind::FanFailure { node: NodeId(0) },
            Timestamp::from_mins(10),
            Timestamp::from_mins(120),
        ));
        dc.run_for_hours(1.0);
        let victim = dc.node(NodeId(0)).temp_c();
        // Compare against the same node position in a fault-free twin.
        let mut clean = tiny(4);
        clean.run_for_hours(1.0);
        let healthy = clean.node(NodeId(0)).temp_c();
        assert!(
            victim > healthy + 3.0,
            "victim {victim} vs healthy {healthy}"
        );
        assert!(dc
            .faults()
            .node_is_faulty(NodeId(0), Timestamp::from_mins(30)));
    }

    #[test]
    fn back_to_back_windows_on_one_target_act_as_one() {
        let temp_at_45_min = |windows: &[(u64, u64)]| {
            let mut dc = tiny(4);
            for &(start, end) in windows {
                dc.inject_fault(Fault::new(
                    FaultKind::FanFailure { node: NodeId(0) },
                    Timestamp::from_mins(start),
                    Timestamp::from_mins(end),
                ));
            }
            dc.run_for_hours(0.75);
            dc.node(NodeId(0)).temp_c()
        };
        // The first window's deactivation at minute 30 must not undo the
        // second window's activation on the same tick.
        assert_eq!(
            temp_at_45_min(&[(10, 30), (30, 60)]),
            temp_at_45_min(&[(10, 60)])
        );
    }

    #[test]
    fn plant_and_monitoring_faults_share_one_timeline() {
        let mins = Timestamp::from_mins;
        let fan = Fault::new(
            FaultKind::FanFailure { node: NodeId(1) },
            mins(10),
            mins(30),
        );
        let dark = Fault::new(
            FaultKind::NodeFailure { node: NodeId(1) },
            mins(20),
            mins(40),
        );
        let mut dc = tiny(6);
        dc.inject_fault(fan.clone());
        dc.inject_fault(dark.clone());
        dc.run_for_hours(1.0);
        let faults = dc.faults();
        assert_eq!(faults.schedule(), &[fan, dark]);
        // Only the plant fault labels the node faulty.
        for m in [5, 15, 25, 35, 45] {
            assert_eq!(
                faults.node_is_faulty(NodeId(1), mins(m)),
                (10..30).contains(&m),
                "minute {m}"
            );
        }
        // Only the monitoring-path fault hides the node's telemetry.
        let temp1 = dc.registry().lookup("/hw/node1/temp_c").unwrap();
        let archived = |from, to| dc.store().range(temp1, mins(from), mins(to)).len();
        assert!(archived(10, 20) > 0, "the fan failure hides nothing");
        assert_eq!(archived(20, 40), 0, "the node failure hides everything");
        assert!(archived(40, 60) > 0, "telemetry returns after the window");
        assert!(faults.suppressed() > 0);
    }

    #[test]
    fn dvfs_knob_reduces_it_power() {
        let mut fast = tiny(5);
        fast.run_for_hours(2.0);
        let mut slow = tiny(5);
        for i in 0..slow.node_count() {
            slow.set_node_freq(NodeId(i as u32), 1.5);
        }
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
        let mut dc = tiny(5);
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
        let mut dc = tiny(12);
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
        let mut dc = tiny(14);
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
        let mut dc = tiny(16);
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
        let sched = |dc: &mut DataCenter| {
            dc.inject_fault(Fault::new(
                FaultKind::SensorDropout {
                    pattern: "/hw/node0/temp_c".into(),
                },
                Timestamp::from_mins(10),
                Timestamp::from_mins(50),
            ));
            dc.inject_fault(Fault::new(
                FaultKind::BurstLoad {
                    jobs: 4,
                    duration_s: 600.0,
                },
                Timestamp::from_mins(20),
                Timestamp::from_mins(30),
            ));
        };
        let mut clean = tiny(9);
        clean.run_for_hours(1.0);
        let mut faulty = tiny(9);
        sched(&mut faulty);
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
        let tf = faulty.faults();
        assert!(tf.suppressed() > 0);
        // The burst load reached the scheduler as extra operator jobs.
        assert!(
            faulty.scheduler().stats().completed + faulty.scheduler().running_len() as u64
                >= clean.scheduler().stats().completed,
        );
        // Same seed + same schedule replays identically.
        let mut again = tiny(9);
        sched(&mut again);
        again.run_for_hours(1.0);
        assert_eq!(again.faults().suppressed(), tf.suppressed());
        let a: Vec<_> = faulty.store().last_n(temp0, 20);
        let b: Vec<_> = again.store().last_n(temp0, 20);
        assert_eq!(a, b);
    }

    #[test]
    fn snapshot_fields_are_consistent() {
        let mut dc = tiny(9);
        dc.run_for_hours(1.0);
        let s = dc.snapshot();
        assert!(s.max_node_temp_c >= s.avg_node_temp_c);
        assert!(s.utilization >= 0.0 && s.utilization <= 1.0);
        assert!(s.utility_energy_kwh >= s.it_energy_kwh);
    }
}
