//! The job model: classes, resource profiles, lifecycle.
//!
//! A job's *class* determines the shape of its per-tick resource demands —
//! the signature that Applications-pillar diagnostics (fingerprinting,
//! pattern identification) learn to recognise, and the sensitivity that
//! couples job progress to hardware state (frequency for compute-bound
//! work, network contention for I/O-bound work). Work is measured in
//! *node-seconds at nominal speed*; progress accrues faster or slower as the
//! assigned nodes run faster or slower, which is what makes DVFS a real
//! trade-off rather than a free win.

use crate::hardware::node::NodeId;
use oda_telemetry::reading::Timestamp;
use serde::Serialize;

/// Identifier of a job (unique per simulation run).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize)]
pub struct JobId(pub u64);

/// Behavioural class of a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize)]
pub enum JobClass {
    /// CPU-limited: progress ∝ clock speed, high steady utilization.
    ComputeBound,
    /// Memory-bandwidth-limited: weakly frequency sensitive, oscillating
    /// utilization as it alternates compute and memory phases.
    MemoryBound,
    /// I/O / communication-limited: progress follows network contention,
    /// bursty traffic.
    IoBound,
    /// A mix of the above.
    Balanced,
    /// A cryptominer smuggled into the system: near-perfectly flat maximum
    /// utilization, negligible memory and network — the fingerprinting
    /// target of DeMasi et al. and Ates et al.
    Cryptominer,
}

impl JobClass {
    /// All classes, for iteration in tests and workload configs.
    pub const ALL: [JobClass; 5] = [
        JobClass::ComputeBound,
        JobClass::MemoryBound,
        JobClass::IoBound,
        JobClass::Balanced,
        JobClass::Cryptominer,
    ];

    /// Short stable label (used in telemetry and reports).
    pub fn label(self) -> &'static str {
        match self {
            JobClass::ComputeBound => "compute",
            JobClass::MemoryBound => "memory",
            JobClass::IoBound => "io",
            JobClass::Balanced => "balanced",
            JobClass::Cryptominer => "miner",
        }
    }

    /// Period of the class's phase oscillation, seconds.
    fn phase_period_s(self) -> f64 {
        match self {
            JobClass::ComputeBound => 600.0,
            JobClass::MemoryBound => 120.0,
            JobClass::IoBound => 180.0,
            JobClass::Balanced => 300.0,
            JobClass::Cryptominer => 1.0,
        }
    }

    /// CPU utilization demanded at phase position `x ∈ [0,1)`.
    pub fn cpu_util(self, x: f64) -> f64 {
        let s = (2.0 * std::f64::consts::PI * x).sin();
        match self {
            JobClass::ComputeBound => 0.92 + 0.04 * s,
            JobClass::MemoryBound => 0.60 + 0.18 * s,
            JobClass::IoBound => 0.38 + 0.22 * s,
            JobClass::Balanced => 0.75 + 0.10 * s,
            JobClass::Cryptominer => 0.99,
        }
    }

    /// Memory footprint per node, GiB, at phase position `x`.
    pub fn memory_gib(self, x: f64) -> f64 {
        match self {
            JobClass::ComputeBound => 24.0,
            JobClass::MemoryBound => 140.0 + 20.0 * (2.0 * std::f64::consts::PI * x).sin(),
            JobClass::IoBound => 48.0,
            JobClass::Balanced => 80.0,
            JobClass::Cryptominer => 2.0,
        }
    }

    /// Inter-rack network demand per node, GB/s, at phase position `x`.
    pub fn net_gbps(self, x: f64) -> f64 {
        match self {
            JobClass::ComputeBound => 0.3,
            JobClass::MemoryBound => 0.8,
            JobClass::IoBound => {
                // Bursty: heavy I/O for 30% of the phase.
                if (x % 1.0) < 0.3 {
                    8.0
                } else {
                    1.0
                }
            }
            JobClass::Balanced => 1.5,
            JobClass::Cryptominer => 0.01,
        }
    }

    /// Progress rate (fraction of nominal) given the mean compute speed of
    /// the assigned nodes and the network contention factor experienced.
    pub fn progress_rate(self, compute_speed: f64, net_factor: f64) -> f64 {
        match self {
            JobClass::ComputeBound => compute_speed,
            // Memory-bound work barely benefits from clock.
            JobClass::MemoryBound => 0.35 * compute_speed + 0.65,
            JobClass::IoBound => (0.25 * compute_speed + 0.15) + 0.6 * net_factor,
            JobClass::Balanced => 0.6 * compute_speed + 0.2 + 0.2 * net_factor,
            JobClass::Cryptominer => compute_speed,
        }
    }
}

/// Lifecycle state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum JobState {
    /// Waiting in the scheduler queue.
    Queued,
    /// Executing on its assigned nodes.
    Running,
    /// Finished all its work.
    Completed,
    /// Terminated at its walltime limit with work remaining.
    Killed,
}

/// A user job.
#[derive(Debug, Clone, Serialize)]
pub struct Job {
    /// Unique id.
    pub id: JobId,
    /// Submitting user (small integer id).
    pub user: u32,
    /// Behavioural class (ground truth; analytics must infer it).
    pub class: JobClass,
    /// Number of (exclusive) nodes requested.
    pub nodes_requested: u32,
    /// Total work, node-seconds at nominal speed.
    pub work_node_seconds: f64,
    /// Work completed so far, node-seconds.
    pub progress_node_seconds: f64,
    /// User-declared walltime limit, seconds (typically an overestimate).
    pub requested_walltime_s: f64,
    /// Submission time.
    pub submit: Timestamp,
    /// Start time, once scheduled.
    pub start: Option<Timestamp>,
    /// End time, once terminal.
    pub end: Option<Timestamp>,
    /// Lifecycle state.
    pub state: JobState,
    /// Nodes allocated (empty until started).
    pub assigned: Vec<NodeId>,
}

impl Job {
    /// Creates a queued job.
    pub fn new(
        id: JobId,
        user: u32,
        class: JobClass,
        nodes_requested: u32,
        work_node_seconds: f64,
        requested_walltime_s: f64,
        submit: Timestamp,
    ) -> Self {
        Job {
            id,
            user,
            class,
            nodes_requested: nodes_requested.max(1),
            work_node_seconds: work_node_seconds.max(1.0),
            progress_node_seconds: 0.0,
            requested_walltime_s: requested_walltime_s.max(1.0),
            submit,
            start: None,
            end: None,
            state: JobState::Queued,
            assigned: Vec::new(),
        }
    }

    /// `true` once all work units are done.
    #[inline]
    pub fn is_work_complete(&self) -> bool {
        self.progress_node_seconds >= self.work_node_seconds
    }

    /// Phase position `[0,1)` at `elapsed_s` seconds of execution.
    pub fn phase_position(&self, elapsed_s: f64) -> f64 {
        let p = self.class.phase_period_s();
        (elapsed_s / p).fract()
    }

    /// Elapsed run time at `now`, seconds (0 if not started).
    pub fn elapsed_s(&self, now: Timestamp) -> f64 {
        self.start
            .map(|s| now.millis_since(s) as f64 / 1_000.0)
            .unwrap_or(0.0)
    }

    /// Wait time between submission and start, seconds.
    pub fn wait_s(&self) -> Option<f64> {
        self.start
            .map(|s| s.millis_since(self.submit) as f64 / 1_000.0)
    }

    /// Actual runtime, seconds, once terminal.
    pub fn runtime_s(&self) -> Option<f64> {
        match (self.start, self.end) {
            (Some(s), Some(e)) => Some(e.millis_since(s) as f64 / 1_000.0),
            _ => None,
        }
    }

    /// Bounded slowdown `max(1, (wait + run) / max(run, bound))`.
    pub fn bounded_slowdown(&self, bound_s: f64) -> Option<f64> {
        let wait = self.wait_s()?;
        let run = self.runtime_s()?;
        Some(((wait + run) / run.max(bound_s)).max(1.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_profiles_are_in_range() {
        for class in JobClass::ALL {
            for i in 0..20 {
                let x = i as f64 / 20.0;
                let u = class.cpu_util(x);
                assert!((0.0..=1.0).contains(&u), "{class:?} util {u}");
                assert!(class.memory_gib(x) > 0.0);
                assert!(class.net_gbps(x) >= 0.0);
            }
        }
    }

    #[test]
    fn miner_is_flat_and_quiet() {
        let m = JobClass::Cryptominer;
        let utils: Vec<f64> = (0..10).map(|i| m.cpu_util(i as f64 / 10.0)).collect();
        assert!(utils.windows(2).all(|w| (w[0] - w[1]).abs() < 1e-12));
        assert!(m.net_gbps(0.5) < 0.1);
        assert!(m.memory_gib(0.5) < 8.0);
    }

    #[test]
    fn compute_bound_is_frequency_sensitive_memory_bound_is_not() {
        let slow = 0.5;
        let cb = JobClass::ComputeBound;
        let mb = JobClass::MemoryBound;
        let cb_loss = 1.0 - cb.progress_rate(slow, 1.0) / cb.progress_rate(1.0, 1.0);
        let mb_loss = 1.0 - mb.progress_rate(slow, 1.0) / mb.progress_rate(1.0, 1.0);
        assert!(cb_loss > 0.45);
        assert!(mb_loss < 0.2, "memory-bound loss {mb_loss}");
    }

    #[test]
    fn io_bound_feels_contention() {
        let io = JobClass::IoBound;
        let free = io.progress_rate(1.0, 1.0);
        let congested = io.progress_rate(1.0, 0.3);
        assert!(congested < free * 0.7);
        // Compute-bound work does not care.
        let cb = JobClass::ComputeBound;
        assert_eq!(cb.progress_rate(1.0, 0.3), cb.progress_rate(1.0, 1.0));
    }

    #[test]
    fn lifecycle_metrics() {
        let mut j = Job::new(
            JobId(1),
            7,
            JobClass::Balanced,
            4,
            100.0,
            3_600.0,
            Timestamp::from_secs(10),
        );
        assert_eq!(j.wait_s(), None);
        j.start = Some(Timestamp::from_secs(110));
        j.end = Some(Timestamp::from_secs(710));
        assert_eq!(j.wait_s(), Some(100.0));
        assert_eq!(j.runtime_s(), Some(600.0));
        // slowdown = (100+600)/max(600,10) = 7/6
        assert!((j.bounded_slowdown(10.0).unwrap() - 700.0 / 600.0).abs() < 1e-12);
    }

    #[test]
    fn constructor_clamps_degenerate_inputs() {
        let j = Job::new(JobId(1), 0, JobClass::IoBound, 0, 0.0, 0.0, Timestamp::ZERO);
        assert_eq!(j.nodes_requested, 1);
        assert!(j.work_node_seconds >= 1.0);
        assert!(j.requested_walltime_s >= 1.0);
    }

    #[test]
    fn phase_position_wraps() {
        let j = Job::new(
            JobId(1),
            0,
            JobClass::MemoryBound, // 120 s period
            1,
            100.0,
            1_000.0,
            Timestamp::ZERO,
        );
        assert!((j.phase_position(60.0) - 0.5).abs() < 1e-12);
        assert!((j.phase_position(180.0) - 0.5).abs() < 1e-12);
    }
}
