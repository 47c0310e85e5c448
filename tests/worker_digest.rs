//! Pins the scheduler's output digest at every swept worker count.
//!
//! `scale`'s sweep runs the same seeded synthetic registry at workers
//! 1/2/4/8; each capability's output depends only on its scheduler-assigned
//! stream, so every width must fold to one recorded constant. The sweep's
//! timings are not asserted here.

use oda_bench::scale::{run_scale, ScaleConfig};

/// The digest `ci/baselines/BENCH_scale.json` records for the default
/// sweep.
const PINNED: u64 = 4_886_995_737_155_092_339;

#[test]
fn worker_digest_is_pinned_at_every_width() {
    let cfg = ScaleConfig::default();
    let report = run_scale(&cfg);
    let widths: Vec<usize> = report.points.iter().map(|p| p.workers).collect();
    assert_eq!(widths, [1, 2, 4, 8]);
    for p in &report.points {
        assert_eq!(p.digest, PINNED, "workers = {}", p.workers);
    }
    assert!(report.outputs_equal);
}
