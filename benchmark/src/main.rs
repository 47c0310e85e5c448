//! `e2e`: one end-to-end benchmark of the hpc-oda stack with per-layer
//! attribution. See `benchmark/README.md`.
//!
//! ```text
//! e2e --workload <name> --seed <n> --seconds <s> --trace <0|1> [--tmp-dir <dir>] [--out-dir <dir>]
//! ```
//!
//! Prints `name unit value` for every metric, then, as the last line of
//! standard output, one JSON object with `correct`, `attempted`, `failed`
//! and `metrics`. Exits non-zero when any operation or check failed.

mod checks;
mod client;
mod ladder;
mod queries;
mod report;
mod round;
mod site;
mod stats;
mod timed;
mod trace;

use oda_serve::net::SimNet;
use report::{Metric, TraceExtras};
use round::{run_round, Env, Measured};
use site::{Plan, Workload};
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;
use timed::TimedNet;
use trace::Tracer;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    tmp_dir: PathBuf,
    out_dir: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: Workload::HotSite,
        seed: 7,
        seconds: 10.0,
        trace: false,
        tmp_dir: std::env::temp_dir(),
        out_dir: None,
    };
    let mut workload = None;
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value).ok_or_else(bad)?),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad())?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--tmp-dir" => args.tmp_dir = PathBuf::from(value),
            "--out-dir" => args.out_dir = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    args.workload = workload
        .ok_or("--workload is required (hot_site, durable_site, sharded_site, serve_mixed)")?;
    Ok(args)
}

/// Rounds of fixed work until `seconds` of it has been measured: another
/// round starts only while at least half of it still fits the budget.
fn run_rounds<N: timed::BenchNet>(plan: &Plan, seed: u64, seconds: f64, env: &Env) -> Measured {
    let mut m = Measured::default();
    let mut measured = Duration::ZERO;
    loop {
        let round = run_round::<N>(plan, seed, env, &mut m);
        measured += round;
        if (measured + round / 2).as_secs_f64() > seconds {
            return m;
        }
    }
}

fn print_metrics(metrics: &[Metric]) {
    for m in metrics {
        println!("{} {} {}", m.name, m.unit, m.value);
    }
}

fn run(args: &Args) -> Result<bool, String> {
    let plan = Plan::full(args.workload);
    std::fs::create_dir_all(&args.tmp_dir)
        .map_err(|e| format!("cannot create {}: {e}", args.tmp_dir.display()))?;
    if !args.trace {
        let env = Env {
            tmp_root: args.tmp_dir.clone(),
            tracer: None,
        };
        let m = run_rounds::<SimNet>(&plan, args.seed, args.seconds, &env);
        report_environment(&m);
        let metrics = report::end_to_end(&m);
        print_metrics(&metrics);
        println!("{}", report::result_line(&m, &metrics));
        return Ok(m.failed() == 0);
    }

    // Traced run: one untraced round to compare against, then the same
    // rounds with decorators and spans on, then the ladder replays.
    let plain = Env {
        tmp_root: args.tmp_dir.clone(),
        tracer: None,
    };
    let mut untraced = Measured::default();
    run_round::<SimNet>(&plan, args.seed, &plain, &mut untraced);
    let tracer = Arc::new(Tracer::new());
    let env = Env {
        tmp_root: args.tmp_dir.clone(),
        tracer: Some(Arc::clone(&tracer)),
    };
    let m = run_rounds::<TimedNet>(&plan, args.seed, args.seconds, &env);
    let extras = TraceExtras {
        ingest: ladder::ingest(&plan, args.seed, &args.tmp_dir),
        untraced,
    };
    report_environment(&m);
    let metrics = report::per_layer(&plan, &m, &extras);
    print_metrics(&metrics);
    if let Some(dir) = &args.out_dir {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        let path = dir.join(format!("trace-{}.json", args.workload.name()));
        let doc = report::trace_document(args.workload, args.seed, &m, &metrics, &tracer);
        std::fs::write(&path, doc).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        eprintln!("spans written to {}", path.display());
    }
    println!("{}", report::result_line(&m, &metrics));
    Ok(m.failed() == 0)
}

/// What the numbers depend on besides the code: cores, and the kind of
/// filesystem the durable workload synced to.
fn report_environment(m: &Measured) {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    eprintln!(
        "rounds {} cores {cores} work/round {:.2} s",
        m.rounds,
        m.round_work.mean_ns() / 1e9
    );
    if !m.fs_kind.is_empty() {
        eprintln!("fs.kind {}", m.fs_kind);
        if m.fs_kind == "tmpfs" {
            eprintln!(
                "WARNING: scratch directory is on tmpfs: fsync is free there, so ingest_rps \
                 of durable_site is not comparable with a run on a disk"
            );
        }
    }
    for failure in &m.checks.failures {
        eprintln!("FAILED {failure}");
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(why) => {
            eprintln!("e2e: {why}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(why) => {
            eprintln!("e2e: {why}");
            ExitCode::from(2)
        }
    }
}
