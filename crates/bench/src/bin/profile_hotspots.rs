//! `profile_hotspots` — where the suite's token traffic concentrates.
//!
//! Runs the Table 3 suite (first three benchmarks with `--smoke`) on all
//! three machines with the `dmt-obs` profiler attached, and prints per
//! job the top-K hottest nodes (by firings) and edges (by tokens), plus
//! spill counts, calendar-queue marks and ring-occupancy maxima. Writes
//! the versioned profile artifact with `--json PATH` (default
//! `artifacts/BENCH_profile.json`):
//!
//! ```json
//! {
//!   "profile_schema_version": 1,
//!   "suite": "profile",
//!   "jobs": [ {"job": "dot/dmt_cgra", "seed": 42, "profile": {...}}, ... ],
//!   "meta": {"threads": ..., "wall_ms": ...}
//! }
//! ```
//!
//! The `"jobs"` array (and the whole stdout report) is byte-identical
//! for any `--threads N` — per-job observation merges by job index, and
//! the rankings are total-ordered. Profiling bypasses the result cache
//! by construction (a profile requires actually simulating), so
//! `--cache` is not declared.

use dmt_bench::{profile_artifact, profile_report, run_grid, suite_jobs, GridOptions, SEED};
use dmt_core::SystemConfig;
use dmt_runner::artifact::write_json_logged;
use dmt_runner::{Cli, Flag, RunnerArgs, Shared};
use std::path::PathBuf;

const CLI: Cli = Cli {
    name: "profile_hotspots",
    shared: &[Shared::Threads, Shared::Json, Shared::Smoke, Shared::Faults],
    flags: &[Flag::with_value(
        "--top",
        "K",
        "rows per ranking (default 10)",
    )],
    positionals: &[],
};

fn main() {
    let args = RunnerArgs::from_env(&CLI);
    let top = match args.flag_value("--top").map(str::parse::<usize>) {
        None => 10,
        Some(Ok(k)) if k > 0 => k,
        Some(_) => {
            eprintln!("error: --top requires a positive integer");
            std::process::exit(2);
        }
    };
    let take = if args.smoke { 3 } else { usize::MAX };
    let opts = GridOptions {
        profile: true,
        ..GridOptions::from_args(&args)
    };
    let run = run_grid(suite_jobs(SystemConfig::default(), SEED, take), SEED, &opts);
    print!("{}", profile_report(&run, top));
    let path = args
        .json
        .unwrap_or_else(|| PathBuf::from("artifacts/BENCH_profile.json"));
    write_json_logged(&path, &profile_artifact(&run, top));
    dmt_bench::exit_on_incomplete(&run.rows());
}
