//! Fig 11 — speedup of the MT-CGRA and dMT-CGRA architectures over the
//! Fermi baseline, per benchmark plus geomean.
//!
//! Runs on the `dmt-runner` worker pool: `--threads N` (or
//! `DMT_THREADS`) picks the worker count, and stdout is byte-identical
//! for any choice. Infeasible points are annotated inline instead of
//! aborting the suite. Pass `--smoke` to run only the first three
//! benchmarks (the CI smoke job uses this), `--json PATH` for the
//! versioned artifact, `--progress` for a live stderr ticker, and
//! `--cache DIR` (or `DMT_CACHE`) to serve completed jobs from the
//! content-addressed result cache — a warm rerun simulates nothing and
//! prints the same bytes. `--trace PATH` (or `DMT_TRACE`) additionally
//! exports a Chrome-trace/Perfetto JSON timeline of every run; tracing
//! bypasses the cache, since a trace requires actually simulating, and
//! composes with everything else (`--deadline-cycles`, `--progress`,
//! `--faults`) — it is the same grid run with observation on.

use dmt_bench::{fig11_report, run_grid, suite_jobs, GridOptions, SEED};
use dmt_core::SystemConfig;
use dmt_runner::{Cli, RunnerArgs, Shared};

const CLI: Cli = Cli {
    name: "fig11_speedup",
    shared: &[
        Shared::Threads,
        Shared::Json,
        Shared::Cache,
        Shared::NoCache,
        Shared::Progress,
        Shared::Smoke,
        Shared::Trace,
        Shared::Faults,
        Shared::DeadlineCycles,
    ],
    flags: &[],
    positionals: &[],
};

fn main() {
    let args = RunnerArgs::from_env(&CLI);
    let take = if args.smoke { 3 } else { usize::MAX };
    let opts = GridOptions::from_args(&args);
    let run = run_grid(suite_jobs(SystemConfig::default(), SEED, take), SEED, &opts);
    let rows = run.rows();
    print!("{}", fig11_report(&rows));
    println!("\nSee EXPERIMENTS.md for the paper-vs-measured discussion.");
    opts.finish(&run, "fig11_speedup");
    dmt_bench::exit_on_incomplete(&rows);
}
