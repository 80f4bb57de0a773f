//! Fig 12 — energy efficiency of a dMT-CGRA core over the MT-CGRA and
//! Fermi SM (total task energy ratio, §5.2).
//!
//! Pool-parallel (`--threads` / `DMT_THREADS`), deterministic stdout,
//! infeasible points annotated; `--json PATH` writes the versioned
//! artifact, `--smoke` runs the first three benchmarks, `--cache DIR`
//! (or `DMT_CACHE`) serves completed jobs from the result cache.

use dmt_bench::{fig12_report, run_grid, suite_jobs, GridOptions, SEED};
use dmt_core::SystemConfig;
use dmt_runner::{Cli, RunnerArgs, Shared};

const CLI: Cli = Cli {
    name: "fig12_energy",
    shared: &[
        Shared::Threads,
        Shared::Json,
        Shared::Cache,
        Shared::NoCache,
        Shared::Progress,
        Shared::Smoke,
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
    print!("{}", fig12_report(&rows));
    opts.finish(&run, "fig12_energy");
    dmt_bench::exit_on_incomplete(&rows);
}
