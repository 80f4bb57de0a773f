//! Emits the full suite as CSV series over a chosen configuration sweep —
//! the raw data behind the ablation figures, ready for plotting.
//!
//! ```sh
//! cargo run -p dmt-bench --bin sweep_csv -- token_buffer > tb.csv
//! cargo run -p dmt-bench --bin sweep_csv -- inflight     > window.csv
//! cargo run -p dmt-bench --bin sweep_csv -- baseline     > baseline.csv
//! ```
//!
//! The whole sweep is one flat job grid on the `dmt-runner` pool
//! (`--threads N` / `DMT_THREADS`); CSV rows are emitted in grid order,
//! so output is byte-identical for any worker count. Points that are
//! infeasible at a swept configuration are omitted from the CSV and
//! reported on stderr. `--json PATH` records the full per-job artifact.
//! `--cache DIR` (or `DMT_CACHE`) makes the sweep resumable: completed
//! points are served from the result cache, so a killed sweep re-executes
//! only its missing jobs.

use dmt_bench::sweep::{skipped, sweep_run, to_csv};
use dmt_bench::{GridOptions, SEED};
use dmt_runner::{Cli, RunnerArgs, Shared};

const CLI: Cli = Cli {
    name: "sweep_csv",
    shared: &[
        Shared::Threads,
        Shared::Json,
        Shared::Cache,
        Shared::NoCache,
        Shared::Progress,
        Shared::Faults,
        Shared::DeadlineCycles,
    ],
    flags: &[],
    positionals: &["SWEEP"],
};

fn main() {
    let args = RunnerArgs::from_env(&CLI);
    let opts = GridOptions::from_args(&args);
    let which = args.rest.first().map_or("baseline", String::as_str);
    let ((run, points), x_name) = match which {
        "token_buffer" => (
            sweep_run(
                [4u32, 8, 16, 32, 64],
                SEED,
                |&tb, cfg| cfg.fabric.token_buffer_entries = tb,
                &opts,
            ),
            "token_buffer",
        ),
        "inflight" => (
            sweep_run(
                [128u32, 512, 2048],
                SEED,
                |&w, cfg| cfg.fabric.inflight_threads = w,
                &opts,
            ),
            "inflight_threads",
        ),
        "baseline" => (sweep_run(["table2"], SEED, |_, _| {}, &opts), "config"),
        other => {
            eprintln!("unknown sweep {other}; use token_buffer | inflight | baseline");
            std::process::exit(1);
        }
    };
    print!("{}", to_csv(&points, x_name));
    for (x, bench, arch, err) in skipped(&points) {
        eprintln!("[sweep] skipped {bench} at {x_name}={x} on {arch}: {err}");
    }
    opts.finish(&run, &format!("sweep_csv:{which}"));
}
