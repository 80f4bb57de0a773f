//! Ablation (§3): in-flight thread window.
//!
//! The matching stores admit `inflight_threads` concurrent threads; the
//! window must cover memory latency × issue rate or the fabric stalls on
//! retirement. This sweep shows throughput saturating as the window grows
//! — massive multithreading is what hides the memory system on a CGRA.
//!
//! A kernel whose |ΔTID| reaches the window cannot compile at that point
//! (the fabric would deadlock), so such benchmarks are skipped and the
//! geomean is taken over the compilable subset, with a note.
//!
//! The whole sweep (7 windows × 9 benchmarks × 3 machines = 189 jobs) is
//! one flat `dmt-runner` grid: `--threads N` parallelizes it while the
//! printed table stays byte-identical. `--json PATH` records every job;
//! `--cache DIR` (or `DMT_CACHE`) makes the sweep resumable and skips
//! previously-completed points.

use dmt_bench::sweep::sweep_run;
use dmt_bench::{geomean_rows, GridOptions, RowOutcome, SEED};
use dmt_core::SystemConfig;
use dmt_runner::{Cli, RunnerArgs, Shared};

const CLI: Cli = Cli {
    name: "ablate_inflight",
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
    positionals: &[],
};

const WINDOWS: [u32; 7] = [64, 128, 256, 512, 1024, 2048, 4096];

fn main() {
    let opts = GridOptions::from_args(&RunnerArgs::from_env(&CLI));
    let configure = |&w: &u32, cfg: &mut SystemConfig| cfg.fabric.inflight_threads = w;
    let (run, points) = sweep_run(WINDOWS, SEED, configure, &opts);

    println!("Ablation: in-flight thread window\n");
    println!("{:>8} {:>12} {:>12}", "window", "dMT geomean", "MT geomean");
    for point in points {
        let rows = point.rows.into_iter();
        let (ok, skipped): (Vec<_>, Vec<_>) = rows.partition(RowOutcome::complete);
        let note = if skipped.is_empty() {
            String::new()
        } else {
            let names: Vec<&str> = skipped.iter().map(|r| r.name.as_str()).collect();
            format!("  (skipped: {})", names.join(", "))
        };
        println!(
            "{:>8} {:>11.2}x {:>11.2}x{}",
            point.label,
            geomean_rows(&ok, RowOutcome::dmt_speedup),
            geomean_rows(&ok, RowOutcome::mt_speedup),
            note,
        );
    }
    opts.finish(&run, "ablate_inflight");
}
