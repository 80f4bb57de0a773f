//! Ablation (§4.3 / Fig 10): elevator token-buffer size.
//!
//! Sweeps the per-node token buffer and reports, for the two kernels with
//! the longest ΔTIDs (reduce's log-tree and matmul's column forwarding),
//! how many elevator nodes the compiler materializes, how many
//! communications spill to the Live Value Cache, and the resulting
//! performance.
//!
//! The 7 × 2 (buffer, kernel) grid runs on the `dmt-runner` pool
//! (`--threads N`); output order is fixed by the grid, not by completion.

use dmt_bench::{try_run_one, SEED};
use dmt_core::common::RunLimits;
use dmt_core::{compiler, Arch, SystemConfig};
use dmt_kernels::{matmul::MatMul, reduce::Reduce, Benchmark};
use dmt_obs::Obs;
use dmt_runner::{Cli, RunnerArgs, Shared};

const CLI: Cli = Cli {
    name: "ablate_token_buffer",
    shared: &[Shared::Threads, Shared::Faults],
    flags: &[],
    positionals: &[],
};

const BUFFERS: [u32; 7] = [2, 4, 8, 16, 32, 64, 128];

struct Row {
    buffer: u32,
    kernel: &'static str,
    cycles: u64,
    comm_nodes: usize,
    spilled: usize,
    lvc_writes: u64,
    cascades: usize,
}

fn benches() -> [Box<dyn Benchmark>; 2] {
    [Box::new(Reduce::default()), Box::new(MatMul)]
}

fn main() {
    let args = RunnerArgs::from_env(&CLI);
    let per_buffer = benches().len();
    let n = BUFFERS.len() * per_buffer;
    let rows = dmt_runner::run_indexed(n, args.effective_threads(), |i| {
        let tb = BUFFERS[i / per_buffer];
        let bench = &benches()[i % per_buffer];
        let mut cfg = SystemConfig::default();
        cfg.fabric.token_buffer_entries = tb;
        let kernel = bench.dmt_kernel();
        let program = compiler::compile(&kernel, &cfg).expect("compiles at every size");
        let comm_nodes = program.phases[0]
            .graph
            .node_ids()
            .filter(|&id| program.phases[0].graph.kind(id).comm().is_some())
            .count();
        let original = dmt_core::dfg::delta_stats::comm_sites(&kernel).len();
        let (obs, limits) = (&mut Obs::disabled(), RunLimits::unlimited());
        let report = try_run_one(bench.as_ref(), Arch::DmtCgra, cfg, SEED, obs, &limits)
            .expect("runs at every size");
        Row {
            buffer: tb,
            kernel: bench.info().name,
            cycles: report.cycles(),
            comm_nodes,
            spilled: program.phases[0].lvc_spilled.len(),
            lvc_writes: report.stats.lvc_writes,
            cascades: comm_nodes.saturating_sub(original),
        }
    });

    println!("Ablation: elevator token-buffer size (Fig 10 machinery)\n");
    println!(
        "{:>7} | {:<10} {:>10} {:>8} {:>8} {:>10} {:>10}",
        "buffer", "kernel", "cycles", "comm", "spilled", "lvc writes", "cascades"
    );
    for r in &rows {
        println!(
            "{:>7} | {:<10} {:>10} {:>8} {:>8} {:>10} {:>10}",
            r.buffer, r.kernel, r.cycles, r.comm_nodes, r.spilled, r.lvc_writes, r.cascades,
        );
    }
    println!(
        "\nSmall buffers force cascades (extra elevator nodes) and, once the \
         control-unit pool\nis exhausted, Live-Value-Cache spills — at a \
         latency and energy cost. 16 entries\ncovers the common case (Fig 5)."
    );
}
