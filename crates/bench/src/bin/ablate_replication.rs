//! Ablation (§3): dataflow-graph replication.
//!
//! "Replicating the kernel's dataflow graph enables the architecture to
//! better utilize the MT-CGRF grid" — this sweep runs the dMT suite with
//! the computed replication factor versus replication forced to 1.
//!
//! The per-benchmark measurements are independent, so they run on the
//! `dmt-runner` pool (`--threads N`); each worker compiles and simulates
//! its benchmark from scratch, and rows print in suite order regardless
//! of completion order.

use dmt_core::fabric::FabricMachine;
use dmt_core::{compiler, SystemConfig};
use dmt_kernels::suite;
use dmt_runner::{Cli, RunnerArgs, Shared};

const CLI: Cli = Cli {
    name: "ablate_replication",
    shared: &[Shared::Threads, Shared::Faults],
    flags: &[],
    positionals: &[],
};

struct Row {
    name: &'static str,
    replication: u32,
    cycles_r: u64,
    cycles_1: u64,
}

fn main() {
    let args = RunnerArgs::from_env(&CLI);
    let cfg = SystemConfig::default();
    let n = suite::all().len();
    let rows = dmt_runner::run_indexed(n, args.effective_threads(), |i| {
        // Shared-nothing: each worker re-creates the benchmark, compiles
        // both program variants and builds its own machine.
        let b = &suite::all()[i];
        let kernel = b.dmt_kernel();
        let program = compiler::compile(&kernel, &cfg).expect("suite kernels compile");
        let mut serial = program.clone();
        serial.replication = 1;
        let machine = FabricMachine::new(cfg);
        let w = b.workload(dmt_bench::SEED);
        let with_r = machine.run(&program, w.launch()).expect("runs");
        let without = machine.run(&serial, w.launch()).expect("runs");
        b.check(dmt_bench::SEED, &with_r.memory).expect("correct");
        b.check(dmt_bench::SEED, &without.memory).expect("correct");
        Row {
            name: b.info().name,
            replication: program.replication,
            cycles_r: with_r.stats.cycles,
            cycles_1: without.stats.cycles,
        }
    });

    println!("Ablation: graph replication (computed R vs forced R = 1)\n");
    println!(
        "{:<12} {:>4} {:>12} {:>12} {:>8}",
        "benchmark", "R", "cycles (R)", "cycles (1)", "gain"
    );
    for r in &rows {
        println!(
            "{:<12} {:>4} {:>12} {:>12} {:>7.2}x",
            r.name,
            r.replication,
            r.cycles_r,
            r.cycles_1,
            r.cycles_1 as f64 / r.cycles_r as f64
        );
    }
    println!("\nReplication matters exactly where the kernel graph is small relative");
    println!("to the 140-unit grid; large graphs (matmul, lud, srad) run at R = 1.");
}
