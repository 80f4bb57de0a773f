//! Table 2 — the simulated system configuration.

use dmt_core::SystemConfig;
use dmt_runner::{Cli, RunnerArgs, Shared};

// A static table has no grid to thread, cache or record.
const CLI: Cli = Cli {
    name: "table2_config",
    shared: &[Shared::Faults],
    flags: &[],
    positionals: &[],
};

fn main() {
    let _ = RunnerArgs::from_env(&CLI);
    println!("Table 2: dMT-CGRA system configuration\n");
    print!("{}", SystemConfig::default().to_table());
    let cfg = SystemConfig::default();
    println!("\nsimulator extensions (see DESIGN.md):");
    println!(
        "  elevator token buffer: {} entries; LDST queue: {} entries",
        cfg.fabric.token_buffer_entries, cfg.fabric.ldst_queue_entries
    );
    println!(
        "  in-flight threads: {}; placement array: {}x{}",
        cfg.fabric.inflight_threads, cfg.fabric.grid_width, cfg.fabric.grid_width
    );
}
