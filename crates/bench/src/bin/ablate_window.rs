//! Ablation (§3.2): transmission-window size.
//!
//! A windowed `fromThreadOrMem` broadcast loads one value per window group
//! and forwards it to the rest of the group. Larger windows convert more
//! loads into fabric forwards — the paper's memory-traffic argument in
//! miniature — until forwarding latency starts to bind.
//!
//! One job per window size, run on the `dmt-runner` pool (`--threads N`);
//! the table prints in window order for any worker count.

use dmt_core::common::geom::{Delta, Dim3};
use dmt_core::common::ids::Addr;
use dmt_core::{Arch, KernelBuilder, LaunchInput, Machine, MemImage, SystemConfig, Word};
use dmt_runner::{Cli, RunnerArgs, Shared};

const CLI: Cli = Cli {
    name: "ablate_window",
    shared: &[Shared::Threads, Shared::Faults],
    flags: &[],
    positionals: &[],
};

const WINDOWS: [u32; 8] = [2, 4, 8, 16, 32, 64, 128, 256];

fn broadcast_kernel(n: u32, win: u32) -> dmt_core::Kernel {
    let mut kb = KernelBuilder::new("win_broadcast", Dim3::linear(n));
    let inp = kb.param("in");
    let out = kb.param("out");
    let tid = kb.thread_idx(0);
    let w = kb.const_i(win as i32);
    let lane = kb.rem_i(tid, w);
    let zero = kb.const_i(0);
    let lead = kb.eq_i(lane, zero);
    let group = kb.div_i(tid, w);
    let ga = kb.index_addr(inp, group, 4);
    let v = kb.from_thread_or_mem(ga, lead, Delta::new(-1), Some(win));
    let oa = kb.index_addr(out, tid, 4);
    kb.store_global(oa, v);
    kb.finish().expect("well-formed")
}

struct Row {
    window: u32,
    cycles: u64,
    loads: u64,
    forwards: u64,
}

fn main() {
    let args = RunnerArgs::from_env(&CLI);
    let n = 1024u32;
    let rows = dmt_runner::run_indexed(WINDOWS.len(), args.effective_threads(), |i| {
        let win = WINDOWS[i];
        let kernel = broadcast_kernel(n, win);
        let mut mem = MemImage::with_words(2 * n as usize);
        let groups = n / win;
        mem.write_i32_slice(
            Addr(0),
            &(0..groups as i32).map(|g| g * 7).collect::<Vec<_>>(),
        );
        let report = Machine::new(Arch::DmtCgra, SystemConfig::default())
            .run(
                &kernel,
                LaunchInput::new(vec![Word::from_u32(0), Word::from_u32(4 * n)], mem),
            )
            .expect("runs");
        Row {
            window: win,
            cycles: report.cycles(),
            loads: report.stats.global_loads,
            forwards: report.stats.eldst_forwards,
        }
    });

    println!("Ablation: transmission window for a fromThreadOrMem broadcast\n");
    println!(
        "{:>8} {:>10} {:>10} {:>10} {:>14}",
        "window", "cycles", "loads", "forwards", "loads avoided"
    );
    for r in &rows {
        println!(
            "{:>8} {:>10} {:>10} {:>10} {:>13.1}%",
            r.window,
            r.cycles,
            r.loads,
            r.forwards,
            100.0 * r.forwards as f64 / (r.loads + r.forwards) as f64
        );
    }
    println!("\nEach value is loaded once and reused window/Δ times (§4.2).");
}
