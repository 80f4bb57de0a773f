//! Dumps a benchmark kernel's dataflow graph as Graphviz DOT (elevator
//! nodes in blue, eLDST in green, memory in wheat — compare with the
//! paper's Fig 6a / Fig 3).
//!
//! ```sh
//! cargo run -p dmt-bench --bin kernel_dot -- scan dmt > scan.dot
//! dot -Tsvg scan.dot -o scan.svg
//! ```

use dmt_core::dfg::pretty;
use dmt_kernels::suite;
use dmt_runner::{Cli, RunnerArgs, Shared};

// The runner flags are meaningless for a one-graph dump.
const CLI: Cli = Cli {
    name: "kernel_dot",
    shared: &[Shared::Faults],
    flags: &[],
    positionals: &["BENCH", "VARIANT"],
};

fn main() {
    let args = RunnerArgs::from_env(&CLI);
    let name = args.rest.first().map(String::as_str).unwrap_or("scan");
    let variant = args.rest.get(1).map(String::as_str).unwrap_or("dmt");
    let Some(bench) = suite::all()
        .into_iter()
        .find(|b| b.info().name.eq_ignore_ascii_case(name))
    else {
        eprintln!(
            "unknown benchmark {name}; available: {}",
            suite::all()
                .iter()
                .map(|b| b.info().name)
                .collect::<Vec<_>>()
                .join(", ")
        );
        std::process::exit(1);
    };
    let kernel = match variant {
        "shared" => bench.shared_kernel(),
        _ => bench.dmt_kernel(),
    };
    print!("{}", pretty::to_dot(&kernel));
}
