//! `dmt-serve` — the simulation daemon binary.
//!
//! Serves the Table 3 suite over TCP with the real bench executor.
//! Declared runner flags: `--threads`, `--cache DIR`, `--faults SPEC`
//! and `--deadline-cycles N` (the default per-job budget; a submit may
//! override it per job). The cache defaults to `artifacts/serve-cache`
//! and cannot be turned off — the daemon *requires* one, it is the
//! result store — so `--no-cache` is not declared, like `--json`,
//! `--progress`, `--smoke` and `--trace`. Binary flags: `--addr
//! HOST:PORT`, `--queue-depth N`, `--retry-after-ms MS`, `--max-retries
//! N`, `--retry-backoff-ms MS`.

use dmt_runner::{Cli, Flag, RunnerArgs, Shared};
use dmt_serve::{ServeOptions, Server};
use std::path::PathBuf;
use std::process::exit;

const CLI: Cli = Cli {
    name: "dmt-serve",
    shared: &[
        Shared::Threads,
        Shared::Cache,
        Shared::Faults,
        Shared::DeadlineCycles,
    ],
    flags: FLAGS,
    positionals: &[],
};

const FLAGS: &[Flag] = &[
    Flag::with_value(
        "--addr",
        "HOST:PORT",
        "listen address (default 127.0.0.1:7177)",
    ),
    Flag::with_value(
        "--queue-depth",
        "N",
        "admission bound on queued+running jobs (default 256)",
    ),
    Flag::with_value(
        "--retry-after-ms",
        "MS",
        "backoff hint sent with queue-full rejections (default 500)",
    ),
    Flag::with_value(
        "--max-retries",
        "N",
        "extra attempts for transiently-failed jobs (default 2; 0 disables retry)",
    ),
    Flag::with_value(
        "--retry-backoff-ms",
        "MS",
        "base retry backoff, doubled per attempt plus jitter (default 50)",
    ),
];

fn value_or<T: std::str::FromStr>(args: &RunnerArgs, flag: &str, default: T) -> T {
    match args.flag_value(flag) {
        None => default,
        Some(raw) => raw.parse().unwrap_or_else(|_| {
            eprintln!("error: {flag} got invalid value {raw:?}");
            exit(2);
        }),
    }
}

fn main() {
    let args = RunnerArgs::from_env(&CLI);
    let addr = args
        .flag_value("--addr")
        .unwrap_or("127.0.0.1:7177")
        .to_owned();
    let queue_depth: usize = value_or(&args, "--queue-depth", 256);
    if queue_depth == 0 {
        eprintln!("error: --queue-depth must be at least 1");
        exit(2);
    }
    let opts = ServeOptions {
        threads: args.effective_threads(),
        queue_depth,
        retry_after_ms: value_or(&args, "--retry-after-ms", 500),
        max_retries: value_or(&args, "--max-retries", 2),
        retry_backoff_ms: value_or(&args, "--retry-backoff-ms", 50),
        deadline_cycles: args.deadline_cycles,
        benches: dmt_kernels::suite::all()
            .iter()
            .map(|b| b.info().name.to_owned())
            .collect(),
    };
    let cache_dir = args
        .cache_dir()
        .unwrap_or_else(|| PathBuf::from("artifacts/serve-cache"));
    let server = Server::bind(
        &*addr,
        &cache_dir,
        opts,
        Box::new(dmt_bench::execute_job_limited),
    )
    .unwrap_or_else(|e| {
        eprintln!("error: cannot start on {addr}: {e}");
        exit(2);
    });
    match server.run() {
        Ok(_) => exit(0),
        Err(e) => {
            eprintln!("error: {e}");
            exit(1);
        }
    }
}
