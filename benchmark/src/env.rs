//! The environment a result was measured in.

use dmt_common::json::Json;
use std::process::Command;

/// Cores this process may use.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program)
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_owned())
}

/// `nproc`, `rustc -V` and the git commit (`unknown` outside a git
/// checkout, where the benchmark still runs).
pub fn record() -> Json {
    let unknown = || "unknown".to_owned();
    Json::obj()
        .with("nproc", nproc() as u64)
        .with(
            "rustc",
            command_line("rustc", &["-V"]).unwrap_or_else(unknown),
        )
        .with(
            "git_commit",
            command_line("git", &["rev-parse", "HEAD"]).unwrap_or_else(unknown),
        )
}
