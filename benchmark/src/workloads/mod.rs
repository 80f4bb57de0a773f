//! The five workloads and what one run of a workload returns.

pub mod grid;
pub mod inprocess;
pub mod serve;
pub mod wide;

use std::path::PathBuf;

/// A named set of inputs the benchmark runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    FabricGrid,
    FabricWide,
    GpuGrid,
    ServeCold,
    ServeWarm,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::FabricGrid,
        Workload::FabricWide,
        Workload::GpuGrid,
        Workload::ServeCold,
        Workload::ServeWarm,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::FabricGrid => "fabric_grid",
            Workload::FabricWide => "fabric_wide",
            Workload::GpuGrid => "gpu_grid",
            Workload::ServeCold => "serve_cold",
            Workload::ServeWarm => "serve_warm",
        }
    }

    /// Why the workload exists (one line; also the `why` of
    /// `BENCHMARK.json`, which a unit test keeps equal).
    pub fn why(self) -> &'static str {
        match self {
            Workload::FabricGrid => {
                "Fig 11/12 regeneration path: 18 Table 3 fabric jobs at replication 1-5, so fabric per-token fire/deliver is ~98% of the pass and gpu is 0%"
            }
            Workload::FabricWide => {
                "same fabric layer at replication >= 8 on tiny 2048-thread kernels: the batched fire/delivery regime, with compile a visible share of sub-millisecond runs"
            }
            Workload::GpuGrid => {
                "9 Table 3 jobs on the Fermi SM: gpu and mem do the work and fabric none, the bypass workload for fabric changes"
            }
            Workload::ServeCold => {
                "a job's whole life through the daemon on an empty cache: parse, admission, cost_index, pool, simulate, cache store, result render, socket; cache grows so O(cache) work shows"
            }
            Workload::ServeWarm => {
                "warm restart on a pre-filled cache: zero simulations, so cache read/decode, JSON parse/render and protocol/socket do all the work"
            }
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// What one run (timed or traced) of one workload produced.
#[derive(Debug, Default)]
pub struct RunOutput {
    /// Operations attempted (jobs executed, jobs served, request pairs).
    pub attempted: u64,
    /// Operations that failed, were refused, or returned a wrong result.
    pub failed: u64,
    /// Metric values by registry name.
    pub metrics: Vec<(&'static str, f64)>,
    /// Pass, job and sample counts, and the percentiles actually used.
    pub counts: Vec<(&'static str, f64)>,
    /// The first few failures, for the report.
    pub failures: Vec<String>,
}

impl RunOutput {
    pub fn metric(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            !self.metrics.iter().any(|(n, _)| *n == name),
            "metric {name} set twice"
        );
        self.metrics.push((name, value));
    }

    pub fn count(&mut self, name: &'static str, value: f64) {
        self.counts.push((name, value));
    }

    /// Records `n` failed operations with one description.
    pub fn fail(&mut self, n: u64, what: impl Into<String>) {
        self.failed += n;
        if self.failures.len() < 8 {
            self.failures.push(what.into());
        }
    }
}

/// Runs one workload once.
pub fn run(workload: Workload, seed: u64, seconds: f64, traced: bool) -> RunOutput {
    match workload {
        Workload::FabricGrid => inprocess::run::<grid::FabricGrid>(workload, seed, seconds, traced),
        Workload::GpuGrid => inprocess::run::<grid::GpuGrid>(workload, seed, seconds, traced),
        Workload::FabricWide => inprocess::run::<wide::FabricWide>(workload, seed, seconds, traced),
        Workload::ServeCold | Workload::ServeWarm => serve::run(workload, seed, seconds, traced),
    }
}

/// `benchmark/out/`: traces, reports and scratch cache directories.
pub fn out_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).unwrap_or_else(|e| panic!("creating {}: {e}", dir.display()));
    dir
}

/// A scratch directory under `out/`, emptied first so nothing survives
/// from an earlier run.
pub fn fresh_dir(name: &str) -> PathBuf {
    let dir = out_dir().join(name);
    match std::fs::remove_dir_all(&dir) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
        Err(e) => panic!("emptying {}: {e}", dir.display()),
    }
    std::fs::create_dir_all(&dir).unwrap_or_else(|e| panic!("creating {}: {e}", dir.display()));
    dir
}

/// Peak resident set of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("reading /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
            assert!(w.why().len() <= 200 && !w.why().contains('\n'));
        }
        assert_eq!(Workload::from_name("nope"), None);
    }

    #[test]
    fn peak_rss_is_positive() {
        assert!(peak_rss_mb() > 1.0);
    }
}
