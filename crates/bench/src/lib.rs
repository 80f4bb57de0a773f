//! The experiment harness: runs the Table 3 suite on all three machines
//! and regenerates every table and figure of the paper's evaluation
//! (§5.2). One binary per artifact:
//!
//! | Binary | Artifact |
//! |---|---|
//! | `fig05_delta_cdf` | Fig 5 — CDF of ΔTID transmission distances |
//! | `fig11_speedup` | Fig 11 — speedup over the Fermi SM |
//! | `fig12_energy` | Fig 12 — energy efficiency over the Fermi SM |
//! | `table2_config` | Table 2 — system configuration |
//! | `table3_benchmarks` | Table 3 — benchmark inventory |
//! | `ablate_token_buffer` | §4.3 — token-buffer size vs cascades/spills |
//! | `ablate_inflight` | §3 — in-flight thread window sweep |
//! | `ablate_replication` | §3 — graph replication on/off |
//! | `ablate_window` | §3.2 — transmission-window sweep |
//!
//! Every binary declares the runner flags it accepts (`dmt_runner::Cli`;
//! anything else is rejected at parse time). The grid of `(benchmark,
//! arch, config, seed)` points is expressed as `dmt-runner` jobs and
//! goes through the one grid runner, [`run_grid`], whose [`GridOptions`]
//! — threads, progress, cache, deadline, trace/profile observation —
//! are built from the parsed flags in one place
//! ([`GridOptions::from_args`]) and compose on one `ExecPlan` path.
//! [`execute_job`] is the bridge back into the leaf [`try_run_one`].
//! Aggregation is by job index, so stdout and artifact contents are
//! identical for any thread count.

pub mod sweep;

use dmt_core::common::RunLimits;
use dmt_core::{experiment, Arch, Machine, RunReport, SystemConfig};
use dmt_kernels::{suite, Benchmark};
use dmt_obs::Obs;
use dmt_runner::{
    Artifact, Cache, ExecPlan, JobMetrics, JobOutcome, JobSpec, Json, Progress, RunnerArgs,
};
use std::path::PathBuf;
use std::time::Instant;

/// Seed used by every headline experiment (results are deterministic).
pub const SEED: u64 = 42;

/// Runs one benchmark on one architecture, validating the output against
/// the CPU reference. The engine reports its event stream into `obs`
/// (`Obs::disabled()` for none; observed runs compute the same results)
/// and checks `limits` — the simulated-cycle deadline and the
/// cancellation token — at every cycle boundary
/// (`RunLimits::unlimited()` for none).
///
/// # Errors
///
/// Returns the compiler or machine error for a configuration on which
/// the kernel legitimately cannot run (e.g. a swept-out design point),
/// and `TimedOut`/`Cancelled` from the limits.
///
/// # Panics
///
/// Panics when the run completes but output validation fails:
/// experiments must never silently report numbers from wrong results.
/// (A cut-short run has no result to validate.)
pub fn try_run_one(
    bench: &dyn Benchmark,
    arch: Arch,
    cfg: SystemConfig,
    seed: u64,
    obs: &mut Obs,
    limits: &RunLimits<'_>,
) -> dmt_core::Result<RunReport> {
    let kernel = match arch {
        Arch::DmtCgra => bench.dmt_kernel(),
        Arch::FermiSm | Arch::MtCgra => bench.shared_kernel(),
    };
    let report =
        Machine::new(arch, cfg).run_limited(&kernel, bench.workload(seed).launch(), obs, limits)?;
    bench
        .check(seed, &report.memory)
        .unwrap_or_else(|e| panic!("{} on {arch}: wrong result: {e}", bench.info().name));
    Ok(report)
}

/// A text bar for figure-style output (one `#` per 0.25×).
#[must_use]
pub fn bar(value: f64) -> String {
    "#".repeat((value * 4.0).round().max(0.0) as usize)
}

/// The leaf job executor: resolves the named benchmark from the Table 3
/// suite and runs the point through [`try_run_one`].
///
/// This is the only bridge between the `dmt-runner` orchestration layer
/// and the simulators; every worker calls it with nothing shared but the
/// spec, and it builds its own kernels, workload and `Machine` from
/// scratch (shared-nothing parallelism).
///
/// # Panics
///
/// Panics on an unknown benchmark name (a harness bug, not data) and on
/// validation failures (wrong results must never become numbers).
#[must_use]
pub fn execute_job(spec: &JobSpec) -> JobOutcome {
    execute_job_observed(spec, &mut Obs::disabled())
}

/// [`execute_job`] with an observation handle (see [`try_run_one`]).
///
/// # Panics
///
/// As [`execute_job`].
#[must_use]
pub fn execute_job_observed(spec: &JobSpec, obs: &mut Obs) -> JobOutcome {
    execute_job_inner(spec, obs, &RunLimits::unlimited())
}

/// The limit-aware leaf executor `ExecPlan::run_limited` expects: maps
/// `Error::TimedOut` to [`JobOutcome::TimedOut`] (permanent under this
/// budget), `Error::Cancelled` to [`JobOutcome::Failed`] (transient —
/// the same job may be resubmitted), and every other leaf error to
/// [`JobOutcome::Infeasible`] as before.
///
/// # Panics
///
/// As [`execute_job`].
#[must_use]
pub fn execute_job_limited(spec: &JobSpec, limits: &RunLimits<'_>) -> JobOutcome {
    execute_job_inner(spec, &mut Obs::disabled(), limits)
}

fn execute_job_inner(spec: &JobSpec, obs: &mut Obs, limits: &RunLimits<'_>) -> JobOutcome {
    let bench = suite::all()
        .into_iter()
        .find(|b| b.info().name == spec.bench)
        .unwrap_or_else(|| panic!("unknown benchmark {:?}", spec.bench));
    match try_run_one(bench.as_ref(), spec.arch, spec.cfg, spec.seed, obs, limits) {
        Ok(report) => JobOutcome::completed(JobMetrics::from_report(&report)),
        Err(e @ dmt_core::Error::TimedOut { .. }) => JobOutcome::TimedOut(e.to_string()),
        Err(e @ dmt_core::Error::Cancelled { .. }) => JobOutcome::Failed(e.to_string()),
        Err(e) => JobOutcome::Infeasible(e.to_string()),
    }
}

/// The job grid for the first `take` Table 3 benchmarks on all three
/// machines: benchmark-major, architecture-minor (`Arch::ALL` order), so
/// consecutive triples form one suite row.
#[must_use]
pub fn suite_jobs(cfg: SystemConfig, seed: u64, take: usize) -> Vec<JobSpec> {
    suite::all()
        .into_iter()
        .take(take)
        .flat_map(|b| {
            let name = b.info().name;
            Arch::ALL.map(|arch| JobSpec::new(name, arch, cfg, seed))
        })
        .collect()
}

/// One suite row measured through the runner: per-architecture outcomes,
/// any of which may be infeasible at a swept configuration point.
#[derive(Debug, Clone, PartialEq)]
pub struct RowOutcome {
    /// Benchmark name (Table 3).
    pub name: String,
    /// Fermi SM outcome.
    pub fermi: JobOutcome,
    /// MT-CGRA outcome.
    pub mt: JobOutcome,
    /// dMT-CGRA outcome.
    pub dmt: JobOutcome,
}

impl RowOutcome {
    /// Regroups a [`suite_jobs`]-ordered outcome list into rows.
    ///
    /// # Panics
    ///
    /// Panics when the lists disagree or are not whole rows in
    /// [`suite_jobs`] order.
    #[must_use]
    pub fn from_jobs(jobs: &[JobSpec], outcomes: &[JobOutcome]) -> Vec<RowOutcome> {
        assert_eq!(jobs.len(), outcomes.len());
        assert_eq!(jobs.len() % Arch::ALL.len(), 0, "partial suite row");
        jobs.chunks_exact(Arch::ALL.len())
            .zip(outcomes.chunks_exact(Arch::ALL.len()))
            .map(|(specs, outs)| {
                assert_eq!(
                    [specs[0].arch, specs[1].arch, specs[2].arch],
                    Arch::ALL,
                    "jobs not in suite order"
                );
                RowOutcome {
                    name: specs[0].bench.clone(),
                    fermi: outs[0].clone(),
                    mt: outs[1].clone(),
                    dmt: outs[2].clone(),
                }
            })
            .collect()
    }

    /// The outcome for one architecture.
    #[must_use]
    pub fn outcome(&self, arch: Arch) -> &JobOutcome {
        match arch {
            Arch::FermiSm => &self.fermi,
            Arch::MtCgra => &self.mt,
            Arch::DmtCgra => &self.dmt,
        }
    }

    /// True when all three architectures completed.
    #[must_use]
    pub fn complete(&self) -> bool {
        Arch::ALL
            .iter()
            .all(|&a| self.outcome(a).metrics().is_some())
    }

    /// The infeasible architectures with their leaf errors.
    #[must_use]
    pub fn failures(&self) -> Vec<(Arch, String)> {
        Arch::ALL
            .iter()
            .filter_map(|&a| self.outcome(a).error().map(|e| (a, e.to_owned())))
            .collect()
    }

    fn ratio(&self, base: Arch, test: Arch, f: impl Fn(&JobMetrics) -> f64) -> Option<f64> {
        Some(f(self.outcome(base).metrics()?) / f(self.outcome(test).metrics()?))
    }

    /// MT-CGRA speedup over the SM (Fig 11), when both ran.
    #[must_use]
    pub fn mt_speedup(&self) -> Option<f64> {
        self.ratio(Arch::FermiSm, Arch::MtCgra, |m| m.cycles() as f64)
    }

    /// dMT-CGRA speedup over the SM (Fig 11), when both ran.
    #[must_use]
    pub fn dmt_speedup(&self) -> Option<f64> {
        self.ratio(Arch::FermiSm, Arch::DmtCgra, |m| m.cycles() as f64)
    }

    /// MT-CGRA energy efficiency over the SM (Fig 12), when both ran.
    #[must_use]
    pub fn mt_efficiency(&self) -> Option<f64> {
        self.ratio(Arch::FermiSm, Arch::MtCgra, JobMetrics::total_joules)
    }

    /// dMT-CGRA energy efficiency over the SM (Fig 12), when both ran.
    #[must_use]
    pub fn dmt_efficiency(&self) -> Option<f64> {
        self.ratio(Arch::FermiSm, Arch::DmtCgra, JobMetrics::total_joules)
    }
}

/// A completed grid run: the jobs, their outcomes and observations, and
/// the run metadata an artifact records.
#[derive(Debug)]
pub struct SuiteRun {
    /// The job grid, in submission order.
    pub jobs: Vec<JobSpec>,
    /// Per-job outcomes, index-aligned with `jobs`.
    pub outcomes: Vec<JobOutcome>,
    /// Per-job observation handles, index-aligned with `jobs`: what the
    /// engine reported under [`GridOptions::trace`]/[`GridOptions::profile`].
    /// A handle is empty when neither was asked for and when the job
    /// never reached the engine (an injected fault, a caught panic).
    pub observations: Vec<Obs>,
    /// Worker threads used.
    pub threads: usize,
    /// Wall-clock of the pool run, in milliseconds.
    pub wall_ms: u64,
    /// Headline seed.
    pub seed: u64,
}

impl SuiteRun {
    /// Regroups the outcomes into suite rows (only valid for
    /// [`suite_jobs`]-shaped grids).
    #[must_use]
    pub fn rows(&self) -> Vec<RowOutcome> {
        RowOutcome::from_jobs(&self.jobs, &self.outcomes)
    }

    /// Packages the run as a versioned JSON artifact.
    #[must_use]
    pub fn artifact(&self, suite: &str) -> Artifact {
        Artifact::new(
            suite,
            self.threads,
            self.wall_ms,
            self.seed,
            self.jobs.clone(),
            self.outcomes.clone(),
        )
    }
}

/// Everything a grid run can be asked for, in one value: built from the
/// parsed command line by [`GridOptions::from_args`], or field by field
/// (`..GridOptions::default()` is the serial, silent, uncached,
/// unlimited, unobserved run).
#[derive(Debug, Default)]
pub struct GridOptions {
    /// Worker threads (`0` runs serially, like `1`).
    pub threads: usize,
    /// Live per-job stderr ticker (disabled by default).
    pub progress: Progress,
    /// Result cache: hits skip simulation, misses run
    /// longest-expected-first and are persisted as they complete (killed
    /// runs resume); every aggregate is byte-identical to the uncached
    /// run. Left untouched by an observed run.
    pub cache: Option<Cache>,
    /// Per-job simulated-cycle budget: a job that reaches it ends as
    /// [`JobOutcome::TimedOut`] and is never cached (the budget is not
    /// part of the job hash).
    pub deadline_cycles: Option<u64>,
    /// Trace every job; [`GridOptions::finish`] exports the Chrome-trace
    /// JSON here.
    pub trace: Option<PathBuf>,
    /// Attach the hot-spot profiler to every job.
    pub profile: bool,
    /// Where [`GridOptions::finish`] writes the versioned artifact.
    pub json: Option<PathBuf>,
}

impl GridOptions {
    /// The options a binary's command line asks for — the one place
    /// runner flags (and the environment defaults of the declared ones)
    /// turn into run behaviour.
    #[must_use]
    pub fn from_args(args: &RunnerArgs) -> GridOptions {
        GridOptions {
            threads: args.effective_threads(),
            progress: args.progress_reporter(),
            cache: args.cache_store(),
            deadline_cycles: args.deadline_cycles,
            trace: args.trace_path(),
            profile: false,
            json: args.json.clone(),
        }
    }

    /// The cache this run reads and fills: none when observed — a trace
    /// or a profile means simulating.
    fn cache_in_use(&self) -> Option<&Cache> {
        self.cache
            .as_ref()
            .filter(|_| self.trace.is_none() && !self.profile)
    }

    /// The shared epilogue of every grid-shaped binary: exports the
    /// Chrome trace when tracing, writes the `--json` artifact when
    /// asked, and reports the cache's hit/miss line when it was used —
    /// each with one uniform stderr line.
    ///
    /// # Panics
    ///
    /// Panics when a file cannot be written — a requested recording
    /// that fails must not exit 0.
    pub fn finish(&self, run: &SuiteRun, suite: &str) {
        if let Some(path) = &self.trace {
            let named: Vec<(String, &dmt_obs::Tracer)> = run
                .jobs
                .iter()
                .zip(&run.observations)
                .map(|(spec, obs)| (job_label(spec), &obs.tracer))
                .collect();
            dmt_runner::write_json(path, &dmt_obs::chrome_trace_json(&named))
                .unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
            eprintln!(
                "[dmt-runner] wrote {} ({} events, {} dropped) — open in chrome://tracing or Perfetto",
                path.display(),
                run.observations.iter().map(|o| o.tracer.len()).sum::<usize>(),
                run.observations.iter().map(|o| o.tracer.dropped()).sum::<u64>(),
            );
        }
        if let Some(path) = &self.json {
            run.artifact(suite)
                .write(path)
                .unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
            eprintln!(
                "[dmt-runner] wrote {} ({} jobs, {} threads, {} ms)",
                path.display(),
                run.jobs.len(),
                run.threads,
                run.wall_ms
            );
        }
        if let Some(cache) = self.cache_in_use() {
            cache.report();
        }
    }
}

/// Executes a job grid — the one path behind every experiment binary.
/// Always an `ExecPlan`, so every option composes with every other:
/// outcomes land by job index for any thread count, a panicking or
/// fault-injected job costs exactly its own slot, the deadline types
/// overruns as `timed_out`, and progress ticks per executed job, traced
/// or not. Each job gets its own [`Obs`] handle on exactly one worker,
/// returned index-aligned in [`SuiteRun::observations`].
#[must_use]
pub fn run_grid(jobs: Vec<JobSpec>, seed: u64, opts: &GridOptions) -> SuiteRun {
    let (trace, profile) = (opts.trace.is_some(), opts.profile);
    let threads = opts.threads.max(1);
    let start = Instant::now();
    let (outcomes, observations) = ExecPlan::new(&jobs)
        .threads(threads)
        .progress(Some(&opts.progress))
        .cache(opts.cache_in_use())
        .deadline_cycles(opts.deadline_cycles)
        .run_with(|spec, limits| {
            let mut obs = Obs::new(trace, profile);
            let outcome = execute_job_inner(spec, &mut obs, limits);
            (outcome, obs)
        })
        .into_iter()
        .map(|(outcome, obs)| (outcome, obs.unwrap_or_else(|| Obs::new(trace, profile))))
        .unzip();
    SuiteRun {
        jobs,
        outcomes,
        observations,
        threads,
        wall_ms: u64::try_from(start.elapsed().as_millis()).unwrap_or(u64::MAX),
        seed,
    }
}

/// A job's stable label in observation artifacts: `bench/arch`.
#[must_use]
pub fn job_label(spec: &JobSpec) -> String {
    format!("{}/{}", spec.bench, spec.arch.key())
}

/// Assembles `BENCH_profile.json`: one deterministic per-job profile
/// document (labelled `bench/arch`, top-`k` rankings) plus volatile run
/// metadata under `"meta"`. The `"jobs"` array is byte-stable across
/// thread counts and hosts; comparisons (goldens, cross-thread checks)
/// should render only that part.
#[must_use]
pub fn profile_artifact(run: &SuiteRun, top_k: usize) -> Json {
    Json::obj()
        .with("profile_schema_version", 1u64)
        .with("suite", "profile")
        .with(
            "jobs",
            Json::Arr(
                run.jobs
                    .iter()
                    .zip(&run.observations)
                    .map(|(spec, obs)| {
                        Json::obj()
                            .with("job", job_label(spec))
                            .with("seed", spec.seed)
                            .with("profile", obs.profile.to_json(top_k))
                    })
                    .collect(),
            ),
        )
        .with(
            "meta",
            Json::obj()
                .with("threads", run.threads)
                .with("wall_ms", run.wall_ms),
        )
}

/// Renders the `profile_hotspots` stdout report: per job, the traffic
/// totals and the top-`k` node/edge rankings. Deterministic for any
/// thread count (rankings are total-ordered; see
/// [`dmt_obs::RunProfile::top_nodes`]).
#[must_use]
pub fn profile_report(run: &SuiteRun, k: usize) -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    let _ = writeln!(s, "Hot-spot profile (top {k} per job, seed {})", run.seed);
    for (spec, obs) in run.jobs.iter().zip(&run.observations) {
        let p = &obs.profile;
        let _ = writeln!(s, "\n== {} ==", job_label(spec));
        let _ = writeln!(
            s,
            "cycles {}  phases {}  tokens {} (direct {}, elevator {}, eldst {})",
            p.cycles,
            p.phases,
            p.total_tokens(),
            p.class_tokens[dmt_obs::EdgeClass::Direct as usize],
            p.class_tokens[dmt_obs::EdgeClass::Elevator as usize],
            p.class_tokens[dmt_obs::EdgeClass::Eldst as usize],
        );
        let _ = writeln!(
            s,
            "spills: matching_store {}, eldst {}; calendar high-water {}, scheduled {}; \
             ring occupancy max {}",
            p.spills[dmt_obs::StoreKind::Match as usize],
            p.spills[dmt_obs::StoreKind::Eldst as usize],
            p.calendar_high_water,
            p.calendar_scheduled,
            p.ring_occupancy.max(),
        );
        let _ = writeln!(s, "top nodes (fires):");
        for ((phase, node), fires) in p.top_nodes(k) {
            let _ = writeln!(s, "  phase {phase} node {node:<4} {fires:>10}");
        }
        let _ = writeln!(s, "top edges (tokens):");
        for ((phase, src, dst), tokens) in p.top_edges(k) {
            let _ = writeln!(s, "  phase {phase} edge {src:>3} -> {dst:<4} {tokens:>10}");
        }
    }
    s
}

/// The headline binaries' shared failure policy: they run the *default*
/// configuration, where an infeasible point is a simulator regression,
/// not a swept-out design point. The caller's report has already
/// annotated the failures; this exits 1 so scripts and CI cannot read
/// success off wrong or missing data.
pub fn exit_on_incomplete(rows: &[RowOutcome]) {
    let incomplete = rows.iter().filter(|r| !r.complete()).count();
    if incomplete > 0 {
        eprintln!("error: {incomplete} suite row(s) failed at the default configuration");
        std::process::exit(1);
    }
}

/// Geomean across rows of a per-row ratio, skipping rows where the ratio
/// is undefined (an architecture was infeasible).
#[must_use]
pub fn geomean_rows(rows: &[RowOutcome], f: impl Fn(&RowOutcome) -> Option<f64>) -> f64 {
    let v: Vec<f64> = rows.iter().filter_map(f).collect();
    experiment::geomean(&v).unwrap_or(f64::NAN)
}

fn fmt_opt(v: Option<f64>, width: usize, prec: usize) -> String {
    match v {
        Some(x) => format!("{x:>width$.prec$}"),
        None => format!("{:>width$}", "-"),
    }
}

fn fmt_cycles(o: &JobOutcome, width: usize) -> String {
    match o.metrics() {
        Some(m) => format!("{:>width$}", m.cycles()),
        None => format!("{:>width$}", "-"),
    }
}

/// Renders Fig 11 (speedup over the Fermi SM) from runner rows —
/// deterministic for any thread count, with infeasible points annotated
/// inline instead of aborting the suite.
#[must_use]
pub fn fig11_report(rows: &[RowOutcome]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Figure 11: speedup over the Fermi SM (one '#' = 0.25x)\n"
    );
    let _ = writeln!(
        out,
        "{:<12} {:>10} {:>10} {:>10} {:>8} {:>8}",
        "benchmark", "fermi cyc", "mt cyc", "dmt cyc", "MT [x]", "dMT [x]"
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{:<12} {} {} {} {} {}",
            r.name,
            fmt_cycles(&r.fermi, 10),
            fmt_cycles(&r.mt, 10),
            fmt_cycles(&r.dmt, 10),
            fmt_opt(r.mt_speedup(), 8, 2),
            fmt_opt(r.dmt_speedup(), 8, 2),
        );
        if let Some(s) = r.mt_speedup() {
            let _ = writeln!(out, "{:>14} MT  |{}", "", bar(s));
        }
        if let Some(s) = r.dmt_speedup() {
            let _ = writeln!(out, "{:>14} dMT |{}", "", bar(s));
        }
        for (arch, err) in r.failures() {
            let _ = writeln!(out, "{:>14} infeasible on {arch}: {err}", "");
        }
    }
    let gm_mt = geomean_rows(rows, RowOutcome::mt_speedup);
    let gm_dmt = geomean_rows(rows, RowOutcome::dmt_speedup);
    let _ = writeln!(out, "\ngeomean: MT-CGRA {gm_mt:.2}x, dMT-CGRA {gm_dmt:.2}x");
    let skipped = rows.iter().filter(|r| !r.complete()).count();
    if skipped > 0 {
        let _ = writeln!(
            out,
            "         (each geomean covers the rows where its ratio is defined; \
             {skipped} of {} rows annotated above)",
            rows.len()
        );
    }
    let _ = writeln!(out, "paper:   MT-CGRA 2.3x,  dMT-CGRA 4.5x (max 13.5x)");
    out
}

/// Renders Fig 12 (energy efficiency over the Fermi SM) from runner rows.
#[must_use]
pub fn fig12_report(rows: &[RowOutcome]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Figure 12: energy efficiency over the Fermi SM (one '#' = 0.25x)\n"
    );
    let _ = writeln!(
        out,
        "{:<12} {:>12} {:>12} {:>12} {:>8} {:>8}",
        "benchmark", "fermi [uJ]", "mt [uJ]", "dmt [uJ]", "MT [x]", "dMT [x]"
    );
    for r in rows {
        let uj = |o: &JobOutcome| o.metrics().map(|m| m.total_joules() * 1e6);
        let eff_bar = r
            .dmt_efficiency()
            .map(|e| format!("  dMT |{}", bar(e)))
            .unwrap_or_default();
        let _ = writeln!(
            out,
            "{:<12} {} {} {} {} {}{}",
            r.name,
            fmt_opt(uj(&r.fermi), 12, 2),
            fmt_opt(uj(&r.mt), 12, 2),
            fmt_opt(uj(&r.dmt), 12, 2),
            fmt_opt(r.mt_efficiency(), 8, 2),
            fmt_opt(r.dmt_efficiency(), 8, 2),
            eff_bar,
        );
        for (arch, err) in r.failures() {
            let _ = writeln!(out, "{:>14} infeasible on {arch}: {err}", "");
        }
    }
    let gm_mt = geomean_rows(rows, RowOutcome::mt_efficiency);
    let gm_dmt = geomean_rows(rows, RowOutcome::dmt_efficiency);
    let _ = writeln!(out, "\ngeomean: MT-CGRA {gm_mt:.2}x, dMT-CGRA {gm_dmt:.2}x");
    let _ = writeln!(out, "paper:   MT-CGRA 3.5x,  dMT-CGRA 7.4x (max 33x)");

    // Per-category breakdown for the most energy-interesting kernel (the
    // paper highlights scan: large energy win without a speedup win).
    if let Some(scan) = rows.iter().find(|r| r.name == "scan") {
        if let (Some(fermi), Some(dmt)) = (scan.fermi.metrics(), scan.dmt.metrics()) {
            let _ = writeln!(out, "\nscan energy breakdown:");
            let _ = writeln!(out, "-- Fermi SM --\n{}", fermi.energy);
            let _ = writeln!(out, "-- dMT-CGRA --\n{}", dmt.energy);
        }
    }
    out
}

/// Collects Fig 5 communication sites across every dMT kernel in the
/// suite.
#[must_use]
pub fn suite_comm_sites() -> Vec<dmt_core::dfg::delta_stats::CommSite> {
    suite::all()
        .iter()
        .flat_map(|b| dmt_core::dfg::delta_stats::comm_sites(&b.dmt_kernel()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_one(bench: &dyn Benchmark, arch: Arch, cfg: SystemConfig, seed: u64) -> RunReport {
        let (obs, limits) = (&mut Obs::disabled(), RunLimits::unlimited());
        try_run_one(bench, arch, cfg, seed, obs, &limits).expect("feasible")
    }

    #[test]
    fn run_one_validates() {
        let b = dmt_kernels::convolution::Convolution::default();
        let r = run_one(&b, Arch::DmtCgra, SystemConfig::default(), 1);
        assert!(r.cycles() > 0);
    }

    #[test]
    fn bar_scales() {
        assert_eq!(bar(1.0).len(), 4);
        assert_eq!(bar(4.5).len(), 18);
    }

    #[test]
    fn suite_jobs_shape_matches_rows() {
        let jobs = suite_jobs(SystemConfig::default(), SEED, 2);
        assert_eq!(jobs.len(), 6);
        assert_eq!(jobs[0].bench, "scan");
        assert_eq!(jobs[0].arch, Arch::FermiSm);
        assert_eq!(jobs[2].arch, Arch::DmtCgra);
        assert_eq!(jobs[3].bench, "matrixMul");
    }

    #[test]
    fn execute_job_matches_leaf_runner() {
        let spec =
            dmt_runner::JobSpec::new("convolution", Arch::DmtCgra, SystemConfig::default(), 1);
        let outcome = execute_job(&spec);
        let m = outcome.metrics().expect("feasible");
        let b = dmt_kernels::convolution::Convolution::default();
        let r = run_one(&b, Arch::DmtCgra, SystemConfig::default(), 1);
        assert_eq!(m.stats, r.stats);
        assert_eq!(m.kernel, r.kernel);
    }

    #[test]
    fn execute_job_reports_infeasible_points() {
        // reduce's log-tree needs |ΔTID| up to 128: a 64-thread window is
        // infeasible, which the outcome must carry instead of panicking.
        let mut cfg = SystemConfig::default();
        cfg.fabric.inflight_threads = 64;
        let spec = dmt_runner::JobSpec::new("reduce", Arch::DmtCgra, cfg, SEED);
        match execute_job(&spec) {
            JobOutcome::Infeasible(e) => assert!(!e.is_empty()),
            other => panic!("expected an infeasible point, got {other:?}"),
        }
    }

    #[test]
    fn deadline_times_out_and_a_generous_budget_does_not() {
        let spec =
            dmt_runner::JobSpec::new("convolution", Arch::DmtCgra, SystemConfig::default(), 1);
        let full = execute_job(&spec);
        let cycles = full.metrics().expect("feasible").cycles();

        // A one-cycle budget cannot finish any real kernel.
        match execute_job_limited(&spec, &RunLimits::deadline(1)) {
            JobOutcome::TimedOut(e) => {
                assert!(e.contains("deadline exceeded"), "{e}");
                assert!(e.contains("budget 1 cycles"), "{e}");
            }
            other => panic!("expected TimedOut, got {other:?}"),
        }

        // A budget past the real run length changes nothing.
        let roomy = execute_job_limited(&spec, &RunLimits::deadline(cycles + 1));
        assert_eq!(roomy, full, "an unexercised deadline must not perturb");
    }

    #[test]
    fn cancellation_fails_the_job_transiently() {
        use std::sync::atomic::AtomicBool;
        let spec =
            dmt_runner::JobSpec::new("convolution", Arch::DmtCgra, SystemConfig::default(), 1);
        let token = AtomicBool::new(true);
        match execute_job_limited(&spec, &RunLimits::unlimited().with_cancel(&token)) {
            JobOutcome::Failed(e) => assert!(e.contains("cancelled"), "{e}"),
            other => panic!("expected Failed, got {other:?}"),
        }
    }

    #[test]
    fn pooled_run_with_deadline_types_every_outcome() {
        let grid = |deadline_cycles| {
            let opts = GridOptions {
                threads: 2,
                deadline_cycles,
                ..GridOptions::default()
            };
            run_grid(suite_jobs(SystemConfig::default(), SEED, 2), SEED, &opts)
        };
        let run = grid(Some(1));
        assert!(
            run.outcomes
                .iter()
                .all(|o| matches!(o, JobOutcome::TimedOut(_))),
            "{:?}",
            run.outcomes
        );
        // And a budget no job reaches is byte-identical to no budget.
        assert_eq!(grid(Some(1 << 40)).outcomes, grid(None).outcomes);
    }

    #[test]
    fn row_ratios_are_none_on_infeasible_arches() {
        let cycles = |c: u64| {
            JobOutcome::completed(JobMetrics {
                kernel: "k".into(),
                stats: dmt_core::common::stats::RunStats {
                    cycles: c,
                    ..Default::default()
                },
                energy: dmt_core::EnergyReport::default(),
            })
        };
        let row = RowOutcome {
            name: "x".into(),
            fermi: cycles(100),
            mt: JobOutcome::Infeasible("no".into()),
            dmt: cycles(25),
        };
        assert_eq!(row.mt_speedup(), None);
        assert_eq!(row.dmt_speedup(), Some(4.0));
        assert!(!row.complete());
        assert_eq!(row.failures().len(), 1);
        let report = fig11_report(&[row]);
        assert!(report.contains("infeasible on MT-CGRA: no"), "{report}");
    }
}
