//! The driver shared by the three in-process workloads (`fabric_grid`,
//! `fabric_wide`, `gpu_grid`): repeated set-up, timed passes through the
//! product entry points, and the traced run that decomposes each job.

use super::{RunOutput, Workload};
use crate::micro;
use crate::product::StageNs;
use crate::span::{self, Tracer};
use crate::stats;
use dmt_common::stats::PhaseStats;
use dmt_core::Arch;
use dmt_runner::{JobOutcome, JobSpec};
use std::time::{Duration, Instant};

/// Fewest timed passes, however short `--seconds` is.
const MIN_PASSES: usize = 5;
/// Passes per mode when measuring engine-observation overhead.
const OBS_PASSES: usize = 3;

/// One pass over the workload's job list.
pub struct Pass {
    /// Digest of every job's simulated statistics, in job order.
    pub fingerprint: u64,
    /// Simulated cycles summed over the jobs.
    pub cycles: u64,
    /// Jobs that did not complete with a validated result.
    pub failed: u64,
    /// Wall time of the whole pass.
    pub wall_ns: u64,
    /// Wall time of each job's product call, in job order.
    pub job_ns: Vec<u64>,
}

/// One job of a decomposed pass.
pub struct JobRecord {
    pub arch: Arch,
    pub ns: StageNs,
    /// The job's simulated counters (run totals), when it completed.
    pub stats: Option<PhaseStats>,
    pub replication: Option<u32>,
}

/// Stage times and simulated counters summed over a set of job records.
#[derive(Default)]
struct Totals {
    jobs: f64,
    ns: StageNs,
    stats: PhaseStats,
}

impl Totals {
    fn of<'a>(records: impl Iterator<Item = &'a JobRecord>) -> Totals {
        let mut t = Totals::default();
        for r in records {
            t.jobs += 1.0;
            t.ns.add(&r.ns);
            if let Some(stats) = &r.stats {
                t.stats.accumulate(stats);
            }
        }
        t
    }
}

/// A workload whose jobs run inside the benchmark's own process.
pub trait InProcess: Sized {
    /// Everything before the first pass: job list, kernels, inputs,
    /// compiled programs, reference outputs.
    fn setup(seed: u64) -> Self;

    /// Jobs per pass.
    fn jobs(&self) -> usize;

    /// One pass through the product entry points, every output checked.
    fn pass(&self) -> Pass;

    /// The same pass with each job decomposed into per-layer spans.
    fn decomposed_pass(&self, tracer: &mut Tracer) -> (Pass, Vec<JobRecord>);

    /// Wall time of one pass with engine observation (`dmt-obs` tracer
    /// and profiler) on or off.
    fn observed_pass_ns(&self, observe: bool) -> u64;

    /// The job list with one pass's outcomes, when the workload's jobs
    /// are `JobSpec`s the runner could cache.
    fn cacheable(&self) -> Option<(Vec<JobSpec>, Vec<JobOutcome>)>;
}

struct Ready<W> {
    workload: W,
    setup_s: f64,
    /// The warm-up pass every later pass must reproduce bit for bit.
    reference: Pass,
}

/// Fewest set-ups per run; `setup_s` is the median over all of them.
const MIN_SETUPS: usize = 3;
/// Cheap set-ups repeat until this much time has gone into them...
const SETUP_BUDGET_S: f64 = 0.5;
/// ...but no more often than this.
const MAX_SETUPS: usize = 25;

/// Sets the workload up several times, each followed by the warm-up
/// pass that fills allocator and page caches (part of set-up: it is what
/// a user waits for before the first measured pass).
fn set_up<W: InProcess>(seed: u64, out: &mut RunOutput) -> Ready<W> {
    let mut times = Vec::new();
    let mut fingerprints = Vec::new();
    let mut last = None;
    while times.len() < MIN_SETUPS
        || (times.len() < MAX_SETUPS && times.iter().sum::<f64>() < SETUP_BUDGET_S)
    {
        let start = Instant::now();
        let workload = W::setup(seed);
        let reference = workload.pass();
        times.push(start.elapsed().as_secs_f64());
        fingerprints.push(reference.fingerprint);
        last = Some((workload, reference));
    }
    let (workload, reference) = last.expect("MIN_SETUPS > 0");
    if fingerprints.iter().any(|f| *f != reference.fingerprint) {
        out.fail(
            1,
            "set-up repetitions disagree on the statistics fingerprint",
        );
    }
    out.count("setup_reps", times.len() as f64);
    Ready {
        workload,
        setup_s: stats::median(&stats::sorted(times)),
        reference,
    }
}

/// Runs passes until `budget` has elapsed (at least [`MIN_PASSES`]),
/// checking each against the reference.
fn run_passes<W: InProcess>(
    ready: &Ready<W>,
    budget: Duration,
    out: &mut RunOutput,
    mut one: impl FnMut(&W) -> Pass,
) -> Vec<Pass> {
    let start = Instant::now();
    let mut passes = Vec::new();
    while passes.len() < MIN_PASSES || start.elapsed() < budget {
        let pass = one(&ready.workload);
        let jobs = ready.workload.jobs() as u64;
        out.attempted += jobs;
        if pass.failed > 0 {
            out.fail(
                pass.failed,
                "a job did not complete with a validated result",
            );
        } else if pass.fingerprint != ready.reference.fingerprint {
            out.fail(jobs, "pass statistics differ from the reference pass");
        }
        passes.push(pass);
    }
    passes
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

pub fn run<W: InProcess>(workload: Workload, seed: u64, seconds: f64, traced: bool) -> RunOutput {
    let mut out = RunOutput::default();
    let ready = set_up::<W>(seed, &mut out);
    if ready.reference.failed > 0 {
        out.fail(ready.reference.failed, "the warm-up pass failed");
    }
    if traced {
        traced_run(workload, seed, seconds, &ready, &mut out);
    } else {
        timed_run(seconds, &ready, &mut out);
    }
    out
}

fn timed_run<W: InProcess>(seconds: f64, ready: &Ready<W>, out: &mut RunOutput) {
    let passes = run_passes(ready, Duration::from_secs_f64(seconds), out, W::pass);
    let jobs = ready.workload.jobs();
    let wall_s: f64 = passes.iter().map(|p| p.wall_ns as f64 / 1e9).sum();
    let cycles: u64 = passes.iter().map(|p| p.cycles).sum();
    let pass_ms = stats::sorted(passes.iter().map(|p| ms(p.wall_ns)).collect());
    let job_ms = stats::sorted(
        passes
            .iter()
            .flat_map(|p| p.job_ns.iter().map(|&ns| ms(ns)))
            .collect(),
    );
    let (tail_q, tail_ms) = stats::tail(&job_ms, 0.95);
    // The job list is a mix of very different jobs, so the pooled median
    // sits on the boundary between two of them and flips from run to
    // run. The typical job is instead the median job of the list, each
    // job taken at its own median over the passes.
    let per_job_median: Vec<f64> = (0..jobs)
        .map(|j| {
            stats::median(&stats::sorted(
                passes.iter().map(|p| ms(p.job_ns[j])).collect(),
            ))
        })
        .collect();

    out.metric("setup_s", ready.setup_s);
    out.metric("peak_rss_mb", super::peak_rss_mb());
    out.metric("sim_cycles_per_s", cycles as f64 / wall_s);
    out.metric("jobs_per_s", (passes.len() * jobs) as f64 / wall_s);
    out.metric("pass_ms_p50", stats::median(&pass_ms));
    out.metric(
        "job_latency_ms_p50",
        stats::median(&stats::sorted(per_job_median)),
    );
    out.metric("job_latency_ms_p95", tail_ms);
    out.count("passes", passes.len() as f64);
    out.count("jobs_per_pass", jobs as f64);
    out.count("job_latency_samples", job_ms.len() as f64);
    out.count("job_latency_tail_percentile", tail_q);
    out.count("sim_cycles_per_pass", ready.reference.cycles as f64);
    out.count("sim_stats_fingerprint", ready.reference.fingerprint as f64);
}

fn traced_run<W: InProcess>(
    workload: Workload,
    seed: u64,
    seconds: f64,
    ready: &Ready<W>,
    out: &mut RunOutput,
) {
    let epoch = Instant::now();
    let mut tracer = Tracer::new(epoch);
    let jobs = ready.workload.jobs();

    // Untraced passes: the baseline for the tracing overhead, and the
    // plan overhead (pass wall minus the job calls it made).
    let plain = run_passes(
        ready,
        Duration::from_secs_f64(0.2 * seconds),
        out,
        |w: &W| tracer.span("bench.pass_untraced", 0, |_| w.pass()).0,
    );
    // Decomposed passes: one span per layer call.
    let mut records: Vec<JobRecord> = Vec::new();
    let decomposed = run_passes(
        ready,
        Duration::from_secs_f64(0.4 * seconds),
        out,
        |w: &W| {
            let (pass, mut recs) = w.decomposed_pass(&mut tracer);
            records.append(&mut recs);
            pass
        },
    );

    let plain_ms = stats::sorted(plain.iter().map(|p| ms(p.wall_ns)).collect());
    let traced_ms = stats::sorted(decomposed.iter().map(|p| ms(p.wall_ns)).collect());
    let plain_wall: u64 = plain.iter().map(|p| p.wall_ns).sum();
    let plain_jobs_ns: u64 = plain.iter().flat_map(|p| &p.job_ns).sum();
    let traced_wall: u64 = decomposed.iter().map(|p| p.wall_ns).sum();

    let per = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let us_per_job = |ns: u64, jobs: f64| per(ns as f64 / 1e3, jobs);
    let all = Totals::of(records.iter());
    let mt = Totals::of(records.iter().filter(|r| r.arch == Arch::MtCgra));
    let dmt = Totals::of(records.iter().filter(|r| r.arch == Arch::DmtCgra));
    let gpu = Totals::of(records.iter().filter(|r| r.arch == Arch::FermiSm));
    let fabric = Totals::of(records.iter().filter(|r| r.arch != Arch::FermiSm));
    let cycles_per_s = |t: &Totals| per(t.stats.cycles as f64 * 1e9, t.ns.run as f64);
    let per_pass = |count: u64| count as f64 / decomposed.len() as f64;

    let fabric_ns = fabric.ns.run as f64;
    out.metric("fabric.run_share", per(fabric_ns, traced_wall as f64));
    out.metric("fabric.mt_cycles_per_s", cycles_per_s(&mt));
    out.metric("fabric.dmt_cycles_per_s", cycles_per_s(&dmt));
    out.metric(
        "fabric.ns_per_token",
        per(fabric_ns, fabric.stats.tokens_routed as f64),
    );
    out.metric(
        "fabric.ns_per_fire",
        per(fabric_ns, fabric.stats.fabric_ops() as f64),
    );
    out.metric("fabric.tokens_routed", per_pass(fabric.stats.tokens_routed));
    out.metric(
        "fabric.backpressure_cycles",
        per_pass(fabric.stats.backpressure_cycles),
    );
    let gpu_ns = gpu.ns.run as f64;
    out.metric("gpu.run_share", per(gpu_ns, traced_wall as f64));
    out.metric("gpu.cycles_per_s", cycles_per_s(&gpu));
    out.metric(
        "gpu.ns_per_warp_instr",
        per(gpu_ns, gpu.stats.gpu_instructions as f64),
    );
    out.metric("gpu.instructions", per_pass(gpu.stats.gpu_instructions));
    out.metric("gpu.stall_cycles", per_pass(gpu.stats.gpu_stall_cycles));
    let s = &all.stats;
    out.metric(
        "mem.l1_hit_ratio",
        per(s.l1_hits as f64, (s.l1_hits + s.l1_misses) as f64),
    );
    out.metric(
        "mem.l2_hit_ratio",
        per(s.l2_hits as f64, (s.l2_hits + s.l2_misses) as f64),
    );
    out.metric("mem.dram_lines", per_pass(s.dram_reads + s.dram_writes));
    out.metric(
        "compiler.compile_us_per_job",
        us_per_job(fabric.ns.compile, fabric.jobs),
    );
    let reps = records.iter().filter_map(|r| r.replication);
    out.metric(
        "compiler.replication_min",
        f64::from(reps.clone().min().unwrap_or(0)),
    );
    out.metric(
        "compiler.replication_max",
        f64::from(reps.max().unwrap_or(0)),
    );
    out.metric(
        "kernels.build_us_per_job",
        us_per_job(all.ns.build, all.jobs),
    );
    out.metric(
        "kernels.workload_us_per_job",
        us_per_job(all.ns.workload, all.jobs),
    );
    out.metric(
        "kernels.check_us_per_job",
        us_per_job(all.ns.check, all.jobs),
    );
    out.metric(
        "energy.evaluate_us_per_job",
        us_per_job(all.ns.energy, all.jobs),
    );
    out.metric(
        "runner.plan_overhead_us_per_job",
        us_per_job(
            plain_wall.saturating_sub(plain_jobs_ns),
            (plain.len() * jobs) as f64,
        ),
    );

    // Engine observation overhead, from outside: the same pass with the
    // program's own tracer and profiler on, over the pass with them off.
    let mut on = Vec::new();
    let mut off = Vec::new();
    for _ in 0..OBS_PASSES {
        off.push(ms(ready.workload.observed_pass_ns(false)));
        on.push(ms(ready.workload.observed_pass_ns(true)));
    }
    out.metric(
        "obs.trace_overhead_ratio",
        stats::median(&stats::sorted(on)) / stats::median(&stats::sorted(off)),
    );

    micro::common_ops(out);
    if let Some((specs, outcomes)) = ready.workload.cacheable() {
        micro::cache_ops(out, workload.name(), &specs, &outcomes, None);
    }
    micro::sim_reference(seed, out);
    out.metric("sim.cycles_total", ready.reference.cycles as f64);
    out.metric("sim.stats_fingerprint", ready.reference.fingerprint as f64);

    // The harness's own self-checks.
    let layer_self: u64 = span::self_time_by_name(tracer.spans())
        .iter()
        .filter(|(name, _)| span::layer_of(name) != "bench")
        .map(|(_, ns)| ns)
        .sum();
    out.metric(
        "bench.layer_coverage",
        per(layer_self as f64, traced_wall as f64),
    );
    out.metric(
        "bench.trace_overhead_ratio",
        stats::median(&traced_ms) / stats::median(&plain_ms),
    );
    out.count("untraced_passes", plain.len() as f64);
    out.count("decomposed_passes", decomposed.len() as f64);
    out.count("jobs_per_pass", jobs as f64);
    out.count("spans", tracer.spans().len() as f64);
    out.count("setup_s", ready.setup_s);

    let path = super::out_dir().join(format!("{}.trace.json", workload.name()));
    span::write_trace(&path, workload.name(), seed, tracer.spans())
        .unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
}
