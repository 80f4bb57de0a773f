//! `fabric_grid` and `gpu_grid`: the Table 3 suite through the serial,
//! uncached `ExecPlan` path the figure binaries take.

use super::inprocess::{InProcess, JobRecord, Pass};
use crate::product::{self, execute_job_decomposed};
use crate::seed;
use crate::span::Tracer;
use dmt_core::Arch;
use dmt_kernels::suite;
use dmt_obs::Obs;
use dmt_runner::{JobOutcome, JobSpec};
use std::sync::Mutex;
use std::time::Instant;

/// Seed stream of the grid workloads' job seed.
const STREAM_JOB_SEED: u64 = 0x6a0b;

/// The workload seed every grid job (and the sim reference grid) runs on.
pub fn job_seed(seed: u64) -> u64 {
    seed::derive(seed, STREAM_JOB_SEED, 0)
}

/// The Table 3 suite on a fixed set of architectures.
pub struct Grid<const GPU: bool> {
    jobs: Vec<JobSpec>,
}

/// 9 benchmarks × {MT-CGRA, dMT-CGRA}.
pub type FabricGrid = Grid<false>;
/// 9 benchmarks × Fermi SM.
pub type GpuGrid = Grid<true>;

impl<const GPU: bool> Grid<GPU> {
    fn archs() -> &'static [Arch] {
        if GPU {
            &[Arch::FermiSm]
        } else {
            &[Arch::MtCgra, Arch::DmtCgra]
        }
    }

    pub fn job_list(seed: u64) -> Vec<JobSpec> {
        product::table3_jobs(Self::archs(), job_seed(seed))
    }
}

fn timed_plan_pass(jobs: &[JobSpec], exec: impl Fn(&JobSpec) -> JobOutcome + Sync) -> Pass {
    let job_ns = Mutex::new(Vec::with_capacity(jobs.len()));
    let start = Instant::now();
    let outcomes = product::run_plan(jobs, |spec| {
        let t = Instant::now();
        let outcome = exec(spec);
        let ns = t.elapsed().as_nanos() as u64;
        job_ns.lock().expect("no panics hold this lock").push(ns);
        outcome
    });
    let wall_ns = start.elapsed().as_nanos() as u64;
    pass_of(
        &outcomes,
        wall_ns,
        job_ns.into_inner().expect("lock released"),
    )
}

fn pass_of(outcomes: &[JobOutcome], wall_ns: u64, job_ns: Vec<u64>) -> Pass {
    let (fingerprint, cycles) = product::fingerprint_outcomes(outcomes);
    Pass {
        fingerprint,
        cycles,
        failed: outcomes.iter().filter(|o| o.metrics().is_none()).count() as u64,
        wall_ns,
        job_ns,
    }
}

impl<const GPU: bool> InProcess for Grid<GPU> {
    fn setup(seed: u64) -> Self {
        let jobs = Self::job_list(seed);
        let benches = suite::all();
        for spec in &jobs {
            let bench = benches
                .iter()
                .find(|b| b.info().name == spec.bench)
                .expect("job list comes from the suite");
            let kernel = match spec.arch {
                Arch::DmtCgra => bench.dmt_kernel(),
                Arch::FermiSm | Arch::MtCgra => bench.shared_kernel(),
            };
            std::hint::black_box(bench.workload(spec.seed).launch());
            if spec.arch != Arch::FermiSm {
                std::hint::black_box(
                    dmt_compiler::compile(&kernel, &spec.cfg)
                        .unwrap_or_else(|e| panic!("{spec}: {e}")),
                );
            }
        }
        Grid { jobs }
    }

    fn jobs(&self) -> usize {
        self.jobs.len()
    }

    fn pass(&self) -> Pass {
        timed_plan_pass(&self.jobs, dmt_bench::execute_job)
    }

    fn decomposed_pass(&self, tracer: &mut Tracer) -> (Pass, Vec<JobRecord>) {
        let mut records = Vec::with_capacity(self.jobs.len());
        let mut outcomes = Vec::with_capacity(self.jobs.len());
        let mut job_ns = Vec::with_capacity(self.jobs.len());
        let ((), wall_ns) = tracer.span("bench.pass", 0, |t| {
            for spec in &self.jobs {
                let start = Instant::now();
                let d = execute_job_decomposed(spec, t);
                job_ns.push(start.elapsed().as_nanos() as u64);
                records.push(JobRecord {
                    arch: spec.arch,
                    ns: d.ns,
                    stats: d.outcome.metrics().map(|m| m.stats.totals()),
                    replication: d.replication,
                });
                outcomes.push(d.outcome);
            }
        });
        (pass_of(&outcomes, wall_ns, job_ns), records)
    }

    fn observed_pass_ns(&self, observe: bool) -> u64 {
        timed_plan_pass(&self.jobs, |spec| {
            let mut obs = if observe {
                Obs::new(true, true)
            } else {
                Obs::disabled()
            };
            dmt_bench::execute_job_observed(spec, &mut obs)
        })
        .wall_ns
    }

    fn cacheable(&self) -> Option<(Vec<JobSpec>, Vec<JobOutcome>)> {
        Some((
            self.jobs.clone(),
            product::run_plan(&self.jobs, dmt_bench::execute_job),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_jobs_other_seed_disjoint_hashes() {
        let hashes = |seed| -> Vec<u64> {
            FabricGrid::job_list(seed)
                .iter()
                .chain(&GpuGrid::job_list(seed))
                .map(JobSpec::job_hash)
                .collect()
        };
        let a = hashes(42);
        assert_eq!(a, hashes(42));
        assert_eq!(a.len(), 27);
        let b = hashes(43);
        assert!(a.iter().all(|h| !b.contains(h)), "seeds share a job hash");
    }

    #[test]
    fn grid_kernels_compile_below_the_batching_regime() {
        let replication = |records: Vec<JobRecord>| -> Vec<u32> {
            records.iter().filter_map(|r| r.replication).collect()
        };
        let grid = FabricGrid::setup(42);
        assert_eq!(grid.jobs(), 18);
        let mut tracer = Tracer::new(Instant::now());
        let (pass, records) = grid.decomposed_pass(&mut tracer);
        assert_eq!(pass.failed, 0);
        assert_eq!(
            pass.fingerprint,
            grid.pass().fingerprint,
            "the decomposed path ran a different program"
        );
        let fabric = replication(records);
        assert_eq!(fabric.len(), 18);
        assert!(
            fabric.iter().all(|&r| (1..8).contains(&r)),
            "fabric_grid must stay in the per-token regime: {fabric:?}"
        );
        let gpu = GpuGrid::setup(42);
        assert!(replication(gpu.decomposed_pass(&mut tracer).1).is_empty());
    }
}
