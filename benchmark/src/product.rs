//! The Table 3 job paths into the program: the product entry point the
//! timed runs use, and the same job decomposed call by call for the
//! traced runs. Also the exact-match fingerprint over a job list's
//! simulated statistics.

use crate::span::Tracer;
use dmt_common::stats::PhaseStats;
use dmt_common::RunLimits;
use dmt_core::{Arch, SystemConfig};
use dmt_energy::EnergyModel;
use dmt_fabric::FabricMachine;
use dmt_gpu::GpuMachine;
use dmt_kernels::suite;
use dmt_obs::Obs;
use dmt_runner::{ExecPlan, JobMetrics, JobOutcome, JobSpec};

/// The Table 3 grid on `archs` at the default configuration:
/// benchmark-major, architecture-minor, every job on `job_seed`.
pub fn table3_jobs(archs: &[Arch], job_seed: u64) -> Vec<JobSpec> {
    suite::all()
        .iter()
        .flat_map(|b| {
            let name = b.info().name;
            archs
                .iter()
                .map(move |&arch| JobSpec::new(name, arch, SystemConfig::default(), job_seed))
        })
        .collect()
}

/// One serial, uncached pass over `jobs` through the product's plan
/// runner — the path `fig11_speedup --threads 1` takes.
pub fn run_plan(jobs: &[JobSpec], exec: impl Fn(&JobSpec) -> JobOutcome + Sync) -> Vec<JobOutcome> {
    ExecPlan::new(jobs).threads(1).run(exec)
}

/// Host nanoseconds per stage of one decomposed job.
#[derive(Debug, Clone, Copy, Default)]
pub struct StageNs {
    pub build: u64,
    pub workload: u64,
    pub compile: u64,
    pub run: u64,
    pub energy: u64,
    pub check: u64,
    pub encode: u64,
}

impl StageNs {
    pub fn add(&mut self, other: &StageNs) {
        self.build += other.build;
        self.workload += other.workload;
        self.compile += other.compile;
        self.run += other.run;
        self.energy += other.energy;
        self.check += other.check;
        self.encode += other.encode;
    }
}

/// A job executed stage by stage.
pub struct Decomposed {
    pub outcome: JobOutcome,
    pub ns: StageNs,
    /// The compiled program's replication factor (fabric jobs only).
    pub replication: Option<u32>,
}

/// `dmt_bench::execute_job`, decomposed into the calls it makes, one
/// span each under a `bench.job` span:
/// `kernels.build` → `kernels.workload` → `compiler.compile` →
/// `fabric.run` | `gpu.run` → `energy.evaluate` → `kernels.check` →
/// `runner.encode`. The caller proves the decomposition ran the same
/// program by comparing statistics fingerprints with the product path.
pub fn execute_job_decomposed(spec: &JobSpec, tracer: &mut Tracer) -> Decomposed {
    let hash = spec.job_hash();
    let (d, _) = tracer.span("bench.job", hash, |t| decomposed_stages(spec, hash, t));
    d
}

fn decomposed_stages(spec: &JobSpec, hash: u64, t: &mut Tracer) -> Decomposed {
    let mut ns = StageNs::default();
    let infeasible = |e: dmt_common::Error, ns| Decomposed {
        outcome: JobOutcome::Infeasible(e.to_string()),
        ns,
        replication: None,
    };
    let (kernel_and_bench, build) = t.span("kernels.build", hash, |_| {
        let bench = suite::all()
            .into_iter()
            .find(|b| b.info().name == spec.bench)
            .unwrap_or_else(|| panic!("unknown benchmark {:?}", spec.bench));
        let kernel = match spec.arch {
            Arch::DmtCgra => bench.dmt_kernel(),
            Arch::FermiSm | Arch::MtCgra => bench.shared_kernel(),
        };
        (kernel, bench)
    });
    ns.build = build;
    let (kernel, bench) = kernel_and_bench;
    let (input, workload) = t.span("kernels.workload", hash, |_| {
        bench.workload(spec.seed).launch()
    });
    ns.workload = workload;

    let limits = RunLimits::unlimited();
    let mut replication = None;
    let (memory, stats) = match spec.arch {
        Arch::FermiSm => {
            let (run, run_ns) = t.span("gpu.run", hash, |_| {
                GpuMachine::new(spec.cfg).run_limited(&kernel, input, &mut Obs::disabled(), &limits)
            });
            ns.run = run_ns;
            match run {
                Ok(r) => (r.memory, r.stats),
                Err(e) => return infeasible(e, ns),
            }
        }
        Arch::MtCgra | Arch::DmtCgra => {
            let (program, compile_ns) = t.span("compiler.compile", hash, |_| {
                dmt_compiler::compile(&kernel, &spec.cfg)
            });
            ns.compile = compile_ns;
            let program = match program {
                Ok(p) => p,
                Err(e) => return infeasible(e, ns),
            };
            replication = Some(program.replication);
            let (run, run_ns) = t.span("fabric.run", hash, |_| {
                FabricMachine::new(spec.cfg).run_limited(
                    &program,
                    input,
                    &mut Obs::disabled(),
                    &limits,
                )
            });
            ns.run = run_ns;
            match run {
                Ok(r) => (r.memory, r.stats),
                Err(e) => return infeasible(e, ns),
            }
        }
    };
    let (energy, energy_ns) = t.span("energy.evaluate", hash, |_| {
        EnergyModel::default().evaluate(spec.arch.kind(), &stats, spec.cfg.clocks.core_ghz)
    });
    ns.energy = energy_ns;
    let (checked, check_ns) = t.span("kernels.check", hash, |_| bench.check(spec.seed, &memory));
    ns.check = check_ns;
    let (outcome, encode_ns) = t.span("runner.encode", hash, |_| {
        let outcome = JobOutcome::completed(JobMetrics {
            kernel: kernel.name().to_owned(),
            stats,
            energy,
        });
        // The artifact rendering every cached or served job pays.
        std::hint::black_box(dmt_runner::cache::encode_entry(spec, &outcome).render());
        outcome
    });
    ns.encode = encode_ns;
    let outcome = match checked {
        Ok(()) => outcome,
        Err(e) => JobOutcome::Failed(format!("{spec}: wrong result: {e}")),
    };
    Decomposed {
        outcome,
        ns,
        replication,
    }
}

/// Exact-match digest of simulated statistics: FNV-1a over every
/// `RunStats` counter of every job in order, folded to 48 bits so it
/// travels through a JSON number unchanged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fingerprint(u64);

impl Fingerprint {
    pub fn new() -> Fingerprint {
        Fingerprint(0xcbf2_9ce4_8422_2325)
    }

    pub fn u64(&mut self, v: u64) {
        for byte in v.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds in every counter of one job's statistics (run totals).
    pub fn stats(&mut self, stats: &PhaseStats) {
        fold_counters(self, stats);
    }

    /// Folds in a string: the status of a job that produced no
    /// statistics, or a name.
    pub fn text(&mut self, text: &str) {
        for b in text.bytes() {
            self.u64(u64::from(b));
        }
    }

    pub fn finish(self) -> u64 {
        (self.0 >> 48) ^ (self.0 & 0xFFFF_FFFF_FFFF)
    }
}

// Generated from the program's one counter list, so a counter added to
// `RunStats` is fingerprinted without an edit here.
macro_rules! gen_fold_counters {
    ($(($field:ident, $doc:literal)),+ $(,)?) => {
        fn fold_counters(h: &mut Fingerprint, s: &PhaseStats) {
            $(h.u64(s.$field);)+
        }
    };
}
dmt_common::for_each_run_counter!(gen_fold_counters);

/// Fingerprint and total simulated cycles of an outcome list.
pub fn fingerprint_outcomes(outcomes: &[JobOutcome]) -> (u64, u64) {
    let mut h = Fingerprint::new();
    let mut cycles = 0;
    for o in outcomes {
        match o.metrics() {
            Some(m) => {
                h.stats(&m.stats.totals());
                cycles += m.cycles();
            }
            None => h.text(o.status()),
        }
    }
    (h.finish(), cycles)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_sees_every_counter_and_order() {
        let a = PhaseStats {
            cycles: 10,
            ..Default::default()
        };
        let b = PhaseStats {
            gpu_stall_cycles: 1,
            ..Default::default()
        };
        let digest = |list: &[&PhaseStats]| {
            let mut h = Fingerprint::new();
            for s in list {
                h.stats(s);
            }
            h.finish()
        };
        assert_eq!(digest(&[&a, &b]), digest(&[&a, &b]));
        assert_ne!(digest(&[&a, &b]), digest(&[&b, &a]));
        assert_ne!(digest(&[&a]), digest(&[&PhaseStats::default()]));
        assert_ne!(digest(&[&b]), digest(&[&PhaseStats::default()]));
        assert!(digest(&[&a, &b]) < 1 << 48);
    }

    #[test]
    fn decomposed_job_matches_the_product_path() {
        let epoch = std::time::Instant::now();
        for arch in Arch::ALL {
            let spec = JobSpec::new("convolution", arch, SystemConfig::default(), 7);
            let mut tracer = Tracer::new(epoch);
            let d = execute_job_decomposed(&spec, &mut tracer);
            assert_eq!(d.outcome, dmt_bench::execute_job(&spec), "{arch}");
            assert_eq!(d.replication.is_some(), arch != Arch::FermiSm);
            let names: Vec<&str> = tracer.spans().iter().map(|s| s.name).collect();
            assert_eq!(names[0], "bench.job");
            assert!(names.contains(&"kernels.check") && names.contains(&"runner.encode"));
            assert!(tracer.spans()[1..].iter().all(|s| s.parent == Some(0)));
        }
    }
}
