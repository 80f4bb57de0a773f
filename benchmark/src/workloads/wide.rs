//! `fabric_wide`: benchmark-owned tiny kernels that compile at
//! replication >= 8, the only regime where the fabric engine's batched
//! fire and delivery paths run. The Table 3 kernels never reach it.
//!
//! Every kernel computes from `tid` and a seed-derived scalar, and has a
//! single store and no load: a second load/store node drops replication
//! to about 6.

use super::inprocess::{InProcess, JobRecord, Pass};
use crate::product::{Fingerprint, StageNs};
use crate::seed;
use crate::span::Tracer;
use dmt_common::geom::{Delta, Dim3};
use dmt_common::RunLimits;
use dmt_core::{Arch, Kernel, KernelBuilder, LaunchInput, Machine, MemImage, SystemConfig, Word};
use dmt_dfg::interp;
use dmt_energy::EnergyModel;
use dmt_fabric::FabricMachine;
use dmt_obs::Obs;
use dmt_runner::{JobOutcome, JobSpec};
use std::time::Instant;

/// Threads per kernel: the default in-flight window, one block.
pub const THREADS: u32 = 2048;
/// The replication from which the engine batches (its own threshold is
/// not imported: the workload must keep its meaning if that moves).
pub const WIDE_REPLICATION: u32 = 8;

const STREAM_SCALAR: u64 = 0x71de;

/// `out[tid] = tid*tid + k`: the store-only token storm.
fn storm_kernel() -> Kernel {
    let mut kb = KernelBuilder::new("wide_storm", Dim3::linear(THREADS));
    let out = kb.param("out");
    let k = kb.param("k");
    let tid = kb.thread_idx(0);
    let sq = kb.mul_i(tid, tid);
    let v = kb.add_i(sq, k);
    let oa = kb.index_addr(out, tid, 4);
    kb.store_global(oa, v);
    kb.finish().expect("storm kernel is well-formed")
}

/// `out[tid] = v(tid-1) + v(tid)`, `v = tid + k`: one Δ=-1
/// `fromThreadOrConst` exchange.
fn exchange_kernel() -> Kernel {
    let mut kb = KernelBuilder::new("wide_exchange", Dim3::linear(THREADS));
    let out = kb.param("out");
    let k = kb.param("k");
    let tid = kb.thread_idx(0);
    let v = kb.add_i(tid, k);
    let prev = kb.from_thread_or_const(v, Delta::new(-1), Word::from_i32(0), None);
    let sum = kb.add_i(prev, v);
    let oa = kb.index_addr(out, tid, 4);
    kb.store_global(oa, sum);
    kb.finish().expect("exchange kernel is well-formed")
}

/// `out[tid] = v(tid-1) + v(tid+1)`, `v = tid + k`: a two-elevator
/// Δ=±1 stencil.
fn stencil_kernel() -> Kernel {
    let mut kb = KernelBuilder::new("wide_stencil", Dim3::linear(THREADS));
    let out = kb.param("out");
    let k = kb.param("k");
    let tid = kb.thread_idx(0);
    let v = kb.add_i(tid, k);
    let left = kb.from_thread_or_const(v, Delta::new(-1), Word::from_i32(0), None);
    let right = kb.from_thread_or_const(v, Delta::new(1), Word::from_i32(0), None);
    let sum = kb.add_i(left, right);
    let oa = kb.index_addr(out, tid, 4);
    kb.store_global(oa, sum);
    kb.finish().expect("stencil kernel is well-formed")
}

struct WideJob {
    kernel: Kernel,
    arch: Arch,
    /// Identifies the job in spans (there is no `JobSpec`).
    hash: u64,
    params: Vec<Word>,
    memory: MemImage,
    /// The interpreter oracle's final memory.
    expected: MemImage,
}

impl WideJob {
    fn input(&self) -> LaunchInput {
        LaunchInput::new(self.params.clone(), self.memory.clone())
    }
}

/// The storm on both fabric machines, the communicating kernels on
/// dMT-CGRA (the baseline MT-CGRA has no elevators).
pub struct FabricWide {
    jobs: Vec<WideJob>,
}

fn cfg() -> SystemConfig {
    SystemConfig::default()
}

impl InProcess for FabricWide {
    fn setup(seed: u64) -> Self {
        // A small scalar, so every value stays far from i32 overflow.
        let k = (seed::derive(seed, STREAM_SCALAR, 0) % 1000) as u32;
        let params = vec![Word::from_u32(0), Word::from_u32(k)];
        let memory = MemImage::with_words(THREADS as usize);
        let mut jobs = Vec::new();
        for (kernel, arch) in [
            (storm_kernel(), Arch::MtCgra),
            (storm_kernel(), Arch::DmtCgra),
            (exchange_kernel(), Arch::DmtCgra),
            (stencil_kernel(), Arch::DmtCgra),
        ] {
            let expected = interp::run_ref(&kernel, &params, &memory)
                .unwrap_or_else(|e| panic!("{} oracle: {e}", kernel.name()))
                .memory;
            let program = dmt_compiler::compile(&kernel, &cfg())
                .unwrap_or_else(|e| panic!("{} compile: {e}", kernel.name()));
            assert!(
                program.replication >= WIDE_REPLICATION,
                "{} compiles at replication {} ({:?}): fabric_wide no longer reaches the batched regime",
                kernel.name(),
                program.replication,
                program.peak_unit_usage()
            );
            let mut h = Fingerprint::new();
            h.text(kernel.name());
            h.text(arch.key());
            jobs.push(WideJob {
                kernel,
                arch,
                hash: h.finish(),
                params: params.clone(),
                memory: memory.clone(),
                expected,
            });
        }
        FabricWide { jobs }
    }

    fn jobs(&self) -> usize {
        self.jobs.len()
    }

    fn pass(&self) -> Pass {
        self.machine_pass(false)
    }

    fn decomposed_pass(&self, tracer: &mut Tracer) -> (Pass, Vec<JobRecord>) {
        let mut records = Vec::with_capacity(self.jobs.len());
        let mut h = Fingerprint::new();
        let mut pass = Pass {
            fingerprint: 0,
            cycles: 0,
            failed: 0,
            wall_ns: 0,
            job_ns: Vec::with_capacity(self.jobs.len()),
        };
        let ((), wall_ns) = tracer.span("bench.pass", 0, |t| {
            for job in &self.jobs {
                let start = Instant::now();
                let (record, ok) = t.span("bench.job", job.hash, |t| decomposed(job, t)).0;
                pass.job_ns.push(start.elapsed().as_nanos() as u64);
                match &record.stats {
                    Some(stats) if ok => {
                        h.stats(stats);
                        pass.cycles += stats.cycles;
                    }
                    _ => {
                        h.text("failed");
                        pass.failed += 1;
                    }
                }
                records.push(record);
            }
        });
        pass.wall_ns = wall_ns;
        pass.fingerprint = h.finish();
        (pass, records)
    }

    fn observed_pass_ns(&self, observe: bool) -> u64 {
        self.machine_pass(observe).wall_ns
    }

    fn cacheable(&self) -> Option<(Vec<JobSpec>, Vec<JobOutcome>)> {
        None
    }
}

impl FabricWide {
    /// One pass through `Machine::run` (which compiles on every run),
    /// each final memory compared with the interpreter oracle.
    fn machine_pass(&self, observe: bool) -> Pass {
        let mut h = Fingerprint::new();
        let mut pass = Pass {
            fingerprint: 0,
            cycles: 0,
            failed: 0,
            wall_ns: 0,
            job_ns: Vec::with_capacity(self.jobs.len()),
        };
        let start = Instant::now();
        for job in &self.jobs {
            let t = Instant::now();
            let machine = Machine::new(job.arch, cfg());
            let report = if observe {
                machine.run_observed(&job.kernel, job.input(), &mut Obs::new(true, true))
            } else {
                machine.run(&job.kernel, job.input())
            };
            let ok = matches!(&report, Ok(r) if r.memory == job.expected);
            pass.job_ns.push(t.elapsed().as_nanos() as u64);
            match report {
                Ok(r) if ok => {
                    h.stats(&r.stats.totals());
                    pass.cycles += r.stats.cycles;
                }
                _ => {
                    h.text("failed");
                    pass.failed += 1;
                }
            }
        }
        pass.wall_ns = start.elapsed().as_nanos() as u64;
        pass.fingerprint = h.finish();
        pass
    }
}

/// `Machine::run` on a fabric architecture, call by call.
fn decomposed(job: &WideJob, t: &mut Tracer) -> (JobRecord, bool) {
    let mut ns = StageNs::default();
    let record = |ns, stats, replication| JobRecord {
        arch: job.arch,
        ns,
        stats,
        replication,
    };
    let (input, workload_ns) = t.span("kernels.workload", job.hash, |_| job.input());
    ns.workload = workload_ns;
    let (program, compile_ns) = t.span("compiler.compile", job.hash, |_| {
        dmt_compiler::compile(&job.kernel, &cfg())
    });
    ns.compile = compile_ns;
    let Ok(program) = program else {
        return (record(ns, None, None), false);
    };
    let (run, run_ns) = t.span("fabric.run", job.hash, |_| {
        FabricMachine::new(cfg()).run_limited(
            &program,
            input,
            &mut Obs::disabled(),
            &RunLimits::unlimited(),
        )
    });
    ns.run = run_ns;
    let Ok(run) = run else {
        return (record(ns, None, Some(program.replication)), false);
    };
    let (_, energy_ns) = t.span("energy.evaluate", job.hash, |_| {
        std::hint::black_box(EnergyModel::default().evaluate(
            job.arch.kind(),
            &run.stats,
            cfg().clocks.core_ghz,
        ))
    });
    ns.energy = energy_ns;
    let (ok, check_ns) = t.span("kernels.check", job.hash, |_| run.memory == job.expected);
    ns.check = check_ns;
    (
        record(ns, Some(run.stats.totals()), Some(program.replication)),
        ok,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wide_kernels_reach_the_batching_regime_and_match_the_oracle() {
        let wide = FabricWide::setup(42);
        assert_eq!(wide.jobs(), 4);
        assert!(wide
            .jobs
            .iter()
            .all(|j| u64::from(THREADS) == j.kernel.total_threads() && THREADS >= 1024));
        let pass = wide.pass();
        assert_eq!(pass.failed, 0);
        let mut tracer = Tracer::new(Instant::now());
        let (traced, records) = wide.decomposed_pass(&mut tracer);
        assert_eq!(traced.failed, 0);
        assert_eq!(
            traced.fingerprint, pass.fingerprint,
            "the decomposed path ran a different program"
        );
        assert_eq!(records.len(), 4);
        assert!(
            records
                .iter()
                .all(|r| r.replication.is_some_and(|rep| rep >= WIDE_REPLICATION)),
            "a wide kernel compiled below the batching regime"
        );
        // A different seed changes the outputs, not the simulated work.
        assert_ne!(
            FabricWide::setup(43).jobs[0].expected,
            wide.jobs[0].expected
        );
    }
}
