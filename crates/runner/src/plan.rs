//! The one way to execute a job grid: the [`ExecPlan`] builder behind
//! every CLI binary (`dmt_bench::run_grid`). The `dmt-serve` daemon
//! schedules its own batches over the index-level pool primitive
//! ([`crate::pool::run_indexed`]) with this module's [`panic_message`]
//! and the cache's cost order, because its retry and admission
//! accounting wrap each job.
//!
//! ```text
//! ExecPlan::new(&jobs).threads(n).cache(Some(&c)).progress(Some(&p)).run(exec)
//! ```
//!
//! Every knob is optional and defaults to the serial, uncached,
//! unreported run, so the minimal call reads exactly like what it does:
//! `ExecPlan::new(&jobs).run(exec)`. There is one implementation,
//! [`ExecPlan::run_with`], whose executor may hand back a per-job value
//! beside the outcome (an observation handle, say); [`ExecPlan::run`]
//! and [`ExecPlan::run_limited`] are its adapters for executors that
//! return the outcome alone. The execution semantics:
//!
//! * **deterministic aggregation** — outcomes land by job index, so the
//!   result vector is byte-identical for any thread count;
//! * **cache-as-memo-table** — with a cache, hits skip simulation,
//!   misses run longest-expected-first (cost-sorted against the cache's
//!   cycle history) and persist via temp-file+rename as soon as each
//!   completes, so a killed run resumes from exactly the jobs it
//!   finished;
//! * **completion-ordered progress** — the ticker counts only jobs
//!   actually executed; hits are summarized by [`Cache::report`];
//! * **panic isolation** — a panicking executor fails only its own job
//!   (a typed [`JobOutcome::Failed`] in that job's index-ordered slot),
//!   never the pool, so every sibling outcome survives byte-identical.

use crate::cache::{cost_order, Cache};
use crate::job::{JobOutcome, JobSpec};
use crate::pool::run_ordered;
use crate::progress::Progress;
use dmt_common::faults;
use dmt_common::limits::RunLimits;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::AtomicBool;

/// Best-effort text out of a panic payload (`&str` and `String` cover
/// what `panic!` produces in practice).
#[must_use]
pub fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

/// A declarative description of one pooled execution over a job grid.
///
/// Borrowers: the plan holds references only — the job list, cache,
/// progress reporter and cancel token all outlive the run, which
/// returns plain owned outcomes.
#[derive(Debug, Clone, Copy)]
#[must_use = "an ExecPlan does nothing until .run(exec) is called"]
pub struct ExecPlan<'a> {
    jobs: &'a [JobSpec],
    threads: usize,
    progress: Option<&'a Progress>,
    cache: Option<&'a Cache>,
    deadline_cycles: Option<u64>,
    cancel: Option<&'a AtomicBool>,
}

impl<'a> ExecPlan<'a> {
    /// A serial, uncached, unreported plan over `jobs`.
    pub fn new(jobs: &'a [JobSpec]) -> ExecPlan<'a> {
        ExecPlan {
            jobs,
            threads: 1,
            progress: None,
            cache: None,
            deadline_cycles: None,
            cancel: None,
        }
    }

    /// Sets the worker count (clamped to at least 1; `1` runs inline on
    /// the calling thread — no pool, no locks).
    pub fn threads(mut self, threads: usize) -> ExecPlan<'a> {
        self.threads = threads.max(1);
        self
    }

    /// Attaches a completion-ordered stderr progress ticker.
    pub fn progress(mut self, progress: Option<&'a Progress>) -> ExecPlan<'a> {
        self.progress = progress;
        self
    }

    /// Routes the run through a content-addressed result cache: hits
    /// skip simulation, misses are cost-sorted and persisted on
    /// completion. `None` runs everything.
    pub fn cache(mut self, cache: Option<&'a Cache>) -> ExecPlan<'a> {
        self.cache = cache;
        self
    }

    /// Bounds every job to a simulated-cycle budget; overruns surface
    /// as typed [`JobOutcome::TimedOut`] slots. Requires a limit-aware
    /// executor — use [`ExecPlan::run_limited`].
    pub fn deadline_cycles(mut self, cycles: Option<u64>) -> ExecPlan<'a> {
        self.deadline_cycles = cycles;
        self
    }

    /// Attaches a cooperative cancellation token: when it flips, every
    /// still-running job stops at its next cycle boundary with a
    /// [`JobOutcome::Failed`] slot. Requires [`ExecPlan::run_limited`].
    pub fn cancel(mut self, token: Option<&'a AtomicBool>) -> ExecPlan<'a> {
        self.cancel = token;
        self
    }

    /// Executes the plan and returns outcomes in job-index order.
    ///
    /// `exec` is the leaf runner (for the benchmark suite:
    /// `dmt_bench::execute_job`). A panicking executor fails only its
    /// own job — the slot becomes [`JobOutcome::Failed`] and every
    /// sibling outcome survives; no result is silently dropped.
    ///
    /// # Panics
    ///
    /// When a deadline or cancel token is set: those limits need a
    /// limit-aware executor — call [`ExecPlan::run_limited`].
    pub fn run<F>(self, exec: F) -> Vec<JobOutcome>
    where
        F: Fn(&JobSpec) -> JobOutcome + Sync,
    {
        assert!(
            self.deadline_cycles.is_none() && self.cancel.is_none(),
            "ExecPlan::run cannot enforce limits; use run_limited with a limit-aware executor"
        );
        self.run_limited(|spec, _| exec(spec))
    }

    /// [`ExecPlan::run`] with a limit-aware executor: `exec` receives
    /// the plan's [`RunLimits`] (deadline + cancel token) and is
    /// expected to thread them into the engine (`Machine::run_limited`)
    /// and map `Error::TimedOut` to [`JobOutcome::TimedOut`] — the
    /// benchmark suite's `execute_job_limited` does exactly that.
    pub fn run_limited<F>(self, exec: F) -> Vec<JobOutcome>
    where
        F: Fn(&JobSpec, &RunLimits<'_>) -> JobOutcome + Sync,
    {
        self.run_with(|spec, limits| (exec(spec, limits), ()))
            .into_iter()
            .map(|(outcome, _)| outcome)
            .collect()
    }

    /// The execution core: like [`ExecPlan::run_limited`], but `exec`
    /// also returns a value of its own for each job it ran (the bench
    /// harness returns the job's observation handle), which comes back
    /// index-aligned with the outcome. A slot whose job never reached
    /// `exec` or did not return from it — a cache hit, an injected
    /// `pool.exec` fault, a caught panic — carries `None`.
    pub fn run_with<T, F>(self, exec: F) -> Vec<(JobOutcome, Option<T>)>
    where
        T: Send,
        F: Fn(&JobSpec, &RunLimits<'_>) -> (JobOutcome, T) + Sync,
    {
        let limits = RunLimits {
            deadline_cycles: self.deadline_cycles.unwrap_or(u64::MAX),
            cancel: self.cancel,
        };
        // One isolation wrapper for both the cached and uncached paths:
        // the `pool.exec` failpoint models a worker dying before the
        // executor runs, and `catch_unwind` turns a panicking executor
        // into a typed Failed slot instead of a poisoned pool.
        let run_job = |spec: &JobSpec| -> (JobOutcome, Option<T>) {
            if faults::hit(faults::site::POOL_EXEC) {
                return (JobOutcome::Failed("injected fault: pool.exec".into()), None);
            }
            match catch_unwind(AssertUnwindSafe(|| exec(spec, &limits))) {
                Ok((outcome, extra)) => (outcome, Some(extra)),
                Err(payload) => (
                    JobOutcome::Failed(format!("executor panicked: {}", panic_message(payload))),
                    None,
                ),
            }
        };
        let jobs = self.jobs;
        let Some(cache) = self.cache else {
            if let Some(p) = self.progress {
                p.begin(jobs.len());
            }
            return run_ordered(jobs.len(), self.threads, None, |i| {
                let ran = run_job(&jobs[i]);
                if let Some(p) = self.progress {
                    p.completed(&jobs[i], &ran.0);
                }
                ran
            });
        };
        let mut slots: Vec<Option<(JobOutcome, Option<T>)>> = jobs
            .iter()
            .map(|j| cache.lookup(j).map(|hit| (hit, None)))
            .collect();
        let pending: Vec<usize> = (0..jobs.len()).filter(|&i| slots[i].is_none()).collect();
        if let Some(p) = self.progress {
            p.begin(pending.len());
        }
        if !pending.is_empty() {
            let specs: Vec<&JobSpec> = pending.iter().map(|&i| &jobs[i]).collect();
            let order = cost_order(&specs, &cache.cost_index());
            let executed = run_ordered(pending.len(), self.threads, Some(&order), |k| {
                let spec = &jobs[pending[k]];
                let ran = run_job(spec);
                // Persist immediately — resume depends on completed work
                // surviving a kill, not on reaching the end of the run. A
                // failed store costs a future re-simulation, not this run.
                // (Transient and timed-out outcomes are never persisted;
                // the cache filters them itself.)
                if let Err(e) = cache.store(spec, &ran.0) {
                    eprintln!(
                        "[dmt-runner] warning: cache store failed for {spec}: {e} ({})",
                        cache.entry_path(spec).display()
                    );
                }
                if let Some(p) = self.progress {
                    p.completed(spec, &ran.0);
                }
                ran
            });
            for (k, ran) in executed.into_iter().enumerate() {
                slots[pending[k]] = Some(ran);
            }
        }
        slots
            .into_iter()
            .map(|s| s.expect("every slot filled"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobMetrics;
    use dmt_common::faults::{install_guarded, quiet_guarded, FaultPlan};
    use dmt_core::{Arch, SystemConfig};
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn jobs(n: u64) -> Vec<JobSpec> {
        (0..n)
            .map(|seed| JobSpec::new("scan", Arch::DmtCgra, SystemConfig::default(), seed))
            .collect()
    }

    fn exec(spec: &JobSpec) -> JobOutcome {
        JobOutcome::completed(JobMetrics {
            kernel: spec.bench.clone(),
            stats: dmt_common::stats::RunStats {
                cycles: (spec.seed + 1) * 100,
                ..Default::default()
            },
            energy: dmt_core::energy::EnergyReport::default(),
        })
    }

    #[test]
    fn outcomes_are_index_ordered_for_any_thread_count() {
        let _guard = quiet_guarded();
        let grid = jobs(9);
        let serial = ExecPlan::new(&grid).run(exec);
        for threads in [2, 3, 8] {
            let parallel = ExecPlan::new(&grid).threads(threads).run(exec);
            assert_eq!(parallel, serial, "threads={threads}");
        }
    }

    #[test]
    fn zero_threads_is_clamped_to_serial() {
        let _guard = quiet_guarded();
        let grid = jobs(3);
        assert_eq!(
            ExecPlan::new(&grid).threads(0).run(exec),
            ExecPlan::new(&grid).run(exec)
        );
    }

    #[test]
    fn progress_counts_executed_jobs() {
        let _guard = quiet_guarded();
        let grid = jobs(4);
        let p = Progress::new(false);
        let _ = ExecPlan::new(&grid).progress(Some(&p)).run(exec);
        assert_eq!(p.done(), 4);
    }

    #[test]
    fn cached_plan_skips_hits_executes_misses_and_persists() {
        let _guard = quiet_guarded();
        let dir = std::env::temp_dir().join(format!("dmt_plan_cache_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = Cache::open(&dir).unwrap();
        let grid = jobs(4);
        let exec_count = AtomicUsize::new(0);
        let counted = |spec: &JobSpec| {
            exec_count.fetch_add(1, Ordering::Relaxed);
            exec(spec)
        };

        // Pre-warm two of the four jobs.
        cache.store(&grid[1], &exec(&grid[1])).unwrap();
        cache.store(&grid[3], &exec(&grid[3])).unwrap();

        let outcomes = ExecPlan::new(&grid)
            .threads(2)
            .cache(Some(&cache))
            .run(counted);
        assert_eq!(exec_count.load(Ordering::Relaxed), 2, "only the misses run");
        for (i, o) in outcomes.iter().enumerate() {
            assert_eq!(o.metrics().unwrap().cycles(), (i as u64 + 1) * 100);
        }

        // Everything is now persisted: a fresh handle serves all 4 jobs
        // without a single execution.
        let cache2 = Cache::open(&dir).unwrap();
        let again = ExecPlan::new(&grid)
            .threads(2)
            .cache(Some(&cache2))
            .run(|_: &JobSpec| panic!("warm run must not execute"));
        assert_eq!(again, outcomes);
        assert_eq!(cache2.stats().hits, 4);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn progress_ticker_counts_only_misses_on_a_warm_cache() {
        let _guard = quiet_guarded();
        let dir = std::env::temp_dir().join(format!("dmt_plan_prog_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = Cache::open(&dir).unwrap();
        let grid = jobs(3);
        cache.store(&grid[0], &exec(&grid[0])).unwrap();
        let p = Progress::new(false);
        let _ = ExecPlan::new(&grid)
            .cache(Some(&cache))
            .progress(Some(&p))
            .run(exec);
        assert_eq!(p.done(), 2, "hits must not tick the progress counter");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn panicking_executor_fails_only_its_job() {
        let _guard = quiet_guarded();
        let grid = jobs(5);
        for threads in [1, 4] {
            let outcomes = ExecPlan::new(&grid).threads(threads).run(|spec: &JobSpec| {
                if spec.seed == 2 {
                    panic!("boom on seed 2");
                }
                exec(spec)
            });
            assert_eq!(outcomes.len(), 5);
            for (i, o) in outcomes.iter().enumerate() {
                if i == 2 {
                    assert_eq!(o.status(), "failed");
                    assert!(o.error().unwrap().contains("boom on seed 2"), "{o:?}");
                } else {
                    assert_eq!(o.metrics().unwrap().cycles(), (i as u64 + 1) * 100);
                }
            }
        }
    }

    #[test]
    fn injected_pool_fault_fails_one_job_deterministically() {
        let _guard = install_guarded(FaultPlan::parse("pool.exec:nth=2").unwrap());
        let grid = jobs(4);
        let outcomes = ExecPlan::new(&grid).run(exec);
        let failed: Vec<usize> = outcomes
            .iter()
            .enumerate()
            .filter(|(_, o)| o.status() == "failed")
            .map(|(i, _)| i)
            .collect();
        assert_eq!(failed, [1], "serial order makes hit 2 job index 1");
        assert_eq!(
            outcomes[1].error(),
            Some("injected fault: pool.exec"),
            "typed, attributable failure"
        );
    }

    #[test]
    fn run_with_returns_the_executors_value_only_for_jobs_it_ran() {
        // One grid, all three ways a slot can miss the executor's value:
        // job 0 is a cache hit, job 1 takes the pool.exec fault (first
        // executed job in the serial, history-less schedule), job 3
        // panics; job 2 runs normally and keeps its value.
        let _guard = install_guarded(FaultPlan::parse("pool.exec:nth=1").unwrap());
        let dir = std::env::temp_dir().join(format!("dmt_plan_with_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = Cache::open(&dir).unwrap();
        let grid = jobs(4);
        cache.store(&grid[0], &exec(&grid[0])).unwrap();
        let ran = ExecPlan::new(&grid)
            .cache(Some(&cache))
            .run_with(|spec, _| {
                assert!(spec.seed != 3, "boom on seed 3");
                (exec(spec), spec.seed)
            });
        let extras: Vec<Option<u64>> = ran.iter().map(|(_, extra)| *extra).collect();
        assert_eq!(extras, [None, None, Some(2), None]);
        let statuses: Vec<&str> = ran.iter().map(|(o, _)| o.status()).collect();
        assert_eq!(statuses, ["ok", "failed", "ok", "failed"]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cancelled_plan_fails_jobs_via_the_token() {
        let _guard = quiet_guarded();
        use std::sync::atomic::Ordering;
        let token = AtomicBool::new(true); // cancelled before it starts
        let grid = jobs(2);
        let outcomes = ExecPlan::new(&grid)
            .cancel(Some(&token))
            .run_limited(|spec, limits| {
                assert!(limits.cancel.is_some(), "token reaches the executor");
                match limits.check(0) {
                    Err(e) => JobOutcome::Failed(e.to_string()),
                    Ok(()) => exec(spec),
                }
            });
        assert!(outcomes.iter().all(|o| o.status() == "failed"));
        token.store(false, Ordering::Relaxed);
    }

    #[test]
    #[should_panic(expected = "use run_limited")]
    fn plain_run_rejects_limits_it_cannot_enforce() {
        let grid = jobs(1);
        let _ = ExecPlan::new(&grid).deadline_cycles(Some(10)).run(exec);
    }
}
