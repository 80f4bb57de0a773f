//! The parallel runner's central contract: aggregated results are
//! **byte-identical** for any worker count — a parallel suite run is the
//! serial run, only faster. Exercised over the CI smoke grid (first
//! three Table 3 benchmarks × all three machines).

use dmt_bench::{fig11_report, fig12_report, run_grid, suite_jobs, GridOptions, SEED};
use dmt_core::SystemConfig;
use dmt_runner::{Artifact, ExecPlan, JobOutcome};

/// The first `take` suite rows through the binaries' entry point, on
/// `threads` workers, every other option at its default.
fn suite_run(cfg: SystemConfig, take: usize, threads: usize) -> dmt_bench::SuiteRun {
    let opts = GridOptions {
        threads,
        ..GridOptions::default()
    };
    run_grid(suite_jobs(cfg, SEED, take), SEED, &opts)
}

#[test]
fn parallel_suite_is_byte_identical_to_serial() {
    let cfg = SystemConfig::default();
    let serial = suite_run(cfg, 3, 1);
    let parallel = suite_run(cfg, 3, 4);

    // Same grid, same outcomes, in the same order.
    assert_eq!(serial.jobs, parallel.jobs);
    assert_eq!(serial.outcomes, parallel.outcomes);

    // Every point of the default configuration is feasible — a run that
    // errors here is a regression, not an annotatable design point (the
    // headline binaries exit nonzero on it; this pins the same contract).
    assert!(
        serial.outcomes.iter().all(|o| o.metrics().is_some()),
        "default-config suite must complete on every machine"
    );

    // Rendered figures agree byte-for-byte.
    assert_eq!(fig11_report(&serial.rows()), fig11_report(&parallel.rows()));
    assert_eq!(fig12_report(&serial.rows()), fig12_report(&parallel.rows()));

    // The deterministic part of the artifact agrees byte-for-byte (the
    // volatile wall-clock/thread metadata lives outside "jobs").
    let serial_jobs = serial.artifact("smoke").jobs_json().render();
    let parallel_jobs = parallel.artifact("smoke").jobs_json().render();
    assert_eq!(serial_jobs, parallel_jobs);
}

#[test]
fn artifact_records_every_job_with_stable_hashes() {
    let cfg = SystemConfig::default();
    let run = suite_run(cfg, 2, 2);
    let art = run.artifact("smoke");
    let text = art.to_json().render();

    assert!(text.contains("\"schema_version\": 2"), "{text}");
    assert!(text.contains("\"suite\": \"smoke\""), "{text}");
    for needle in [
        "\"bench\": \"scan\"",
        "\"bench\": \"matrixMul\"",
        "\"arch\": \"fermi_sm\"",
        "\"arch\": \"mt_cgra\"",
        "\"arch\": \"dmt_cgra\"",
        "\"status\": \"ok\"",
        "\"cycles\":",
        "\"total_j\":",
        "\"config_hash\": \"0x",
        "\"job_hash\": \"0x",
        "\"phases\": [",
    ] {
        assert!(text.contains(needle), "artifact missing {needle}: {text}");
    }

    // All six jobs share one config, hence one config hash; job hashes
    // are pairwise distinct.
    let hashes: Vec<u64> = run.jobs.iter().map(|j| j.job_hash()).collect();
    let mut unique = hashes.clone();
    unique.sort_unstable();
    unique.dedup();
    assert_eq!(unique.len(), hashes.len());
    let cfg_hashes: Vec<u64> = run.jobs.iter().map(|j| j.config_hash()).collect();
    assert!(cfg_hashes.windows(2).all(|w| w[0] == w[1]));
}

#[test]
fn artifact_round_trips_through_a_rebuild() {
    // The artifact constructor is pure over (specs, outcomes): rebuilding
    // from the same run yields the same document, including hashes.
    let run = suite_run(SystemConfig::default(), 1, 2);
    let a = Artifact::new(
        "x",
        run.threads,
        run.wall_ms,
        run.seed,
        run.jobs.clone(),
        run.outcomes.clone(),
    );
    let b = run.artifact("x");
    assert_eq!(a.to_json().render(), b.to_json().render());
}

#[test]
fn panicking_job_does_not_abort_dispatched_siblings() {
    // One panicking executor must cost exactly one job: its slot becomes
    // a typed Failed outcome, and every sibling outcome is byte-identical
    // to a panic-free run — for any worker count. (Regression: the pool
    // used to let an executor panic poison the whole run.)
    let grid = suite_jobs(SystemConfig::default(), SEED, 3);
    let victim = grid[4].job_hash();
    let clean: Vec<JobOutcome> = ExecPlan::new(&grid).threads(2).run(dmt_bench::execute_job);
    for threads in [1, 4] {
        let outcomes = ExecPlan::new(&grid).threads(threads).run(|spec| {
            assert!(spec.job_hash() != victim, "panic before producing");
            dmt_bench::execute_job(spec)
        });
        assert_eq!(outcomes.len(), grid.len());
        for (i, (got, want)) in outcomes.iter().zip(&clean).enumerate() {
            if grid[i].job_hash() == victim {
                assert_eq!(got.status(), "failed", "threads={threads}: {got:?}");
                assert!(
                    got.error().unwrap().contains("panic before producing"),
                    "threads={threads}: {got:?}"
                );
            } else {
                assert_eq!(got, want, "threads={threads}: sibling {i} diverged");
            }
        }
    }
}

#[test]
fn suite_jobs_grid_is_stable() {
    // The job grid itself (order and hashes) must not depend on ambient
    // state — two constructions are identical.
    let a = suite_jobs(SystemConfig::default(), SEED, 9);
    let b = suite_jobs(SystemConfig::default(), SEED, 9);
    assert_eq!(a, b);
    assert_eq!(a.len(), 27);
    let ha: Vec<u64> = a.iter().map(dmt_runner::JobSpec::job_hash).collect();
    let hb: Vec<u64> = b.iter().map(dmt_runner::JobSpec::job_hash).collect();
    assert_eq!(ha, hb);
}
