//! Golden-output test locking the hot-spot profiler's measurements.
//!
//! The fixture pins the `profile_hotspots` report for the smoke suite —
//! per-job token totals by edge class, spill counts, calendar marks,
//! ring-occupancy maxima and the top-K node/edge rankings. The profile
//! is derived purely from simulated events, so any drift is an
//! instrumentation or simulation-semantics change, never noise. The
//! companion tests pin the thread-invariance contract — observations
//! merge by job index, so the report and the artifact's `jobs` array
//! are byte-identical for any worker count — and that observing changes
//! nothing else: same outcome bytes as the unobserved run, and a
//! deadline still types every slot.
//!
//! To regenerate after an *intentional* change:
//!
//! ```sh
//! DMT_UPDATE_GOLDEN=1 cargo test --test golden_profile
//! git diff tests/fixtures/   # review: only intended fields may move
//! ```

use dmt_bench::{profile_artifact, profile_report, run_grid, suite_jobs, GridOptions, SEED};
use dmt_core::SystemConfig;

/// The smoke suite (first three benchmarks × all machines) under the
/// profiler, on `threads` workers.
fn profiled(threads: usize) -> dmt_bench::SuiteRun {
    let opts = GridOptions {
        threads,
        profile: true,
        ..GridOptions::default()
    };
    run_grid(suite_jobs(SystemConfig::default(), SEED, 3), SEED, &opts)
}

/// With `DMT_UPDATE_GOLDEN=1`, rewrites the fixture instead of comparing
/// (the test then trivially passes; review the diff before committing).
fn check_or_update(got: &str, want: &str, fixture: &str) {
    if std::env::var_os("DMT_UPDATE_GOLDEN").is_some() {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("tests/fixtures")
            .join(fixture);
        std::fs::write(&path, got).unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
        eprintln!("updated {}", path.display());
        return;
    }
    assert!(
        got == want,
        "profile output drifted from the golden fixture {fixture} \
         (DMT_UPDATE_GOLDEN=1 regenerates after intentional changes)\n\
         --- got ---\n{got}\n--- want ---\n{want}"
    );
}

#[test]
fn smoke_profile_report_is_byte_identical_to_fixture() {
    let got = profile_report(&profiled(1), 3);
    check_or_update(
        &got,
        include_str!("fixtures/smoke_profile.golden.txt"),
        "smoke_profile.golden.txt",
    );
}

#[test]
fn profile_is_byte_identical_across_thread_counts() {
    let (run1, run4) = (profiled(1), profiled(4));
    assert_eq!(
        profile_report(&run1, 10),
        profile_report(&run4, 10),
        "thread count changed the profile report"
    );
    // The artifact's deterministic half must match too; only the
    // volatile "meta" block (threads, wall time) may differ.
    let jobs = |run| {
        profile_artifact(run, 10)
            .get("jobs")
            .expect("jobs array")
            .render()
    };
    assert_eq!(
        jobs(&run1),
        jobs(&run4),
        "thread count changed the profile artifact"
    );
}

#[test]
fn observing_changes_no_outcome_and_composes_with_a_deadline() {
    let jobs = suite_jobs(SystemConfig::default(), SEED, 3);
    let plain = run_grid(jobs.clone(), SEED, &GridOptions::default());
    let observed = profiled(4);
    assert_eq!(observed.outcomes, plain.outcomes);
    for (outcome, obs) in plain.outcomes.iter().zip(&observed.observations) {
        let cycles = outcome.metrics().expect("smoke grid completes").cycles();
        assert_eq!(obs.profile.cycles, cycles, "observation misaligned");
    }
    assert!(
        plain.observations.iter().all(|obs| !obs.on()),
        "an unobserved run carries only disabled handles"
    );

    // Trace + profile + a one-cycle budget: every slot is typed, none
    // is dropped, and each still has its observation handle.
    let opts = GridOptions {
        threads: 4,
        deadline_cycles: Some(1),
        trace: Some(std::path::PathBuf::from("unused: finish() is never called")),
        profile: true,
        ..GridOptions::default()
    };
    let limited = run_grid(jobs, SEED, &opts);
    assert_eq!(limited.observations.len(), limited.outcomes.len());
    for outcome in &limited.outcomes {
        assert_eq!(outcome.status(), "timed_out", "{outcome:?}");
    }
}
