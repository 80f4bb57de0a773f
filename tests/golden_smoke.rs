//! Golden-output tests locking the cycle engines' measurements in place.
//!
//! The fixtures under `tests/fixtures/` pin the smoke suite's rendered
//! Fig 11 report and the deterministic artifact `jobs` array. They were
//! first captured before the hot-path rewrite (window-indexed matching
//! stores, calendar-queue events, active-node firing) and mechanically
//! refreshed to artifact schema v2 (per-job `"phases"` arrays added;
//! every cycles/energy/totals value byte-identical to the v1 capture).
//! Any drift in cycles, stats or energy is a simulation-semantics
//! regression, not a perf improvement.
//!
//! To regenerate after an *intentional* schema or measurement change:
//!
//! ```sh
//! DMT_UPDATE_GOLDEN=1 cargo test --test golden_smoke
//! git diff tests/fixtures/   # review: only intended fields may move
//! ```

use dmt_bench::{fig11_report, run_grid, suite_jobs, GridOptions, SEED};
use dmt_core::SystemConfig;

fn smoke_run() -> dmt_bench::SuiteRun {
    let jobs = suite_jobs(SystemConfig::default(), SEED, 3);
    run_grid(jobs, SEED, &GridOptions::default())
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
        "smoke output drifted from the golden fixture {fixture} \
         (DMT_UPDATE_GOLDEN=1 regenerates after intentional changes)\n\
         --- got ---\n{got}\n--- want ---\n{want}"
    );
}

#[test]
fn smoke_artifact_jobs_array_is_byte_identical_to_fixture() {
    let run = smoke_run();
    let got = run.artifact("fig11_speedup").jobs_json().render();
    check_or_update(
        &got,
        include_str!("fixtures/smoke_jobs.golden.json"),
        "smoke_jobs.golden.json",
    );
}

#[test]
fn smoke_report_is_byte_identical_to_fixture() {
    let run = smoke_run();
    let got = fig11_report(&run.rows());
    check_or_update(
        &got,
        include_str!("fixtures/smoke_report.golden.txt"),
        "smoke_report.golden.txt",
    );
}
