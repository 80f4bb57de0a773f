//! Parameter-sweep infrastructure: run the suite across configuration
//! variants and emit machine-readable series (CSV) for plotting.
//!
//! A sweep is flattened into one `dmt-runner` job grid — every
//! `(point, benchmark, arch)` triple is an independent job — so the
//! whole sweep parallelizes across the worker pool at once instead of
//! point by point. Aggregation is by job index: CSV output is identical
//! for any thread count.

use crate::{suite_jobs, GridOptions, RowOutcome, SuiteRun};
use dmt_core::SystemConfig;
use std::fmt::Write as _;

/// One point of a sweep: a label (the x value) and the suite measured
/// under that configuration. Rows may contain infeasible points (e.g. a
/// kernel whose |ΔTID| exceeds a swept window) — CSV emission skips
/// them, [`skipped`] reports them.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// Human-readable x value (e.g. "16" for a buffer size).
    pub label: String,
    /// Per-benchmark outcomes at this point.
    pub rows: Vec<RowOutcome>,
}

/// Runs the full suite once per configuration variant, flattened into
/// one [`run_grid`](crate::run_grid) call across the worker pool, and
/// returns the underlying run (for the per-job JSON artifact) beside
/// the regrouped points. Every [`GridOptions`] field applies: with a
/// cache, previously-completed points are served from disk and a killed
/// sweep resumes from the jobs it had finished; under a deadline,
/// timed-out points render like infeasible ones (omitted from the CSV,
/// reported by [`skipped`]).
pub fn sweep_run<I, F>(
    values: I,
    seed: u64,
    mut configure: F,
    opts: &GridOptions,
) -> (SuiteRun, Vec<SweepPoint>)
where
    I: IntoIterator,
    I::Item: std::fmt::Display,
    F: FnMut(&I::Item, &mut SystemConfig),
{
    let mut labels = Vec::new();
    let mut jobs = Vec::new();
    for v in values {
        let mut cfg = SystemConfig::default();
        configure(&v, &mut cfg);
        labels.push(v.to_string());
        jobs.extend(suite_jobs(cfg, seed, usize::MAX));
    }
    let run = crate::run_grid(jobs, seed, opts);
    // Every point contributed one whole suite, so the rows split evenly.
    let mut rows = run.rows().into_iter();
    let per_point = rows.len() / labels.len().max(1);
    let points = labels
        .into_iter()
        .map(|label| SweepPoint {
            label,
            rows: rows.by_ref().take(per_point).collect(),
        })
        .collect();
    (run, points)
}

/// Renders a sweep as CSV: one line per fully-feasible (x, benchmark)
/// pair with cycles and energy for all three machines plus the derived
/// ratios. Rows with an infeasible architecture are omitted (see
/// [`skipped`]).
#[must_use]
pub fn to_csv(points: &[SweepPoint], x_name: &str) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{x_name},benchmark,fermi_cycles,mt_cycles,dmt_cycles,\
         fermi_uj,mt_uj,dmt_uj,mt_speedup,dmt_speedup,mt_eff,dmt_eff"
    );
    for p in points {
        for r in &p.rows {
            let (Some(fermi), Some(mt), Some(dmt)) =
                (r.fermi.metrics(), r.mt.metrics(), r.dmt.metrics())
            else {
                continue;
            };
            let _ = writeln!(
                out,
                "{},{},{},{},{},{:.4},{:.4},{:.4},{:.4},{:.4},{:.4},{:.4}",
                p.label,
                r.name,
                fermi.cycles(),
                mt.cycles(),
                dmt.cycles(),
                fermi.total_joules() * 1e6,
                mt.total_joules() * 1e6,
                dmt.total_joules() * 1e6,
                // All three metrics are bound above, so every ratio is
                // defined — compute them directly from the operands.
                fermi.cycles() as f64 / mt.cycles() as f64,
                fermi.cycles() as f64 / dmt.cycles() as f64,
                fermi.total_joules() / mt.total_joules(),
                fermi.total_joules() / dmt.total_joules(),
            );
        }
    }
    out
}

/// The points [`to_csv`] omitted: `(x label, benchmark, arch, error)`.
#[must_use]
pub fn skipped(points: &[SweepPoint]) -> Vec<(String, String, String, String)> {
    points
        .iter()
        .flat_map(|p| {
            p.rows.iter().flat_map(|r| {
                r.failures()
                    .into_iter()
                    .map(|(arch, err)| (p.label.clone(), r.name.clone(), arch.to_string(), err))
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csv_has_a_row_per_point_and_benchmark() {
        let (_, points) = sweep_run(
            [16u32],
            1,
            |&tb, cfg| {
                cfg.fabric.token_buffer_entries = tb;
            },
            &GridOptions::default(),
        );
        let csv = to_csv(&points, "token_buffer");
        assert_eq!(csv.lines().count(), 1 + 9, "header + nine benchmarks");
        assert!(csv.starts_with("token_buffer,benchmark,"));
        assert!(csv.contains("16,scan,"));
        assert!(skipped(&points).is_empty());
    }

    #[test]
    fn infeasible_rows_are_skipped_and_reported() {
        // A 64-thread window breaks reduce's 128-wide log-tree.
        let opts = GridOptions {
            threads: 2,
            ..GridOptions::default()
        };
        let (_, points) = sweep_run(
            [64u32],
            crate::SEED,
            |&w, cfg| {
                cfg.fabric.inflight_threads = w;
            },
            &opts,
        );
        let csv = to_csv(&points, "inflight_threads");
        assert!(!csv.contains(",reduce,"), "{csv}");
        let sk = skipped(&points);
        assert!(
            sk.iter().any(|(x, b, _, _)| x == "64" && b == "reduce"),
            "{sk:?}"
        );
    }
}
