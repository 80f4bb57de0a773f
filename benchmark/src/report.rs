//! `--all` and `--repeat K`: every workload in a child process of its
//! own (so `peak_rss_mb` and `setup_s` are per workload), timed then
//! traced, every metric printed by name with its unit, and the
//! repeatability check between sets.

use crate::registry::{self, Better, Metric};
use crate::stats::worse_by;
use crate::workloads::{out_dir, Workload};
use dmt_common::json::Json;
use std::process::{Command, ExitCode, Stdio};

/// One child's last line and side file.
struct ChildRun {
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static Metric, f64)>,
    detail: Json,
}

/// One set: per workload, the timed and the traced run.
type Set = Vec<(Workload, ChildRun, ChildRun)>;

/// Runs one workload in a worker process of its own, its stderr in
/// `out/<workload>.<mode>.stderr.log`. The daemon's per-job stderr
/// lines are part of the measured cost, and a file is the one sink that
/// costs the same whoever calls: a pipe's reader competes for the two
/// cores (`serve_warm` ran 9 % slower under one), a terminal is slower
/// still, and an undrained pipe would block the daemon.
pub fn spawn_worker(
    workload: Workload,
    traced: bool,
    seed: u64,
    seconds: f64,
) -> Result<std::process::Output, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the benchmark binary: {e}"))?;
    let log_path = out_dir().join(format!(
        "{}.{}.stderr.log",
        workload.name(),
        mode_name(traced)
    ));
    let log = std::fs::File::create(&log_path)
        .map_err(|e| format!("creating {}: {e}", log_path.display()))?;
    Command::new(exe)
        .args(["--worker", "--workload", workload.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::from(log))
        .output()
        .map_err(|e| format!("spawning {}: {e}", workload.name()))
}

/// `timed` or `traced`: the run's name in file names and reports.
pub fn mode_name(traced: bool) -> &'static str {
    if traced {
        "traced"
    } else {
        "timed"
    }
}

fn run_child(
    workload: Workload,
    traced: bool,
    seed: u64,
    seconds: f64,
) -> Result<ChildRun, String> {
    let mode = mode_name(traced);
    eprintln!("[benchmark] {} ({mode}) ...", workload.name());
    let output = spawn_worker(workload, traced, seed, seconds)?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().unwrap_or("");
    let doc = Json::parse(last).map_err(|e| {
        format!(
            "{} ({mode}) exited with {} and no result line: {e} (see out/*.stderr.log)\n{stdout}",
            workload.name(),
            output.status
        )
    })?;
    let list = if traced {
        registry::PER_LAYER
    } else {
        registry::END_TO_END
    };
    let metrics = list
        .iter()
        .map(|m| {
            doc.get("metrics")
                .and_then(|all| all.get(m.name))
                .and_then(|entry| entry.get("value"))
                .and_then(Json::as_f64)
                .map(|v| (m, v))
                .ok_or(format!(
                    "{} ({mode}) did not report {}",
                    workload.name(),
                    m.name
                ))
        })
        .collect::<Result<Vec<_>, _>>()?;
    let path = out_dir().join(format!("{}.{mode}.json", workload.name()));
    let detail = std::fs::read_to_string(&path)
        .map_err(|e| e.to_string())
        .and_then(|text| Json::parse(&text))
        .map_err(|e| format!("reading {}: {e}", path.display()))?;
    Ok(ChildRun {
        attempted: doc.get("attempted").and_then(Json::as_u64).unwrap_or(0),
        failed: doc.get("failed").and_then(Json::as_u64).unwrap_or(0),
        metrics,
        detail,
    })
}

fn print_run(run: &ChildRun) {
    for (m, value) in &run.metrics {
        println!("  {:<34} {value:>18.6} {}", m.name, m.unit);
    }
    if let Some(Json::Obj(counts)) = run.detail.get("counts") {
        for (name, value) in counts {
            println!("  # {name} = {}", value.as_f64().unwrap_or(f64::NAN));
        }
    }
}

fn value_of(run: &ChildRun, name: &str) -> f64 {
    run.metrics
        .iter()
        .find(|(m, _)| m.name == name)
        .map_or(f64::NAN, |(_, v)| *v)
}

fn count_of(run: &ChildRun, name: &str) -> Option<f64> {
    run.detail.get("counts")?.get(name)?.as_f64()
}

fn run_json(run: &ChildRun) -> Json {
    run.metrics.iter().fold(Json::obj(), |doc, (m, v)| {
        doc.with(m.name, Json::obj().with("value", *v).with("unit", m.unit))
    })
}

fn set_json(set: &Set) -> Json {
    set.iter().fold(Json::obj(), |doc, (w, timed, traced)| {
        let failed = timed.failed + traced.failed;
        let attempted = timed.attempted + traced.attempted;
        doc.with(
            w.name(),
            Json::obj()
                .with("failed_share", failed as f64 / attempted.max(1) as f64)
                .with("end_to_end", run_json(timed))
                .with("per_layer", run_json(traced))
                .with("timed_run", timed.detail.clone())
                .with("traced_run", traced.detail.clone()),
        )
    })
}

/// Runs every workload `repeat` times over and reports. Exits non-zero
/// when any operation failed, any `sim.*` value differs between runs
/// that must agree, or (with `repeat` ≥ 2) any end-to-end metric of two
/// sets differs by more than its bound.
pub fn run_all(seed: u64, seconds: f64, repeat: usize) -> ExitCode {
    let mut problems: Vec<String> = Vec::new();
    // The sets are interleaved workload by workload, so the runs that are
    // compared lie seconds apart, not a whole suite apart: this VM's
    // speed wanders by several percent over minutes.
    let mut sets: Vec<Set> = (0..repeat).map(|_| Set::new()).collect();
    for workload in Workload::ALL {
        for set in &mut sets {
            let timed = run_child(workload, false, seed, seconds);
            let traced = run_child(workload, true, seed, seconds);
            match (timed, traced) {
                (Ok(timed), Ok(traced)) => set.push((workload, timed, traced)),
                (timed, traced) => {
                    problems.extend(timed.err());
                    problems.extend(traced.err());
                }
            }
        }
    }
    for (k, set) in sets.iter().enumerate() {
        println!("== set {} of {repeat} (seed {seed}, {seconds} s) ==", k + 1);
        for (workload, timed, traced) in set {
            let failed = timed.failed + traced.failed;
            let attempted = timed.attempted + traced.attempted;
            println!("{}: {}", workload.name(), workload.why());
            println!(
                "  {:<34} {:>18.6} ratio ({failed} of {attempted} operations)",
                "failed_share",
                failed as f64 / attempted.max(1) as f64
            );
            print_run(timed);
            print_run(traced);
            if failed > 0 {
                problems.push(format!("{}: {failed} operations failed", workload.name()));
            }
            // The traced path must have simulated the same program as
            // the timed path.
            if let Some(timed_print) = count_of(timed, "sim_stats_fingerprint") {
                if timed_print != value_of(traced, "sim.stats_fingerprint") {
                    problems.push(format!(
                        "{}: sim.stats_fingerprint differs between the timed and traced runs",
                        workload.name()
                    ));
                }
            }
        }
    }

    if repeat >= 2 {
        println!("== repeatability: set 1 against each later set ==");
        println!(
            "{:<12} {:<22} {:>16} {:>16} {:>8} {:>6}",
            "workload", "metric", "set 1", "set k", "gap", "bound"
        );
        let (first, later) = sets.split_first().expect("repeat >= 2");
        for (k, other) in later.iter().enumerate() {
            for (workload, timed_a, traced_a) in first {
                // A workload whose child failed is missing from its set
                // (and already listed as a problem).
                let Some((_, timed_b, traced_b)) = other.iter().find(|(w, ..)| w == workload)
                else {
                    continue;
                };
                for (m, a) in &timed_a.metrics {
                    let b = value_of(timed_b, m.name);
                    let higher = m.better == Better::Higher;
                    let gap = worse_by(*a, b, higher).abs();
                    let bound = m.bound.expect("end-to-end metrics carry a bound");
                    let verdict = if gap > bound { "  EXCEEDS" } else { "" };
                    println!(
                        "{:<12} {:<22} {a:>16.4} {b:>16.4} {:>7.2}% {:>5.0}%{verdict}",
                        workload.name(),
                        m.name,
                        gap * 100.0,
                        bound * 100.0
                    );
                    if gap > bound {
                        problems.push(format!(
                            "{} {}: sets 1 and {} differ by {:.1}% (bound {:.0}%)",
                            workload.name(),
                            m.name,
                            k + 2,
                            gap * 100.0,
                            bound * 100.0
                        ));
                    }
                }
                for (m, a) in traced_a
                    .metrics
                    .iter()
                    .filter(|(m, _)| registry::is_exact(m.name))
                {
                    let b = value_of(traced_b, m.name);
                    if a.to_bits() != b.to_bits() {
                        problems.push(format!(
                            "{} {}: {a} in set 1, {b} in set {} (must repeat exactly)",
                            workload.name(),
                            m.name,
                            k + 2
                        ));
                    }
                }
            }
        }
    }

    let report = Json::obj()
        .with("seed", seed)
        .with("seconds", seconds)
        .with("env", crate::env::record())
        .with("sets", Json::Arr(sets.iter().map(set_json).collect()))
        .with(
            "problems",
            Json::Arr(problems.iter().map(|p| Json::Str(p.clone())).collect()),
        );
    let path = out_dir().join("report.json");
    match dmt_common::json::write_json(&path, &report) {
        Ok(()) => println!("report: {}", path.display()),
        Err(e) => problems.push(format!("writing {}: {e}", path.display())),
    }
    if problems.is_empty() {
        println!(
            "all workloads correct{}",
            if repeat >= 2 {
                "; sets agree within the bounds"
            } else {
                ""
            }
        );
        ExitCode::SUCCESS
    } else {
        for p in &problems {
            println!("PROBLEM: {p}");
        }
        ExitCode::FAILURE
    }
}
