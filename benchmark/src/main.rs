//! The repo benchmark: five workloads, end-to-end and per-layer metrics,
//! traced runs. See `README.md` for the metric glossary and
//! `../BENCHMARK.json` for the contract the driver reads.
//!
//! ```text
//! dmt-benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//! dmt-benchmark --all [--seed N] [--seconds S] [--repeat K]
//! ```
//!
//! The first form runs one workload once (in a worker process, so that
//! its stderr goes to a file under `out/`) and prints, as the last line
//! of stdout, one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`: every end-to-end
//! metric with `--trace 0`, every per-layer metric with `--trace 1`.
//! The second runs every workload, each timed then traced in a child
//! process of its own, prints every metric by name with its unit, and
//! with `--repeat K` checks that K sets agree within the bounds.

mod env;
mod micro;
mod product;
mod registry;
mod report;
mod seed;
mod span;
mod stats;
mod workloads;

use dmt_common::json::Json;
use registry::Metric;
use std::process::ExitCode;
use workloads::{RunOutput, Workload};

const USAGE: &str = "usage: dmt-benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1]
       dmt-benchmark --all [--seed N] [--seconds S] [--repeat K]
workloads: fabric_grid fabric_wide gpu_grid serve_cold serve_warm";

/// Default `--seed`.
const DEFAULT_SEED: u64 = 42;
/// Default `--seconds`: the length the workload constants are sized for.
const DEFAULT_SECONDS: f64 = 10.0;

enum Mode {
    /// One workload, run in a worker process with its stderr in a file.
    One {
        workload: Workload,
        traced: bool,
    },
    /// The worker itself (`--worker`, not for users).
    Worker {
        workload: Workload,
        traced: bool,
    },
    All {
        repeat: usize,
    },
}

struct Args {
    mode: Mode,
    seed: u64,
    seconds: f64,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut all = false;
    let mut worker = false;
    let mut repeat = None;
    let mut traced = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = DEFAULT_SECONDS;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload =
                    Some(Workload::from_name(name).ok_or(format!("unknown workload {name:?}"))?);
            }
            "--seed" => {
                seed = value()?
                    .parse()
                    .map_err(|_| "--seed needs an unsigned integer")?
            }
            "--seconds" => {
                seconds = value()?.parse().map_err(|_| "--seconds needs a number")?;
                if !(seconds > 0.0 && seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
            }
            "--trace" => {
                traced = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                });
            }
            "--all" => all = true,
            "--worker" => worker = true,
            "--repeat" => {
                let k: usize = value()?.parse().map_err(|_| "--repeat needs a count")?;
                if k < 2 {
                    return Err("--repeat compares sets: it needs at least 2".into());
                }
                repeat = Some(k);
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let traced_or_not = traced.unwrap_or(false);
    let mode = match (workload, all || repeat.is_some()) {
        (Some(workload), false) if worker => Mode::Worker {
            workload,
            traced: traced_or_not,
        },
        (Some(workload), false) => Mode::One {
            workload,
            traced: traced_or_not,
        },
        (None, true) if traced.is_none() && !worker => Mode::All {
            repeat: repeat.unwrap_or(1),
        },
        _ => return Err("give either --workload NAME or --all/--repeat K".into()),
    };
    Ok(Args {
        mode,
        seed,
        seconds,
    })
}

/// The metrics a run of this mode must print, with the run's values.
/// A per-layer metric the workload did not set is 0: the layer was not
/// exercised. A missing end-to-end metric is a harness bug.
fn resolve(out: &RunOutput, traced: bool) -> Vec<(&'static Metric, f64)> {
    let list = if traced {
        registry::PER_LAYER
    } else {
        registry::END_TO_END
    };
    for (name, _) in &out.metrics {
        assert!(
            list.iter().any(|m| m.name == *name),
            "metric {name} is not in the registry for this mode"
        );
    }
    list.iter()
        .map(|m| {
            let value = out
                .metrics
                .iter()
                .find(|(n, _)| *n == m.name)
                .map(|(_, v)| *v);
            let value = match value {
                Some(v) => v,
                None if traced => 0.0,
                None => panic!("end-to-end metric {} was not measured", m.name),
            };
            assert!(value.is_finite(), "metric {} is {value}", m.name);
            (m, value)
        })
        .collect()
}

/// Runs the workload in a worker process and relays its stdout and
/// exit code.
fn run_one(workload: Workload, traced: bool, seed: u64, seconds: f64) -> ExitCode {
    match report::spawn_worker(workload, traced, seed, seconds) {
        Ok(output) => {
            print!("{}", String::from_utf8_lossy(&output.stdout));
            match output.status.code() {
                Some(0) => ExitCode::SUCCESS,
                Some(code) => ExitCode::from(u8::try_from(code).unwrap_or(1)),
                None => ExitCode::FAILURE,
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run_worker(workload: Workload, traced: bool, seed: u64, seconds: f64) -> ExitCode {
    let out = workloads::run(workload, seed, seconds, traced);
    let metrics = resolve(&out, traced);
    let mode = report::mode_name(traced);
    println!("{} ({mode}, seed {seed}, {seconds} s)", workload.name());
    for (m, value) in &metrics {
        println!("  {:<34} {value:>18.6} {}", m.name, m.unit);
    }
    for (name, value) in &out.counts {
        println!("  # {name} = {value}");
    }
    for failure in &out.failures {
        println!("  ! {failure}");
    }

    // The side file the --all report reads: counts and environment do
    // not fit the contract's last line.
    let pairs =
        |list: &[(&'static str, f64)]| list.iter().fold(Json::obj(), |doc, (k, v)| doc.with(k, *v));
    let detail = Json::obj()
        .with("workload", workload.name())
        .with("mode", mode)
        .with("seed", seed)
        .with("seconds", seconds)
        .with("env", env::record())
        .with("attempted", out.attempted)
        .with("failed", out.failed)
        .with("counts", pairs(&out.counts))
        .with(
            "failures",
            Json::Arr(out.failures.iter().map(|f| Json::Str(f.clone())).collect()),
        );
    let path = workloads::out_dir().join(format!("{}.{mode}.json", workload.name()));
    dmt_common::json::write_json(&path, &detail)
        .unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));

    let rendered: Vec<String> = metrics
        .iter()
        .map(|(m, value)| {
            format!(
                "\"{}\":{{\"value\":{value},\"unit\":\"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        out.failed == 0,
        out.attempted.max(1),
        out.failed,
        rendered.join(",")
    );
    if out.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&args) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match args.mode {
        Mode::One { workload, traced } => run_one(workload, traced, args.seed, args.seconds),
        Mode::Worker { workload, traced } => run_worker(workload, traced, args.seed, args.seconds),
        Mode::All { repeat } => report::run_all(args.seed, args.seconds, repeat),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(&args.iter().map(|s| (*s).to_owned()).collect::<Vec<_>>())
    }

    #[test]
    fn driver_form_parses() {
        let a = parse(&[
            "--workload",
            "serve_cold",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .unwrap();
        assert!(matches!(
            a.mode,
            Mode::One {
                workload: Workload::ServeCold,
                traced: true
            }
        ));
        assert_eq!((a.seed, a.seconds), (7, 10.0));
        assert!(matches!(
            parse(&["--worker", "--workload", "gpu_grid"]).unwrap().mode,
            Mode::Worker {
                workload: Workload::GpuGrid,
                traced: false
            }
        ));
    }

    #[test]
    fn all_and_repeat_forms_parse_and_bad_input_is_refused() {
        assert!(matches!(
            parse(&["--all"]).unwrap().mode,
            Mode::All { repeat: 1 }
        ));
        assert!(matches!(
            parse(&["--repeat", "2"]).unwrap().mode,
            Mode::All { repeat: 2 }
        ));
        assert_eq!(parse(&["--all"]).unwrap().seed, DEFAULT_SEED);
        for bad in [
            &["--workload", "nope"][..],
            &["--all", "--workload", "gpu_grid"],
            &["--all", "--trace", "1"],
            &["--all", "--worker"],
            &["--repeat", "1"],
            &["--seconds", "0", "--all"],
            &["--frobnicate"],
            &[],
        ] {
            assert!(parse(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn unexercised_layers_read_zero() {
        let mut out = RunOutput::default();
        out.metric("fabric.run_share", 0.9);
        let resolved = resolve(&out, true);
        assert_eq!(resolved.len(), registry::PER_LAYER.len());
        assert_eq!(resolved[0].1, 0.9);
        assert!(resolved[1..].iter().all(|(_, v)| *v == 0.0));
    }
}
