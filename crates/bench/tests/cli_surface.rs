//! The accepted set is the whole truth, per built binary.
//!
//! Each experiment binary declares its command line (`dmt_runner::Cli`).
//! The table below restates those declarations independently, and for
//! every binary checks both directions against the built executable:
//! `--help` lists exactly the declared flags, and every runner flag it
//! does not declare — and one positional more than it takes — exits 2
//! with a typed message on stderr before printing anything.

use std::process::{Command, Output};

/// Every runner flag, with a valid value where it takes one.
const RUNNER_FLAGS: [(&str, Option<&str>); 9] = [
    ("--threads", Some("2")),
    ("--json", Some("unused.json")),
    ("--cache", Some("unused-cache")),
    ("--no-cache", None),
    ("--progress", None),
    ("--smoke", None),
    ("--trace", Some("unused-trace.json")),
    ("--faults", Some("seed=1")),
    ("--deadline-cycles", Some("5")),
];

/// One binary's declared surface: the runner flags it honours and its
/// own flags (space-separated, without the `--`), and how many
/// positionals it takes.
struct Surface {
    exe: &'static str,
    name: &'static str,
    runner: &'static str,
    own: &'static str,
    positionals: usize,
}

impl Surface {
    fn honours(&self, flag: &str) -> bool {
        self.runner
            .split(' ')
            .any(|f| flag.strip_prefix("--") == Some(f))
    }
}

macro_rules! surface {
    ($name:literal, $runner:expr, $own:literal, $positionals:literal) => {
        Surface {
            exe: env!(concat!("CARGO_BIN_EXE_", $name)),
            name: $name,
            runner: $runner,
            own: $own,
            positionals: $positionals,
        }
    };
}

const GRID: &str = "threads json cache no-cache progress faults deadline-cycles";

const SURFACES: [Surface; 14] = [
    surface!(
        "fig11_speedup",
        "threads json cache no-cache progress smoke trace faults deadline-cycles",
        "",
        0
    ),
    surface!(
        "fig12_energy",
        "threads json cache no-cache progress smoke faults deadline-cycles",
        "",
        0
    ),
    surface!("report_utilization", GRID, "per-phase", 0),
    surface!("ablate_inflight", GRID, "", 0),
    surface!("sweep_csv", GRID, "", 1),
    surface!("profile_hotspots", "threads json smoke faults", "top", 0),
    surface!("ablate_replication", "threads faults", "", 0),
    surface!("ablate_token_buffer", "threads faults", "", 0),
    surface!("ablate_window", "threads faults", "", 0),
    surface!("bench_hotpath", "json faults", "iters full", 0),
    surface!("table3_benchmarks", "json faults", "", 0),
    surface!("fig05_delta_cdf", "json faults", "", 0),
    surface!("kernel_dot", "faults", "", 2),
    surface!("table2_config", "faults", "", 0),
];

fn run(s: &Surface, args: &[&str]) -> Output {
    Command::new(s.exe)
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("spawning {}: {e}", s.name))
}

/// Exit 2, the message on stderr, nothing on stdout.
fn assert_rejected(s: &Surface, args: &[&str], message: &str) {
    let out = run(s, args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{} {args:?}: {stderr}", s.name);
    assert!(
        stderr.starts_with(&format!("error: {message}\n")),
        "{} {args:?}: {stderr}",
        s.name
    );
    assert!(out.stdout.is_empty(), "{} {args:?} printed output", s.name);
}

#[test]
fn help_lists_exactly_the_declared_flags() {
    for s in &SURFACES {
        let out = run(s, &["--help"]);
        assert_eq!(out.status.code(), Some(0), "{} --help", s.name);
        let help = String::from_utf8(out.stdout).expect("help is UTF-8");
        assert!(help.starts_with(&format!("usage: {}", s.name)), "{help}");
        // A help line is two spaces, the flag, its placeholder and text.
        let mut listed: Vec<&str> = help
            .lines()
            .filter_map(|l| l.strip_prefix("  --"))
            .map(|l| l.split_whitespace().next().expect("flag name"))
            .collect();
        let declared = format!("{} {} help", s.runner, s.own);
        let mut declared: Vec<&str> = declared.split_whitespace().collect();
        listed.sort_unstable();
        declared.sort_unstable();
        assert_eq!(listed, declared, "{} --help:\n{help}", s.name);
        // The usage line agrees with the table below it.
        let usage = help.lines().next().expect("usage line");
        for (flag, _) in RUNNER_FLAGS {
            let shown = usage.contains(&format!("[{flag}"));
            assert_eq!(shown, s.honours(flag), "{}: {usage}", s.name);
        }
    }
}

#[test]
fn undeclared_runner_flags_and_extra_positionals_exit_2_before_any_output() {
    for s in &SURFACES {
        for (flag, value) in RUNNER_FLAGS {
            if s.honours(flag) {
                continue;
            }
            let message = format!("{} does not support {flag}", s.name);
            match value {
                Some(v) => {
                    assert_rejected(s, &[flag, v], &message);
                    assert_rejected(s, &[&format!("{flag}={v}")], &message);
                }
                None => assert_rejected(s, &[flag], &message),
            }
        }
        let mut argv = vec!["scan"; s.positionals];
        argv.push("bogus");
        assert_rejected(s, &argv, "unknown argument \"bogus\"");
        assert_rejected(s, &["--no-such-flag"], "unknown flag --no-such-flag");
    }
}

#[test]
fn environment_defaults_reach_only_binaries_that_declare_the_flag() {
    // profile_hotspots declares --threads but none of --trace, --cache
    // and --progress: with all four defaults exported it must print the
    // same report, tick nothing, and leave no trace or cache on disk.
    let dir = std::env::temp_dir().join(format!("dmt_cli_surface_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let s = SURFACES
        .iter()
        .find(|s| s.name == "profile_hotspots")
        .expect("in the table");
    let json = dir.join("out/profile.json");
    let args = ["--smoke", "--json", json.to_str().expect("UTF-8 temp dir")];
    let plain = run(s, &args);
    let exported = Command::new(s.exe)
        .args(args)
        .env("DMT_TRACE", dir.join("env/trace.json"))
        .env("DMT_CACHE", dir.join("env/cache"))
        .env("DMT_PROGRESS", "1")
        .env("DMT_THREADS", "2")
        .output()
        .expect("spawn profile_hotspots");
    assert_eq!(exported.status.code(), Some(0));
    assert_eq!(exported.stdout, plain.stdout);
    let stderr = String::from_utf8_lossy(&exported.stderr);
    assert_eq!(
        stderr.lines().count(),
        1,
        "only the artifact line: {stderr}"
    );
    assert!(
        !dir.join("env").exists(),
        "an undeclared default was applied"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
