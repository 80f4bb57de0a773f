//! The shared command-line surface of every experiment binary.
//!
//! Flags are **declared, not hand-parsed**: a [`Flag`] names one flag,
//! says whether it takes a value, and carries its help line. The
//! [`SHARED_FLAGS`] registry declares the runner flags every binary
//! accepts (`--threads/--json/--cache/--no-cache/--progress/--smoke/`
//! `--trace/--faults/--deadline-cycles`);
//! a binary with flags of its own passes one more `&[Flag]` table to
//! [`RunnerArgs::from_env_registry`] and reads them back with
//! [`RunnerArgs::has_flag`] / [`RunnerArgs::flag_value`]. From the two
//! tables the parser generates `--help` output and the usage line shown
//! on errors, so help text can never drift from what is actually
//! parsed, and unknown-`--flag` rejection is uniform across all
//! binaries (a misspelled flag must not silently degrade the run).
//!
//! Unrecognized bare arguments pass through in order (`rest`) for
//! binary-specific positionals (e.g. `sweep_csv token_buffer`).

use crate::cache::Cache;
use std::path::PathBuf;

/// One declared command-line flag: its name, whether it takes a value,
/// and the help line `--help` prints for it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Flag {
    /// The flag itself, `--`-prefixed (e.g. `"--threads"`).
    pub name: &'static str,
    /// Value placeholder for the help text (`None` for a switch).
    pub value_name: Option<&'static str>,
    /// One-line description shown by `--help`.
    pub help: &'static str,
}

impl Flag {
    /// Declares a boolean switch (`--per-phase`).
    #[must_use]
    pub const fn switch(name: &'static str, help: &'static str) -> Flag {
        Flag {
            name,
            value_name: None,
            help,
        }
    }

    /// Declares a flag that takes a value (`--iters N`, also accepted
    /// as `--iters=N`).
    #[must_use]
    pub const fn with_value(
        name: &'static str,
        value_name: &'static str,
        help: &'static str,
    ) -> Flag {
        Flag {
            name,
            value_name: Some(value_name),
            help,
        }
    }

    /// The flag as it appears in a usage line: `--iters N` or
    /// `--per-phase`.
    fn synopsis(&self) -> String {
        match self.value_name {
            Some(v) => format!("{} {v}", self.name),
            None => self.name.to_owned(),
        }
    }

    /// The two-column help line for this flag.
    fn help_line(&self) -> String {
        format!("  {:<22} {}\n", self.synopsis(), self.help)
    }
}

/// The runner flags every experiment binary accepts. Binary-specific
/// tables compose with (never override) this one.
pub const SHARED_FLAGS: &[Flag] = &[
    Flag::with_value(
        "--threads",
        "N",
        "worker count (default: DMT_THREADS, else all cores)",
    ),
    Flag::with_value("--json", "PATH", "also write the versioned JSON artifact"),
    Flag::with_value(
        "--cache",
        "DIR",
        "content-addressed result cache (or DMT_CACHE=DIR)",
    ),
    Flag::switch("--no-cache", "disable caching even when DMT_CACHE is set"),
    Flag::switch(
        "--progress",
        "live per-job progress on stderr (or DMT_PROGRESS=1)",
    ),
    Flag::switch("--smoke", "reduced suite, where the binary supports it"),
    Flag::with_value(
        "--trace",
        "PATH",
        "export a Chrome-trace JSON of the runs (or DMT_TRACE=1|PATH)",
    ),
    Flag::with_value(
        "--faults",
        "SPEC",
        "deterministic fault injection, e.g. 'seed=1;cache.read:nth=2' (or DMT_FAULTS)",
    ),
    Flag::with_value(
        "--deadline-cycles",
        "N",
        "per-job simulated-cycle budget; exceeding jobs report timed_out",
    ),
];

/// The generated `--help` text: usage line, the shared registry, then
/// the binary's own table.
#[must_use]
pub fn help_text(binary: &str, extra: &[Flag]) -> String {
    let mut s = format!("{}\n\nrunner flags:\n", usage_line(binary, extra));
    for f in SHARED_FLAGS {
        s.push_str(&f.help_line());
    }
    if !extra.is_empty() {
        s.push_str("\nbinary flags:\n");
        for f in extra {
            s.push_str(&f.help_line());
        }
    }
    s.push('\n');
    s.push_str(&Flag::switch("--help", "print this help").help_line());
    s
}

/// The generated one-line usage summary (also shown on parse errors).
#[must_use]
pub fn usage_line(binary: &str, extra: &[Flag]) -> String {
    let mut s = format!("usage: {binary}");
    for f in SHARED_FLAGS.iter().chain(extra) {
        s.push_str(&format!(" [{}]", f.synopsis()));
    }
    s.push_str(" [args...]");
    s
}

// The binary name for usage/help lines, recovered from argv[0].
fn binary_name() -> String {
    std::env::args()
        .next()
        .as_deref()
        .map(std::path::Path::new)
        .and_then(|p| p.file_stem())
        .map_or_else(|| "dmt".to_owned(), |s| s.to_string_lossy().into_owned())
}

/// Parsed runner arguments.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunnerArgs {
    /// `--threads N`: requested worker count.
    pub threads: Option<usize>,
    /// `--json PATH`: artifact destination.
    pub json: Option<PathBuf>,
    /// `--cache DIR`: result-cache directory.
    pub cache: Option<PathBuf>,
    /// `--no-cache`: caching off, overriding `DMT_CACHE`.
    pub no_cache: bool,
    /// `--smoke`: reduced suite.
    pub smoke: bool,
    /// `--trace PATH`: Chrome-trace destination.
    pub trace: Option<PathBuf>,
    /// `--faults SPEC`: deterministic fault-injection plan.
    pub faults: Option<String>,
    /// `--deadline-cycles N`: per-job simulated-cycle budget.
    pub deadline_cycles: Option<u64>,
    /// `--progress`: live stderr progress.
    pub progress: bool,
    /// `--help`/`-h`: print generated help and exit.
    pub help: bool,
    /// Binary-specific registered flags, in order of appearance
    /// (`(name, value)`; read via [`RunnerArgs::has_flag`] and
    /// [`RunnerArgs::flag_value`]).
    pub extras: Vec<(String, Option<String>)>,
    /// Positional / binary-specific arguments, in order.
    pub rest: Vec<String>,
}

impl RunnerArgs {
    /// Parses the process arguments (`std::env::args`, program name
    /// skipped) against the shared registry only: prints generated help
    /// on `--help`, exits with status 2 on malformed flags.
    #[must_use]
    pub fn from_env() -> RunnerArgs {
        RunnerArgs::from_env_registry(&[])
    }

    /// [`RunnerArgs::from_env`] with a binary-specific flag table on
    /// top of [`SHARED_FLAGS`]. The binary name in help/usage output is
    /// recovered from `argv[0]`.
    #[must_use]
    pub fn from_env_registry(extra: &[Flag]) -> RunnerArgs {
        let binary = binary_name();
        match RunnerArgs::parse_registry(std::env::args().skip(1), extra) {
            Ok(a) if a.help => {
                print!("{}", help_text(&binary, extra));
                std::process::exit(0);
            }
            Ok(a) => {
                // Every binary honors fault injection: the plan installs
                // into the process-global registry here, so seams deep in
                // the stack (cache I/O, pool execution) see it without
                // any per-binary wiring.
                if let Err(e) = a.install_faults() {
                    eprintln!("error: {e}");
                    std::process::exit(2);
                }
                a
            }
            Err(e) => {
                eprintln!("error: {e}");
                eprintln!("{}", usage_line(&binary, extra));
                std::process::exit(2);
            }
        }
    }

    /// Parses an argument list against the shared registry.
    ///
    /// # Errors
    ///
    /// Returns a message for a missing or malformed flag value.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<RunnerArgs, String> {
        RunnerArgs::parse_registry(args, &[])
    }

    /// True when a registered binary-specific flag was given.
    #[must_use]
    pub fn has_flag(&self, flag: &str) -> bool {
        self.extras.iter().any(|(n, _)| n == flag) || self.rest.iter().any(|a| a == flag)
    }

    /// The value of a registered value-taking flag (last occurrence
    /// wins, matching the usual CLI override idiom).
    #[must_use]
    pub fn flag_value(&self, flag: &str) -> Option<&str> {
        self.extras
            .iter()
            .rev()
            .find(|(n, _)| n == flag)
            .and_then(|(_, v)| v.as_deref())
    }

    /// Parses an argument list against [`SHARED_FLAGS`] plus a
    /// binary-specific flag table. `--help`/`-h` set
    /// [`RunnerArgs::help`] instead of erroring.
    ///
    /// # Errors
    ///
    /// Returns a message for an unknown flag or a missing or malformed
    /// flag value.
    pub fn parse_registry(
        args: impl IntoIterator<Item = String>,
        extra: &[Flag],
    ) -> Result<RunnerArgs, String> {
        let mut out = RunnerArgs::default();
        let mut it = args.into_iter();
        'args: while let Some(arg) = it.next() {
            if arg == "--help" || arg == "-h" {
                out.help = true;
                continue;
            }
            for f in extra {
                if arg == f.name {
                    let v = match f.value_name {
                        Some(_) => Some(it.next().ok_or(format!("{} needs a value", f.name))?),
                        None => None,
                    };
                    out.extras.push((f.name.to_owned(), v));
                    continue 'args;
                }
                if f.value_name.is_some() {
                    if let Some(v) = arg.strip_prefix(f.name).and_then(|r| r.strip_prefix('=')) {
                        out.extras.push((f.name.to_owned(), Some(v.to_owned())));
                        continue 'args;
                    }
                }
            }
            match arg.as_str() {
                "--smoke" => out.smoke = true,
                "--progress" => out.progress = true,
                "--threads" => {
                    let v = it.next().ok_or("--threads needs a value")?;
                    out.threads = Some(parse_threads(&v)?);
                }
                s if s.starts_with("--threads=") => {
                    out.threads = Some(parse_threads(&s["--threads=".len()..])?);
                }
                "--json" => {
                    let v = it.next().ok_or("--json needs a value")?;
                    out.json = Some(PathBuf::from(v));
                }
                s if s.starts_with("--json=") => {
                    out.json = Some(PathBuf::from(&s["--json=".len()..]));
                }
                "--cache" => {
                    let v = it.next().ok_or("--cache needs a directory")?;
                    out.cache = Some(parse_cache_dir(&v)?);
                }
                s if s.starts_with("--cache=") => {
                    out.cache = Some(parse_cache_dir(&s["--cache=".len()..])?);
                }
                "--no-cache" => out.no_cache = true,
                "--trace" => {
                    let v = it.next().ok_or("--trace needs a path")?;
                    out.trace = Some(PathBuf::from(v));
                }
                s if s.starts_with("--trace=") => {
                    out.trace = Some(PathBuf::from(&s["--trace=".len()..]));
                }
                "--faults" => {
                    let v = it.next().ok_or("--faults needs a spec")?;
                    out.faults = Some(parse_faults_spec(&v)?);
                }
                s if s.starts_with("--faults=") => {
                    out.faults = Some(parse_faults_spec(&s["--faults=".len()..])?);
                }
                "--deadline-cycles" => {
                    let v = it.next().ok_or("--deadline-cycles needs a value")?;
                    out.deadline_cycles = Some(parse_deadline(&v)?);
                }
                s if s.starts_with("--deadline-cycles=") => {
                    out.deadline_cycles = Some(parse_deadline(&s["--deadline-cycles=".len()..])?);
                }
                // A misspelled flag must not silently degrade the run
                // (e.g. `--thread 8` quietly using all cores); only bare
                // positionals pass through to the binary.
                s if s.starts_with("--") => return Err(format!("unknown flag {s}")),
                _ => out.rest.push(arg),
            }
        }
        if out.cache.is_some() && out.no_cache {
            return Err("--cache and --no-cache are mutually exclusive".to_owned());
        }
        Ok(out)
    }

    /// The effective worker count: `--threads`, else `DMT_THREADS`, else
    /// the machine's available parallelism (min 1).
    #[must_use]
    pub fn effective_threads(&self) -> usize {
        resolve_threads(self.threads)
    }

    /// The progress reporter these arguments ask for: `--progress` forces
    /// it on, otherwise the `DMT_PROGRESS` environment variable decides.
    #[must_use]
    pub fn progress_reporter(&self) -> crate::Progress {
        if self.progress {
            crate::Progress::new(true)
        } else {
            crate::Progress::from_env()
        }
    }

    /// The effective cache directory: `--no-cache` wins, then `--cache
    /// DIR`, then a non-empty `DMT_CACHE` environment variable, else no
    /// caching.
    #[must_use]
    pub fn cache_dir(&self) -> Option<PathBuf> {
        if self.no_cache {
            return None;
        }
        if let Some(dir) = &self.cache {
            return Some(dir.clone());
        }
        match std::env::var("DMT_CACHE") {
            Ok(v) if !v.is_empty() => Some(PathBuf::from(v)),
            _ => None,
        }
    }

    /// Opens the result cache these arguments ask for. An unusable
    /// directory **degrades** to counted no-cache operation with one
    /// stderr line instead of aborting the run — hours of simulation
    /// must not die over a full disk, and the degradation is visible in
    /// the cache report (`[degraded: no-cache]`).
    #[must_use]
    pub fn cache_store(&self) -> Option<Cache> {
        Some(Cache::open_or_degraded(&self.cache_dir()?))
    }

    /// Installs the fault-injection plan these arguments ask for:
    /// `--faults SPEC` wins, else `DMT_FAULTS`, else the failpoints stay
    /// disabled (the zero-overhead path).
    ///
    /// # Errors
    ///
    /// Returns the parse message for a malformed spec — a CLI must
    /// refuse to run with a half-applied fault schedule.
    pub fn install_faults(&self) -> Result<bool, String> {
        if let Some(spec) = &self.faults {
            dmt_common::faults::install(dmt_common::faults::FaultPlan::parse(spec)?);
            return Ok(true);
        }
        dmt_common::faults::init_from_env()
    }

    /// The effective Chrome-trace destination: `--trace PATH` wins, then
    /// the `DMT_TRACE` environment variable — the historical tracing
    /// switch, kept as an alias. An empty value, `1` or `true` selects
    /// the default `artifacts/trace.json`; `0`/`false` disables; any
    /// other value is the destination path.
    #[must_use]
    pub fn trace_path(&self) -> Option<PathBuf> {
        if let Some(p) = &self.trace {
            return Some(p.clone());
        }
        match std::env::var("DMT_TRACE") {
            Err(_) => None,
            Ok(v) if v == "0" || v.eq_ignore_ascii_case("false") => None,
            Ok(v) if v.is_empty() || v == "1" || v.eq_ignore_ascii_case("true") => {
                Some(PathBuf::from("artifacts/trace.json"))
            }
            Ok(v) => Some(PathBuf::from(v)),
        }
    }

    /// Exits with status 2 when `--trace` was passed to a binary that
    /// does not export run traces (`DMT_TRACE` alone is ignored there,
    /// like `DMT_CACHE` — an environment default must not break binaries
    /// it cannot apply to).
    pub fn forbid_trace(&self, binary: &str) {
        if self.trace.is_some() {
            eprintln!("error: {binary} does not support --trace (use fig11_speedup)");
            std::process::exit(2);
        }
    }

    /// Exits with status 2 when `--cache`/`--no-cache` was passed to a
    /// binary that does not run a cacheable job grid (`DMT_CACHE` alone
    /// is ignored there, like `DMT_THREADS` — an environment default must
    /// not break binaries it cannot apply to).
    pub fn forbid_cache(&self, binary: &str) {
        if self.cache.is_some() || self.no_cache {
            eprintln!("error: {binary} does not support --cache/--no-cache (no job grid)");
            std::process::exit(2);
        }
    }

    /// Exits with status 2 when `--json` was passed to a binary that has
    /// no machine-readable output — a requested recording must never be
    /// silently dropped.
    pub fn forbid_json(&self, binary: &str) {
        if self.json.is_some() {
            eprintln!("error: {binary} does not support --json (no job-grid artifact)");
            std::process::exit(2);
        }
    }

    /// Exits with status 2 when `--progress` was passed to a binary whose
    /// runs bypass the job pool's progress hook.
    pub fn forbid_progress(&self, binary: &str) {
        if self.progress {
            eprintln!("error: {binary} does not support --progress");
            std::process::exit(2);
        }
    }

    /// Exits with status 2 when `--smoke` was passed to a binary that has
    /// no reduced suite.
    pub fn forbid_smoke(&self, binary: &str) {
        if self.smoke {
            eprintln!("error: {binary} does not support --smoke");
            std::process::exit(2);
        }
    }

    /// Exits with status 2 when `--threads` was passed to a binary that
    /// does not simulate anything (nothing to parallelize).
    pub fn forbid_threads(&self, binary: &str) {
        if self.threads.is_some() {
            eprintln!("error: {binary} does not support --threads (no simulation grid)");
            std::process::exit(2);
        }
    }

    /// Exits with status 2 when `--deadline-cycles` was passed to a
    /// binary whose runs bypass the limit-aware executor — a requested
    /// budget must never be silently ignored.
    pub fn forbid_deadline(&self, binary: &str) {
        if self.deadline_cycles.is_some() {
            eprintln!("error: {binary} does not support --deadline-cycles");
            std::process::exit(2);
        }
    }
}

// An empty directory would resolve entries to bare `<hash>.json` in the
// working directory — reject it like an absent value (an empty
// `DMT_CACHE` already means "no caching").
fn parse_cache_dir(v: &str) -> Result<PathBuf, String> {
    if v.is_empty() {
        return Err("--cache needs a directory".to_owned());
    }
    Ok(PathBuf::from(v))
}

// The spec is validated at parse time (not at install time) so a typo'd
// site name dies with the usage line, before any simulation starts.
fn parse_faults_spec(v: &str) -> Result<String, String> {
    dmt_common::faults::FaultPlan::parse(v)?;
    Ok(v.to_owned())
}

fn parse_deadline(v: &str) -> Result<u64, String> {
    match v.parse::<u64>() {
        Ok(n) if n >= 1 => Ok(n),
        _ => Err(format!(
            "invalid deadline {v:?} (need a cycle count >= 1; omit the flag for unlimited)"
        )),
    }
}

fn parse_threads(v: &str) -> Result<usize, String> {
    match v.parse::<usize>() {
        Ok(n) if n >= 1 => Ok(n),
        _ => Err(format!("invalid thread count {v:?} (need an integer >= 1)")),
    }
}

/// Resolves a worker count: explicit request > `DMT_THREADS` > available
/// cores. Malformed environment values are ignored rather than fatal —
/// an experiment must not die over a stale shell export.
#[must_use]
pub fn resolve_threads(requested: Option<usize>) -> usize {
    if let Some(n) = requested {
        return n.max(1);
    }
    if let Ok(v) = std::env::var("DMT_THREADS") {
        if let Ok(n) = v.parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
    }
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> RunnerArgs {
        RunnerArgs::parse(args.iter().map(ToString::to_string)).unwrap()
    }

    #[test]
    fn parses_all_flags_and_passthrough() {
        let a = parse(&[
            "--threads",
            "4",
            "--json",
            "out/x.json",
            "--cache",
            "artifacts/cache",
            "--smoke",
            "--progress",
            "token_buffer",
        ]);
        assert_eq!(a.threads, Some(4));
        assert_eq!(a.json, Some(PathBuf::from("out/x.json")));
        assert_eq!(a.cache, Some(PathBuf::from("artifacts/cache")));
        assert!(!a.no_cache);
        assert!(a.smoke && a.progress);
        assert_eq!(a.rest, vec!["token_buffer"]);
    }

    #[test]
    fn parses_inline_forms() {
        let a = parse(&["--threads=2", "--json=artifacts/a.json", "--cache=c"]);
        assert_eq!(a.threads, Some(2));
        assert_eq!(a.json, Some(PathBuf::from("artifacts/a.json")));
        assert_eq!(a.cache, Some(PathBuf::from("c")));
    }

    #[test]
    fn cache_flags_resolve_and_conflict() {
        let a = parse(&["--no-cache"]);
        assert!(a.no_cache);
        // --no-cache wins over any environment default.
        assert_eq!(a.cache_dir(), None);
        let a = parse(&["--cache", "dir"]);
        assert_eq!(a.cache_dir(), Some(PathBuf::from("dir")));
        // Asking for both at once is a contradiction, not a precedence
        // puzzle.
        assert!(RunnerArgs::parse(
            [
                "--cache".to_owned(),
                "d".to_owned(),
                "--no-cache".to_owned()
            ]
            .into_iter()
        )
        .is_err());
        assert!(RunnerArgs::parse(["--cache".to_owned()].into_iter()).is_err());
        // An empty directory must not scatter entries into the cwd.
        assert!(RunnerArgs::parse(["--cache=".to_owned()].into_iter()).is_err());
        assert!(RunnerArgs::parse(["--cache".to_owned(), String::new()].into_iter()).is_err());
    }

    #[test]
    fn trace_flag_parses_and_wins_over_env() {
        let a = parse(&["--trace", "artifacts/t.json"]);
        assert_eq!(a.trace, Some(PathBuf::from("artifacts/t.json")));
        assert_eq!(a.trace_path(), Some(PathBuf::from("artifacts/t.json")));
        let a = parse(&["--trace=x.json"]);
        assert_eq!(a.trace, Some(PathBuf::from("x.json")));
        // No flag, no env (the test env does not set DMT_TRACE): off.
        assert!(RunnerArgs::parse(["--trace".to_owned()]).is_err());
    }

    #[test]
    fn rejects_unknown_flags_but_keeps_positionals() {
        assert!(RunnerArgs::parse(["--thread".to_owned(), "8".to_owned()]).is_err());
        assert!(RunnerArgs::parse(["--Smoke".to_owned()]).is_err());
        let a = parse(&["token_buffer"]);
        assert_eq!(a.rest, vec!["token_buffer"]);
    }

    #[test]
    fn registry_accepts_switches_and_value_flags() {
        const FLAGS: &[Flag] = &[
            Flag::switch("--per-phase", "per-phase breakdown"),
            Flag::with_value("--iters", "N", "iteration count"),
        ];
        // Unregistered: still an error (a typo must not degrade the run).
        assert!(RunnerArgs::parse(["--per-phase".to_owned()]).is_err());
        let a = RunnerArgs::parse_registry(
            ["--threads", "2", "--per-phase", "--iters", "5"]
                .iter()
                .map(ToString::to_string),
            FLAGS,
        )
        .unwrap();
        assert_eq!(a.threads, Some(2));
        assert!(a.has_flag("--per-phase"));
        assert!(!a.has_flag("--other"));
        assert_eq!(a.flag_value("--iters"), Some("5"));
        assert_eq!(a.flag_value("--per-phase"), None);
        // Inline form and last-occurrence-wins for value flags.
        let a = RunnerArgs::parse_registry(
            ["--iters=3", "--iters", "7"]
                .iter()
                .map(ToString::to_string),
            FLAGS,
        )
        .unwrap();
        assert_eq!(a.flag_value("--iters"), Some("7"));
        // A registered value flag with no value is an error, and
        // registration does not leak to other unknown flags.
        assert!(RunnerArgs::parse_registry(["--iters".to_owned()].into_iter(), FLAGS).is_err());
        assert!(RunnerArgs::parse_registry(["--nope".to_owned()].into_iter(), FLAGS).is_err());
    }

    #[test]
    fn help_is_parsed_not_errored_and_text_is_generated() {
        let a = parse(&["--help"]);
        assert!(a.help);
        let a = parse(&["-h"]);
        assert!(a.help);
        const FLAGS: &[Flag] = &[Flag::with_value("--iters", "N", "timing repetitions")];
        let text = help_text("bench_hotpath", FLAGS);
        // Every registered flag appears with its help line; the usage
        // line leads.
        assert!(text.starts_with("usage: bench_hotpath"));
        for f in SHARED_FLAGS.iter().chain(FLAGS) {
            assert!(text.contains(f.name), "help must mention {}", f.name);
            assert!(text.contains(f.help), "help must describe {}", f.name);
        }
        assert!(usage_line("bench_hotpath", FLAGS).contains("[--iters N]"));
    }

    #[test]
    fn faults_and_deadline_flags_parse_and_validate() {
        let a = parse(&[
            "--faults",
            "cache.read:nth=1;seed=3",
            "--deadline-cycles",
            "500",
        ]);
        assert_eq!(a.faults.as_deref(), Some("cache.read:nth=1;seed=3"));
        assert_eq!(a.deadline_cycles, Some(500));
        let a = parse(&["--faults=pool.exec:prob=0.5", "--deadline-cycles=1"]);
        assert_eq!(a.faults.as_deref(), Some("pool.exec:prob=0.5"));
        assert_eq!(a.deadline_cycles, Some(1));
        // A typo'd site name dies at the CLI with the parse message,
        // long before any simulation starts.
        let err = RunnerArgs::parse(["--faults=bogus:nth=1".to_owned()]).unwrap_err();
        assert!(err.contains("unknown fault site"), "{err}");
        assert!(RunnerArgs::parse(["--faults".to_owned()]).is_err());
        // Deadline 0 would time out every job before cycle 0 — reject.
        assert!(RunnerArgs::parse(["--deadline-cycles".to_owned(), "0".to_owned()]).is_err());
        assert!(RunnerArgs::parse(["--deadline-cycles=x".to_owned()]).is_err());
        assert!(RunnerArgs::parse(["--deadline-cycles".to_owned()]).is_err());
    }

    #[test]
    fn rejects_bad_values() {
        assert!(RunnerArgs::parse(["--threads".to_owned()]).is_err());
        assert!(RunnerArgs::parse(["--threads".to_owned(), "0".to_owned()]).is_err());
        assert!(RunnerArgs::parse(["--threads=x".to_owned()]).is_err());
        assert!(RunnerArgs::parse(["--json".to_owned()]).is_err());
    }

    #[test]
    fn explicit_threads_win() {
        assert_eq!(resolve_threads(Some(3)), 3);
        assert!(resolve_threads(None) >= 1);
    }

    #[test]
    fn threads_zero_is_a_cli_error_not_a_pool_panic() {
        // Regression guard: the pool asserts `threads >= 1`, so a zero
        // worker count must die at the CLI with a message, in both
        // spellings, long before a job grid is built.
        for argv in [&["--threads", "0"][..], &["--threads=0"][..]] {
            let err = RunnerArgs::parse(argv.iter().map(ToString::to_string))
                .expect_err("--threads 0 must be rejected");
            assert!(err.contains("invalid thread count"), "{err}");
            assert!(err.contains(">= 1"), "{err}");
        }
        // And the resolver never hands the pool a zero even when a
        // caller bypasses parsing.
        assert_eq!(resolve_threads(Some(0)), 1);
    }
}
