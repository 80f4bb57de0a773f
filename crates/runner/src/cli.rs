//! The shared command-line surface of every experiment binary.
//!
//! Flags are **data**: a [`Flag`] names one flag, says whether it takes
//! a value, and carries its help line. The runner flags
//! (`--threads/--json/--cache/--no-cache/--progress/--smoke/--trace/`
//! `--faults/--deadline-cycles`) live in one table, and each binary
//! *declares* in a [`Cli`] which of them it accepts ([`Shared`]), its own
//! flags (read back with [`RunnerArgs::has_flag`] /
//! [`RunnerArgs::flag_value`]) and its positionals. One loop in
//! [`RunnerArgs::parse_registry`] parses both kinds from that
//! declaration, and `--help` and the usage line are generated from it —
//! so a binary can neither advertise a flag it rejects nor silently
//! drop one it cannot honour: an undeclared runner flag, an unknown
//! `--flag` and a stray positional are all parse errors (exit 2) before
//! anything runs. An environment default (`DMT_THREADS`, `DMT_CACHE`,
//! `DMT_PROGRESS`, `DMT_TRACE`) applies only where the flag it stands
//! in for is declared — it must not break binaries it cannot apply to.

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

/// The runner flags a binary may declare in [`Cli::shared`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shared {
    /// `--threads N`
    Threads,
    /// `--json PATH`
    Json,
    /// `--cache DIR`
    Cache,
    /// `--no-cache`
    NoCache,
    /// `--progress`
    Progress,
    /// `--smoke`
    Smoke,
    /// `--trace PATH`
    Trace,
    /// `--faults SPEC`
    Faults,
    /// `--deadline-cycles N`
    DeadlineCycles,
}

/// One row of the runner-flag table: the declaration plus how its
/// validated value lands in [`RunnerArgs`] (a switch is set with `""`).
struct SharedFlag {
    id: Shared,
    flag: Flag,
    set: fn(&mut RunnerArgs, &str) -> Result<(), String>,
}

const SHARED_FLAGS: &[SharedFlag] = &[
    SharedFlag {
        id: Shared::Threads,
        flag: Flag::with_value(
            "--threads",
            "N",
            "worker count (default: DMT_THREADS, else all cores)",
        ),
        set: |a, v| {
            a.threads = match v.parse::<usize>() {
                Ok(n) if n >= 1 => Some(n),
                _ => return Err(format!("invalid thread count {v:?} (need an integer >= 1)")),
            };
            Ok(())
        },
    },
    SharedFlag {
        id: Shared::Json,
        flag: Flag::with_value("--json", "PATH", "also write the versioned JSON artifact"),
        set: |a, v| {
            a.json = Some(PathBuf::from(v));
            Ok(())
        },
    },
    SharedFlag {
        id: Shared::Cache,
        flag: Flag::with_value(
            "--cache",
            "DIR",
            "content-addressed result cache (or DMT_CACHE=DIR)",
        ),
        // An empty directory would resolve entries to bare `<hash>.json`
        // in the working directory — reject it like an absent value (an
        // empty `DMT_CACHE` already means "no caching").
        set: |a, v| {
            if v.is_empty() {
                return Err("--cache needs a directory".to_owned());
            }
            a.cache = Some(PathBuf::from(v));
            Ok(())
        },
    },
    SharedFlag {
        id: Shared::NoCache,
        flag: Flag::switch("--no-cache", "disable caching even when DMT_CACHE is set"),
        set: |a, _| {
            a.no_cache = true;
            Ok(())
        },
    },
    SharedFlag {
        id: Shared::Progress,
        flag: Flag::switch(
            "--progress",
            "live per-job progress on stderr (or DMT_PROGRESS=1)",
        ),
        set: |a, _| {
            a.progress = true;
            Ok(())
        },
    },
    SharedFlag {
        id: Shared::Smoke,
        flag: Flag::switch("--smoke", "reduced suite (the first three benchmarks)"),
        set: |a, _| {
            a.smoke = true;
            Ok(())
        },
    },
    SharedFlag {
        id: Shared::Trace,
        flag: Flag::with_value(
            "--trace",
            "PATH",
            "export a Chrome-trace JSON of the runs (or DMT_TRACE=1|PATH)",
        ),
        set: |a, v| {
            a.trace = Some(PathBuf::from(v));
            Ok(())
        },
    },
    SharedFlag {
        id: Shared::Faults,
        flag: Flag::with_value(
            "--faults",
            "SPEC",
            "deterministic fault injection, e.g. 'seed=1;cache.read:nth=2' (or DMT_FAULTS)",
        ),
        // Validated at parse time (not at install time) so a typo'd site
        // name dies with the usage line, before any simulation starts.
        set: |a, v| {
            dmt_common::faults::FaultPlan::parse(v)?;
            a.faults = Some(v.to_owned());
            Ok(())
        },
    },
    SharedFlag {
        id: Shared::DeadlineCycles,
        flag: Flag::with_value(
            "--deadline-cycles",
            "N",
            "per-job simulated-cycle budget; exceeding jobs report timed_out",
        ),
        set: |a, v| {
            a.deadline_cycles = match v.parse::<u64>() {
                Ok(n) if n >= 1 => Some(n),
                _ => return Err(format!("invalid deadline {v:?} (need a cycle count >= 1)")),
            };
            Ok(())
        },
    },
];

/// A binary's declared command line: the whole truth about what it
/// accepts. Everything else is rejected at parse time.
#[derive(Debug, Clone, Copy)]
pub struct Cli {
    /// The binary's name, for usage, help and error lines.
    pub name: &'static str,
    /// The runner flags this binary honours.
    pub shared: &'static [Shared],
    /// The binary's own flags.
    pub flags: &'static [Flag],
    /// Placeholder names of the positionals it takes, in order (all
    /// optional; one more than these is an error).
    pub positionals: &'static [&'static str],
}

impl Cli {
    /// The accepted runner flags, in table order.
    fn shared_flags(&self) -> impl Iterator<Item = &'static Flag> + '_ {
        SHARED_FLAGS
            .iter()
            .filter(|s| self.shared.contains(&s.id))
            .map(|s| &s.flag)
    }

    /// The generated `--help` text: usage line, the accepted runner
    /// flags, then the binary's own table.
    #[must_use]
    pub fn help_text(&self) -> String {
        let mut s = format!("{}\n\nrunner flags:\n", self.usage_line());
        for f in self.shared_flags() {
            s.push_str(&f.help_line());
        }
        if !self.flags.is_empty() {
            s.push_str("\nbinary flags:\n");
            for f in self.flags {
                s.push_str(&f.help_line());
            }
        }
        s.push('\n');
        s.push_str(&Flag::switch("--help", "print this help").help_line());
        s
    }

    /// The generated one-line usage summary (also shown on parse errors).
    #[must_use]
    pub fn usage_line(&self) -> String {
        let mut s = format!("usage: {}", self.name);
        for f in self.shared_flags().chain(self.flags) {
            s.push_str(&format!(" [{}]", f.synopsis()));
        }
        for p in self.positionals {
            s.push_str(&format!(" [{p}]"));
        }
        s
    }
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
    /// Binary-specific flags, in order of appearance (`(name, value)`;
    /// read via [`RunnerArgs::has_flag`] and [`RunnerArgs::flag_value`]).
    pub extras: Vec<(String, Option<String>)>,
    /// Positional arguments, in order (at most [`Cli::positionals`]).
    pub rest: Vec<String>,
    /// The runner flags the binary declared ([`Cli::shared`]): the
    /// environment defaults below apply only to these.
    pub accepted: &'static [Shared],
}

impl RunnerArgs {
    /// Parses the process arguments (`std::env::args`, program name
    /// skipped) against the binary's declaration: prints generated help
    /// on `--help`, exits with status 2 on anything undeclared or
    /// malformed, and installs the fault plan.
    #[must_use]
    pub fn from_env(cli: &Cli) -> RunnerArgs {
        match RunnerArgs::parse_registry(std::env::args().skip(1), cli) {
            Ok(a) if a.help => {
                print!("{}", cli.help_text());
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
                eprintln!("{}", cli.usage_line());
                std::process::exit(2);
            }
        }
    }

    /// True when a binary-specific flag was given.
    #[must_use]
    pub fn has_flag(&self, flag: &str) -> bool {
        self.extras.iter().any(|(n, _)| n == flag)
    }

    /// The value of a binary-specific value-taking flag (last occurrence
    /// wins, matching the usual CLI override idiom).
    #[must_use]
    pub fn flag_value(&self, flag: &str) -> Option<&str> {
        self.extras
            .iter()
            .rev()
            .find(|(n, _)| n == flag)
            .and_then(|(_, v)| v.as_deref())
    }

    /// Parses an argument list against a binary's declaration: one loop
    /// over one table for runner and binary flags alike (`--x v` and
    /// `--x=v`). `--help`/`-h` set [`RunnerArgs::help`] instead of
    /// erroring.
    ///
    /// # Errors
    ///
    /// Returns a message for a runner flag the binary does not declare
    /// (`<binary> does not support <flag>`), an unknown flag, a missing
    /// or malformed value, or more positionals than declared.
    pub fn parse_registry(
        args: impl IntoIterator<Item = String>,
        cli: &Cli,
    ) -> Result<RunnerArgs, String> {
        let mut out = RunnerArgs {
            accepted: cli.shared,
            ..RunnerArgs::default()
        };
        let mut it = args.into_iter();
        while let Some(arg) = it.next() {
            if arg == "--help" || arg == "-h" {
                out.help = true;
                continue;
            }
            if !arg.starts_with("--") {
                // A stray positional must not silently run something
                // else (`fig11_speedup smoke` is not `--smoke`).
                if out.rest.len() == cli.positionals.len() {
                    return Err(format!("unknown argument {arg:?}"));
                }
                out.rest.push(arg);
                continue;
            }
            let (name, inline) = match arg.split_once('=') {
                Some((name, value)) => (name, Some(value)),
                None => (arg.as_str(), None),
            };
            let shared = SHARED_FLAGS.iter().find(|s| s.flag.name == name);
            if shared.is_some_and(|s| !out.accepts(s.id)) {
                return Err(format!("{} does not support {name}", cli.name));
            }
            // A misspelled flag must not silently degrade the run (e.g.
            // `--thread 8` quietly using all cores).
            let flag = shared
                .map(|s| &s.flag)
                .or_else(|| cli.flags.iter().find(|f| f.name == name))
                .ok_or_else(|| format!("unknown flag {arg}"))?;
            let value = match (flag.value_name, inline) {
                (None, None) => None,
                (None, Some(_)) => return Err(format!("unknown flag {arg}")),
                (Some(_), Some(v)) => Some(v.to_owned()),
                (Some(_), None) => Some(it.next().ok_or(format!("{name} needs a value"))?),
            };
            match shared {
                Some(s) => (s.set)(&mut out, value.as_deref().unwrap_or(""))?,
                None => out.extras.push((name.to_owned(), value)),
            }
        }
        if out.cache.is_some() && out.no_cache {
            return Err("--cache and --no-cache are mutually exclusive".to_owned());
        }
        Ok(out)
    }

    /// Whether the binary declared this runner flag.
    #[must_use]
    pub fn accepts(&self, flag: Shared) -> bool {
        self.accepted.contains(&flag)
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
        } else if self.accepts(Shared::Progress) {
            crate::Progress::from_env()
        } else {
            crate::Progress::new(false)
        }
    }

    /// The effective cache directory: `--no-cache` wins, then `--cache
    /// DIR`, then a non-empty `DMT_CACHE` environment variable, else no
    /// caching.
    #[must_use]
    pub fn cache_dir(&self) -> Option<PathBuf> {
        if self.no_cache || !self.accepts(Shared::Cache) {
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
        if !self.accepts(Shared::Trace) {
            return None;
        }
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

    const ALL_SHARED: &[Shared] = &[
        Shared::Threads,
        Shared::Json,
        Shared::Cache,
        Shared::NoCache,
        Shared::Progress,
        Shared::Smoke,
        Shared::Trace,
        Shared::Faults,
        Shared::DeadlineCycles,
    ];

    /// A declaration accepting every runner flag and one positional.
    const ALL: Cli = Cli {
        name: "all",
        shared: ALL_SHARED,
        flags: &[],
        positionals: &["WHICH"],
    };

    fn try_parse(args: &[&str], cli: &Cli) -> Result<RunnerArgs, String> {
        RunnerArgs::parse_registry(args.iter().map(ToString::to_string), cli)
    }

    fn parse(args: &[&str]) -> RunnerArgs {
        try_parse(args, &ALL).unwrap()
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
        assert!(try_parse(&["--cache", "d", "--no-cache"], &ALL).is_err());
        assert!(try_parse(&["--cache"], &ALL).is_err());
        // An empty directory must not scatter entries into the cwd.
        assert!(try_parse(&["--cache="], &ALL).is_err());
        assert!(try_parse(&["--cache", ""], &ALL).is_err());
    }

    #[test]
    fn trace_flag_parses_and_wins_over_env() {
        let a = parse(&["--trace", "artifacts/t.json"]);
        assert_eq!(a.trace, Some(PathBuf::from("artifacts/t.json")));
        assert_eq!(a.trace_path(), Some(PathBuf::from("artifacts/t.json")));
        let a = parse(&["--trace=x.json"]);
        assert_eq!(a.trace, Some(PathBuf::from("x.json")));
        // No flag, no env (the test env does not set DMT_TRACE): off.
        assert!(try_parse(&["--trace"], &ALL).is_err());
    }

    #[test]
    fn rejects_unknown_flags_but_keeps_positionals() {
        assert!(try_parse(&["--thread", "8"], &ALL).is_err());
        assert!(try_parse(&["--Smoke"], &ALL).is_err());
        // A switch takes no inline value.
        assert!(try_parse(&["--smoke=1"], &ALL).is_err());
        let a = parse(&["token_buffer"]);
        assert_eq!(a.rest, vec!["token_buffer"]);
    }

    #[test]
    fn registry_accepts_switches_and_value_flags() {
        const CLI: Cli = Cli {
            name: "bin",
            shared: &[Shared::Threads],
            flags: &[
                Flag::switch("--per-phase", "per-phase breakdown"),
                Flag::with_value("--iters", "N", "iteration count"),
            ],
            positionals: &[],
        };
        // Unregistered: still an error (a typo must not degrade the run).
        assert!(try_parse(&["--per-phase"], &ALL).is_err());
        let a = try_parse(&["--threads", "2", "--per-phase", "--iters", "5"], &CLI).unwrap();
        assert_eq!(a.threads, Some(2));
        assert!(a.has_flag("--per-phase"));
        assert!(!a.has_flag("--other"));
        assert_eq!(a.flag_value("--iters"), Some("5"));
        assert_eq!(a.flag_value("--per-phase"), None);
        // Inline form and last-occurrence-wins for value flags.
        let a = try_parse(&["--iters=3", "--iters", "7"], &CLI).unwrap();
        assert_eq!(a.flag_value("--iters"), Some("7"));
        // A registered value flag with no value is an error, and
        // registration does not leak to other unknown flags.
        assert!(try_parse(&["--iters"], &CLI).is_err());
        assert!(try_parse(&["--nope"], &CLI).is_err());
    }

    #[test]
    fn help_is_parsed_not_errored_and_text_is_generated() {
        let a = parse(&["--help"]);
        assert!(a.help);
        let a = parse(&["-h"]);
        assert!(a.help);
        const CLI: Cli = Cli {
            name: "bench_hotpath",
            shared: &[Shared::Json, Shared::Faults],
            flags: &[Flag::with_value("--iters", "N", "timing repetitions")],
            positionals: &["WHICH"],
        };
        let text = CLI.help_text();
        // Exactly the declared flags appear, each with its help line;
        // the usage line leads.
        assert!(text.starts_with("usage: bench_hotpath"));
        for s in SHARED_FLAGS {
            let declared = CLI.shared.contains(&s.id);
            assert_eq!(text.contains(s.flag.name), declared, "{}", s.flag.name);
            assert_eq!(text.contains(s.flag.help), declared, "{}", s.flag.name);
        }
        assert!(text.contains("--iters N") && text.contains("timing repetitions"));
        assert_eq!(
            CLI.usage_line(),
            "usage: bench_hotpath [--json PATH] [--faults SPEC] [--iters N] [WHICH]"
        );
    }

    /// A valid spelling of every runner flag, in `--x v` and `--x=v` form.
    fn spellings(s: &SharedFlag) -> Vec<Vec<String>> {
        let name = s.flag.name;
        let value = match s.id {
            Shared::Threads | Shared::DeadlineCycles => "2",
            Shared::Faults => "pool.exec:nth=1",
            _ => "x",
        };
        match s.flag.value_name {
            Some(_) => vec![
                vec![name.to_owned(), value.to_owned()],
                vec![format!("{name}={value}")],
            ],
            None => vec![vec![name.to_owned()]],
        }
    }

    #[test]
    fn undeclared_runner_flags_and_stray_positionals_are_parse_errors() {
        const NONE: Cli = Cli {
            name: "table2_config",
            shared: &[],
            flags: &[Flag::switch("--own", "a binary flag")],
            positionals: &[],
        };
        for s in SHARED_FLAGS {
            for argv in spellings(s) {
                // Declared: parses. Undeclared: the typed rejection, in
                // both spellings, whatever else is on the line.
                assert!(RunnerArgs::parse_registry(argv.clone(), &ALL).is_ok());
                let err = RunnerArgs::parse_registry(argv.clone(), &NONE).unwrap_err();
                assert_eq!(
                    err,
                    format!("table2_config does not support {}", s.flag.name),
                    "{argv:?}"
                );
            }
        }
        assert!(try_parse(&["--own"], &NONE).unwrap().has_flag("--own"));
        // Positionals are counted: one more than declared is an error.
        assert_eq!(
            try_parse(&["bogus"], &NONE).unwrap_err(),
            "unknown argument \"bogus\""
        );
        assert_eq!(
            try_parse(&["token_buffer", "extra"], &ALL).unwrap_err(),
            "unknown argument \"extra\""
        );
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
        let err = try_parse(&["--faults=bogus:nth=1"], &ALL).unwrap_err();
        assert!(err.contains("unknown fault site"), "{err}");
        assert!(try_parse(&["--faults"], &ALL).is_err());
        // Deadline 0 would time out every job before cycle 0 — reject.
        assert!(try_parse(&["--deadline-cycles", "0"], &ALL).is_err());
        assert!(try_parse(&["--deadline-cycles=x"], &ALL).is_err());
        assert!(try_parse(&["--deadline-cycles"], &ALL).is_err());
    }

    #[test]
    fn rejects_bad_values() {
        assert!(try_parse(&["--threads"], &ALL).is_err());
        assert!(try_parse(&["--threads", "0"], &ALL).is_err());
        assert!(try_parse(&["--threads=x"], &ALL).is_err());
        assert!(try_parse(&["--json"], &ALL).is_err());
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
            let err = try_parse(argv, &ALL).expect_err("--threads 0 must be rejected");
            assert!(err.contains("invalid thread count"), "{err}");
            assert!(err.contains(">= 1"), "{err}");
        }
        // And the resolver never hands the pool a zero even when a
        // caller bypasses parsing.
        assert_eq!(resolve_threads(Some(0)), 1);
    }
}
