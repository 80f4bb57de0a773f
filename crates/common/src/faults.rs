//! `dmt-faults`: a seeded, deterministic failpoint registry.
//!
//! Long-running spatial-array simulations fail in the field — cache I/O
//! errors, panicking executors, wedged connections — and a service that
//! serves heavy traffic must survive all of them. This module lets tests
//! and CI *inject* those failures deterministically, so the robustness
//! machinery (typed outcomes, retry, degradation) is exercised by the
//! same replayable discipline as everything else in this repo: the same
//! fault spec and seed produce bit-for-bit the same fault schedule.
//!
//! # Design
//!
//! A **site** is a named seam where a fault can fire — [`site::ALL`]
//! enumerates them. Production code asks [`hit`] at each seam; the call
//! compiles to one inlined relaxed-atomic load plus a branch when no
//! plan is installed (the `dmt-obs` zero-overhead idiom), so disabled
//! failpoints cost nothing measurable on the hot path.
//!
//! A **plan** ([`FaultPlan`]) maps sites to triggers:
//!
//! * `nth=N` — fire exactly on the N-th hit of the site (1-based);
//! * `prob=P` — fire each hit independently with probability `P`,
//!   decided by hashing `(seed, site, hit index)` through splitmix64.
//!   The firing set depends only on the seed and each site's own hit
//!   ordinal — never on thread interleaving across sites.
//!
//! # Spec grammar
//!
//! Plans parse from a spec string (`--faults SPEC` or `DMT_FAULTS=SPEC`):
//!
//! ```text
//! spec    := clause (';' clause)*
//! clause  := 'seed=' u64
//!          | site ':' 'nth=' u64        # N >= 1
//!          | site ':' 'prob=' f64       # 0.0 ..= 1.0
//! site    := one of dmt_common::faults::site::ALL
//! ```
//!
//! Example: `cache.write:prob=0.5;pool.exec:nth=3;seed=7`.
//!
//! # Fault log
//!
//! Every firing is appended to a log of `(site, hit ordinal)` pairs;
//! [`render_log`] formats it one line per firing. With a fixed spec,
//! seed and `--threads 1`, the log is byte-identical across runs — the
//! chaos suite asserts exactly that.
//!
//! # Examples
//!
//! ```
//! use dmt_common::faults;
//!
//! let plan = faults::FaultPlan::parse("cache.write:nth=2;seed=9").unwrap();
//! let _guard = faults::install_guarded(plan); // uninstalls on drop
//! assert!(!faults::hit(faults::site::CACHE_WRITE)); // hit 1: no fire
//! assert!(faults::hit(faults::site::CACHE_WRITE)); // hit 2: fires
//! assert_eq!(faults::render_log(), "[dmt-faults] fired cache.write (hit 2)\n");
//! ```

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};

/// The named failpoint sites threaded through the stack.
pub mod site {
    /// Cache entry read (`Cache::lookup`): a firing makes the lookup a
    /// counted miss, as if the entry file were unreadable.
    pub const CACHE_READ: &str = "cache.read";
    /// Cache temp-file write (`Cache::store`): a firing fails the store
    /// with an ENOSPC-style I/O error.
    pub const CACHE_WRITE: &str = "cache.write";
    /// Cache temp-file rename (`Cache::store`): a firing fails the
    /// final atomic publish step.
    pub const CACHE_RENAME: &str = "cache.rename";
    /// Worker-pool job execution (`ExecPlan`): a firing fails the job
    /// with a transient `JobOutcome::Failed` before the executor runs.
    pub const POOL_EXEC: &str = "pool.exec";
    /// Accepted daemon connection (`dmt-serve`): a firing drops the
    /// connection before any request is read.
    pub const SERVE_CONN: &str = "serve.conn";
    /// Daemon request dispatch (`dmt-serve`): a firing answers the
    /// request with an injected error instead of executing the verb.
    pub const SERVE_REQUEST: &str = "serve.request";

    /// Every site, for spec validation and docs.
    pub const ALL: &[&str] = &[
        CACHE_READ,
        CACHE_WRITE,
        CACHE_RENAME,
        POOL_EXEC,
        SERVE_CONN,
        SERVE_REQUEST,
    ];
}

/// When a clause fires at its site.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Trigger {
    /// Fire exactly on the N-th hit (1-based).
    Nth(u64),
    /// Fire each hit independently with this probability, decided by
    /// `splitmix64(seed ^ hash(site) ^ hit)`.
    Prob(f64),
}

/// A parsed, installable fault schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed mixed into every probabilistic trigger decision.
    pub seed: u64,
    clauses: Vec<(String, Trigger)>,
}

impl FaultPlan {
    /// An empty plan (no clauses, seed 0) — installing it still flips
    /// the registry on, which is occasionally useful to measure the
    /// slow-path cost; prefer [`uninstall`] for "off".
    pub fn empty() -> FaultPlan {
        FaultPlan {
            seed: 0,
            clauses: Vec::new(),
        }
    }

    /// Parses the spec grammar documented at module level.
    pub fn parse(spec: &str) -> std::result::Result<FaultPlan, String> {
        let mut plan = FaultPlan::empty();
        for clause in spec.split(';') {
            let clause = clause.trim();
            if clause.is_empty() {
                continue;
            }
            if let Some(seed) = clause.strip_prefix("seed=") {
                plan.seed = seed
                    .parse::<u64>()
                    .map_err(|_| format!("bad fault seed {seed:?} (want u64)"))?;
                continue;
            }
            let Some((name, trigger)) = clause.split_once(':') else {
                return Err(format!(
                    "bad fault clause {clause:?} (want 'seed=N' or '<site>:nth=N' or '<site>:prob=F')"
                ));
            };
            if !site::ALL.contains(&name) {
                return Err(format!(
                    "unknown fault site {name:?} (known: {})",
                    site::ALL.join(", ")
                ));
            }
            if plan.clauses.iter().any(|(n, _)| n == name) {
                return Err(format!("duplicate fault clause for site {name:?}"));
            }
            let trigger = if let Some(n) = trigger.strip_prefix("nth=") {
                let n = n
                    .parse::<u64>()
                    .map_err(|_| format!("bad nth value {n:?} for {name} (want u64 >= 1)"))?;
                if n == 0 {
                    return Err(format!("bad nth value 0 for {name} (hits are 1-based)"));
                }
                Trigger::Nth(n)
            } else if let Some(p) = trigger.strip_prefix("prob=") {
                let p = p
                    .parse::<f64>()
                    .map_err(|_| format!("bad prob value {p:?} for {name} (want 0.0..=1.0)"))?;
                if !(0.0..=1.0).contains(&p) {
                    return Err(format!("prob {p} for {name} out of range (want 0.0..=1.0)"));
                }
                Trigger::Prob(p)
            } else {
                return Err(format!(
                    "bad trigger {trigger:?} for {name} (want nth=N or prob=F)"
                ));
            };
            plan.clauses.push((name.to_owned(), trigger));
        }
        Ok(plan)
    }

    /// Adds a clause programmatically (tests); site must be known.
    pub fn with(mut self, name: &str, trigger: Trigger) -> FaultPlan {
        assert!(site::ALL.contains(&name), "unknown fault site {name:?}");
        self.clauses.retain(|(n, _)| n != name);
        self.clauses.push((name.to_owned(), trigger));
        self
    }

    /// Seeds the plan programmatically (tests).
    pub fn seeded(mut self, seed: u64) -> FaultPlan {
        self.seed = seed;
        self
    }
}

struct SiteState {
    name: String,
    trigger: Trigger,
    hits: u64,
}

struct Registry {
    seed: u64,
    sites: Vec<SiteState>,
    log: Vec<(String, u64)>,
}

/// One inlined boolean is the entire disabled-path cost (dmt-obs idiom).
static ENABLED: AtomicBool = AtomicBool::new(false);

fn registry() -> &'static Mutex<Option<Registry>> {
    static REG: OnceLock<Mutex<Option<Registry>>> = OnceLock::new();
    REG.get_or_init(|| Mutex::new(None))
}

fn lock_registry() -> MutexGuard<'static, Option<Registry>> {
    // A panic while holding the lock (test machinery) must not wedge
    // every later fault check; the registry state stays consistent.
    registry().lock().unwrap_or_else(PoisonError::into_inner)
}

/// The splitmix64 finalizer — the workspace's standard cheap mixer.
/// Public because serve's deterministic retry jitter reuses it.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

fn site_hash(name: &str) -> u64 {
    name.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x1000_0000_01b3)
    })
}

/// Installs a fault plan, replacing any previous one, and enables the
/// failpoints. Hit counters and the fault log start fresh.
pub fn install(plan: FaultPlan) {
    let reg = Registry {
        seed: plan.seed,
        sites: plan
            .clauses
            .into_iter()
            .map(|(name, trigger)| SiteState {
                name,
                trigger,
                hits: 0,
            })
            .collect(),
        log: Vec::new(),
    };
    *lock_registry() = Some(reg);
    ENABLED.store(true, Ordering::Release);
}

/// Disables the failpoints and drops the installed plan (and its log).
pub fn uninstall() {
    ENABLED.store(false, Ordering::Release);
    *lock_registry() = None;
}

/// True when a plan is installed.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Asks whether the failpoint at `name` fires on this hit. The disabled
/// path is one relaxed atomic load and a branch — never a lock.
#[inline]
pub fn hit(name: &'static str) -> bool {
    if !ENABLED.load(Ordering::Relaxed) {
        return false;
    }
    hit_slow(name)
}

#[cold]
fn hit_slow(name: &'static str) -> bool {
    let mut guard = lock_registry();
    let Some(reg) = guard.as_mut() else {
        return false;
    };
    let seed = reg.seed;
    let Some(state) = reg.sites.iter_mut().find(|s| s.name == name) else {
        return false;
    };
    state.hits += 1;
    let ordinal = state.hits;
    let fires = match state.trigger {
        Trigger::Nth(n) => ordinal == n,
        Trigger::Prob(p) => {
            let x = splitmix64(seed ^ site_hash(name) ^ ordinal);
            // 53 uniform bits -> [0, 1); compare against p.
            ((x >> 11) as f64) / ((1u64 << 53) as f64) < p
        }
    };
    if fires {
        reg.log.push((name.to_owned(), ordinal));
    }
    fires
}

/// The firings so far, as `(site, hit ordinal)` in firing order.
pub fn log() -> Vec<(String, u64)> {
    lock_registry()
        .as_ref()
        .map_or_else(Vec::new, |r| r.log.clone())
}

/// The fault log rendered one line per firing:
/// `[dmt-faults] fired <site> (hit N)`. Empty string when nothing fired
/// or no plan is installed.
pub fn render_log() -> String {
    log()
        .iter()
        .map(|(site, n)| format!("[dmt-faults] fired {site} (hit {n})\n"))
        .collect()
}

/// Installs the plan from `DMT_FAULTS` if set and non-empty. Returns
/// whether a plan was installed; a malformed spec is an `Err` so CLIs
/// can refuse to run with a half-applied schedule.
pub fn init_from_env() -> std::result::Result<bool, String> {
    match std::env::var("DMT_FAULTS") {
        Ok(spec) if !spec.trim().is_empty() => {
            install(FaultPlan::parse(&spec)?);
            Ok(true)
        }
        _ => Ok(false),
    }
}

/// Serializes tests that touch the fault registry: it is process
/// global, so concurrent `#[test]`s would otherwise race each other's
/// schedules. Holds an exclusive lock for the guard's lifetime and
/// uninstalls on drop. The lock only excludes other guard holders, so
/// it is not enough for the tests that *arm* a plan to take it: a test
/// that merely passes through a fault site (stores to a cache, runs a
/// plan) while another test's plan is armed takes that plan's faults.
/// Such tests hold [`quiet_guarded`] for their whole body.
pub struct FaultGuard {
    _lock: MutexGuard<'static, ()>,
}

impl Drop for FaultGuard {
    fn drop(&mut self) {
        uninstall();
    }
}

/// Installs `plan` under the global test lock; see [`FaultGuard`].
pub fn install_guarded(plan: FaultPlan) -> FaultGuard {
    static TEST_LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    let lock = TEST_LOCK
        .get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(PoisonError::into_inner);
    install(plan);
    FaultGuard { _lock: lock }
}

/// Takes the global test lock with no fault armed — for tests that pass
/// through fault sites without injecting anything; see [`FaultGuard`].
/// A test that injects in phases holds this and re-arms with
/// [`install`] under it (each `install` starts hit counters afresh).
pub fn quiet_guarded() -> FaultGuard {
    install_guarded(FaultPlan::empty())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_failpoints_never_fire() {
        let _guard = install_guarded(FaultPlan::empty());
        uninstall();
        for s in site::ALL {
            assert!(!hit(s));
        }
        assert!(!enabled());
        assert_eq!(render_log(), "");
    }

    #[test]
    fn nth_trigger_fires_exactly_once_on_the_nth_hit() {
        let _guard = install_guarded(FaultPlan::empty().with(site::POOL_EXEC, Trigger::Nth(3)));
        let fired: Vec<bool> = (0..6).map(|_| hit(site::POOL_EXEC)).collect();
        assert_eq!(fired, [false, false, true, false, false, false]);
        assert_eq!(log(), vec![("pool.exec".to_owned(), 3)]);
    }

    #[test]
    fn prob_trigger_is_a_pure_function_of_seed_and_ordinal() {
        let schedule = |seed: u64| -> Vec<bool> {
            let _guard = install_guarded(
                FaultPlan::empty()
                    .seeded(seed)
                    .with(site::CACHE_WRITE, Trigger::Prob(0.5)),
            );
            (0..64).map(|_| hit(site::CACHE_WRITE)).collect()
        };
        let a = schedule(7);
        let b = schedule(7);
        assert_eq!(a, b, "same seed must replay the same schedule");
        assert!(a.iter().any(|&f| f), "p=0.5 over 64 hits fires");
        assert!(a.iter().any(|&f| !f), "p=0.5 over 64 hits also skips");
        let c = schedule(8);
        assert_ne!(a, c, "different seeds give different schedules");
    }

    #[test]
    fn prob_extremes_always_and_never_fire() {
        let _guard = install_guarded(
            FaultPlan::empty()
                .with(site::CACHE_READ, Trigger::Prob(1.0))
                .with(site::CACHE_RENAME, Trigger::Prob(0.0)),
        );
        for _ in 0..16 {
            assert!(hit(site::CACHE_READ));
            assert!(!hit(site::CACHE_RENAME));
        }
    }

    #[test]
    fn unlisted_sites_do_not_fire_under_an_installed_plan() {
        let _guard = install_guarded(FaultPlan::empty().with(site::SERVE_CONN, Trigger::Nth(1)));
        assert!(!hit(site::CACHE_READ));
        assert!(hit(site::SERVE_CONN));
    }

    #[test]
    fn spec_grammar_round_trips() {
        let plan = FaultPlan::parse("cache.write:prob=0.25; pool.exec:nth=2 ;seed=42").unwrap();
        assert_eq!(plan.seed, 42);
        assert_eq!(
            plan,
            FaultPlan::empty()
                .seeded(42)
                .with(site::CACHE_WRITE, Trigger::Prob(0.25))
                .with(site::POOL_EXEC, Trigger::Nth(2))
        );
        assert_eq!(FaultPlan::parse("").unwrap(), FaultPlan::empty());
    }

    #[test]
    fn spec_errors_name_the_problem() {
        for (spec, needle) in [
            ("bogus.site:nth=1", "unknown fault site"),
            ("cache.read", "bad fault clause"),
            ("cache.read:nth=0", "1-based"),
            ("cache.read:nth=x", "bad nth value"),
            ("cache.read:prob=1.5", "out of range"),
            ("cache.read:prob=x", "bad prob value"),
            ("seed=beef", "bad fault seed"),
            ("cache.read:later=1", "bad trigger"),
            (
                "cache.read:nth=1;cache.read:nth=2",
                "duplicate fault clause",
            ),
        ] {
            let err = FaultPlan::parse(spec).unwrap_err();
            assert!(err.contains(needle), "{spec:?}: {err:?} missing {needle:?}");
        }
    }

    #[test]
    fn render_log_is_one_line_per_firing_in_order() {
        let _guard = install_guarded(
            FaultPlan::empty()
                .with(site::CACHE_WRITE, Trigger::Nth(1))
                .with(site::CACHE_RENAME, Trigger::Nth(2)),
        );
        assert!(hit(site::CACHE_WRITE));
        assert!(!hit(site::CACHE_RENAME));
        assert!(hit(site::CACHE_RENAME));
        assert_eq!(
            render_log(),
            "[dmt-faults] fired cache.write (hit 1)\n[dmt-faults] fired cache.rename (hit 2)\n"
        );
    }

    #[test]
    fn guard_uninstalls_on_drop() {
        {
            let _guard = install_guarded(FaultPlan::empty().with(site::POOL_EXEC, Trigger::Nth(1)));
            assert!(enabled());
        }
        assert!(!enabled());
        assert!(!hit(site::POOL_EXEC));
    }
}
