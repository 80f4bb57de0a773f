//! Content-addressed result cache: one JSON record per completed job.
//!
//! A [`Cache`] stores every finished [`JobOutcome`] under
//! `<dir>/<job_hash>.json`, keyed by the stable [`JobSpec::job_hash`]
//! (reproducible across runs, platforms and field reordering — see
//! [`crate::hash`]). Records are written with the same hand-rolled codec
//! as the artifacts and carry the artifact [`SCHEMA_VERSION`]; a version
//! bump invalidates every entry on read, so stale records can never leak
//! metrics with a different meaning into a new artifact.
//!
//! # Entry schema
//!
//! ```json
//! {
//!   "schema_version": 2,
//!   "generator": "dmt-runner",
//!   "kind": "job_cache_entry",
//!   "job_hash": "0x....",                  // must match the looked-up spec
//!   "bench": "scan", "arch": "dmt_cgra",   // identity echo, belt and braces
//!   "seed": 42, "config_hash": "0x....",
//!   "status": "ok" | "infeasible",
//!   "error": "...",                        // iff infeasible
//!   "kernel": "...", "cycles": N,          // iff ok, plus:
//!   "total_j": X, "energy": {...}, "stats": {...}, "phases": [{...}, ...]
//! }
//! ```
//!
//! The `status`/`kernel`/`cycles`/`energy`/`stats`/`phases` block is
//! exactly the per-job shape of the artifact `"jobs"` array, so a decoded
//! outcome re-renders byte-identically into an artifact: a warm run's
//! stdout and JSON artifact are indistinguishable from the cold run that
//! filled the cache.
//!
//! # Robustness
//!
//! Every lookup failure mode — missing file, truncated or corrupt JSON,
//! schema-version mismatch, identity mismatch, missing counters, a phase
//! breakdown that does not sum to the totals — is a *miss*, never an
//! error: the job is simply re-simulated and the entry rewritten. Stores
//! go through a temp-file + rename, so a run killed mid-write leaves at
//! worst a stale `.tmp` file, not a corrupt entry.
//!
//! Schema-version mismatches are additionally *counted*
//! ([`CacheStats::schema_invalidated`]) and reported in the stderr
//! summary line, so a sweep log shows how much of a warm directory a
//! version bump (e.g. v1 → v2) invalidated-as-miss.
//!
//! Store failures are counted too ([`CacheStats::store_failures`]), and
//! an *unusable* directory degrades rather than errors:
//! [`Cache::open_or_degraded`] falls back to counted no-cache operation
//! (every lookup a miss, every store a counted skip) with one stderr
//! line, so a read-only or broken cache path costs re-simulation, never
//! the run. The `cache.read` / `cache.write` / `cache.rename`
//! failpoints (`dmt_common::faults`) inject exactly these I/O failures
//! deterministically.
//!
//! # What the key does NOT cover: the simulator itself
//!
//! `job_hash` addresses the *experiment point*, not the code that
//! measures it. After editing simulator source, a previously-filled
//! cache still answers with the old numbers — delete the directory (or
//! use a per-version directory) when the simulators change. CI encodes
//! this rule structurally by keying its persisted cache on the hash of
//! every `.rs` source; locally it is a documented contract, chosen over
//! a baked-in build fingerprint so that a rebuild with an unrelated
//! change (a new binary, a doc edit) does not discard hours of sweep
//! results.
//!
//! # Scheduling
//!
//! The cache doubles as the cost model for the pool's longest-job-first
//! schedule: [`Cache::cost_index`] scans the completed entries into a
//! `(bench, arch) → max cycles` table and [`cost_order`] sorts pending
//! jobs by that estimate (grid order on a cold cache). See
//! [`crate::plan::ExecPlan`].

use crate::artifact::{Json, SCHEMA_VERSION};
use crate::job::{JobMetrics, JobOutcome, JobSpec};
use dmt_common::faults;
use dmt_common::stats::{PhaseStats, RunStats};
use dmt_core::energy::EnergyReport;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Hit/miss/store counters of one cache handle (not persisted — each
/// process run starts from zero).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups answered from disk.
    pub hits: u64,
    /// Lookups that missed (absent, corrupt or invalidated entries).
    pub misses: u64,
    /// Entries written.
    pub stores: u64,
    /// The subset of `misses` that were well-formed entries of another
    /// schema version, invalidated by the version bump (the observable
    /// cost of a v1 → v2 migration in a warm directory).
    pub schema_invalidated: u64,
    /// Stores that could not be persisted (I/O error, injected fault,
    /// or skipped because the handle is degraded). Each one costs a
    /// future re-simulation, never this run's results.
    pub store_failures: u64,
}

/// An on-disk result store addressed by [`JobSpec::cache_key`].
///
/// Shared by reference across pool workers: the counters are atomic and
/// every filesystem operation is independent, so `&Cache` is `Sync`.
#[derive(Debug)]
pub struct Cache {
    dir: PathBuf,
    /// Degraded handles never touch the filesystem: lookups are counted
    /// misses, stores are counted skips. Set once at open, never after.
    degraded: bool,
    hits: AtomicU64,
    misses: AtomicU64,
    stores: AtomicU64,
    schema_invalidated: AtomicU64,
    store_failures: AtomicU64,
}

impl Cache {
    fn with_dir(dir: PathBuf, degraded: bool) -> Cache {
        Cache {
            dir,
            degraded,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            stores: AtomicU64::new(0),
            schema_invalidated: AtomicU64::new(0),
            store_failures: AtomicU64::new(0),
        }
    }

    /// Opens (and creates, if needed) a cache directory.
    ///
    /// # Errors
    ///
    /// Propagates the filesystem error when the directory cannot be
    /// created.
    pub fn open(dir: impl Into<PathBuf>) -> std::io::Result<Cache> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(Cache::with_dir(dir, false))
    }

    /// [`Cache::open`] that never fails: when the directory cannot be
    /// created (unwritable parent, a file in the way…), the handle
    /// *degrades* to counted no-cache operation — every lookup is a
    /// miss, every store a counted skip — and announces the degradation
    /// once on stderr in the cache-report idiom. The run proceeds at
    /// full correctness, paying re-simulation instead of persistence.
    #[must_use]
    pub fn open_or_degraded(dir: impl Into<PathBuf>) -> Cache {
        let dir = dir.into();
        match Cache::open(&dir) {
            Ok(cache) => cache,
            Err(e) => {
                eprintln!(
                    "[dmt-runner] cache: degraded to no-cache operation — cannot open {}: {e}",
                    dir.display()
                );
                Cache::with_dir(dir, true)
            }
        }
    }

    /// True when this handle degraded at open and performs no I/O.
    #[must_use]
    pub fn is_degraded(&self) -> bool {
        self.degraded
    }

    /// The cache directory.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The entry path for one job.
    #[must_use]
    pub fn entry_path(&self, spec: &JobSpec) -> PathBuf {
        self.dir.join(format!("{}.json", spec.cache_key()))
    }

    /// This handle's hit/miss/store counters so far.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            stores: self.stores.load(Ordering::Relaxed),
            schema_invalidated: self.schema_invalidated.load(Ordering::Relaxed),
            store_failures: self.store_failures.load(Ordering::Relaxed),
        }
    }

    /// Looks up a completed outcome. Any defect in the stored entry —
    /// corrupt JSON, wrong schema version, identity mismatch, missing
    /// fields — is a miss (the caller re-simulates and overwrites).
    /// Schema-version mismatches are counted separately so version-bump
    /// invalidations are observable in the stderr summary.
    #[must_use]
    pub fn lookup(&self, spec: &JobSpec) -> Option<JobOutcome> {
        if self.degraded || faults::hit(faults::site::CACHE_READ) {
            self.misses.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        let found = std::fs::read_to_string(self.entry_path(spec))
            .ok()
            .map(|text| classify_entry(&text, spec));
        match found {
            Some(EntryClass::Valid(outcome)) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(outcome)
            }
            Some(EntryClass::StaleSchema) => {
                self.schema_invalidated.fetch_add(1, Ordering::Relaxed);
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
            Some(EntryClass::Defective) | None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Persists one outcome under the spec's content address.
    ///
    /// Written via a sibling temp file and an atomic rename: concurrent
    /// writers of the same key race benignly (same content), and a kill
    /// mid-write cannot leave a half-entry under the final name.
    ///
    /// Transient and timed-out outcomes are never persisted: a failed
    /// job must retry, and a timed-out one depends on a deadline the
    /// job hash does not cover — both are silently skipped.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors (callers log-and-continue: a failed
    /// store costs a future re-simulation, not this run's results).
    /// Every error — propagated, injected or degraded-skip — is counted
    /// in [`CacheStats::store_failures`].
    pub fn store(&self, spec: &JobSpec, outcome: &JobOutcome) -> std::io::Result<()> {
        if !outcome.cacheable() {
            return Ok(());
        }
        if self.degraded {
            self.store_failures.fetch_add(1, Ordering::Relaxed);
            return Ok(()); // announced once at open; not a per-job error
        }
        let result = self.store_inner(spec, outcome);
        if result.is_err() {
            self.store_failures.fetch_add(1, Ordering::Relaxed);
        }
        result
    }

    fn store_inner(&self, spec: &JobSpec, outcome: &JobOutcome) -> std::io::Result<()> {
        use std::io::{Error, ErrorKind};
        let path = self.entry_path(spec);
        let tmp = self
            .dir
            .join(format!("{}.tmp.{}", spec.cache_key(), std::process::id()));
        if faults::hit(faults::site::CACHE_WRITE) {
            return Err(Error::new(
                ErrorKind::StorageFull,
                "injected fault: cache.write",
            ));
        }
        std::fs::write(&tmp, encode_entry(spec, outcome).render())?;
        if faults::hit(faults::site::CACHE_RENAME) {
            let _ = std::fs::remove_file(&tmp);
            return Err(Error::other("injected fault: cache.rename"));
        }
        std::fs::rename(&tmp, &path)?;
        self.stores.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// One stderr summary line (the documented cache-stats line; stderr
    /// so stdout stays byte-identical across cache states). When a schema
    /// bump invalidated entries, the miss count is annotated so v1 → v2
    /// migrations are observable in sweep logs.
    pub fn report(&self) {
        let s = self.stats();
        let invalidated = if s.schema_invalidated > 0 {
            format!(" ({} schema-invalidated)", s.schema_invalidated)
        } else {
            String::new()
        };
        // Annotations appear only when non-zero, so the healthy-path
        // line stays byte-identical to what CI logs have always grepped.
        let store_failures = if s.store_failures > 0 {
            format!(", {} store-failures", s.store_failures)
        } else {
            String::new()
        };
        let degraded = if self.degraded {
            " [degraded: no-cache]"
        } else {
            ""
        };
        eprintln!(
            "[dmt-runner] cache: {} hits, {} misses{}, {} stored{} ({}){}",
            s.hits,
            s.misses,
            invalidated,
            s.stores,
            store_failures,
            self.dir.display(),
            degraded
        );
    }

    /// Scans every valid entry into a `(bench, arch) → max cycles` cost
    /// table for longest-job-first scheduling. Unreadable or invalid
    /// entries are skipped — the index is an optimization, never a
    /// correctness input.
    #[must_use]
    pub fn cost_index(&self) -> CostIndex {
        let mut index = CostIndex::default();
        let Ok(entries) = std::fs::read_dir(&self.dir) else {
            return index;
        };
        for entry in entries.flatten() {
            if entry.path().extension().is_none_or(|e| e != "json") {
                continue;
            }
            let Ok(text) = std::fs::read_to_string(entry.path()) else {
                continue;
            };
            let Ok(doc) = Json::parse(&text) else {
                continue;
            };
            if doc.get("schema_version").and_then(Json::as_u64) != Some(SCHEMA_VERSION)
                || doc.get("kind").and_then(Json::as_str) != Some("job_cache_entry")
            {
                continue;
            }
            let (Some(bench), Some(arch), Some(cycles)) = (
                doc.get("bench").and_then(Json::as_str),
                doc.get("arch").and_then(Json::as_str),
                doc.get("cycles").and_then(Json::as_u64),
            ) else {
                continue;
            };
            index.record(bench, arch, cycles);
        }
        index
    }
}

/// A `(bench, arch) → max observed cycles` table, the pool's job-cost
/// estimator.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CostIndex {
    by_point: HashMap<(String, String), u64>,
}

impl CostIndex {
    /// Records one observation, keeping the maximum per `(bench, arch)`.
    pub fn record(&mut self, bench: &str, arch: &str, cycles: u64) {
        let slot = self
            .by_point
            .entry((bench.to_owned(), arch.to_owned()))
            .or_insert(0);
        *slot = (*slot).max(cycles);
    }

    /// The cycle estimate for a job, when this `(bench, arch)` point has
    /// ever completed in the cache. Configuration changes scale a
    /// benchmark's cost far less than the benchmark/machine choice does,
    /// so the coarse key is a useful ranking even mid-sweep.
    #[must_use]
    pub fn estimate(&self, spec: &JobSpec) -> Option<u64> {
        self.by_point
            .get(&(spec.bench.clone(), spec.arch.key().to_owned()))
            .copied()
    }

    /// True when the index has no observations (cold cache).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.by_point.is_empty()
    }
}

/// Longest-expected-job-first execution order for `specs`: a permutation
/// of `0..specs.len()`.
///
/// Jobs with a cost estimate run first, longest first (ties and equal
/// estimates keep grid order — the sort is stable); jobs the index knows
/// nothing about follow in grid order. On a cold cache (no estimates at
/// all) this degenerates to exactly the grid order, so scheduling is
/// deterministic in every state. Only the *execution* order changes —
/// results are always aggregated by job index, so output bytes are
/// unaffected.
#[must_use]
pub fn cost_order(specs: &[&JobSpec], index: &CostIndex) -> Vec<usize> {
    let mut order: Vec<usize> = (0..specs.len()).collect();
    if index.is_empty() {
        return order;
    }
    order.sort_by_key(|&i| match index.estimate(specs[i]) {
        // Known costs first (longest first), then unknowns in grid order.
        Some(cycles) => (0u8, u64::MAX - cycles),
        None => (1u8, 0),
    });
    order
}

/// Encodes one completed job as a cache-entry document: the identity
/// header plus the shared per-job measurement shape
/// ([`crate::artifact::with_outcome`] — one definition for artifacts and
/// cache entries, so the two cannot drift).
#[must_use]
pub fn encode_entry(spec: &JobSpec, outcome: &JobOutcome) -> Json {
    let doc = Json::obj()
        .with("schema_version", SCHEMA_VERSION)
        .with("generator", "dmt-runner")
        .with("kind", "job_cache_entry")
        .with("job_hash", format!("{:#018x}", spec.job_hash()))
        .with("bench", spec.bench.as_str())
        .with("arch", spec.arch.key())
        .with("seed", spec.seed)
        .with("config_hash", format!("{:#018x}", spec.config_hash()));
    crate::artifact::with_outcome(doc, outcome)
}

/// How one on-disk entry answered a lookup.
enum EntryClass {
    /// Well-formed, current-schema, identity-matching: a hit.
    Valid(JobOutcome),
    /// Well-formed entry of another schema version: a miss, counted as
    /// invalidated-by-the-version-bump.
    StaleSchema,
    /// Anything else (corrupt, truncated, identity mismatch, missing or
    /// inconsistent fields): a plain miss.
    Defective,
}

/// Parses and fully validates one entry, classifying the failure mode.
fn classify_entry(text: &str, spec: &JobSpec) -> EntryClass {
    let Ok(doc) = Json::parse(text) else {
        return EntryClass::Defective;
    };
    if doc.get("kind").and_then(Json::as_str) != Some("job_cache_entry") {
        return EntryClass::Defective;
    }
    match doc.get("schema_version").and_then(Json::as_u64) {
        Some(SCHEMA_VERSION) => {}
        Some(_) => return EntryClass::StaleSchema,
        None => return EntryClass::Defective,
    }
    match decode_validated(&doc, spec) {
        Some(outcome) => EntryClass::Valid(outcome),
        None => EntryClass::Defective,
    }
}

/// Decodes a cache entry, validating it against the spec it is answering
/// for. `None` on any defect (including another schema version).
#[must_use]
pub fn decode_entry(text: &str, spec: &JobSpec) -> Option<JobOutcome> {
    match classify_entry(text, spec) {
        EntryClass::Valid(outcome) => Some(outcome),
        EntryClass::StaleSchema | EntryClass::Defective => None,
    }
}

/// The identity and measurement checks behind [`decode_entry`] (schema
/// version and kind already verified by the caller).
fn decode_validated(doc: &Json, spec: &JobSpec) -> Option<JobOutcome> {
    // The filename already encodes the job hash; re-checking it (and the
    // human-readable identity echo) guards against renamed files and the
    // astronomically unlikely hash collision turning into wrong numbers.
    if doc.get("job_hash").and_then(Json::as_str) != Some(&format!("{:#018x}", spec.job_hash()))
        || doc.get("bench").and_then(Json::as_str) != Some(spec.bench.as_str())
        || doc.get("arch").and_then(Json::as_str) != Some(spec.arch.key())
        || doc.get("seed").and_then(Json::as_u64) != Some(spec.seed)
    {
        return None;
    }
    match doc.get("status").and_then(Json::as_str)? {
        "infeasible" => Some(JobOutcome::Infeasible(
            doc.get("error")?.as_str()?.to_owned(),
        )),
        "ok" => {
            let mut stats = stats_from_json(doc.get("stats")?)?;
            stats.per_phase = phases_from_json(doc.get("phases")?)?;
            // A breakdown that does not sum to the totals would re-render
            // differently than it measured: treat it as corruption.
            if !stats.phase_sums_match() {
                return None;
            }
            Some(JobOutcome::completed(JobMetrics {
                kernel: doc.get("kernel")?.as_str()?.to_owned(),
                stats,
                energy: energy_from_json(doc.get("energy")?)?,
            }))
        }
        _ => None,
    }
}

// Both counter decoders are generated from the one counter list in
// `dmt_common::stats`: adding a counter there adds it to the structs, the
// serializers and these decoders in one edit — the four can never drift.
macro_rules! gen_counter_decoders {
    ($(($field:ident, $doc:literal)),+ $(,)?) => {
        /// Decodes a full [`RunStats`] totals block (the per-phase
        /// breakdown travels separately under `"phases"`; see
        /// [`phases_from_json`]). `None` when any counter is absent or
        /// mistyped.
        #[must_use]
        pub fn stats_from_json(j: &Json) -> Option<RunStats> {
            Some(RunStats {
                $($field: j.get(stringify!($field)).and_then(Json::as_u64)?,)+
                per_phase: Vec::new(),
            })
        }

        /// Decodes one [`PhaseStats`] record — the same counter set as
        /// [`stats_from_json`].
        #[must_use]
        pub fn phase_stats_from_json(j: &Json) -> Option<PhaseStats> {
            Some(PhaseStats {
                $($field: j.get(stringify!($field)).and_then(Json::as_u64)?,)+
            })
        }
    };
}

dmt_common::for_each_run_counter!(gen_counter_decoders);

/// Decodes the `"phases"` array into per-phase records. `None` when the
/// value is not an array or any phase record is defective.
#[must_use]
pub fn phases_from_json(j: &Json) -> Option<Vec<PhaseStats>> {
    j.as_arr()?.iter().map(phase_stats_from_json).collect()
}

/// Decodes an [`EnergyReport`] (exhaustive, like [`stats_from_json`]).
#[must_use]
pub fn energy_from_json(j: &Json) -> Option<EnergyReport> {
    let g = |name: &str| j.get(name).and_then(Json::as_f64);
    Some(EnergyReport {
        compute_j: g("compute_j")?,
        fetch_decode_j: g("fetch_decode_j")?,
        register_file_j: g("register_file_j")?,
        token_transport_j: g("token_transport_j")?,
        scratchpad_j: g("scratchpad_j")?,
        cache_j: g("cache_j")?,
        dram_j: g("dram_j")?,
        static_j: g("static_j")?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmt_common::faults::{self, quiet_guarded, FaultPlan};
    use dmt_core::{Arch, SystemConfig};
    use std::sync::atomic::AtomicUsize;

    fn tmp_dir(tag: &str) -> PathBuf {
        static N: AtomicUsize = AtomicUsize::new(0);
        let dir = std::env::temp_dir().join(format!(
            "dmt_cache_unit_{}_{}_{}",
            std::process::id(),
            tag,
            N.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn spec(bench: &str, arch: Arch, seed: u64) -> JobSpec {
        JobSpec::new(bench, arch, SystemConfig::default(), seed)
    }

    fn ok_outcome(cycles: u64) -> JobOutcome {
        JobOutcome::completed(JobMetrics {
            kernel: "k".into(),
            stats: RunStats {
                cycles,
                l2_misses: 3,
                ..Default::default()
            },
            energy: EnergyReport {
                compute_j: 1.25e-7,
                static_j: 0.5,
                ..Default::default()
            },
        })
    }

    #[test]
    fn store_then_lookup_round_trips_both_outcome_kinds() {
        let _guard = quiet_guarded();
        let cache = Cache::open(tmp_dir("roundtrip")).unwrap();
        let ok_spec = spec("scan", Arch::DmtCgra, 1);
        let inf_spec = spec("reduce", Arch::DmtCgra, 1);
        cache.store(&ok_spec, &ok_outcome(123)).unwrap();
        cache
            .store(&inf_spec, &JobOutcome::Infeasible("window".into()))
            .unwrap();
        assert_eq!(cache.lookup(&ok_spec), Some(ok_outcome(123)));
        assert_eq!(
            cache.lookup(&inf_spec),
            Some(JobOutcome::Infeasible("window".into()))
        );
        assert_eq!(
            cache.stats(),
            CacheStats {
                hits: 2,
                misses: 0,
                stores: 2,
                schema_invalidated: 0,
                store_failures: 0
            }
        );
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn transient_and_timed_out_outcomes_are_never_persisted() {
        let _guard = quiet_guarded();
        let cache = Cache::open(tmp_dir("no_persist")).unwrap();
        let s = spec("scan", Arch::DmtCgra, 1);
        cache
            .store(&s, &JobOutcome::Failed("executor panicked".into()))
            .unwrap();
        cache
            .store(&s, &JobOutcome::TimedOut("deadline".into()))
            .unwrap();
        assert!(!cache.entry_path(&s).exists(), "nothing may hit the disk");
        assert_eq!(cache.stats().stores, 0);
        // A handcrafted entry with a non-cacheable status is defective on
        // read, so even a forged file cannot serve a failed outcome.
        let forged = encode_entry(&s, &ok_outcome(9))
            .render()
            .replace("\"status\": \"ok\"", "\"status\": \"failed\"");
        std::fs::write(cache.entry_path(&s), forged).unwrap();
        assert_eq!(cache.lookup(&s), None);
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn degraded_handle_counts_misses_and_skipped_stores_without_io() {
        let parent = tmp_dir("degraded_parent");
        // A *file* where the cache directory should go: create_dir_all
        // fails, so open degrades instead of erroring.
        std::fs::create_dir_all(&parent).unwrap();
        let blocker = parent.join("cache");
        std::fs::write(&blocker, "a file, not a directory").unwrap();
        assert!(Cache::open(&blocker).is_err(), "open propagates");

        let cache = Cache::open_or_degraded(&blocker);
        assert!(cache.is_degraded());
        let s = spec("scan", Arch::DmtCgra, 1);
        assert_eq!(cache.lookup(&s), None);
        cache.store(&s, &ok_outcome(5)).unwrap();
        assert_eq!(cache.lookup(&s), None, "stores never land");
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (0, 2));
        assert_eq!((stats.stores, stats.store_failures), (0, 1));
        assert!(cache.cost_index().is_empty());
        let _ = std::fs::remove_dir_all(&parent);
    }

    #[test]
    fn injected_cache_faults_fail_reads_and_stores_deterministically() {
        // One guard for the whole body; each phase re-arms the registry
        // under it (`install` starts hit counters afresh).
        let _guard = quiet_guarded();
        let cache = Cache::open(tmp_dir("faults")).unwrap();
        let s = spec("scan", Arch::DmtCgra, 1);
        cache.store(&s, &ok_outcome(7)).unwrap();

        faults::install(FaultPlan::parse("cache.read:nth=1").unwrap());
        assert_eq!(cache.lookup(&s), None, "injected read fault is a miss");
        assert_eq!(cache.lookup(&s), Some(ok_outcome(7)), "only hit 1 fires");

        faults::install(FaultPlan::parse("cache.write:nth=1").unwrap());
        let err = cache.store(&s, &ok_outcome(8)).unwrap_err();
        assert!(err.to_string().contains("injected fault: cache.write"));

        faults::install(FaultPlan::parse("cache.rename:nth=1").unwrap());
        let err = cache.store(&s, &ok_outcome(8)).unwrap_err();
        assert!(err.to_string().contains("injected fault: cache.rename"));
        let tmp_leftovers = std::fs::read_dir(cache.dir())
            .unwrap()
            .flatten()
            .filter(|e| e.path().to_string_lossy().contains(".tmp."))
            .count();
        assert_eq!(tmp_leftovers, 0, "failed rename cleans its temp file");

        faults::install(FaultPlan::empty());
        assert_eq!(cache.stats().store_failures, 2);
        // The original entry survived both failed stores.
        assert_eq!(cache.lookup(&s), Some(ok_outcome(7)));
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn absent_corrupt_and_mismatched_entries_all_miss() {
        let _guard = quiet_guarded();
        let cache = Cache::open(tmp_dir("defects")).unwrap();
        let s = spec("scan", Arch::DmtCgra, 1);

        // Absent.
        assert_eq!(cache.lookup(&s), None);

        // Truncated JSON.
        std::fs::write(cache.entry_path(&s), "{\"schema_version\": 1,").unwrap();
        assert_eq!(cache.lookup(&s), None);

        // Valid JSON, wrong schema version (counted as invalidated).
        let mut doc = encode_entry(&s, &ok_outcome(9)).render();
        doc = doc.replace(
            &format!("\"schema_version\": {SCHEMA_VERSION}"),
            "\"schema_version\": 999",
        );
        std::fs::write(cache.entry_path(&s), &doc).unwrap();
        assert_eq!(cache.lookup(&s), None);
        assert_eq!(cache.stats().schema_invalidated, 1);

        // Valid entry filed under the wrong key (identity mismatch).
        let other = spec("reduce", Arch::FermiSm, 7);
        std::fs::write(
            cache.entry_path(&s),
            encode_entry(&other, &ok_outcome(9)).render(),
        )
        .unwrap();
        assert_eq!(cache.lookup(&s), None);

        // Entry missing a stats counter.
        let mut doc = encode_entry(&s, &ok_outcome(9)).render();
        doc = doc.replace("\"noc_hops\"", "\"not_a_counter\"");
        std::fs::write(cache.entry_path(&s), &doc).unwrap();
        assert_eq!(cache.lookup(&s), None);

        assert_eq!(cache.stats().misses, 5);
        assert_eq!(cache.stats().hits, 0);

        // Re-storing repairs the defective entry.
        cache.store(&s, &ok_outcome(9)).unwrap();
        assert_eq!(cache.lookup(&s), Some(ok_outcome(9)));
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn cost_index_keeps_max_cycles_per_point_and_skips_junk() {
        let _guard = quiet_guarded();
        let cache = Cache::open(tmp_dir("index")).unwrap();
        cache
            .store(&spec("scan", Arch::DmtCgra, 1), &ok_outcome(100))
            .unwrap();
        cache
            .store(&spec("scan", Arch::DmtCgra, 2), &ok_outcome(400))
            .unwrap();
        cache
            .store(&spec("scan", Arch::FermiSm, 1), &ok_outcome(900))
            .unwrap();
        cache
            .store(
                &spec("reduce", Arch::DmtCgra, 1),
                &JobOutcome::Infeasible("no".into()),
            )
            .unwrap();
        std::fs::write(cache.dir().join("junk.json"), "not json").unwrap();
        std::fs::write(cache.dir().join("notes.txt"), "ignored").unwrap();

        let idx = cache.cost_index();
        assert_eq!(idx.estimate(&spec("scan", Arch::DmtCgra, 3)), Some(400));
        assert_eq!(idx.estimate(&spec("scan", Arch::FermiSm, 3)), Some(900));
        // Infeasible entries carry no cycles and never enter the index.
        assert_eq!(idx.estimate(&spec("reduce", Arch::DmtCgra, 1)), None);
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn cost_order_is_longest_first_with_cold_fallback() {
        let specs = [
            spec("a", Arch::DmtCgra, 1),
            spec("b", Arch::DmtCgra, 1),
            spec("c", Arch::DmtCgra, 1),
            spec("d", Arch::DmtCgra, 1),
        ];
        let refs: Vec<&JobSpec> = specs.iter().collect();

        // Cold cache: grid order.
        assert_eq!(cost_order(&refs, &CostIndex::default()), vec![0, 1, 2, 3]);

        // b is known-long, a known-short, c/d unknown: b, a, then c, d in
        // grid order.
        let mut idx = CostIndex::default();
        idx.record("a", Arch::DmtCgra.key(), 10);
        idx.record("b", Arch::DmtCgra.key(), 1000);
        assert_eq!(cost_order(&refs, &idx), vec![1, 0, 2, 3]);

        // Equal estimates keep grid order (stable sort).
        idx.record("a", Arch::DmtCgra.key(), 1000);
        assert_eq!(cost_order(&refs, &idx), vec![0, 1, 2, 3]);
    }

    #[test]
    fn every_prefix_of_an_entry_is_a_miss_never_a_panic() {
        let s = spec("scan", Arch::DmtCgra, 1);
        for outcome in [ok_outcome(5), JobOutcome::Infeasible("window \"x\"".into())] {
            let text = encode_entry(&s, &outcome).render();
            assert!(text.is_ascii(), "prefixes below slice at any byte");
            assert_eq!(decode_entry(&text, &s), Some(outcome));
            // The document's closing brace is the last significant byte:
            // nothing shorter (bar trailing whitespace) is a valid entry.
            let body = text.trim_end().len();
            for cut in 0..body {
                assert_eq!(
                    decode_entry(&text[..cut], &s),
                    None,
                    "prefix of {cut} bytes"
                );
            }
        }
    }

    #[test]
    fn entries_decode_only_for_their_own_spec() {
        let s = spec("scan", Arch::DmtCgra, 1);
        let text = encode_entry(&s, &ok_outcome(5)).render();
        assert!(decode_entry(&text, &s).is_some());
        assert!(decode_entry(&text, &spec("scan", Arch::DmtCgra, 2)).is_none());
        assert!(decode_entry(&text, &spec("scan", Arch::MtCgra, 1)).is_none());
        let mut other_cfg = s.clone();
        other_cfg.cfg.fabric.token_buffer_entries += 1;
        assert!(decode_entry(&text, &other_cfg).is_none());
    }
}
