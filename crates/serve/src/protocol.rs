//! The line-delimited JSON wire protocol.
//!
//! Every request is one JSON object on one line with a `"verb"` field;
//! every response is one compact JSON object on one line (see
//! [`dmt_runner::artifact::Json::render_compact`]). The five verbs:
//!
//! - `submit` — admit a job grid: `{"verb":"submit","jobs":[...]}` (or a
//!   single `"job":{...}`). Each job object names a `"bench"` and an
//!   `"arch"` (key or paper name), with optional `"seed"` (default 42,
//!   the suite seed) and an optional `"config"` object of numeric
//!   dotted-path overrides onto [`SystemConfig::default`] — the leaves of
//!   the leaf list in `dmt_common::config`, which
//!   [`SystemConfig::visit_fields`] walks, e.g.
//!   `{"fabric.inflight_threads":512}`. A value outside its leaf's domain
//!   is admitted and the job ends `infeasible` (see
//!   [`SystemConfig::validate`]). An optional per-job
//!   `"deadline_cycles"` caps the simulated-cycle budget (not part of
//!   the job hash; see [`SubmitJob`]).
//! - `status` — `{"verb":"status","job_hash":"<16 hex>"}`.
//! - `result` — `{"verb":"result","job_hash":"<16 hex>"}`.
//! - `metrics` — `{"verb":"metrics"}`: daemon counters — queue depth,
//!   lifecycle totals, cache hit/miss/schema-invalidated counts, and
//!   per-verb request-latency histograms.
//! - `drain` — `{"verb":"drain"}`.
//!
//! Job hashes are the runner's content hash ([`JobSpec::job_hash`]),
//! rendered as 16 lowercase hex digits (the cache filename stem); an
//! optional `0x` prefix is accepted on input.

use dmt_common::config::CfgValue;
use dmt_core::{Arch, SystemConfig};
use dmt_runner::artifact::Json;
use dmt_runner::JobSpec;

/// One job of a `submit` request: the spec plus per-job execution
/// knobs that are **not** part of the job's content hash (a deadline
/// changes when a run is cut short, not what the job computes — and a
/// timed-out outcome is never cached, so the hash must not depend on
/// it).
#[derive(Debug, Clone, PartialEq)]
pub struct SubmitJob {
    /// The content-hashed job identity.
    pub spec: JobSpec,
    /// Optional simulated-cycle budget (`"deadline_cycles"`); `None`
    /// falls back to the daemon's `--deadline-cycles` default.
    pub deadline_cycles: Option<u64>,
}

/// One parsed client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Admit a grid of jobs (possibly a single one).
    Submit(Vec<SubmitJob>),
    /// Report one job's lifecycle state.
    Status(u64),
    /// Serve one job's artifact JSON.
    Result(u64),
    /// Report daemon-level counters and latency histograms.
    Metrics,
    /// Stop accepting work, finish in-flight jobs, exit.
    Drain,
}

/// Wire verb names, in [`Request::verb_index`] order — the index into
/// the per-verb latency histograms in [`crate::state::Inner`].
pub const VERBS: [&str; 5] = ["submit", "status", "result", "metrics", "drain"];

impl Request {
    /// This request's index into [`VERBS`].
    #[must_use]
    pub fn verb_index(&self) -> usize {
        match self {
            Request::Submit(_) => 0,
            Request::Status(_) => 1,
            Request::Result(_) => 2,
            Request::Metrics => 3,
            Request::Drain => 4,
        }
    }
}

/// A job hash in wire form: 16 lowercase hex digits.
#[must_use]
pub fn hash_str(hash: u64) -> String {
    format!("{hash:016x}")
}

/// Parses one request line into a [`Request`].
///
/// Errors are human-readable strings suitable for the `"error"` field of
/// an `{"ok":false}` response.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let doc = Json::parse(line).map_err(|e| format!("bad JSON: {e}"))?;
    let verb = doc
        .get("verb")
        .and_then(Json::as_str)
        .ok_or("missing \"verb\"")?;
    match verb {
        "submit" => parse_submit(&doc),
        "status" => Ok(Request::Status(parse_hash(&doc)?)),
        "result" => Ok(Request::Result(parse_hash(&doc)?)),
        "metrics" => Ok(Request::Metrics),
        "drain" => Ok(Request::Drain),
        other => Err(format!(
            "unknown verb {other:?} (expected submit, status, result, metrics or drain)"
        )),
    }
}

fn parse_submit(doc: &Json) -> Result<Request, String> {
    let jobs: Vec<&Json> = match (doc.get("jobs"), doc.get("job")) {
        (Some(Json::Arr(items)), None) => items.iter().collect(),
        (None, Some(one)) => vec![one],
        (Some(_), None) => return Err("\"jobs\" must be an array".into()),
        (None, None) => return Err("submit needs \"jobs\" or \"job\"".into()),
        (Some(_), Some(_)) => return Err("give \"jobs\" or \"job\", not both".into()),
    };
    let mut specs = Vec::with_capacity(jobs.len());
    for (i, job) in jobs.iter().enumerate() {
        specs.push(parse_job(job).map_err(|e| format!("job {i}: {e}"))?);
    }
    Ok(Request::Submit(specs))
}

fn parse_job(job: &Json) -> Result<SubmitJob, String> {
    let bench = job
        .get("bench")
        .and_then(Json::as_str)
        .ok_or("missing \"bench\"")?;
    let arch: Arch = job
        .get("arch")
        .and_then(Json::as_str)
        .ok_or("missing \"arch\"")?
        .parse()?;
    let seed = match job.get("seed") {
        None => crate::DEFAULT_SEED,
        Some(s) => s.as_u64().ok_or("\"seed\" must be an unsigned integer")?,
    };
    let mut cfg = SystemConfig::default();
    match job.get("config") {
        None => {}
        Some(Json::Obj(fields)) => {
            for (name, value) in fields {
                let input = match value {
                    Json::U64(v) => CfgValue::U64(*v),
                    Json::F64(v) => CfgValue::F64(*v),
                    _ => return Err(format!("config field {name:?} must be a number")),
                };
                cfg.set_field(name, input)?;
            }
        }
        Some(_) => return Err("\"config\" must be an object".into()),
    }
    let deadline_cycles = match job.get("deadline_cycles") {
        None => None,
        Some(d) => {
            let n = d
                .as_u64()
                .ok_or("\"deadline_cycles\" must be an unsigned integer")?;
            if n == 0 {
                return Err("\"deadline_cycles\" must be at least 1".into());
            }
            Some(n)
        }
    };
    Ok(SubmitJob {
        spec: JobSpec::new(bench, arch, cfg, seed),
        deadline_cycles,
    })
}

fn parse_hash(doc: &Json) -> Result<u64, String> {
    match doc.get("job_hash") {
        Some(Json::Str(s)) => {
            let digits = s.strip_prefix("0x").unwrap_or(s);
            u64::from_str_radix(digits, 16).map_err(|_| format!("bad job hash {s:?}"))
        }
        Some(other) => other
            .as_u64()
            .ok_or("\"job_hash\" must be a hex string or integer".into()),
        None => Err("missing \"job_hash\"".into()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn submit_parses_grid_seed_and_config_overrides() {
        let req = parse_request(
            r#"{"verb":"submit","jobs":[
                {"bench":"scan","arch":"dmt_cgra"},
                {"bench":"matrixMul","arch":"MT-CGRA","seed":7,
                 "config":{"fabric.inflight_threads":512}}]}"#,
        )
        .expect("parses");
        let Request::Submit(specs) = req else {
            panic!("expected submit")
        };
        assert_eq!(specs.len(), 2);
        assert_eq!(specs[0].spec.bench, "scan");
        assert_eq!(specs[0].spec.arch, Arch::DmtCgra);
        assert_eq!(specs[0].spec.seed, crate::DEFAULT_SEED);
        assert_eq!(specs[0].deadline_cycles, None);
        assert_eq!(specs[1].spec.arch, Arch::MtCgra);
        assert_eq!(specs[1].spec.seed, 7);
        assert_eq!(specs[1].spec.cfg.fabric.inflight_threads, 512);
        // The override must flow into the content hash.
        let default = JobSpec::new("matrixMul", Arch::MtCgra, SystemConfig::default(), 7);
        assert_ne!(specs[1].spec.job_hash(), default.job_hash());
    }

    #[test]
    fn deadline_cycles_parses_but_stays_out_of_the_job_hash() {
        let req = parse_request(
            r#"{"verb":"submit","job":{"bench":"scan","arch":"dmt_cgra","deadline_cycles":500}}"#,
        )
        .expect("parses");
        let Request::Submit(jobs) = req else {
            panic!("expected submit")
        };
        assert_eq!(jobs[0].deadline_cycles, Some(500));
        // Same spec without a deadline: identical content hash — the
        // budget changes when a run is cut short, not what it computes.
        let bare = parse_request(r#"{"verb":"submit","job":{"bench":"scan","arch":"dmt_cgra"}}"#)
            .expect("parses");
        let Request::Submit(bare) = bare else {
            panic!("expected submit")
        };
        assert_eq!(jobs[0].spec.job_hash(), bare[0].spec.job_hash());
        for (line, needle) in [
            (
                r#"{"verb":"submit","job":{"bench":"scan","arch":"dmt_cgra","deadline_cycles":0}}"#,
                "at least 1",
            ),
            (
                r#"{"verb":"submit","job":{"bench":"scan","arch":"dmt_cgra","deadline_cycles":"x"}}"#,
                "unsigned integer",
            ),
        ] {
            let err = parse_request(line).expect_err(line);
            assert!(err.contains(needle), "{line}: {err:?}");
        }
    }

    #[test]
    fn single_job_form_and_hash_prefixes_are_accepted() {
        let req = parse_request(r#"{"verb":"submit","job":{"bench":"scan","arch":"fermi_sm"}}"#)
            .expect("parses");
        assert!(matches!(req, Request::Submit(ref s) if s.len() == 1));
        let a = parse_request(r#"{"verb":"status","job_hash":"00000000deadbeef"}"#).unwrap();
        let b = parse_request(r#"{"verb":"result","job_hash":"0xdeadbeef"}"#).unwrap();
        assert_eq!(a, Request::Status(0xdead_beef));
        assert_eq!(b, Request::Result(0xdead_beef));
        assert_eq!(hash_str(0xdead_beef), "00000000deadbeef");
    }

    #[test]
    fn metrics_verb_parses_and_verb_indices_cover_the_table() {
        assert_eq!(
            parse_request(r#"{"verb":"metrics"}"#).unwrap(),
            Request::Metrics
        );
        // Every variant's index names itself in the wire table.
        for (req, name) in [
            (Request::Submit(Vec::new()), "submit"),
            (Request::Status(0), "status"),
            (Request::Result(0), "result"),
            (Request::Metrics, "metrics"),
            (Request::Drain, "drain"),
        ] {
            assert_eq!(VERBS[req.verb_index()], name);
        }
    }

    #[test]
    fn malformed_requests_are_rejected_with_context() {
        for (line, needle) in [
            ("{", "bad JSON"),
            (r#"{"verb":"reset"}"#, "unknown verb"),
            (r#"{"jobs":[]}"#, "missing \"verb\""),
            (r#"{"verb":"status"}"#, "missing \"job_hash\""),
            (r#"{"verb":"status","job_hash":"xyz"}"#, "bad job hash"),
            (r#"{"verb":"submit"}"#, "\"jobs\" or \"job\""),
            (
                r#"{"verb":"submit","jobs":[{"arch":"dmt_cgra"}]}"#,
                "job 0: missing \"bench\"",
            ),
            (
                r#"{"verb":"submit","jobs":[{"bench":"scan","arch":"dmt_cgra","config":{"no.such":1}}]}"#,
                "unknown config field",
            ),
            (
                r#"{"verb":"submit","jobs":[{"bench":"scan","arch":"dmt_cgra","config":{"mem.l1.ways":"4"}}]}"#,
                "\"mem.l1.ways\" must be a number",
            ),
        ] {
            let err = parse_request(line).expect_err(line);
            assert!(err.contains(needle), "{line}: {err:?} missing {needle:?}");
        }
    }
}
