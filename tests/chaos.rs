//! The chaos suite: seeded deterministic fault schedules against the
//! execution stack, asserting the robustness invariant end to end.
//!
//! For **any** fault schedule (proptest over site × trigger × seed):
//!
//! 1. every job ends in exactly one typed terminal outcome
//!    (`ok` / `infeasible` / `failed` / `timed_out`) — no slot is ever
//!    dropped, duplicated or left untyped;
//! 2. any job that succeeds produces the byte-identical per-job
//!    artifact JSON of a fault-free run;
//! 3. the same fault spec and seed replay the byte-identical fault log
//!    (`faults::render_log`) and the identical outcome vector;
//! 4. the daemon keeps answering `status` under an adversarial schedule
//!    and drains within a wall-clock bound — it never hangs past its
//!    deadline;
//! 5. observation composes: a profiled grid under a `pool.exec` fault or
//!    a panicking job loses exactly that job, siblings byte-identical
//!    and observations still index-aligned, for 1 and 4 workers.
//!
//! Executors in 1–4 are deterministic stubs (outcomes are pure functions
//! of the spec), so a schedule sweep costs milliseconds per case; the
//! real-simulation identity contracts live in `runner_cache.rs` and
//! `runner_parallel.rs`, and 5 runs the real smoke grid.

use dmt_bench::{execute_job_observed, run_grid, suite_jobs, GridOptions, SEED};
use dmt_common::faults::{self, FaultPlan, Trigger};
use dmt_common::RunLimits;
use dmt_core::{Arch, SystemConfig};
use dmt_runner::{Artifact, Cache, ExecPlan, JobMetrics, JobOutcome, JobSpec, Json};
use dmt_serve::{Executor, ServeOptions, Server};
use proptest::prelude::*;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::time::Duration;

/// A unique, empty scratch directory per call (tests share one process).
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dmt_chaos_{}_{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A small job grid: one bench across the three machines, three seeds.
fn grid() -> Vec<JobSpec> {
    let mut jobs = Vec::new();
    for seed in 0..3u64 {
        for arch in [Arch::FermiSm, Arch::MtCgra, Arch::DmtCgra] {
            jobs.push(JobSpec::new("scan", arch, SystemConfig::default(), seed));
        }
    }
    jobs
}

/// Deterministic stub executor: a pure function of the spec, so two
/// runs of the same grid must agree byte for byte.
fn stub(spec: &JobSpec) -> JobOutcome {
    JobOutcome::completed(JobMetrics {
        kernel: spec.bench.clone(),
        stats: dmt_common::stats::RunStats {
            cycles: spec.job_hash() % 10_000 + 1,
            ..Default::default()
        },
        energy: dmt_core::energy::EnergyReport::default(),
    })
}

/// Runs the grid through a cached serial plan under `plan`, returning
/// the outcomes and the fault log. Serial (`threads 1`) because the
/// fault log's byte-identity contract is pinned to a fixed dispatch
/// order.
fn chaos_run(plan: &FaultPlan, tag: &str) -> (Vec<JobOutcome>, String) {
    let dir = scratch(tag);
    let _guard = faults::install_guarded(plan.clone());
    let cache = Cache::open(&dir).expect("chaos scratch cache");
    let jobs = grid();
    let outcomes = ExecPlan::new(&jobs).cache(Some(&cache)).run(stub);
    let log = faults::render_log();
    drop(_guard);
    let _ = std::fs::remove_dir_all(&dir);
    (outcomes, log)
}

/// The per-job artifact documents of a run, rendered to bytes.
fn job_docs(jobs: &[JobSpec], outcomes: &[JobOutcome]) -> Vec<String> {
    let art = Artifact::new("chaos", 1, 0, 0, jobs.to_vec(), outcomes.to_vec());
    let Json::Arr(docs) = art.jobs_json() else {
        panic!("jobs_json is an array")
    };
    docs.into_iter().map(|d| d.render()).collect()
}

/// One typed terminal outcome, internally consistent.
fn assert_typed(outcome: &JobOutcome) -> Result<(), TestCaseError> {
    let status = outcome.status();
    prop_assert!(
        ["ok", "infeasible", "failed", "timed_out"].contains(&status),
        "untyped outcome {outcome:?}"
    );
    match status {
        "ok" => {
            prop_assert!(outcome.metrics().is_some());
            prop_assert!(outcome.error().is_none());
        }
        _ => {
            prop_assert!(outcome.metrics().is_none());
            prop_assert!(outcome.error().is_some(), "{outcome:?} carries no error");
        }
    }
    Ok(())
}

/// The batch-stack seams this sweep drives; the daemon-side sites are
/// exercised by the serve scenario below.
const SWEPT_SITES: [&str; 4] = [
    faults::site::CACHE_READ,
    faults::site::CACHE_WRITE,
    faults::site::CACHE_RENAME,
    faults::site::POOL_EXEC,
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The chaos invariant over arbitrary single-site schedules.
    /// (The vendored proptest subset has no f64 or one-of strategies,
    /// so sites and triggers are decoded from integer draws.)
    #[test]
    fn every_job_ends_in_exactly_one_typed_outcome(
        site_ix in 0usize..SWEPT_SITES.len(),
        use_nth in any::<bool>(),
        nth in 1u64..=12,
        prob_pct in 5u64..=95,
        seed in any::<u64>(),
    ) {
        let site = SWEPT_SITES[site_ix];
        let trigger = if use_nth {
            Trigger::Nth(nth)
        } else {
            Trigger::Prob(prob_pct as f64 / 100.0)
        };
        let plan = FaultPlan::empty().seeded(seed).with(site, trigger);
        let jobs = grid();
        let baseline = {
            let (outcomes, log) = chaos_run(&FaultPlan::empty(), "baseline");
            prop_assert_eq!(log, "", "an empty plan never fires");
            outcomes
        };
        let (faulted, log_a) = chaos_run(&plan, "faulted_a");

        // 1. One typed outcome per submitted job, none dropped.
        prop_assert_eq!(faulted.len(), jobs.len());
        for outcome in &faulted {
            assert_typed(outcome)?;
        }

        // 2. Succeeding jobs are byte-identical to the fault-free run.
        let base_docs = job_docs(&jobs, &baseline);
        let fault_docs = job_docs(&jobs, &faulted);
        for (i, outcome) in faulted.iter().enumerate() {
            if outcome.status() == "ok" {
                prop_assert_eq!(
                    &fault_docs[i], &base_docs[i],
                    "job {} survived the fault but its artifact drifted", i
                );
            }
        }

        // 3. Same spec + seed: byte-identical fault log and outcomes.
        let (replayed, log_b) = chaos_run(&plan, "faulted_b");
        prop_assert_eq!(log_a, log_b, "fault log must replay byte-identically");
        prop_assert_eq!(faulted, replayed, "outcomes must replay identically");
    }

    /// Multi-site probabilistic schedules replay bit-for-bit too: the
    /// firing decision is a pure function of (seed, site, ordinal).
    #[test]
    fn multi_site_prob_schedules_replay_byte_identically(
        seed in any::<u64>(),
        p_read_pct in 10u64..=90,
        p_write_pct in 10u64..=90,
    ) {
        let plan = FaultPlan::empty()
            .seeded(seed)
            .with(faults::site::CACHE_READ, Trigger::Prob(p_read_pct as f64 / 100.0))
            .with(faults::site::CACHE_WRITE, Trigger::Prob(p_write_pct as f64 / 100.0))
            .with(faults::site::POOL_EXEC, Trigger::Prob(0.3));
        let (a, log_a) = chaos_run(&plan, "prob_a");
        let (b, log_b) = chaos_run(&plan, "prob_b");
        prop_assert_eq!(a, b);
        prop_assert_eq!(log_a, log_b);
    }
}

/// Exactly one slot failed with `needle`; every sibling is the clean
/// run's outcome, and each slot's observed cycle count (`None` for an
/// empty or absent observation) belongs to the outcome beside it.
fn assert_one_lost_rest_aligned(
    slots: &[(JobOutcome, Option<u64>)],
    clean: &[JobOutcome],
    needle: &str,
) {
    assert_eq!(slots.len(), clean.len());
    let failed: Vec<_> = slots
        .iter()
        .filter(|(o, _)| o.status() == "failed")
        .collect();
    assert_eq!(failed.len(), 1, "exactly one job is lost: {failed:?}");
    assert!(failed[0].0.error().unwrap().contains(needle), "{failed:?}");
    for (i, ((outcome, observed), want)) in slots.iter().zip(clean).enumerate() {
        match outcome.metrics() {
            Some(m) => {
                assert_eq!(outcome, want, "sibling {i} diverged");
                assert_eq!(*observed, Some(m.cycles()), "observation {i} misaligned");
            }
            None => assert_eq!(*observed, None, "a lost job observed nothing"),
        }
    }
}

/// Observation goes through the same plan as everything else, so the
/// fault and panic isolation of the unobserved run holds under it.
#[test]
fn observed_grid_loses_exactly_the_faulted_job_and_stays_index_aligned() {
    let jobs = suite_jobs(SystemConfig::default(), SEED, 3);
    let clean = {
        let _guard = faults::quiet_guarded();
        run_grid(jobs.clone(), SEED, &GridOptions::default()).outcomes
    };
    let victim = jobs[4].job_hash();
    for threads in [1, 4] {
        let run = {
            let _guard = faults::install_guarded(FaultPlan::parse("pool.exec:nth=4").unwrap());
            let opts = GridOptions {
                threads,
                profile: true,
                ..GridOptions::default()
            };
            run_grid(jobs.clone(), SEED, &opts)
        };
        let slots: Vec<_> = run
            .outcomes
            .into_iter()
            .zip(&run.observations)
            .map(|(o, obs)| (o, Some(obs.profile.cycles).filter(|&c| c > 0)))
            .collect();
        assert_one_lost_rest_aligned(&slots, &clean, "injected fault: pool.exec");

        // A panicking job, through the core `run_grid` is built on.
        let _guard = faults::quiet_guarded();
        let slots: Vec<_> = ExecPlan::new(&jobs)
            .threads(threads)
            .run_with(|spec, _| {
                assert!(spec.job_hash() != victim, "panic before producing");
                let mut obs = dmt_obs::Obs::new(false, true);
                (execute_job_observed(spec, &mut obs), obs)
            })
            .into_iter()
            .map(|(o, obs)| (o, obs.map(|obs| obs.profile.cycles)))
            .collect();
        assert_one_lost_rest_aligned(&slots, &clean, "panic before producing");
    }
}

/// One line-JSON request against the daemon, tolerating injected
/// request failures (`serve.request`) by retrying on a fresh line.
fn req_tolerant(reader: &mut BufReader<TcpStream>, writer: &mut TcpStream, line: &str) -> Json {
    for _ in 0..16 {
        writer
            .write_all(format!("{line}\n").as_bytes())
            .expect("send");
        let mut resp = String::new();
        reader.read_line(&mut resp).expect("recv");
        let doc = Json::parse(resp.trim_end()).expect("response parses");
        let injected = doc
            .get("error")
            .and_then(Json::as_str)
            .is_some_and(|e| e.contains("injected fault"));
        if !injected {
            return doc;
        }
    }
    panic!("request {line:?} kept hitting injected faults");
}

/// An adversarial fixed schedule against the live daemon: a request
/// fault, a cache-write fault and a flaky-then-fine executor, plus a
/// per-job deadline. The daemon must answer `status` throughout, drive
/// every job to a typed terminal state, and drain within a wall-clock
/// bound — never hanging past its deadline.
#[test]
fn daemon_survives_an_adversarial_schedule_without_hanging() {
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let dir = scratch("daemon");
        let _guard = faults::install_guarded(
            FaultPlan::parse("seed=3;serve.request:nth=2;cache.write:nth=1").unwrap(),
        );
        // Limit-aware stub: jobs under a tight budget time out; the
        // first attempt of everything else fails transiently.
        let attempts = std::sync::atomic::AtomicUsize::new(0);
        let exec: Executor = Box::new(move |spec, limits: &RunLimits<'_>| {
            if limits.deadline_cycles < 100 {
                return JobOutcome::TimedOut(format!(
                    "deadline exceeded for {spec}: budget {} cycles",
                    limits.deadline_cycles
                ));
            }
            if attempts.fetch_add(1, std::sync::atomic::Ordering::SeqCst) == 0 {
                return JobOutcome::Failed(format!("transient stub failure for {spec}"));
            }
            stub(spec)
        });
        let opts = ServeOptions {
            retry_backoff_ms: 1,
            ..ServeOptions::default()
        };
        let server = Server::bind("127.0.0.1:0", &dir, opts, exec).expect("bind");
        let addr = server.local_addr().expect("addr");
        let daemon = std::thread::spawn(move || server.run().expect("serve"));

        let stream = TcpStream::connect(addr).expect("connect");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        let mut writer = stream;
        let submit = req_tolerant(
            &mut reader,
            &mut writer,
            r#"{"verb":"submit","jobs":[
                {"bench":"a","arch":"dmt_cgra"},
                {"bench":"b","arch":"mt_cgra"},
                {"bench":"c","arch":"fermi_sm","deadline_cycles":1}]}"#
                .replace('\n', " ")
                .as_str(),
        );
        assert_eq!(submit.get("ok"), Some(&Json::Bool(true)), "{submit:?}");
        let Some(Json::Arr(jobs)) = submit.get("jobs") else {
            panic!("no jobs in {submit:?}")
        };
        let hashes: Vec<String> = jobs
            .iter()
            .map(|j| j.get("job_hash").and_then(Json::as_str).unwrap().to_owned())
            .collect();
        // `status` keeps answering until every job is terminal.
        let mut states = Vec::new();
        for h in &hashes {
            loop {
                let s = req_tolerant(
                    &mut reader,
                    &mut writer,
                    &format!(r#"{{"verb":"status","job_hash":"{h}"}}"#),
                );
                match s.get("state").and_then(Json::as_str) {
                    Some(state @ ("done" | "failed" | "timed_out")) => {
                        states.push(state.to_owned());
                        break;
                    }
                    _ => std::thread::sleep(Duration::from_millis(5)),
                }
            }
        }
        req_tolerant(&mut reader, &mut writer, r#"{"verb":"drain"}"#);
        let summary = daemon.join().expect("daemon thread");
        // Every job reached exactly one typed terminal outcome: the two
        // retried jobs completed, the budgeted one timed out.
        assert_eq!(states.iter().filter(|s| *s == "done").count(), 2);
        assert_eq!(states.iter().filter(|s| *s == "timed_out").count(), 1);
        assert_eq!((summary.done, summary.failed, summary.timed_out), (2, 0, 1));
        // The injected schedule actually fired.
        let log = faults::render_log();
        assert!(
            log.contains("serve.request") && log.contains("cache.write"),
            "schedule must have fired: {log:?}"
        );
        let _ = std::fs::remove_dir_all(&dir);
        tx.send(()).expect("report");
    });
    // The whole scenario — retries, timeout, drain — must finish well
    // within the bound: a hang here is the bug this test exists for.
    rx.recv_timeout(Duration::from_secs(120))
        .expect("daemon scenario hung");
}
