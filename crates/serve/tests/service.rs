//! End-to-end daemon contracts, exercised over real TCP connections:
//!
//! 1. N concurrent clients submitting the same grid get byte-identical
//!    artifact JSON, and the bytes match across `threads 1` and
//!    `threads 4` daemons (real simulations, scan × all machines);
//! 2. duplicate submissions are cache hits: a warm restart on the same
//!    cache directory re-serves every artifact with **zero** executor
//!    invocations (counted, not inferred);
//! 3. `drain` finishes in-flight work before the server exits, and
//!    post-drain submissions are rejected;
//! 4. the admission bound rejects whole requests with the configured
//!    `retry_after_ms` hint, and admits again once the queue drains;
//! 5. malformed requests get `{"ok":false}` answers with context, and
//!    never wedge the connection;
//! 6. `metrics` tracks the daemon's life faithfully: queue and
//!    lifecycle totals move across submit → duplicate submit → drain,
//!    cache counters match the executions, per-verb latency histograms
//!    count every request, and finished jobs report `wall_ms`;
//! 7. transiently-failing jobs are retried with backoff until they
//!    succeed (attempt history reported) or exhaust the budget;
//! 8. jobs exceeding their `deadline_cycles` land in `timed_out` —
//!    permanently, without retry, and without poisoning the cache;
//! 9. a client disconnecting mid-request neither wedges the daemon nor
//!    leaks its work: other clients keep being served and drain is
//!    clean;
//! 10. hostile bytes are bounded: a request nested past the parser's
//!     depth limit and a line that is not UTF-8 get error answers on a
//!     connection that keeps working, and a line longer than
//!     `MAX_REQUEST_LINE` is answered and its connection recycled;
//! 11. a config override no launch can run under (a zero injection
//!     width) ends its job in a terminal state carrying the engine's
//!     typed error instead of parking a worker for ever, and drain is
//!     clean.

use dmt_runner::artifact::Json;
use dmt_runner::JobOutcome;
use dmt_serve::{Executor, ServeOptions, ServeSummary, Server};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// A unique, empty scratch directory per test (tests share one process).
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dmt_serve_{}_{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Boots a daemon on an ephemeral port; returns its address and the
/// thread that will yield the run summary once it drains.
fn boot(
    cache_dir: &Path,
    opts: ServeOptions,
    exec: Executor,
) -> (SocketAddr, JoinHandle<ServeSummary>) {
    let server = Server::bind("127.0.0.1:0", cache_dir, opts, exec).expect("bind");
    let addr = server.local_addr().expect("local addr");
    let handle = std::thread::spawn(move || server.run().expect("serve"));
    (addr, handle)
}

/// One line-delimited JSON client connection.
struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(addr: SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect");
        let reader = BufReader::new(stream.try_clone().expect("clone"));
        Client {
            reader,
            writer: stream,
        }
    }

    /// Sends one request line; returns the raw response line.
    fn req_raw(&mut self, line: &str) -> String {
        self.writer
            .write_all(format!("{line}\n").as_bytes())
            .expect("send");
        let mut resp = String::new();
        self.reader.read_line(&mut resp).expect("recv");
        assert!(resp.ends_with('\n'), "response is one full line: {resp:?}");
        resp.trim_end().to_owned()
    }

    fn req(&mut self, line: &str) -> Json {
        let raw = self.req_raw(line);
        Json::parse(&raw).unwrap_or_else(|e| panic!("bad response {raw:?}: {e}"))
    }

    /// Polls `status` until the job is done (or failed — asserted done).
    fn wait_done(&mut self, hash: &str) {
        for _ in 0..2000 {
            let resp = self.req(&format!(r#"{{"verb":"status","job_hash":"{hash}"}}"#));
            match resp.get("state").and_then(Json::as_str) {
                Some("done") => return,
                Some("failed") => panic!("job {hash} failed"),
                _ => std::thread::sleep(Duration::from_millis(5)),
            }
        }
        panic!("job {hash} never finished");
    }
}

fn ok(resp: &Json) -> bool {
    resp.get("ok") == Some(&Json::Bool(true))
}

/// The job hashes out of a submit response, in request order.
fn hashes(resp: &Json) -> Vec<String> {
    let Some(Json::Arr(jobs)) = resp.get("jobs") else {
        panic!("no jobs in {resp:?}")
    };
    jobs.iter()
        .map(|j| {
            j.get("job_hash")
                .and_then(Json::as_str)
                .expect("hash")
                .to_owned()
        })
        .collect()
}

/// The scan benchmark on all three machines — real simulations, small
/// enough for a debug-build test.
const SCAN_GRID: &str = r#"{"verb":"submit","jobs":[
    {"bench":"scan","arch":"fermi_sm"},
    {"bench":"scan","arch":"mt_cgra"},
    {"bench":"scan","arch":"dmt_cgra"}]}"#;

/// Stub executor counting invocations; outcomes are deterministic
/// functions of the spec so artifacts are comparable.
fn counting_exec(count: &Arc<AtomicUsize>) -> Executor {
    let count = Arc::clone(count);
    Box::new(move |spec, _| {
        count.fetch_add(1, Ordering::SeqCst);
        JobOutcome::Infeasible(format!("stub outcome for {spec}"))
    })
}

/// The real bench executor, honoring per-job limits.
fn bench_exec() -> Executor {
    Box::new(dmt_bench::execute_job_limited)
}

#[test]
fn concurrent_clients_get_identical_artifacts_across_thread_counts() {
    let mut by_threads: Vec<Vec<String>> = Vec::new();
    for threads in [1usize, 4] {
        let dir = scratch(&format!("identity_t{threads}"));
        let opts = ServeOptions {
            threads,
            ..ServeOptions::default()
        };
        let (addr, handle) = boot(&dir, opts, bench_exec());
        // Four clients race the same grid in; dedup admits each job once.
        let clients: Vec<_> = (0..4)
            .map(|_| {
                std::thread::spawn(move || {
                    let mut c = Client::connect(addr);
                    let resp = c.req(&SCAN_GRID.replace('\n', " "));
                    assert!(ok(&resp), "submit failed: {resp:?}");
                    let hs = hashes(&resp);
                    assert_eq!(hs.len(), 3);
                    for h in &hs {
                        c.wait_done(h);
                    }
                    // Fetch raw response lines — byte comparison below.
                    hs.iter()
                        .map(|h| c.req_raw(&format!(r#"{{"verb":"result","job_hash":"{h}"}}"#)))
                        .collect::<Vec<String>>()
                })
            })
            .collect();
        let fetched: Vec<Vec<String>> = clients.into_iter().map(|c| c.join().unwrap()).collect();
        // Every client saw the same bytes.
        for other in &fetched[1..] {
            assert_eq!(&fetched[0], other, "clients disagree");
        }
        Client::connect(addr).req(r#"{"verb":"drain"}"#);
        let summary = handle.join().unwrap();
        assert_eq!(
            summary,
            ServeSummary {
                done: 3,
                failed: 0,
                timed_out: 0
            }
        );
        by_threads.push(fetched.into_iter().next().unwrap());
    }
    // threads 1 vs threads 4: byte-identical artifact responses.
    assert_eq!(
        by_threads[0], by_threads[1],
        "thread count changed artifact bytes"
    );
    for line in &by_threads[0] {
        let doc = Json::parse(line).expect("result parses");
        assert!(ok(&doc));
        let artifact = doc.get("artifact").expect("artifact");
        assert_eq!(
            artifact.get("kind").and_then(Json::as_str),
            Some("job_cache_entry")
        );
        assert_eq!(artifact.get("status").and_then(Json::as_str), Some("ok"));
    }
}

#[test]
fn duplicate_submissions_are_cache_hits_with_zero_simulations() {
    let dir = scratch("dup");
    let grid = r#"{"verb":"submit","jobs":[{"bench":"a","arch":"dmt_cgra"},{"bench":"b","arch":"mt_cgra"}]}"#;

    // Cold daemon: two simulations, then in-table duplicates.
    let count = Arc::new(AtomicUsize::new(0));
    let (addr, handle) = boot(&dir, ServeOptions::default(), counting_exec(&count));
    let mut c = Client::connect(addr);
    let first = c.req(grid);
    assert!(ok(&first));
    let hs = hashes(&first);
    for h in &hs {
        c.wait_done(h);
    }
    assert_eq!(count.load(Ordering::SeqCst), 2);
    let again = c.req(grid);
    assert!(ok(&again));
    assert_eq!(hashes(&again), hs, "same grid, same hashes");
    let results_a: Vec<String> = hs
        .iter()
        .map(|h| c.req_raw(&format!(r#"{{"verb":"result","job_hash":"{h}"}}"#)))
        .collect();
    c.req(r#"{"verb":"drain"}"#);
    assert_eq!(handle.join().unwrap().done, 2);
    assert_eq!(
        count.load(Ordering::SeqCst),
        2,
        "duplicates must not simulate"
    );

    // Warm restart on the same cache directory: the memo table answers
    // everything; the executor is never invoked.
    let count2 = Arc::new(AtomicUsize::new(0));
    let (addr, handle) = boot(&dir, ServeOptions::default(), counting_exec(&count2));
    let mut c = Client::connect(addr);
    let warm = c.req(grid);
    assert!(ok(&warm));
    let Some(Json::Arr(jobs)) = warm.get("jobs") else {
        panic!("no jobs")
    };
    for job in jobs {
        assert_eq!(job.get("state").and_then(Json::as_str), Some("done"));
        assert_eq!(job.get("cached"), Some(&Json::Bool(true)));
    }
    // `status` by hash alone also answers from disk for unknown hashes
    // on a daemon that never ran the job.
    let status = c.req(&format!(r#"{{"verb":"status","job_hash":"{}"}}"#, hs[0]));
    assert!(ok(&status));
    assert_eq!(status.get("state").and_then(Json::as_str), Some("done"));
    let results_b: Vec<String> = hs
        .iter()
        .map(|h| c.req_raw(&format!(r#"{{"verb":"result","job_hash":"{h}"}}"#)))
        .collect();
    assert_eq!(results_a, results_b, "restart changed served bytes");
    c.req(r#"{"verb":"drain"}"#);
    let summary = handle.join().unwrap();
    assert_eq!(
        count2.load(Ordering::SeqCst),
        0,
        "warm daemon must not simulate"
    );
    assert_eq!(summary.done, 0, "nothing executed, only served");
}

#[test]
fn drain_finishes_in_flight_work_then_rejects() {
    let dir = scratch("drain");
    let exec: Executor = Box::new(|spec, _| {
        std::thread::sleep(Duration::from_millis(20));
        JobOutcome::Infeasible(format!("slow stub for {spec}"))
    });
    let (addr, handle) = boot(&dir, ServeOptions::default(), exec);
    let mut c = Client::connect(addr);
    let grid = r#"{"verb":"submit","jobs":[
        {"bench":"a","arch":"dmt_cgra"},{"bench":"b","arch":"dmt_cgra"},
        {"bench":"c","arch":"dmt_cgra"},{"bench":"d","arch":"dmt_cgra"}]}"#
        .replace('\n', " ");
    let resp = c.req(&grid);
    assert!(ok(&resp));
    // Drain races the sleeping executors; all four must still finish.
    let drained = c.req(r#"{"verb":"drain"}"#);
    assert!(ok(&drained));
    let summary = handle.join().unwrap();
    assert_eq!(
        summary,
        ServeSummary {
            done: 4,
            failed: 0,
            timed_out: 0
        }
    );
    // The lingering connection still answers; new work is refused.
    let refused = c.req(&grid);
    assert!(!ok(&refused));
    assert!(
        refused
            .get("error")
            .and_then(Json::as_str)
            .is_some_and(|e| e.contains("draining")),
        "{refused:?}"
    );
}

#[test]
fn full_queue_rejects_whole_requests_with_retry_hint() {
    let dir = scratch("backpressure");
    let gate = Arc::new(AtomicBool::new(false));
    let exec: Executor = {
        let gate = Arc::clone(&gate);
        Box::new(move |spec, _| {
            while !gate.load(Ordering::SeqCst) {
                std::thread::sleep(Duration::from_millis(2));
            }
            JobOutcome::Infeasible(format!("gated stub for {spec}"))
        })
    };
    let opts = ServeOptions {
        queue_depth: 2,
        retry_after_ms: 123,
        ..ServeOptions::default()
    };
    let (addr, handle) = boot(&dir, opts, exec);
    let mut c = Client::connect(addr);
    let fill = c.req(r#"{"verb":"submit","jobs":[{"bench":"a","arch":"dmt_cgra"},{"bench":"b","arch":"dmt_cgra"}]}"#);
    assert!(ok(&fill));
    let overflow = c.req(r#"{"verb":"submit","job":{"bench":"c","arch":"dmt_cgra"}}"#);
    assert!(!ok(&overflow), "third job must be rejected: {overflow:?}");
    // Base 123 plus deterministic jitter of up to half the base.
    let hint = overflow
        .get("retry_after_ms")
        .and_then(Json::as_u64)
        .expect("retry_after_ms");
    assert!((123..=184).contains(&hint), "hint {hint} out of range");
    // Resubmitting the admitted grid is free (no new queue slots).
    let dup = c.req(r#"{"verb":"submit","jobs":[{"bench":"a","arch":"dmt_cgra"},{"bench":"b","arch":"dmt_cgra"}]}"#);
    assert!(ok(&dup), "duplicates need no slots: {dup:?}");
    // Open the gate; once drained, the retried job is admitted.
    gate.store(true, Ordering::SeqCst);
    for h in hashes(&fill) {
        c.wait_done(&h);
    }
    let retry = c.req(r#"{"verb":"submit","job":{"bench":"c","arch":"dmt_cgra"}}"#);
    assert!(ok(&retry), "retry after drain must admit: {retry:?}");
    for h in hashes(&retry) {
        c.wait_done(&h);
    }
    c.req(r#"{"verb":"drain"}"#);
    assert_eq!(handle.join().unwrap().done, 3);
}

#[test]
fn metrics_track_submit_duplicate_and_drain() {
    let dir = scratch("metrics");
    let count = Arc::new(AtomicUsize::new(0));
    let (addr, handle) = boot(&dir, ServeOptions::default(), counting_exec(&count));
    let mut c = Client::connect(addr);

    // Helper views into the nested response.
    let num = |doc: &Json, path: [&str; 2]| {
        doc.get(path[0])
            .and_then(|s| s.get(path[1]))
            .and_then(Json::as_u64)
            .unwrap_or_else(|| panic!("missing {path:?} in {doc:?}"))
    };
    let verb_count = |doc: &Json, verb: &str| {
        doc.get("requests")
            .and_then(|r| r.get("latency_us"))
            .and_then(|l| l.get(verb))
            .and_then(|h| h.get("count"))
            .and_then(Json::as_u64)
            .unwrap_or_else(|| panic!("missing latency for {verb} in {doc:?}"))
    };

    // Fresh daemon: everything zero; all five verbs present. The
    // metrics request itself is recorded after its snapshot, so its
    // own histogram still reads 0 here.
    let fresh = c.req(r#"{"verb":"metrics"}"#);
    assert!(ok(&fresh));
    for path in [
        ["queue", "queued"],
        ["queue", "running"],
        ["queue", "outstanding"],
        ["jobs", "known"],
        ["jobs", "done"],
        ["jobs", "failed"],
        ["cache", "hits"],
        ["cache", "stores"],
        ["requests", "bad"],
    ] {
        assert_eq!(num(&fresh, path), 0, "{path:?} on a fresh daemon");
    }
    for verb in ["submit", "status", "result", "metrics", "drain"] {
        assert_eq!(verb_count(&fresh, verb), 0, "{verb} count on fresh daemon");
    }
    assert_eq!(num(&fresh, ["queue", "depth"]), 256);

    // Two real admissions: both were cache misses at classification,
    // both executed and stored.
    let grid = r#"{"verb":"submit","jobs":[{"bench":"a","arch":"dmt_cgra"},{"bench":"b","arch":"mt_cgra"}]}"#;
    let first = c.req(grid);
    assert!(ok(&first));
    let hs = hashes(&first);
    for h in &hs {
        c.wait_done(h);
    }
    let after = c.req(r#"{"verb":"metrics"}"#);
    assert_eq!(num(&after, ["jobs", "known"]), 2);
    assert_eq!(num(&after, ["jobs", "done"]), 2);
    assert_eq!(num(&after, ["jobs", "failed"]), 0);
    assert_eq!(num(&after, ["queue", "outstanding"]), 0);
    assert_eq!(num(&after, ["cache", "misses"]), 2);
    assert_eq!(num(&after, ["cache", "stores"]), 2);
    assert_eq!(num(&after, ["cache", "hits"]), 0);
    assert_eq!(verb_count(&after, "metrics"), 1, "the fresh-daemon call");
    assert!(verb_count(&after, "status") >= 2, "wait_done polls status");

    // Finished jobs report their executor wall-clock in status.
    let status = c.req(&format!(r#"{{"verb":"status","job_hash":"{}"}}"#, hs[0]));
    assert!(
        status.get("wall_ms").and_then(Json::as_u64).is_some(),
        "done jobs carry wall_ms: {status:?}"
    );

    // A duplicate submit touches neither the executor nor the cache
    // counters — only the submit histogram moves.
    let dup = c.req(grid);
    assert!(ok(&dup));
    let after_dup = c.req(r#"{"verb":"metrics"}"#);
    assert_eq!(count.load(Ordering::SeqCst), 2, "duplicates never execute");
    assert_eq!(num(&after_dup, ["jobs", "known"]), 2);
    assert_eq!(num(&after_dup, ["cache", "misses"]), 2);
    assert_eq!(verb_count(&after_dup, "submit"), 2);

    // Malformed lines are counted, not attributed to any verb.
    let bad = c.req("{");
    assert!(!ok(&bad));
    let after_bad = c.req(r#"{"verb":"metrics"}"#);
    assert_eq!(num(&after_bad, ["requests", "bad"]), 1);

    // Drain flips the flag; the lingering connection still reports.
    c.req(r#"{"verb":"drain"}"#);
    let drained = c.req(r#"{"verb":"metrics"}"#);
    assert_eq!(
        drained.get("queue").and_then(|q| q.get("draining")),
        Some(&Json::Bool(true))
    );
    assert_eq!(verb_count(&drained, "drain"), 1);
    assert_eq!(
        handle.join().unwrap(),
        ServeSummary {
            done: 2,
            failed: 0,
            timed_out: 0
        }
    );
}

#[test]
fn malformed_requests_get_contextual_errors() {
    let dir = scratch("errors");
    let opts = ServeOptions {
        benches: vec!["scan".into()],
        ..ServeOptions::default()
    };
    let (addr, handle) = boot(&dir, opts, counting_exec(&Arc::new(AtomicUsize::new(0))));
    let mut c = Client::connect(addr);
    for (req, needle) in [
        ("{", "bad JSON"),
        (r#"{"verb":"reboot"}"#, "unknown verb"),
        (r#"{"verb":"status","job_hash":"zz"}"#, "bad job hash"),
        (
            r#"{"verb":"status","job_hash":"ffffffffffffffff"}"#,
            "unknown job",
        ),
        (
            r#"{"verb":"result","job_hash":"ffffffffffffffff"}"#,
            "unknown job",
        ),
        (
            r#"{"verb":"submit","job":{"bench":"nosuch","arch":"dmt_cgra"}}"#,
            "unknown benchmark",
        ),
        (
            r#"{"verb":"submit","job":{"bench":"scan","arch":"warp9"}}"#,
            "",
        ),
    ] {
        let resp = c.req(req);
        assert!(!ok(&resp), "{req} must fail: {resp:?}");
        let err = resp
            .get("error")
            .and_then(Json::as_str)
            .expect("error field");
        assert!(err.contains(needle), "{req}: {err:?} missing {needle:?}");
    }
    // The connection survives all of the above.
    let good = c.req(r#"{"verb":"submit","job":{"bench":"scan","arch":"dmt_cgra"}}"#);
    assert!(ok(&good));
    for h in hashes(&good) {
        c.wait_done(&h);
    }
    c.req(r#"{"verb":"drain"}"#);
    assert_eq!(handle.join().unwrap().done, 1);
}

#[test]
fn transient_failures_retry_with_backoff_until_success() {
    let dir = scratch("retry");
    // Fail the first two attempts, then succeed: with max_retries 2
    // (three attempts total) the job must end done.
    let count = Arc::new(AtomicUsize::new(0));
    let exec: Executor = {
        let count = Arc::clone(&count);
        Box::new(move |spec, _| {
            if count.fetch_add(1, Ordering::SeqCst) < 2 {
                JobOutcome::Failed(format!("flaky stub for {spec}"))
            } else {
                JobOutcome::Infeasible(format!("stub outcome for {spec}"))
            }
        })
    };
    let opts = ServeOptions {
        max_retries: 2,
        retry_backoff_ms: 1,
        ..ServeOptions::default()
    };
    let (addr, handle) = boot(&dir, opts, exec);
    let mut c = Client::connect(addr);
    let resp = c.req(r#"{"verb":"submit","job":{"bench":"flaky","arch":"dmt_cgra"}}"#);
    assert!(ok(&resp));
    let h = hashes(&resp).remove(0);
    c.wait_done(&h);
    assert_eq!(
        count.load(Ordering::SeqCst),
        3,
        "two failures + one success"
    );
    // status reports the full attempt history, failures first.
    let status = c.req(&format!(r#"{{"verb":"status","job_hash":"{h}"}}"#));
    assert_eq!(status.get("attempts").and_then(Json::as_u64), Some(3));
    let Some(Json::Arr(history)) = status.get("history") else {
        panic!("no history in {status:?}")
    };
    let statuses: Vec<_> = history
        .iter()
        .map(|a| a.get("status").and_then(Json::as_str).expect("status"))
        .collect();
    assert_eq!(statuses, ["failed", "failed", "infeasible"]);
    assert!(
        history[0]
            .get("error")
            .and_then(Json::as_str)
            .is_some_and(|e| e.contains("flaky stub")),
        "{history:?}"
    );
    c.req(r#"{"verb":"drain"}"#);
    assert_eq!(
        handle.join().unwrap(),
        ServeSummary {
            done: 1,
            failed: 0,
            timed_out: 0
        }
    );
}

#[test]
fn exhausted_retries_mark_the_job_failed_with_history() {
    let dir = scratch("exhaust");
    let exec: Executor = Box::new(|spec, _| JobOutcome::Failed(format!("always fails: {spec}")));
    let opts = ServeOptions {
        max_retries: 1,
        retry_backoff_ms: 1,
        ..ServeOptions::default()
    };
    let (addr, handle) = boot(&dir, opts, exec);
    let mut c = Client::connect(addr);
    let resp = c.req(r#"{"verb":"submit","job":{"bench":"doomed","arch":"dmt_cgra"}}"#);
    assert!(ok(&resp));
    let h = hashes(&resp).remove(0);
    // Poll until the retry budget (two attempts) is spent.
    let status = loop {
        let s = c.req(&format!(r#"{{"verb":"status","job_hash":"{h}"}}"#));
        if s.get("state").and_then(Json::as_str) == Some("failed") {
            break s;
        }
        std::thread::sleep(Duration::from_millis(5));
    };
    assert_eq!(status.get("attempts").and_then(Json::as_u64), Some(2));
    // A failed job has no artifact to serve.
    let result = c.req(&format!(r#"{{"verb":"result","job_hash":"{h}"}}"#));
    assert!(!ok(&result));
    assert_eq!(result.get("state").and_then(Json::as_str), Some("failed"));
    c.req(r#"{"verb":"drain"}"#);
    assert_eq!(
        handle.join().unwrap(),
        ServeSummary {
            done: 0,
            failed: 1,
            timed_out: 0
        }
    );
}

#[test]
fn deadline_cycles_times_out_without_retry_or_cache_poisoning() {
    let dir = scratch("deadline");
    let (addr, handle) = boot(&dir, ServeOptions::default(), bench_exec());
    let mut c = Client::connect(addr);
    // The same spec with and without a one-cycle budget: the budgeted
    // job times out, the free one completes.
    let resp = c.req(
        r#"{"verb":"submit","jobs":[
            {"bench":"scan","arch":"dmt_cgra","deadline_cycles":1},
            {"bench":"scan","arch":"mt_cgra"}]}"#
            .replace('\n', " ")
            .as_str(),
    );
    assert!(ok(&resp), "{resp:?}");
    let hs = hashes(&resp);
    let timed = loop {
        let s = c.req(&format!(r#"{{"verb":"status","job_hash":"{}"}}"#, hs[0]));
        if s.get("state").and_then(Json::as_str) == Some("timed_out") {
            break s;
        }
        std::thread::sleep(Duration::from_millis(5));
    };
    // Timed out is permanent for the budget: exactly one attempt.
    assert_eq!(timed.get("attempts").and_then(Json::as_u64), Some(1));
    assert!(
        timed
            .get("error")
            .and_then(Json::as_str)
            .is_some_and(|e| e.contains("deadline")),
        "{timed:?}"
    );
    c.wait_done(&hs[1]);
    let result = c.req(&format!(r#"{{"verb":"result","job_hash":"{}"}}"#, hs[0]));
    assert!(!ok(&result));
    assert_eq!(
        result.get("state").and_then(Json::as_str),
        Some("timed_out")
    );
    let metrics = c.req(r#"{"verb":"metrics"}"#);
    assert_eq!(
        metrics
            .get("jobs")
            .and_then(|j| j.get("timed_out"))
            .and_then(Json::as_u64),
        Some(1)
    );
    // Nothing timed out was cached: only the completing job stored.
    assert_eq!(
        metrics
            .get("cache")
            .and_then(|j| j.get("stores"))
            .and_then(Json::as_u64),
        Some(1)
    );
    c.req(r#"{"verb":"drain"}"#);
    assert_eq!(
        handle.join().unwrap(),
        ServeSummary {
            done: 1,
            failed: 0,
            timed_out: 1
        }
    );
}

#[test]
fn zero_injection_width_override_ends_the_job_instead_of_a_worker() {
    let dir = scratch("zero_width");
    let (addr, handle) = boot(&dir, ServeOptions::default(), bench_exec());
    let mut c = Client::connect(addr);
    // No deadline. Before the engines validated their configuration, the
    // first two overrides spun a worker's cycle loop for ever (no thread
    // is ever injected; no miss ever gets an MSHR) and the third aborted
    // the process allocating 32 GB of bank state.
    for (leaf, value, refusal) in [
        ("fabric.threads_injected_per_cycle", 0, "must be at least 1"),
        ("mem.l1.mshrs", 0, "must be at least 1"),
        ("mem.l1.banks", 4_000_000_000u64, "must be at most 4096"),
    ] {
        let resp = c.req(&format!(
            r#"{{"verb":"submit","jobs":[{{"bench":"scan","arch":"dmt_cgra","config":{{"{leaf}":{value}}}}}]}}"#
        ));
        assert!(ok(&resp), "{leaf}: {resp:?}");
        let hs = hashes(&resp);
        c.wait_done(&hs[0]);
        let result = c.req_raw(&format!(r#"{{"verb":"result","job_hash":"{}"}}"#, hs[0]));
        assert!(
            result.contains(r#""status":"infeasible""#)
                && result.contains(&format!("{leaf} {refusal}")),
            "{result}"
        );
        // Refused up front, not counted as a transient failure and retried.
        let status = c.req(&format!(r#"{{"verb":"status","job_hash":"{}"}}"#, hs[0]));
        assert_eq!(
            status.get("attempts").and_then(Json::as_u64),
            Some(1),
            "{leaf}: {status:?}"
        );
    }
    c.req(r#"{"verb":"drain"}"#);
    // Watchdog: a parked worker would make this join hang, not fail.
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || tx.send(handle.join().expect("serve thread")));
    let summary = rx
        .recv_timeout(Duration::from_secs(60))
        .expect("daemon drains: no worker is stuck in the cycle loop");
    assert_eq!(
        summary,
        ServeSummary {
            done: 3,
            failed: 0,
            timed_out: 0
        }
    );
}

#[test]
fn client_disconnect_mid_request_leaves_the_daemon_serving() {
    let dir = scratch("disconnect");
    let count = Arc::new(AtomicUsize::new(0));
    let (addr, handle) = boot(&dir, ServeOptions::default(), counting_exec(&count));
    // One client drops mid-line (no newline, connection closed); another
    // submits half a grid and vanishes before reading its response.
    {
        let mut rude = TcpStream::connect(addr).expect("connect");
        rude.write_all(br#"{"verb":"submit","job"#).expect("send");
    }
    {
        let mut fire_and_forget = TcpStream::connect(addr).expect("connect");
        fire_and_forget
            .write_all(b"{\"verb\":\"submit\",\"job\":{\"bench\":\"a\",\"arch\":\"dmt_cgra\"}}\n")
            .expect("send");
        // Dropped without reading: the daemon's write may fail mid-response.
    }
    // The daemon still serves a well-behaved client, and the abandoned
    // job still runs to completion.
    let mut c = Client::connect(addr);
    let resp = c.req(r#"{"verb":"submit","job":{"bench":"b","arch":"dmt_cgra"}}"#);
    assert!(ok(&resp), "{resp:?}");
    for h in hashes(&resp) {
        c.wait_done(&h);
    }
    c.req(r#"{"verb":"drain"}"#);
    let summary = handle.join().unwrap();
    assert_eq!(summary.failed, 0);
    assert_eq!(summary.timed_out, 0);
    // Both the abandoned and the attended submissions executed.
    assert_eq!(
        summary.done,
        u64::try_from(count.load(Ordering::SeqCst)).unwrap()
    );
    assert!(summary.done >= 1, "the attended job must have run");
}

#[test]
fn hostile_request_bytes_are_refused_within_bounds() {
    use dmt_serve::server::MAX_REQUEST_LINE;
    let dir = scratch("hostile");
    let count = Arc::new(AtomicUsize::new(0));
    let (addr, handle) = boot(&dir, ServeOptions::default(), counting_exec(&count));
    let error_of = |resp: &Json| {
        assert!(!ok(resp), "{resp:?}");
        resp.get("error")
            .and_then(Json::as_str)
            .expect("error field")
            .to_owned()
    };

    // Deep nesting inside the line bound: the parser's own limit answers,
    // where an unbounded descent would have overflowed the handler's stack.
    let mut c = Client::connect(addr);
    let err = error_of(&c.req(&"[".repeat(100_000)));
    assert_eq!(err, "bad JSON: nesting deeper than 128 at byte 128");

    // Bytes that are not UTF-8 still end at a newline, so the line is
    // refused and the connection stays in step.
    c.writer.write_all(b"{\"verb\":\xff\xfe}\n").expect("send");
    let mut raw = String::new();
    c.reader.read_line(&mut raw).expect("recv");
    assert_eq!(
        error_of(&Json::parse(raw.trim_end()).expect("one JSON line")),
        "request is not valid UTF-8"
    );
    assert!(
        ok(&c.req(r#"{"verb":"metrics"}"#)),
        "connection still in step"
    );

    // One byte past the bound with no newline in sight: answered from the
    // bounded buffer, then the connection is closed. Exactly the bytes the
    // daemon reads are sent, so its close is a clean FIN and the answer
    // is not lost to a reset.
    let mut long = Client::connect(addr);
    long.writer
        .write_all(&vec![b'x'; MAX_REQUEST_LINE + 1])
        .expect("send");
    let mut raw = String::new();
    long.reader.read_line(&mut raw).expect("recv");
    assert_eq!(
        error_of(&Json::parse(raw.trim_end()).expect("one JSON line")),
        "request line too long"
    );
    raw.clear();
    assert_eq!(long.reader.read_line(&mut raw).expect("eof"), 0, "{raw:?}");

    // All three count as bad requests, none reached an executor, and the
    // daemon drains clean.
    let metrics = c.req(r#"{"verb":"metrics"}"#);
    let bad = metrics.get("requests").and_then(|r| r.get("bad"));
    assert_eq!(bad.and_then(Json::as_u64), Some(3), "{metrics:?}");
    c.req(r#"{"verb":"drain"}"#);
    assert_eq!(handle.join().unwrap().done, 0);
    assert_eq!(count.load(Ordering::SeqCst), 0);
}

#[test]
fn retry_hints_are_deterministic_across_daemons() {
    // The same rejection sequence produces the same jittered hints on
    // two independent daemons (the ordinal, not the clock, drives it).
    let mut runs: Vec<Vec<u64>> = Vec::new();
    for tag in ["jitter_a", "jitter_b"] {
        let dir = scratch(tag);
        let gate = Arc::new(AtomicBool::new(false));
        let exec: Executor = {
            let gate = Arc::clone(&gate);
            Box::new(move |spec, _| {
                while !gate.load(Ordering::SeqCst) {
                    std::thread::sleep(Duration::from_millis(2));
                }
                JobOutcome::Infeasible(format!("gated stub for {spec}"))
            })
        };
        let opts = ServeOptions {
            queue_depth: 1,
            retry_after_ms: 100,
            ..ServeOptions::default()
        };
        let (addr, handle) = boot(&dir, opts, exec);
        let mut c = Client::connect(addr);
        let fill = c.req(r#"{"verb":"submit","job":{"bench":"a","arch":"dmt_cgra"}}"#);
        assert!(ok(&fill));
        let hints: Vec<u64> = (0..4)
            .map(|_| {
                let resp = c.req(r#"{"verb":"submit","job":{"bench":"z","arch":"dmt_cgra"}}"#);
                assert!(!ok(&resp));
                let hint = resp
                    .get("retry_after_ms")
                    .and_then(Json::as_u64)
                    .expect("hint");
                assert!((100..=150).contains(&hint), "hint {hint} out of range");
                hint
            })
            .collect();
        gate.store(true, Ordering::SeqCst);
        for h in hashes(&fill) {
            c.wait_done(&h);
        }
        c.req(r#"{"verb":"drain"}"#);
        handle.join().unwrap();
        runs.push(hints);
    }
    assert_eq!(runs[0], runs[1], "hints must not depend on the clock");
}
