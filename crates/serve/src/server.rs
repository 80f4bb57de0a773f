//! The daemon: TCP accept loop, per-connection handlers, and the
//! dispatcher that feeds admitted jobs to the worker pool.
//!
//! Concurrency shape: one nonblocking accept loop (the thread that
//! called [`Server::run`]), one detached handler thread per connection,
//! and one dispatcher thread. All shared state is [`Inner`] behind a
//! single mutex plus a condvar the dispatcher waits on; executors run
//! outside the lock. The dispatcher takes the whole admission queue as
//! a batch, sorts it by [`cost_order`] (longest first, from the cache's
//! observed costs), and runs it on the runner's index-ordered pool — so
//! an idle daemon that receives a grid schedules it exactly like the
//! batch runner would. The cost table is read from the cache directory
//! once, at [`Server::bind`]; after that every completed job records its
//! own cycles into it, so no dispatch re-reads the directory.
//!
//! # Input bounds
//!
//! A request line is read through a bounded reader: at most
//! [`MAX_REQUEST_LINE`] bytes are buffered, a longer line is answered
//! `{"ok":false,"error":"request line too long"}` and the connection
//! recycled (the answer is best effort when the client is still
//! writing). Bytes that are not UTF-8 get an error answer too; nesting
//! is bounded by the parser ([`dmt_common::json::MAX_DEPTH`]).
//!
//! # Failure handling
//!
//! Every executor attempt runs under `catch_unwind` with a per-job
//! [`RunLimits`] deadline. Outcomes are classified:
//!
//! * **done** (`ok`/`infeasible`) — stored to the cache, counted;
//! * **timed out** — permanent for the budget it ran under, never
//!   cached, counted separately;
//! * **transient** (panic, cancellation, injected fault) — re-queued
//!   with exponential backoff plus deterministic jitter, up to
//!   `max_retries` extra attempts, then marked failed. Nothing
//!   transient is ever cached, so a resubmission after restart retries.
//!
//! Client connections are likewise expendable: a read or write error is
//! logged and the connection recycled; a panicking request handler
//! answers `{"ok":false}` instead of killing the handler thread.

use crate::protocol::{self, parse_request, Request, SubmitJob};
use crate::state::{AttemptRecord, Inner, JobEntry, JobState, Retry};
use dmt_common::faults;
use dmt_common::RunLimits;
use dmt_runner::artifact::{Json, SCHEMA_VERSION};
use dmt_runner::cache::cost_order;
use dmt_runner::{panic_message, Cache, JobOutcome, JobSpec};
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// The longest request line the daemon buffers, in bytes (the newline
/// not counted). The largest legitimate request — a `submit` of a whole
/// sweep grid — is a few hundred bytes per job.
pub const MAX_REQUEST_LINE: usize = 1 << 20;

/// How a job outcome is produced; injected so tests can count or gate
/// executions. The executor must honor the [`RunLimits`] cooperatively
/// (the bench executor's `execute_job_limited` does).
pub type Executor = Box<dyn Fn(&JobSpec, &RunLimits<'_>) -> JobOutcome + Send + Sync>;

/// Daemon tuning knobs.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Worker threads for the dispatch pool.
    pub threads: usize,
    /// Admission bound: maximum queued + running jobs. A `submit` that
    /// would push `outstanding` past this is rejected whole with a
    /// `retry_after_ms` hint.
    pub queue_depth: usize,
    /// The base hint returned with a backpressure rejection; each
    /// rejection adds deterministic jitter (up to half the base) so a
    /// thundering herd of rejected clients does not retry in lockstep.
    pub retry_after_ms: u64,
    /// Extra executor attempts granted to transiently-failed jobs
    /// (panic, cancellation, injected fault). 0 disables retry.
    pub max_retries: u32,
    /// Base backoff before a retry attempt; doubles per attempt (capped
    /// at 64×) plus deterministic jitter from the job hash.
    pub retry_backoff_ms: u64,
    /// Default simulated-cycle budget for jobs that do not carry their
    /// own `deadline_cycles`; `None` means unlimited.
    pub deadline_cycles: Option<u64>,
    /// Accepted benchmark names; empty means accept any.
    pub benches: Vec<String>,
}

impl Default for ServeOptions {
    fn default() -> ServeOptions {
        ServeOptions {
            threads: 1,
            queue_depth: 256,
            retry_after_ms: 500,
            max_retries: 2,
            retry_backoff_ms: 50,
            deadline_cycles: None,
            benches: Vec::new(),
        }
    }
}

/// What the daemon did over its lifetime, returned by [`Server::run`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeSummary {
    /// Jobs executed to completion.
    pub done: u64,
    /// Jobs that exhausted their retry budget.
    pub failed: u64,
    /// Jobs that exceeded their simulated-cycle deadline.
    pub timed_out: u64,
}

struct Shared {
    opts: ServeOptions,
    cache: Cache,
    exec: Executor,
    inner: Mutex<Inner>,
    work: Condvar,
}

/// Locks the state, recovering from poisoning: a panicking handler
/// thread must not wedge the daemon (the state it guards is counters
/// and a job table, each updated atomically under one lock hold).
fn lock_inner(shared: &Shared) -> MutexGuard<'_, Inner> {
    shared.inner.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A bound, not-yet-running daemon.
pub struct Server {
    listener: TcpListener,
    shared: Arc<Shared>,
}

impl Server {
    /// Binds the listener and opens (creating if needed) the result
    /// cache that backs `result` responses and restart memoization. The
    /// one scan of the cache directory happens here: it seeds the
    /// dispatcher's cost table.
    pub fn bind(
        addr: impl ToSocketAddrs,
        cache_dir: &Path,
        opts: ServeOptions,
        exec: Executor,
    ) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let cache = Cache::open(cache_dir)?;
        let inner = Inner {
            cost_index: cache.cost_index(),
            ..Inner::default()
        };
        Ok(Server {
            listener,
            shared: Arc::new(Shared {
                opts,
                cache,
                exec,
                inner: Mutex::new(inner),
                work: Condvar::new(),
            }),
        })
    }

    /// The bound address (useful after binding port 0).
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Serves until a `drain` request has been honored: accepts
    /// connections, finishes all admitted work (including pending
    /// retries), then returns the lifetime summary (and prints the
    /// cache report to stderr).
    pub fn run(self) -> io::Result<ServeSummary> {
        let addr = self.listener.local_addr()?;
        eprintln!(
            "[dmt-serve] listening on {addr} (threads {}, queue depth {}, cache {})",
            self.shared.opts.threads,
            self.shared.opts.queue_depth,
            self.shared.cache.dir().display()
        );
        self.listener.set_nonblocking(true)?;
        let dispatcher = {
            let shared = Arc::clone(&self.shared);
            std::thread::spawn(move || dispatch(&shared))
        };
        loop {
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    let shared = Arc::clone(&self.shared);
                    std::thread::spawn(move || handle_client(&shared, stream));
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    if lock_inner(&self.shared).draining {
                        break;
                    }
                    std::thread::sleep(Duration::from_millis(15));
                }
                Err(e) => return Err(e),
            }
        }
        drop(self.listener);
        dispatcher.join().expect("dispatcher thread");
        self.shared.cache.report();
        let inner = lock_inner(&self.shared);
        eprintln!(
            "[dmt-serve] drained: {} done, {} failed, {} timed out; exiting",
            inner.done, inner.failed, inner.timed_out
        );
        Ok(ServeSummary {
            done: inner.done,
            failed: inner.failed,
            timed_out: inner.timed_out,
        })
    }
}

/// The dispatcher loop: wait for admitted work (promoting due retries
/// back into the queue), take the whole queue as a batch, cost-sort it,
/// run it on the worker pool. Returns once draining is set and both the
/// queue and the retry schedule are empty.
fn dispatch(shared: &Shared) {
    loop {
        let sorted: Vec<JobSpec> = {
            let mut inner = lock_inner(shared);
            loop {
                // Promote retries whose backoff has elapsed.
                let now = Instant::now();
                let mut due = Vec::new();
                inner.retries.retain(|r| {
                    if r.due <= now {
                        due.push(r.hash);
                        false
                    } else {
                        true
                    }
                });
                inner.queue.extend(due);
                if !inner.queue.is_empty() {
                    break;
                }
                if inner.draining && inner.retries.is_empty() {
                    return;
                }
                // Sleep until the earliest retry is due; submit/drain
                // notifications wake the wait early.
                let wait = inner
                    .retries
                    .iter()
                    .map(|r| r.due.saturating_duration_since(now))
                    .min()
                    .unwrap_or(Duration::from_secs(3600));
                let (guard, _) = shared
                    .work
                    .wait_timeout(inner, wait)
                    .unwrap_or_else(PoisonError::into_inner);
                inner = guard;
            }
            // Longest-first over the whole batch, from the costs observed
            // so far — the same policy the batch runner applies to misses.
            let hashes = std::mem::take(&mut inner.queue);
            let batch: Vec<&JobSpec> = hashes.iter().map(|h| &inner.jobs[h].spec).collect();
            let order = cost_order(&batch, &inner.cost_index);
            order.iter().map(|&i| batch[i].clone()).collect()
        };
        // run_indexed rather than ExecPlan: the daemon does its own
        // outcome accounting (retry, timed_out, history) in run_one, and
        // the plan's job-level fault isolation would produce outcomes
        // outside that accounting.
        dmt_runner::run_indexed(sorted.len(), shared.opts.threads, |i| {
            run_one(shared, &sorted[i]);
        });
    }
}

/// Executes one admitted job attempt: marks it running, runs the
/// executor under `catch_unwind` with the job's deadline, classifies
/// the outcome (done / timed out / transient), stores cacheable
/// outcomes, and updates the table — scheduling a backoff retry for
/// transient failures with budget left.
fn run_one(shared: &Shared, spec: &JobSpec) {
    let hash = spec.job_hash();
    let (attempt, deadline) = {
        let mut inner = lock_inner(shared);
        match inner.jobs.get_mut(&hash) {
            Some(entry) => {
                entry.state = JobState::Running;
                entry.attempts += 1;
                (
                    entry.attempts,
                    entry.deadline_cycles.or(shared.opts.deadline_cycles),
                )
            }
            None => (1, shared.opts.deadline_cycles),
        }
    };
    let limits = RunLimits {
        deadline_cycles: deadline.unwrap_or(u64::MAX),
        cancel: None,
    };
    let start = Instant::now();
    let result = catch_unwind(AssertUnwindSafe(|| (shared.exec)(spec, &limits)));
    let ms = u64::try_from(start.elapsed().as_millis()).unwrap_or(u64::MAX);
    let outcome = match result {
        Ok(outcome) => outcome,
        Err(payload) => {
            JobOutcome::Failed(format!("executor panicked: {}", panic_message(payload)))
        }
    };
    // The cache itself refuses transient and timed-out outcomes; this
    // guard just skips the I/O (and the store-failure warning) for them.
    if outcome.cacheable() {
        if let Err(e) = shared.cache.store(spec, &outcome) {
            eprintln!(
                "[dmt-serve] warning: cache store failed for {spec}: {e} ({})",
                shared.cache.entry_path(spec).display()
            );
        }
    }
    let record = AttemptRecord {
        status: outcome.status(),
        wall_ms: ms,
        error: outcome.error().map(str::to_owned),
    };
    let key = protocol::hash_str(hash);
    let mut inner = lock_inner(shared);
    match &outcome {
        JobOutcome::Completed(_) | JobOutcome::Infeasible(_) => {
            if let Some(metrics) = outcome.metrics() {
                inner
                    .cost_index
                    .record(&spec.bench, spec.arch.key(), metrics.cycles());
            }
            if let Some(entry) = inner.jobs.get_mut(&hash) {
                entry.state = JobState::Done;
                entry.error = None;
                entry.wall_ms = Some(ms);
                entry.history.push(record);
            }
            inner.outstanding = inner.outstanding.saturating_sub(1);
            inner.done += 1;
            eprintln!(
                "[dmt-serve] {key}: {spec} {} in {ms} ms (attempt {attempt})",
                outcome.status()
            );
        }
        JobOutcome::TimedOut(msg) => {
            if let Some(entry) = inner.jobs.get_mut(&hash) {
                entry.state = JobState::TimedOut;
                entry.error = Some(msg.clone());
                entry.wall_ms = Some(ms);
                entry.history.push(record);
            }
            inner.outstanding = inner.outstanding.saturating_sub(1);
            inner.timed_out += 1;
            eprintln!(
                "[dmt-serve] {key}: {spec} TIMED OUT after {ms} ms (attempt {attempt}): {msg}"
            );
        }
        JobOutcome::Failed(msg) => {
            if attempt <= shared.opts.max_retries {
                // Transient, budget left: exponential backoff (base ×
                // 2^(attempt-1), capped at 64×) plus jitter derived
                // deterministically from the job hash and attempt.
                let backoff = shared.opts.retry_backoff_ms << (attempt - 1).min(6);
                let jitter = faults::splitmix64(hash ^ u64::from(attempt)) % (backoff / 2 + 1);
                let delay = Duration::from_millis(backoff + jitter);
                if let Some(entry) = inner.jobs.get_mut(&hash) {
                    entry.state = JobState::Queued;
                    entry.error = Some(msg.clone());
                    entry.wall_ms = Some(ms);
                    entry.history.push(record);
                }
                inner.retries.push(Retry {
                    hash,
                    due: Instant::now() + delay,
                });
                eprintln!(
                    "[dmt-serve] {key}: {spec} failed transiently (attempt {attempt}/{}), \
                     retrying in {} ms: {msg}",
                    shared.opts.max_retries + 1,
                    delay.as_millis()
                );
                // The dispatcher may be asleep with no other work: wake
                // it so it re-computes its wait for the new due time.
                shared.work.notify_all();
            } else {
                if let Some(entry) = inner.jobs.get_mut(&hash) {
                    entry.state = JobState::Failed;
                    entry.error = Some(msg.clone());
                    entry.wall_ms = Some(ms);
                    entry.history.push(record);
                }
                inner.outstanding = inner.outstanding.saturating_sub(1);
                inner.failed += 1;
                eprintln!(
                    "[dmt-serve] {key}: {spec} FAILED after {ms} ms \
                     (attempt {attempt}, retries exhausted): {msg}"
                );
            }
        }
    }
}

/// One connection: read request lines, write one compact response line
/// each, until the client hangs up. I/O errors (client disconnected
/// mid-request or mid-response) are logged and the connection recycled;
/// they never take the daemon down.
fn handle_client(shared: &Shared, stream: TcpStream) {
    if faults::hit(faults::site::SERVE_CONN) {
        eprintln!("[dmt-serve] injected fault: dropping connection (serve.conn)");
        return;
    }
    // The accepted socket must block even though the listener does not.
    if stream.set_nonblocking(false).is_err() {
        return;
    }
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut writer = stream;
    let mut line = Vec::new();
    loop {
        let read = match read_request_line(&mut reader, &mut line) {
            Ok(read) => read,
            Err(e) => {
                eprintln!("[dmt-serve] client read error: {e}; recycling connection");
                break;
            }
        };
        let doc = match read {
            LineRead::Eof => break,
            LineRead::TooLong => refuse(shared, "request line too long"),
            LineRead::Line => match std::str::from_utf8(&line) {
                Ok(text) if text.trim().is_empty() => continue,
                Ok(text) => respond(shared, text),
                Err(_) => refuse(shared, "request is not valid UTF-8"),
            },
        };
        let mut out = doc.render_compact();
        out.push('\n');
        if let Err(e) = writer.write_all(out.as_bytes()) {
            eprintln!("[dmt-serve] client write error: {e}; recycling connection");
            break;
        }
        if read == LineRead::TooLong {
            // The rest of the line cannot be skipped in bounded time.
            break;
        }
    }
}

/// What [`read_request_line`] found on the connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LineRead {
    /// The client hung up with nothing pending.
    Eof,
    /// `line` holds one request, its terminator stripped.
    Line,
    /// More than [`MAX_REQUEST_LINE`] bytes arrived without a newline;
    /// `line` holds the part that was read.
    TooLong,
}

/// Reads one `\n`- or `\r\n`-terminated line into `line`, buffering at
/// most [`MAX_REQUEST_LINE`] + 1 bytes however long the client's line is.
/// A final line without a terminator counts as a line.
fn read_request_line(reader: &mut impl BufRead, line: &mut Vec<u8>) -> io::Result<LineRead> {
    line.clear();
    let n = reader
        .take(MAX_REQUEST_LINE as u64 + 1)
        .read_until(b'\n', line)?;
    if n == 0 {
        return Ok(LineRead::Eof);
    }
    if line.last() == Some(&b'\n') {
        line.pop();
        if line.last() == Some(&b'\r') {
            line.pop();
        }
    } else if line.len() > MAX_REQUEST_LINE {
        return Ok(LineRead::TooLong);
    }
    Ok(LineRead::Line)
}

/// Answers a line that never reached the request parser; counted with
/// the other `bad_requests`.
fn refuse(shared: &Shared, error: &str) -> Json {
    eprintln!("[dmt-serve] request error: {error}");
    lock_inner(shared).bad_requests += 1;
    Json::obj().with("ok", false).with("error", error)
}

/// Parses and dispatches one request line, recording its wall-clock
/// into the matching per-verb latency histogram (microseconds). Lines
/// that fail to parse have no verb to attribute and count as
/// `bad_requests`. A panicking verb handler answers `{"ok":false}`
/// instead of killing the connection.
fn respond(shared: &Shared, line: &str) -> Json {
    let start = Instant::now();
    let parsed = parse_request(line);
    let verb = parsed.as_ref().ok().map(Request::verb_index);
    let doc = if faults::hit(faults::site::SERVE_REQUEST) {
        eprintln!("[dmt-serve] injected fault: failing request (serve.request)");
        Json::obj()
            .with("ok", false)
            .with("error", "injected fault: serve.request")
    } else {
        let handled = catch_unwind(AssertUnwindSafe(|| match parsed {
            Err(e) => {
                eprintln!("[dmt-serve] request error: {e}");
                Json::obj().with("ok", false).with("error", e)
            }
            Ok(Request::Submit(jobs)) => submit(shared, jobs),
            Ok(Request::Status(hash)) => status(shared, hash),
            Ok(Request::Result(hash)) => result(shared, hash),
            Ok(Request::Metrics) => metrics(shared),
            Ok(Request::Drain) => drain(shared),
        }));
        handled.unwrap_or_else(|payload| {
            let msg = panic_message(payload);
            eprintln!("[dmt-serve] request handler panicked: {msg}");
            Json::obj()
                .with("ok", false)
                .with("error", format!("internal error: {msg}"))
        })
    };
    let us = u64::try_from(start.elapsed().as_micros()).unwrap_or(u64::MAX);
    let mut inner = lock_inner(shared);
    match verb {
        Some(ix) => inner.latency[ix].record(us),
        None => inner.bad_requests += 1,
    }
    doc
}

/// The `metrics` response: a point-in-time snapshot of queue pressure,
/// job lifecycle totals, cache effectiveness and request latencies.
/// The snapshot is taken under one lock hold, so the queue numbers are
/// mutually consistent; the reporting `metrics` request itself is only
/// recorded after the snapshot (its own latency shows up next call).
fn metrics(shared: &Shared) -> Json {
    let cache = shared.cache.stats();
    let inner = lock_inner(shared);
    let (mut queued, mut running) = (0u64, 0u64);
    for entry in inner.jobs.values() {
        match entry.state {
            JobState::Queued => queued += 1,
            JobState::Running => running += 1,
            JobState::Done | JobState::Failed | JobState::TimedOut => {}
        }
    }
    let mut latency = Json::obj();
    for (name, hist) in protocol::VERBS.iter().zip(&inner.latency) {
        latency = latency.with(name, hist.to_json());
    }
    Json::obj()
        .with("ok", true)
        .with(
            "queue",
            Json::obj()
                .with("queued", queued)
                .with("running", running)
                .with("retrying", inner.retries.len() as u64)
                .with("outstanding", inner.outstanding as u64)
                .with("depth", shared.opts.queue_depth as u64)
                .with("rejections", inner.rejections)
                .with("draining", inner.draining),
        )
        .with(
            "jobs",
            Json::obj()
                .with("known", inner.jobs.len() as u64)
                .with("done", inner.done)
                .with("failed", inner.failed)
                .with("timed_out", inner.timed_out),
        )
        .with(
            "cache",
            Json::obj()
                .with("hits", cache.hits)
                .with("misses", cache.misses)
                .with("stores", cache.stores)
                .with("store_failures", cache.store_failures)
                .with("schema_invalidated", cache.schema_invalidated),
        )
        .with(
            "requests",
            Json::obj()
                .with("bad", inner.bad_requests)
                .with("latency_us", latency),
        )
}

/// Admission. The whole request is examined under one lock hold:
/// unknown benchmarks reject it, and if the genuinely-new jobs would
/// push `outstanding` past the bound it is rejected whole (no partial
/// admission) with a jittered `retry_after_ms` hint. Otherwise every
/// job gets a table entry: duplicates of known jobs report their
/// current state, cache hits are born `done` without touching the pool,
/// and the rest join the queue.
fn submit(shared: &Shared, jobs: Vec<SubmitJob>) -> Json {
    if !shared.opts.benches.is_empty() {
        if let Some(bad) = jobs
            .iter()
            .find(|j| !shared.opts.benches.contains(&j.spec.bench))
        {
            return Json::obj().with("ok", false).with(
                "error",
                format!(
                    "unknown benchmark {:?} (available: {})",
                    bad.spec.bench,
                    shared.opts.benches.join(", ")
                ),
            );
        }
    }
    let mut inner = lock_inner(shared);
    if inner.draining {
        return Json::obj()
            .with("ok", false)
            .with("error", "draining; not accepting new work");
    }
    // Classify before admitting anything: known duplicates and cache
    // hits cost no queue slots, so only genuinely-new jobs count
    // against the bound.
    #[derive(Clone, Copy, PartialEq)]
    enum Class {
        Known,
        Hit,
        New,
    }
    let classes: Vec<(u64, Class)> = jobs
        .iter()
        .map(|job| {
            let hash = job.spec.job_hash();
            let class = if inner.jobs.contains_key(&hash) {
                Class::Known
            } else if shared.cache.lookup(&job.spec).is_some() {
                Class::Hit
            } else {
                Class::New
            };
            (hash, class)
        })
        .collect();
    // In-request duplicates: the first occurrence decides, later ones
    // are Known.
    let mut seen: std::collections::HashSet<u64> = std::collections::HashSet::new();
    let classes: Vec<(u64, Class)> = classes
        .into_iter()
        .map(|(hash, class)| {
            if seen.insert(hash) {
                (hash, class)
            } else {
                (hash, Class::Known)
            }
        })
        .collect();
    let fresh = classes.iter().filter(|(_, c)| *c == Class::New).count();
    if inner.outstanding + fresh > shared.opts.queue_depth {
        inner.rejections += 1;
        // Deterministic jitter (up to half the base) from the rejection
        // ordinal: rejected clients spread their retries instead of
        // hammering back in lockstep, and the same rejection sequence
        // produces the same hints on every run.
        let base = shared.opts.retry_after_ms;
        let hint = base + faults::splitmix64(inner.rejections) % (base / 2 + 1);
        eprintln!(
            "[dmt-serve] submit: rejected {} jobs ({} outstanding, depth {}; retry in {hint} ms)",
            jobs.len(),
            inner.outstanding,
            shared.opts.queue_depth
        );
        return Json::obj()
            .with("ok", false)
            .with(
                "error",
                format!(
                    "queue full ({} outstanding, depth {})",
                    inner.outstanding, shared.opts.queue_depth
                ),
            )
            .with("retry_after_ms", hint);
    }
    let (mut hits, mut known) = (0usize, 0usize);
    let mut jobs_json = Vec::with_capacity(jobs.len());
    for (job, (hash, class)) in jobs.into_iter().zip(classes) {
        let doc = Json::obj().with("job_hash", protocol::hash_str(hash));
        jobs_json.push(match class {
            Class::Known => {
                known += 1;
                let entry = &inner.jobs[&hash];
                doc.with("state", entry.state.name()).with("cached", false)
            }
            Class::Hit => {
                hits += 1;
                inner.jobs.insert(
                    hash,
                    JobEntry {
                        spec: job.spec,
                        state: JobState::Done,
                        attempts: 0,
                        error: None,
                        wall_ms: None,
                        deadline_cycles: job.deadline_cycles,
                        history: Vec::new(),
                    },
                );
                doc.with("state", "done").with("cached", true)
            }
            Class::New => {
                inner.jobs.insert(
                    hash,
                    JobEntry {
                        spec: job.spec,
                        state: JobState::Queued,
                        attempts: 0,
                        error: None,
                        wall_ms: None,
                        deadline_cycles: job.deadline_cycles,
                        history: Vec::new(),
                    },
                );
                inner.queue.push(hash);
                inner.outstanding += 1;
                doc.with("state", "queued")
                    .with("cached", false)
                    .with("position", inner.queue.len())
            }
        });
    }
    eprintln!(
        "[dmt-serve] submit: {} jobs ({hits} hits, {known} known, {fresh} queued; depth {}/{})",
        jobs_json.len(),
        inner.outstanding,
        shared.opts.queue_depth
    );
    shared.work.notify_all();
    Json::obj()
        .with("ok", true)
        .with("jobs", Json::Arr(jobs_json))
}

fn status(shared: &Shared, hash: u64) -> Json {
    let key = protocol::hash_str(hash);
    {
        let inner = lock_inner(shared);
        if let Some(entry) = inner.jobs.get(&hash) {
            let mut doc = Json::obj()
                .with("ok", true)
                .with("job_hash", key)
                .with("state", entry.state.name())
                .with("attempts", u64::from(entry.attempts));
            if let Some(ms) = entry.wall_ms {
                doc = doc.with("wall_ms", ms);
            }
            if let Some(e) = &entry.error {
                doc = doc.with("error", e.clone());
            }
            if !entry.history.is_empty() {
                doc = doc.with(
                    "history",
                    Json::Arr(
                        entry
                            .history
                            .iter()
                            .map(|a| {
                                let rec = Json::obj()
                                    .with("status", a.status)
                                    .with("wall_ms", a.wall_ms);
                                match &a.error {
                                    Some(e) => rec.with("error", e.clone()),
                                    None => rec,
                                }
                            })
                            .collect(),
                    ),
                );
            }
            return doc;
        }
    }
    // Unknown to this process — but the cache is a memo table across
    // restarts, so a valid on-disk entry still answers `done`.
    if cached_doc(shared, hash).is_some() {
        Json::obj()
            .with("ok", true)
            .with("job_hash", key)
            .with("state", "done")
            .with("attempts", 0u64)
            .with("cached", true)
    } else {
        Json::obj()
            .with("ok", false)
            .with("job_hash", key)
            .with("error", "unknown job")
    }
}

fn result(shared: &Shared, hash: u64) -> Json {
    let key = protocol::hash_str(hash);
    let known = {
        let inner = lock_inner(shared);
        inner.jobs.get(&hash).map(|e| (e.state, e.error.clone()))
    };
    match known {
        Some((JobState::Done, _)) | None => match cached_doc(shared, hash) {
            Some(doc) => Json::obj()
                .with("ok", true)
                .with("job_hash", key)
                .with("artifact", doc),
            None if known.is_some() => Json::obj()
                .with("ok", false)
                .with("job_hash", key)
                .with("error", "result missing from cache (store failed?)"),
            None => Json::obj()
                .with("ok", false)
                .with("job_hash", key)
                .with("error", "unknown job"),
        },
        Some((state @ (JobState::Failed | JobState::TimedOut), error)) => Json::obj()
            .with("ok", false)
            .with("job_hash", key)
            .with("state", state.name())
            .with("error", error.unwrap_or_else(|| "executor failed".into())),
        Some((state, _)) => Json::obj()
            .with("ok", false)
            .with("job_hash", key)
            .with("state", state.name())
            .with("error", "not ready"),
    }
}

fn drain(shared: &Shared) -> Json {
    let mut inner = lock_inner(shared);
    inner.draining = true;
    let pending = inner.outstanding;
    eprintln!("[dmt-serve] drain: {pending} outstanding");
    shared.work.notify_all();
    Json::obj()
        .with("ok", true)
        .with("draining", true)
        .with("pending", pending)
}

/// Reads and validates one cache entry by hash. The file name is the
/// hash, but the entry also echoes its identity — kind, schema version
/// and `job_hash` — all of which must match before the daemon serves it.
fn cached_doc(shared: &Shared, hash: u64) -> Option<Json> {
    let path = shared
        .cache
        .dir()
        .join(format!("{}.json", protocol::hash_str(hash)));
    let text = std::fs::read_to_string(path).ok()?;
    let doc = Json::parse(&text).ok()?;
    let identity_ok = doc.get("kind").and_then(Json::as_str) == Some("job_cache_entry")
        && doc.get("schema_version").and_then(Json::as_u64) == Some(SCHEMA_VERSION)
        && doc.get("job_hash").and_then(Json::as_str) == Some(format!("{hash:#018x}").as_str());
    identity_ok.then_some(doc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmt_common::stats::RunStats;
    use dmt_core::energy::EnergyReport;
    use dmt_core::{Arch, SystemConfig};
    use dmt_runner::JobMetrics;

    fn scratch(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("dmt_serve_unit_{}_{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn job(bench: &str, arch: Arch, seed: u64) -> SubmitJob {
        SubmitJob {
            spec: JobSpec::new(bench, arch, SystemConfig::default(), seed),
            deadline_cycles: None,
        }
    }

    /// A completed outcome whose cycle count is a function of the spec:
    /// the bench name's length sets the magnitude, the seed perturbs it.
    fn stub_outcome(spec: &JobSpec) -> JobOutcome {
        JobOutcome::completed(JobMetrics {
            kernel: spec.bench.clone(),
            stats: RunStats {
                cycles: spec.bench.len() as u64 * 1000 + spec.seed,
                ..RunStats::default()
            },
            energy: EnergyReport::default(),
        })
    }

    /// A daemon whose executor logs the order it was called in. Nothing
    /// listens on the socket: the tests below drive `submit`, `drain`
    /// and `dispatch` directly, on one thread.
    fn server_logging_to(dir: &Path, ran: &Arc<Mutex<Vec<String>>>) -> Server {
        let ran = Arc::clone(ran);
        let exec: Executor = Box::new(move |spec, _| {
            ran.lock().unwrap().push(spec.bench.clone());
            stub_outcome(spec)
        });
        Server::bind("127.0.0.1:0", dir, ServeOptions::default(), exec).expect("bind")
    }

    #[test]
    fn cost_index_after_a_cold_grid_equals_a_scan_of_the_cache_directory() {
        let dir = scratch("index_tracks");
        let ran = Arc::new(Mutex::new(Vec::new()));
        let server = server_logging_to(&dir, &ran);
        let shared = &server.shared;
        assert!(lock_inner(shared).cost_index.is_empty(), "cold boot");

        // A cold grid: two seeds per point, so `record` has maxima to
        // keep, plus an infeasible-free mix of benches and machines.
        let grid: Vec<SubmitJob> = ["aa", "bbbb", "c"]
            .iter()
            .flat_map(|bench| {
                [Arch::MtCgra, Arch::DmtCgra]
                    .into_iter()
                    .flat_map(move |arch| [7, 3].map(|seed| job(bench, arch, seed)))
            })
            .collect();
        assert_eq!(submit(shared, grid).get("ok"), Some(&Json::Bool(true)));
        drain(shared);
        dispatch(shared);

        let on_disk = Cache::open(&dir).unwrap().cost_index();
        assert!(!on_disk.is_empty());
        assert_eq!(lock_inner(shared).cost_index, on_disk);
        assert_eq!(ran.lock().unwrap().len(), 12);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn warm_boot_dispatches_longest_first_from_the_seeded_index() {
        let dir = scratch("warm_boot");
        // A previous process left three points behind (seed 1).
        let previous = Cache::open(&dir).unwrap();
        for bench in ["mid__", "long_____", "s"] {
            let spec = job(bench, Arch::DmtCgra, 1).spec;
            previous.store(&spec, &stub_outcome(&spec)).unwrap();
        }

        let ran = Arc::new(Mutex::new(Vec::new()));
        let server = server_logging_to(&dir, &ran);
        let shared = &server.shared;
        assert_eq!(lock_inner(shared).cost_index, previous.cost_index());

        // New seeds of the known points in ascending-cost order, with a
        // point the index has never seen in the middle.
        let batch = ["s", "unknown", "mid__", "long_____"]
            .map(|bench| job(bench, Arch::DmtCgra, 2))
            .to_vec();
        submit(shared, batch);
        drain(shared);
        dispatch(shared);
        assert_eq!(
            *ran.lock().unwrap(),
            ["long_____", "mid__", "s", "unknown"],
            "known costs longest first, then the unknown in submit order"
        );
        // ...and the batch's own completions are in the table now.
        let spec = job("unknown", Arch::DmtCgra, 9).spec;
        assert_eq!(
            lock_inner(shared).cost_index.estimate(&spec),
            Some("unknown".len() as u64 * 1000 + 2)
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn read_all(input: &[u8]) -> Vec<(LineRead, Vec<u8>)> {
        let mut reader = BufReader::with_capacity(7, input);
        let mut line = Vec::new();
        let mut out = Vec::new();
        loop {
            let read = read_request_line(&mut reader, &mut line).unwrap();
            out.push((read, line.clone()));
            if read != LineRead::Line {
                return out;
            }
        }
    }

    #[test]
    fn request_lines_split_like_bufread_lines() {
        let got = read_all(b"{\"a\":1}\n\r\nsecond line\r\n\nlast, unterminated");
        let lines: Vec<&[u8]> = got.iter().map(|(_, l)| l.as_slice()).collect();
        assert_eq!(
            lines,
            [
                &b"{\"a\":1}"[..],
                b"",
                b"second line",
                b"",
                b"last, unterminated",
                b""
            ]
        );
        assert!(got[..5].iter().all(|(r, _)| *r == LineRead::Line));
        assert_eq!(got[5].0, LineRead::Eof);
        assert_eq!(read_all(b""), [(LineRead::Eof, Vec::new())]);
    }

    #[test]
    fn request_line_bound_is_exact() {
        let mut fits = vec![b'x'; MAX_REQUEST_LINE];
        fits.extend_from_slice(b"\nnext\n");
        let got = read_all(&fits);
        assert_eq!(got[0].0, LineRead::Line);
        assert_eq!(got[0].1.len(), MAX_REQUEST_LINE);
        assert_eq!(got[1], (LineRead::Line, b"next".to_vec()));

        let mut over = vec![b'x'; MAX_REQUEST_LINE + 1];
        over.push(b'\n');
        assert_eq!(read_all(&over)[0].0, LineRead::TooLong);
    }

    #[test]
    fn an_endless_line_is_refused_without_buffering_it() {
        let mut reader = BufReader::new(io::repeat(b'['));
        let mut line = Vec::new();
        let read = read_request_line(&mut reader, &mut line).unwrap();
        assert_eq!(read, LineRead::TooLong);
        assert_eq!(line.len(), MAX_REQUEST_LINE + 1);
        // `Vec` growth may round the buffer up, never past a doubling.
        assert!(line.capacity() <= 2 * (MAX_REQUEST_LINE + 1) + 64 * 1024);
    }
}
