//! `serve_cold` and `serve_warm`: the daemon driven over real TCP by
//! closed-loop clients.
//!
//! The daemon runs in this process (`Server::bind` on an ephemeral
//! loopback port, `threads: 1`, the product executor
//! `dmt_bench::execute_job_limited`). One load generator opens
//! `min(2, nproc)` connections, one thread each; a client sends its next
//! request only after the previous answer arrived.

use super::{fresh_dir, RunOutput, Workload};
use crate::micro;
use crate::product;
use crate::seed;
use crate::span::{self, Tracer};
use crate::stats;
use dmt_common::json::Json;
use dmt_core::Arch;
use dmt_runner::{Cache, ExecPlan, JobOutcome, JobSpec};
use dmt_serve::{ServeOptions, ServeSummary, Server};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Pause between two `status` polls of a job that is not done yet.
pub const POLL_INTERVAL: Duration = Duration::from_millis(1);
/// Episodes (set-up plus measured region on a daemon of its own) in a
/// timed run.
const COLD_EPISODES: usize = 5;
const WARM_EPISODES: usize = 3;
/// Episodes in a traced run.
const TRACED_EPISODES: usize = 3;
/// Whole Table 3 grids each `serve_cold` client submits in one episode,
/// per 10 s of `--seconds`: 5 episodes × 2 clients × 4 grids × 27 = 1080
/// distinct jobs at the default. A fixed count, not a time budget: a
/// job's latency depends on how far the cache has grown.
const COLD_GRIDS_PER_CLIENT_PER_EPISODE_PER_10S: f64 = 4.0;
/// Seeds in the `serve_warm` cache: 8 × 27 = 216 entries.
const WARM_SEEDS: u64 = 8;
/// Share of `--seconds` a traced `serve_warm` run measures.
const TRACED_SHARE: f64 = 0.5;
/// A poll loop gives up on a job after this long.
const JOB_TIMEOUT: Duration = Duration::from_secs(60);

const STREAM_COLD_SEEDS: u64 = 0xc01d;
const STREAM_WARM_SEEDS: u64 = 0x3a23;
const STREAM_ORDER: u64 = 0x02de2;

/// Client connections: `min(2, nproc)`.
pub fn client_count() -> usize {
    crate::env::nproc().min(2)
}

// ---------------------------------------------------------------- plan

/// One job as a client sees it: the spec and its pre-rendered requests.
struct PlannedJob {
    spec: JobSpec,
    /// The job hash in wire form.
    key: String,
    status_line: String,
    result_line: String,
    /// `serve_warm` submits jobs one at a time.
    submit_line: String,
}

fn job_object(spec: &JobSpec) -> String {
    format!(
        "{{\"bench\":\"{}\",\"arch\":\"{}\",\"seed\":{}}}",
        spec.bench,
        spec.arch.key(),
        spec.seed
    )
}

fn plan_job(spec: JobSpec) -> PlannedJob {
    let key = spec.cache_key();
    PlannedJob {
        status_line: format!("{{\"verb\":\"status\",\"job_hash\":\"{key}\"}}"),
        result_line: format!("{{\"verb\":\"result\",\"job_hash\":\"{key}\"}}"),
        submit_line: format!("{{\"verb\":\"submit\",\"job\":{}}}", job_object(&spec)),
        key,
        spec,
    }
}

/// One whole Table 3 grid (27 jobs on one seed) in seeded request order.
struct PlannedGrid {
    submit_line: String,
    jobs: Vec<PlannedJob>,
}

fn plan_grid(job_seed: u64, run_seed: u64, ordinal: u64) -> PlannedGrid {
    let mut specs = product::table3_jobs(&Arch::ALL, job_seed);
    seed::shuffle(&mut specs, run_seed, STREAM_ORDER + ordinal);
    let objects: Vec<String> = specs.iter().map(job_object).collect();
    PlannedGrid {
        submit_line: format!("{{\"verb\":\"submit\",\"jobs\":[{}]}}", objects.join(",")),
        jobs: specs.into_iter().map(plan_job).collect(),
    }
}

/// `serve_cold`: per client, `grids` whole grids on distinct seeds.
/// `first_grid` numbers the episode's first grid within the run, so no
/// two grids of a run share a seed.
fn cold_plan(seed: u64, clients: usize, grids: usize, first_grid: usize) -> Vec<Vec<PlannedGrid>> {
    (0..clients)
        .map(|c| {
            (0..grids)
                .map(|g| {
                    let ordinal = (first_grid + c * grids + g) as u64;
                    plan_grid(
                        seed::derive(seed, STREAM_COLD_SEEDS, ordinal),
                        seed,
                        ordinal,
                    )
                })
                .collect()
        })
        .collect()
}

/// `serve_warm`: the 216 cached jobs in seeded request order.
fn warm_plan(seed: u64) -> Vec<PlannedJob> {
    let mut specs: Vec<JobSpec> = (0..WARM_SEEDS)
        .flat_map(|i| product::table3_jobs(&Arch::ALL, seed::derive(seed, STREAM_WARM_SEEDS, i)))
        .collect();
    seed::shuffle(&mut specs, seed, STREAM_ORDER);
    specs.into_iter().map(plan_job).collect()
}

// -------------------------------------------------------------- daemon

struct Daemon {
    addr: SocketAddr,
    thread: JoinHandle<ServeSummary>,
}

fn boot(cache_dir: &Path) -> Daemon {
    let opts = ServeOptions {
        threads: 1,
        benches: dmt_kernels::suite::all()
            .iter()
            .map(|b| b.info().name.to_owned())
            .collect(),
        ..ServeOptions::default()
    };
    let server = Server::bind(
        "127.0.0.1:0",
        cache_dir,
        opts,
        Box::new(dmt_bench::execute_job_limited),
    )
    .unwrap_or_else(|e| panic!("binding the daemon: {e}"));
    let addr = server.local_addr().expect("daemon address");
    let thread = std::thread::spawn(move || server.run().expect("daemon run"));
    Daemon { addr, thread }
}

impl Daemon {
    /// Sends `drain` and waits for the daemon to finish and exit.
    fn drain(self) -> ServeSummary {
        let mut client = Client::connect(self.addr);
        let answer = client.request("{\"verb\":\"drain\"}");
        assert!(is_ok(&answer), "drain refused: {answer}");
        drop(client);
        self.thread.join().expect("daemon thread")
    }
}

// -------------------------------------------------------------- client

/// One line-delimited JSON connection.
struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    /// Response bytes received.
    bytes: u64,
}

impl Client {
    fn connect(addr: SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).unwrap_or_else(|e| panic!("connecting: {e}"));
        Client {
            reader: BufReader::new(stream.try_clone().expect("cloning the socket")),
            writer: stream,
            bytes: 0,
        }
    }

    /// Sends one request line and returns the response line.
    fn request(&mut self, line: &str) -> String {
        let mut out = String::with_capacity(line.len() + 1);
        out.push_str(line);
        out.push('\n');
        self.writer
            .write_all(out.as_bytes())
            .unwrap_or_else(|e| panic!("sending a request: {e}"));
        let mut answer = String::new();
        let n = self
            .reader
            .read_line(&mut answer)
            .unwrap_or_else(|e| panic!("reading a response: {e}"));
        assert!(
            n > 0 && answer.ends_with('\n'),
            "daemon closed the connection"
        );
        self.bytes += n as u64;
        answer.truncate(n - 1);
        answer
    }
}

fn is_ok(answer: &str) -> bool {
    answer.starts_with("{\"ok\":true")
}

fn ns_to_ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn ns_to_us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

/// What one client measured. Vectors are per request or per job, in the
/// order the client worked.
#[derive(Default)]
struct ClientLog {
    first_send: Option<Instant>,
    last_answer: Option<Instant>,
    /// Submit → that job's `result` (cold), or one submit+result pair
    /// (warm), in ms.
    latency_ms: Vec<f64>,
    /// One grid (cold) or one round over the job list (warm), in ms.
    pass_ms: Vec<f64>,
    submit_rtt_us: Vec<f64>,
    status_rtt_us: Vec<f64>,
    result_rtt_us: Vec<f64>,
    polls: u64,
    /// Jobs the client gave up on or that the daemon failed or refused.
    failures: Vec<String>,
    failed: u64,
    /// Raw `result` answers kept for validation after the timed region:
    /// (index into the client's flat job list, answer).
    results: Vec<(usize, String)>,
    /// The final `status` answer of each job (cold; carries `wall_ms`).
    final_status: Vec<String>,
    bytes: u64,
}

/// `serve_cold`: submit each grid whole, then per job in grid order poll
/// `status` every [`POLL_INTERVAL`] until done and fetch `result`.
fn cold_client(addr: SocketAddr, grids: &[PlannedGrid], tracer: &mut Tracer) -> ClientLog {
    let mut client = Client::connect(addr);
    let mut log = ClientLog::default();
    let mut flat_index = 0;
    for grid in grids {
        tracer.enter("bench.grid", 0);
        let sent = Instant::now();
        log.first_send.get_or_insert(sent);
        tracer.enter("serve.submit", 0);
        let answer = client.request(&grid.submit_line);
        log.submit_rtt_us.push(ns_to_us(tracer.exit()));
        if !is_ok(&answer) {
            log.failed += grid.jobs.len() as u64;
            log.failures.push(format!("submit refused: {answer}"));
            flat_index += grid.jobs.len();
            tracer.exit();
            continue;
        }
        for job in &grid.jobs {
            let hash = job.spec.job_hash();
            let status = loop {
                tracer.enter("serve.poll", hash);
                let status = client.request(&job.status_line);
                log.status_rtt_us.push(ns_to_us(tracer.exit()));
                log.polls += 1;
                if !status.contains("\"state\":\"queued\"")
                    && !status.contains("\"state\":\"running\"")
                    || sent.elapsed() > JOB_TIMEOUT
                {
                    break status;
                }
                std::thread::sleep(POLL_INTERVAL);
            };
            tracer.enter("serve.result", hash);
            let result = client.request(&job.result_line);
            let rtt = tracer.exit();
            log.latency_ms.push(sent.elapsed().as_secs_f64() * 1e3);
            log.result_rtt_us.push(ns_to_us(rtt));
            if !is_ok(&result) {
                log.failed += 1;
                log.failures.push(format!("{}: {result}", job.spec));
            }
            log.results.push((flat_index, result));
            log.final_status.push(status);
            flat_index += 1;
        }
        log.pass_ms.push(ns_to_ms(tracer.exit()));
        log.last_answer = Some(Instant::now());
    }
    log.bytes = client.bytes;
    log
}

/// `serve_warm`: round-robin over the cached jobs from `offset`, one
/// single-job `submit` plus one `result` per pair, until `deadline`
/// (and at least one whole round).
fn warm_client(
    addr: SocketAddr,
    jobs: &[PlannedJob],
    offset: usize,
    deadline: Instant,
    tracer: &mut Tracer,
) -> ClientLog {
    let mut client = Client::connect(addr);
    let mut log = ClientLog::default();
    let mut latest: Vec<Option<String>> = vec![None; jobs.len()];
    let mut round_start = Instant::now();
    log.first_send = Some(round_start);
    let mut i = 0;
    while i < jobs.len() || Instant::now() < deadline {
        let index = (offset + i) % jobs.len();
        let job = &jobs[index];
        let hash = job.spec.job_hash();
        tracer.enter("bench.pair", hash);
        tracer.enter("serve.submit", hash);
        let submitted = client.request(&job.submit_line);
        log.submit_rtt_us.push(ns_to_us(tracer.exit()));
        tracer.enter("serve.result", hash);
        let result = client.request(&job.result_line);
        log.result_rtt_us.push(ns_to_us(tracer.exit()));
        log.latency_ms.push(ns_to_ms(tracer.exit()));
        // The cheap per-answer check; the latest answer of every job is
        // parsed and compared in full after the timed region.
        if !(is_ok(&submitted)
            && submitted.contains("\"state\":\"done\"")
            && is_ok(&result)
            && result.contains(&job.key))
        {
            log.failed += 1;
            if log.failures.len() < 4 {
                log.failures
                    .push(format!("{}: {submitted} / {result}", job.spec));
            }
        }
        latest[index] = Some(result);
        i += 1;
        if i % jobs.len() == 0 {
            let now = Instant::now();
            log.pass_ms.push((now - round_start).as_secs_f64() * 1e3);
            round_start = now;
        }
    }
    log.last_answer = Some(Instant::now());
    log.results = latest
        .into_iter()
        .enumerate()
        .filter_map(|(index, answer)| answer.map(|a| (index, a)))
        .collect();
    log.bytes = client.bytes;
    log
}

// ---------------------------------------------------------- validation

/// True when a `result` answer carries the artifact of `spec` equal to
/// the in-process run of the same spec: job hash, status and cycles.
fn artifact_matches(answer: &str, spec: &JobSpec, reference: &JobOutcome) -> Result<(), String> {
    let doc = Json::parse(answer).map_err(|e| format!("unparsable answer: {e}"))?;
    if doc.get("ok") != Some(&Json::Bool(true)) {
        return Err(format!("not ok: {answer}"));
    }
    if doc.get("job_hash").and_then(Json::as_str) != Some(spec.cache_key().as_str()) {
        return Err("answer is for another job hash".into());
    }
    let artifact = doc.get("artifact").ok_or("no artifact")?;
    let full_hash = format!("{:#018x}", spec.job_hash());
    if artifact.get("job_hash").and_then(Json::as_str) != Some(full_hash.as_str()) {
        return Err("artifact is for another job hash".into());
    }
    let status = artifact.get("status").and_then(Json::as_str);
    if status != Some(reference.status()) {
        return Err(format!(
            "status {status:?}, in-process run says {:?}",
            reference.status()
        ));
    }
    let cycles = artifact.get("cycles").and_then(Json::as_u64);
    let expected = reference.metrics().map(dmt_runner::JobMetrics::cycles);
    if cycles != expected {
        return Err(format!(
            "cycles {cycles:?}, in-process run says {expected:?}"
        ));
    }
    if expected.is_none() {
        return Err(format!(
            "the in-process run did not complete: {:?}",
            reference.error()
        ));
    }
    Ok(())
}

/// The in-process run of every spec, on all cores (untimed).
fn in_process_reference(specs: &[JobSpec]) -> Vec<JobOutcome> {
    ExecPlan::new(specs)
        .threads(crate::env::nproc())
        .run(dmt_bench::execute_job)
}

/// The median of a daemon latency histogram (`metrics` verb) summed over
/// the episodes, in µs, interpolated inside the log2 bucket that holds
/// it (bucket `le = 2^i - 1` covers `[2^(i-1), 2^i)`).
fn histogram_p50<'a>(docs: impl Iterator<Item = &'a Json>, verb: &str) -> f64 {
    let mut buckets = std::collections::BTreeMap::new();
    for doc in docs {
        let hist = doc
            .get("requests")
            .and_then(|r| r.get("latency_us"))
            .and_then(|l| l.get(verb));
        for bucket in hist
            .and_then(|h| h.get("buckets"))
            .and_then(Json::as_arr)
            .unwrap_or(&[])
        {
            let le = bucket.get("le").and_then(Json::as_u64).unwrap_or(0);
            *buckets.entry(le).or_insert(0) += bucket.get("n").and_then(Json::as_u64).unwrap_or(0);
        }
    }
    let groups: Vec<(f64, f64, u64)> = buckets
        .into_iter()
        .map(|(le, n)| {
            let upper = le as f64 + 1.0;
            (if le == 0 { 0.0 } else { upper / 2.0 }, upper, n)
        })
        .collect();
    stats::grouped_median(&groups)
}

fn path_u64(doc: &Json, path: &[&str]) -> u64 {
    path.iter()
        .try_fold(doc, |d, key| d.get(key))
        .and_then(Json::as_u64)
        .unwrap_or(0)
}

// ------------------------------------------------------------- the run

enum Plan {
    Cold(Vec<Vec<PlannedGrid>>),
    Warm(Vec<PlannedJob>),
}

impl Plan {
    /// Each client's jobs in the order it works through them.
    fn specs_per_client(&self, clients: usize) -> Vec<Vec<JobSpec>> {
        match self {
            Plan::Cold(per_client) => per_client
                .iter()
                .map(|grids| {
                    grids
                        .iter()
                        .flat_map(|g| g.jobs.iter().map(|j| j.spec.clone()))
                        .collect()
                })
                .collect(),
            Plan::Warm(jobs) => vec![jobs.iter().map(|j| j.spec.clone()).collect(); clients],
        }
    }

    /// How many of client 0's first jobs a timed and a traced run share:
    /// its first grid (cold), the whole cached list (warm).
    fn shared_jobs(&self) -> usize {
        match self {
            Plan::Cold(per_client) => per_client[0][0].jobs.len(),
            Plan::Warm(jobs) => jobs.len(),
        }
    }

    fn request_lines(&self) -> Vec<&str> {
        match self {
            Plan::Cold(per_client) => per_client
                .iter()
                .flatten()
                .flat_map(|g| {
                    std::iter::once(g.submit_line.as_str()).chain(
                        g.jobs
                            .iter()
                            .flat_map(|j| [j.status_line.as_str(), j.result_line.as_str()]),
                    )
                })
                .collect(),
            Plan::Warm(jobs) => jobs
                .iter()
                .flat_map(|j| [j.submit_line.as_str(), j.result_line.as_str()])
                .collect(),
        }
    }
}

/// One set-up followed by one measured region on a daemon of its own.
/// A run is several episodes: set-up time and the rates are medians over
/// them, so one episode that lands on a journal commit or an unlucky
/// thread placement does not decide the run.
struct Episode {
    plan: Plan,
    setup_s: f64,
    logs: Vec<(ClientLog, Tracer)>,
    /// The `metrics` answer, pulled before the drain.
    metrics: Json,
    summary: ServeSummary,
    /// `serve_warm`: the pre-fill's outcomes, index-aligned with the plan.
    prefilled: Vec<JobOutcome>,
    /// First request sent to last answer received.
    wall_s: f64,
}

struct EpisodeSpec {
    workload: Workload,
    seed: u64,
    index: usize,
    clients: usize,
    /// `serve_cold`: grids per client.
    grids: usize,
    /// `serve_warm`: how long the clients keep going.
    measure_s: f64,
    traced: bool,
    epoch: Instant,
}

fn run_episode(spec: &EpisodeSpec, cache_dir_name: &str) -> Episode {
    let cold = spec.workload == Workload::ServeCold;
    let clients = spec.clients;

    // Set-up: wipe the cache directory, build the request plan, pre-fill
    // the cache (warm), boot the daemon.
    let start = Instant::now();
    let cache_dir = fresh_dir(cache_dir_name);
    let (plan, prefilled) = if cold {
        let first_grid = spec.index * clients * spec.grids;
        (
            Plan::Cold(cold_plan(spec.seed, clients, spec.grids, first_grid)),
            Vec::new(),
        )
    } else {
        let jobs = warm_plan(spec.seed);
        let specs: Vec<JobSpec> = jobs.iter().map(|j| j.spec.clone()).collect();
        let cache = Cache::open(&cache_dir).expect("cache directory under out/");
        let outcomes = ExecPlan::new(&specs)
            .threads(1)
            .cache(Some(&cache))
            .run(dmt_bench::execute_job);
        (Plan::Warm(jobs), outcomes)
    };
    let daemon = boot(&cache_dir);
    let setup_s = start.elapsed().as_secs_f64();

    // Flush what set-up and earlier runs left dirty, so that writeback
    // of somebody else's files does not land in the measured region.
    let _ = std::process::Command::new("sync").status();

    // The measured region: every client on its own thread and tracer.
    let addr = daemon.addr;
    let deadline = Instant::now() + Duration::from_secs_f64(spec.measure_s);
    let logs: Vec<(ClientLog, Tracer)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let mut tracer = if spec.traced {
                    Tracer::new(spec.epoch)
                } else {
                    Tracer::timing_only(spec.epoch)
                };
                let plan = &plan;
                scope.spawn(move || {
                    let log = match plan {
                        Plan::Cold(per_client) => cold_client(addr, &per_client[c], &mut tracer),
                        Plan::Warm(jobs) => {
                            let offset = c * jobs.len() / clients;
                            warm_client(addr, jobs, offset, deadline, &mut tracer)
                        }
                    };
                    (log, tracer)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });

    // Daemon-side numbers are pulled before the drain.
    let metrics = {
        let mut client = Client::connect(addr);
        let answer = client.request("{\"verb\":\"metrics\"}");
        Json::parse(&answer).unwrap_or_else(|e| panic!("metrics answer: {e}"))
    };
    let summary = daemon.drain();
    let first = logs.iter().filter_map(|(l, _)| l.first_send).min();
    let last = logs.iter().filter_map(|(l, _)| l.last_answer).max();
    let wall_s =
        (last.expect("answers arrived") - first.expect("requests were sent")).as_secs_f64();
    Episode {
        plan,
        setup_s,
        logs,
        metrics,
        summary,
        prefilled,
        wall_s,
    }
}

/// One episode's jobs, what the in-process run of each gives, and the
/// episode's rates.
struct Checked {
    /// Per client, the jobs in the order it worked through them.
    specs: Vec<Vec<JobSpec>>,
    /// Index-aligned with `specs`.
    reference: Vec<Vec<JobOutcome>>,
    jobs_per_s: f64,
    cycles_per_s: f64,
}

/// Validates every kept answer of an episode against the in-process run
/// of the same spec, and the daemon's own account of what it executed.
fn check_episode(episode: &Episode, cold: bool, clients: usize, out: &mut RunOutput) -> Checked {
    let specs = episode.plan.specs_per_client(clients);
    let reference: Vec<Vec<JobOutcome>> = if cold {
        specs.iter().map(|s| in_process_reference(s)).collect()
    } else {
        vec![episode.prefilled.clone(); clients]
    };
    let mut served_cycles = 0u64;
    let mut operations = 0usize;
    for (c, (log, _)) in episode.logs.iter().enumerate() {
        out.failed += log.failed;
        out.failures.extend(log.failures.iter().take(4).cloned());
        for (index, answer) in &log.results {
            if !is_ok(answer) {
                continue; // already counted by the client
            }
            if let Err(why) = artifact_matches(answer, &specs[c][*index], &reference[c][*index]) {
                out.fail(1, format!("{}: {why}", specs[c][*index]));
            }
        }
        operations += log.latency_ms.len();
        // A cold client served its whole list once; a warm client
        // served one cached job per pair, round-robin from its offset.
        let n = specs[c].len();
        let offset = if cold { 0 } else { c * n / clients };
        served_cycles += (0..log.latency_ms.len())
            .filter_map(|i| reference[c][(offset + i) % n].metrics())
            .map(|m| m.cycles())
            .sum::<u64>();
    }
    out.attempted += if cold {
        specs.iter().map(|s| s.len() as u64).sum::<u64>()
    } else {
        operations as u64
    };
    let executed = path_u64(&episode.metrics, &["jobs", "done"]);
    let summary = episode.summary;
    if cold {
        if summary.failed + summary.timed_out > 0 {
            out.fail(
                summary.failed + summary.timed_out,
                "the daemon reported failed or timed-out jobs",
            );
        }
    } else if executed != 0 || summary.done != 0 {
        // A warm restart must simulate nothing.
        out.fail(
            operations as u64,
            format!("serve_warm ran {executed} simulations (metrics verb); expected zero"),
        );
    }
    Checked {
        specs,
        reference,
        jobs_per_s: operations as f64 / episode.wall_s,
        cycles_per_s: served_cycles as f64 / episode.wall_s,
    }
}

pub fn run(workload: Workload, seed: u64, seconds: f64, traced: bool) -> RunOutput {
    let mut out = RunOutput::default();
    let clients = client_count();
    let cold = workload == Workload::ServeCold;
    let (episodes, share) = match (cold, traced) {
        (true, false) => (COLD_EPISODES, 1.0),
        (false, false) => (WARM_EPISODES, 1.0),
        (_, true) => (TRACED_EPISODES, TRACED_SHARE),
    };
    let grids =
        ((COLD_GRIDS_PER_CLIENT_PER_EPISODE_PER_10S * seconds / 10.0).round() as usize).max(1);
    let measure_s = seconds * share / episodes as f64;
    let cache_name = format!("{}.cache", workload.name());
    let epoch = Instant::now();

    let episodes: Vec<Episode> = (0..episodes)
        .map(|index| {
            let spec = EpisodeSpec {
                workload,
                seed,
                index,
                clients,
                grids,
                measure_s,
                traced,
                epoch,
            };
            run_episode(&spec, &cache_name)
        })
        .collect();

    let checked: Vec<Checked> = episodes
        .iter()
        .map(|episode| check_episode(episode, cold, clients, &mut out))
        .collect();

    let logs = || episodes.iter().flat_map(|e| e.logs.iter().map(|(l, _)| l));
    let pooled = |pick: &dyn Fn(&ClientLog) -> &Vec<f64>| -> Vec<f64> {
        stats::sorted(logs().flat_map(|l| pick(l).iter().copied()).collect())
    };
    let latency = pooled(&|l| &l.latency_ms);
    let passes = pooled(&|l| &l.pass_ms);
    let (tail_q, tail_ms) = stats::tail(&latency, 0.95);
    let operations = latency.len();
    let setup_s = stats::median(&stats::sorted(episodes.iter().map(|e| e.setup_s).collect()));
    let wall_s: f64 = episodes.iter().map(|e| e.wall_s).sum();
    out.count("episodes", episodes.len() as f64);
    out.count("clients", clients as f64);
    out.count("jobs_or_pairs", operations as f64);
    out.count("latency_samples", latency.len() as f64);
    out.count("latency_tail_percentile", tail_q);
    out.count("pass_samples", passes.len() as f64);
    out.count("measured_wall_s", wall_s);
    if cold {
        out.count("grids_per_client_per_episode", grids as f64);
    }

    // The modelled design's exact outputs, over the jobs both run lengths
    // share: client 0's first grid (cold), the whole cached list (warm).
    let shared = &checked[0].reference[0][..episodes[0].plan.shared_jobs()];
    let (fingerprint, sim_cycles) = product::fingerprint_outcomes(shared);

    if !traced {
        out.count("sim_stats_fingerprint", fingerprint as f64);
        out.metric("setup_s", setup_s);
        out.metric("peak_rss_mb", super::peak_rss_mb());
        out.metric(
            "sim_cycles_per_s",
            stats::median(&stats::sorted(
                checked.iter().map(|c| c.cycles_per_s).collect(),
            )),
        );
        out.metric(
            "jobs_per_s",
            stats::median(&stats::sorted(
                checked.iter().map(|c| c.jobs_per_s).collect(),
            )),
        );
        out.metric("pass_ms_p50", stats::median(&passes));
        out.metric("job_latency_ms_p50", stats::median(&latency));
        out.metric("job_latency_ms_p95", tail_ms);
        return out;
    }

    // ---- traced run: per-layer metrics ----
    let p50 = |v: &[f64]| if v.is_empty() { 0.0 } else { stats::median(v) };
    out.metric(
        "serve.submit_rtt_us_p50",
        p50(&pooled(&|l| &l.submit_rtt_us)),
    );
    out.metric(
        "serve.status_rtt_us_p50",
        p50(&pooled(&|l| &l.status_rtt_us)),
    );
    out.metric(
        "serve.result_rtt_us_p50",
        p50(&pooled(&|l| &l.result_rtt_us)),
    );
    let daemon_docs = || episodes.iter().map(|e| &e.metrics);
    out.metric(
        "serve.handler_submit_us_p50",
        histogram_p50(daemon_docs(), "submit"),
    );
    out.metric(
        "serve.handler_result_us_p50",
        histogram_p50(daemon_docs(), "result"),
    );
    let daemon_total = |path: &[&str]| daemon_docs().map(|d| path_u64(d, path)).sum::<u64>() as f64;
    let polls: u64 = logs().map(|l| l.polls).sum();
    let bytes: u64 = logs().map(|l| l.bytes).sum();
    out.metric("serve.polls_per_job", polls as f64 / operations as f64);
    out.metric(
        "serve.response_bytes_per_job",
        bytes as f64 / operations as f64,
    );
    out.metric("serve.rejections", daemon_total(&["queue", "rejections"]));
    out.metric("serve.cache_hits", daemon_total(&["cache", "hits"]));
    out.metric("serve.cache_misses", daemon_total(&["cache", "misses"]));
    if cold {
        // Executor wall from the final `status` answers (millisecond
        // granular), and what is left of each job's latency once the
        // executor and the result round trip are taken out.
        let mut exec_ms = Vec::new();
        let mut wait_ms = Vec::new();
        for log in logs() {
            // One entry per job in all three: a cold client fetches each
            // job's result exactly once.
            for ((status, latency), result_rtt_us) in log
                .final_status
                .iter()
                .zip(&log.latency_ms)
                .zip(&log.result_rtt_us)
            {
                let wall = Json::parse(status)
                    .ok()
                    .and_then(|d| d.get("wall_ms").and_then(Json::as_f64));
                if let Some(wall) = wall {
                    exec_ms.push(wall);
                    wait_ms.push((latency - wall - result_rtt_us / 1e3).max(0.0));
                }
            }
        }
        // `wall_ms` is a whole number of milliseconds.
        let mut by_ms = std::collections::BTreeMap::new();
        for ms in exec_ms {
            *by_ms.entry(ms as u64).or_insert(0) += 1;
        }
        let groups: Vec<(f64, f64, u64)> = by_ms
            .into_iter()
            .map(|(ms, n)| (ms as f64, ms as f64 + 1.0, n))
            .collect();
        out.metric("serve.exec_wall_ms_p50", stats::grouped_median(&groups));
        out.metric("serve.queue_wait_ms_p50", p50(&stats::sorted(wait_ms)));
    } else {
        let pair_us: Vec<f64> = latency.iter().map(|ms| ms * 1e3).collect();
        let (q, p99) = stats::tail(&pair_us, 0.99);
        out.metric("serve.requests_per_s", operations as f64 / wall_s);
        out.metric("serve.request_latency_us_p50", stats::median(&pair_us));
        out.metric("serve.request_latency_us_p99", p99);
        out.count("request_latency_tail_percentile", q);
    }

    // Operation costs timed from outside, on the last episode's own
    // request lines and cache files.
    let last = episodes.len() - 1;
    let request_lines = episodes[last].plan.request_lines();
    let start = Instant::now();
    for line in &request_lines {
        std::hint::black_box(dmt_serve::parse_request(line).expect("planned requests parse"));
    }
    out.metric(
        "serve.parse_request_us",
        start.elapsed().as_nanos() as f64 / 1e3 / request_lines.len() as f64,
    );
    micro::common_ops(&mut out);
    let (specs, outcomes): (Vec<JobSpec>, Vec<JobOutcome>) = if cold {
        (
            checked[last].specs.concat(),
            checked[last].reference.concat(),
        )
    } else {
        (
            checked[last].specs[0].clone(),
            checked[last].reference[0].clone(),
        )
    };
    let cache_dir = super::out_dir().join(&cache_name);
    micro::cache_ops(
        &mut out,
        workload.name(),
        &specs,
        &outcomes,
        Some(&cache_dir),
    );
    micro::sim_reference(seed, &mut out);
    out.metric("sim.cycles_total", sim_cycles as f64);
    out.metric("sim.stats_fingerprint", fingerprint as f64);
    out.count("setup_s", setup_s);

    let mut trace = Tracer::new(epoch);
    for episode in episodes {
        for (_, tracer) in episode.logs {
            trace.absorb(tracer);
        }
    }
    out.count("spans", trace.spans().len() as f64);
    let path = super::out_dir().join(format!("{}.trace.json", workload.name()));
    span::write_trace(&path, workload.name(), seed, trace.spans())
        .unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cold_hashes(seed: u64) -> Vec<u64> {
        cold_plan(seed, 2, 2, 0)
            .iter()
            .flatten()
            .flat_map(|g| g.jobs.iter().map(|j| j.spec.job_hash()))
            .collect()
    }

    #[test]
    fn same_seed_gives_the_same_requests_and_hashes() {
        let lines = |seed| -> Vec<String> {
            cold_plan(seed, 2, 2, 0)
                .into_iter()
                .flatten()
                .map(|g| g.submit_line)
                .chain(warm_plan(seed).into_iter().map(|j| j.submit_line))
                .collect()
        };
        assert_eq!(lines(42), lines(42));
        assert_ne!(lines(42), lines(43));
        assert_eq!(cold_hashes(42), cold_hashes(42));
    }

    #[test]
    fn another_seed_gives_disjoint_job_hashes() {
        let a = cold_hashes(42);
        let b = cold_hashes(43);
        assert_eq!(a.len(), 2 * 2 * 27);
        let mut unique = a.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), a.len(), "cold jobs are all distinct");
        assert!(a.iter().all(|h| !b.contains(h)));
        let warm =
            |seed| -> Vec<u64> { warm_plan(seed).iter().map(|j| j.spec.job_hash()).collect() };
        assert_eq!(warm(42).len(), 216);
        assert!(warm(42).iter().all(|h| !warm(43).contains(h)));
    }

    #[test]
    fn planned_requests_parse_to_the_planned_specs() {
        let grid = plan_grid(7, 42, 0);
        let dmt_serve::Request::Submit(jobs) =
            dmt_serve::parse_request(&grid.submit_line).expect("submit parses")
        else {
            panic!("not a submit")
        };
        assert_eq!(jobs.len(), 27);
        for (parsed, planned) in jobs.iter().zip(&grid.jobs) {
            assert_eq!(parsed.spec, planned.spec);
            assert_eq!(
                dmt_serve::parse_request(&planned.status_line),
                Ok(dmt_serve::Request::Status(planned.spec.job_hash()))
            );
            assert_eq!(
                dmt_serve::parse_request(&planned.result_line),
                Ok(dmt_serve::Request::Result(planned.spec.job_hash()))
            );
        }
    }

    #[test]
    fn histogram_median_is_interpolated_inside_its_bucket() {
        let doc = |buckets: &str| {
            Json::parse(&format!(
                r#"{{"requests":{{"latency_us":{{"result":{{"count":0,"max":0,"buckets":[{buckets}]}}}}}}}}"#
            ))
            .unwrap()
        };
        // Rank 5 of 10 is the first of five samples in [64, 128).
        let a = doc(r#"{"le":63,"n":4},{"le":127,"n":5},{"le":1023,"n":1}"#);
        assert_eq!(histogram_p50(std::iter::once(&a), "result"), 76.8);
        // Episodes add up: six more fast requests pull the median into
        // [32, 64), rank 8 of the ten there.
        let b = doc(r#"{"le":63,"n":6}"#);
        assert_eq!(
            histogram_p50([&a, &b].into_iter(), "result"),
            32.0 + 32.0 * 0.8
        );
        assert_eq!(histogram_p50(std::iter::empty(), "result"), 0.0);
        assert_eq!(histogram_p50(std::iter::once(&doc("")), "submit"), 0.0);
    }
}
