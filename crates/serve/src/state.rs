//! In-memory job table, admission queue and retry schedule.
//!
//! Everything mutable lives in [`Inner`] behind one mutex (see
//! [`crate::server`]); the cache on disk is the durable half — this
//! table only tracks the current process's view.

use dmt_obs::Histogram;
use dmt_runner::cache::CostIndex;
use dmt_runner::JobSpec;
use std::collections::HashMap;
use std::time::Instant;

/// Lifecycle of a submitted job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Admitted, waiting for a worker (including waiting on a retry
    /// backoff after a transient failure).
    Queued,
    /// An executor is simulating it now.
    Running,
    /// Finished; its artifact is in the cache.
    Done,
    /// Every attempt failed transiently (panic, cancellation or an
    /// injected fault) and the retry budget is spent; nothing was
    /// cached, so a resubmission after restart tries again.
    Failed,
    /// The run exceeded its simulated-cycle deadline. Permanent for the
    /// budget it ran under — retrying the same budget would time out the
    /// same way — and never cached.
    TimedOut,
}

impl JobState {
    /// The wire name of this state.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Failed => "failed",
            JobState::TimedOut => "timed_out",
        }
    }
}

/// One finished executor attempt, kept so `status` can report the full
/// retry history of a job.
#[derive(Debug, Clone)]
pub struct AttemptRecord {
    /// The attempt's outcome status (`ok`, `infeasible`, `failed`,
    /// `timed_out`).
    pub status: &'static str,
    /// Executor wall-clock of the attempt, in milliseconds.
    pub wall_ms: u64,
    /// The attempt's error message, when it did not complete.
    pub error: Option<String>,
}

/// Book-keeping for one admitted job.
#[derive(Debug)]
pub struct JobEntry {
    /// The full spec (kept so the dispatcher and the cache can re-derive
    /// paths and costs from the hash alone).
    pub spec: JobSpec,
    /// Where the job is in its lifecycle.
    pub state: JobState,
    /// Executor invocations so far (0 for cache hits).
    pub attempts: u32,
    /// The failure message, when `state` is [`JobState::Failed`] or
    /// [`JobState::TimedOut`] (also set while a retry is pending).
    pub error: Option<String>,
    /// Executor wall-clock of the last attempt, once one has finished
    /// (`None` while queued/running and for cache hits).
    pub wall_ms: Option<u64>,
    /// Per-job simulated-cycle budget from the submit request; `None`
    /// falls back to the daemon default.
    pub deadline_cycles: Option<u64>,
    /// Every finished attempt, oldest first.
    pub history: Vec<AttemptRecord>,
}

/// A transiently-failed job waiting out its retry backoff.
#[derive(Debug)]
pub struct Retry {
    /// The job's content hash.
    pub hash: u64,
    /// When the dispatcher may re-queue it.
    pub due: Instant,
}

/// The mutable server state, guarded by the server's mutex.
#[derive(Debug, Default)]
pub struct Inner {
    /// Every job this process has seen, by content hash.
    pub jobs: HashMap<u64, JobEntry>,
    /// Hashes admitted but not yet handed to the worker pool, in
    /// admission order.
    pub queue: Vec<u64>,
    /// Transiently-failed jobs waiting out their backoff; the
    /// dispatcher promotes them back into `queue` when due.
    pub retries: Vec<Retry>,
    /// Jobs admitted and not yet finished (queued + running + awaiting
    /// retry) — the quantity the admission bound applies to.
    pub outstanding: usize,
    /// Set by `drain`: stop admitting, finish what is in flight.
    pub draining: bool,
    /// Jobs executed to completion by this process.
    pub done: u64,
    /// Jobs that exhausted their retry budget.
    pub failed: u64,
    /// Jobs that exceeded their simulated-cycle deadline.
    pub timed_out: u64,
    /// Queue-full submit rejections — also the deterministic ordinal the
    /// `retry_after_ms` jitter is derived from.
    pub rejections: u64,
    /// Per-verb request-latency histograms (microseconds), indexed by
    /// [`crate::protocol::Request::verb_index`].
    pub latency: [Histogram; crate::protocol::VERBS.len()],
    /// Request lines that failed to parse (no verb to attribute).
    pub bad_requests: u64,
    /// The dispatcher's job-cost estimator: seeded from the cache
    /// directory once at boot, then fed every job this process
    /// completes. Entries another process adds to the directory later
    /// are not seen — that only affects execution order.
    pub cost_index: CostIndex,
}
