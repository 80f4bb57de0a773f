//! Per-layer operation costs timed from outside the program, on fixed
//! streams or on the workload's own jobs and cache files, plus the
//! modelled design's headline ratios. Traced runs only.

use crate::product;
use crate::seed::splitmix64;
use crate::stats;
use crate::workloads::{fresh_dir, grid, RunOutput};
use dmt_common::config::WritePolicy;
use dmt_common::ids::Addr;
use dmt_common::json::Json;
use dmt_common::sched::CalendarQueue;
use dmt_core::{Arch, SystemConfig};
use dmt_mem::MemSystem;
use dmt_runner::{Cache, JobOutcome, JobSpec};
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// The paper's dMT-CGRA speedup over the Fermi SM (geomean), the only
/// reference figure the repo holds.
const PAPER_DMT_SPEEDUP: f64 = 4.5;

/// Accesses in the `mem.ns_per_access` stream.
const MEM_ACCESSES: u64 = 400_000;
/// Events through the calendar in `common.calendar_ns_per_event`.
const CALENDAR_EVENTS: u64 = 1_000_000;
/// Cache files read for the JSON throughput figures, at most.
const JSON_FILES: usize = 256;

fn elapsed_ns(start: Instant) -> f64 {
    start.elapsed().as_nanos() as f64
}

/// Costs that do not depend on the workload: the memory-hierarchy model
/// and the event calendar, each over a fixed stream.
pub fn common_ops(out: &mut RunOutput) {
    // Half a sequential word stride (L1-friendly), half uniform over
    // 8 MiB (past the 768 KiB L2), one access per simulated cycle.
    let mut mem = MemSystem::new(&SystemConfig::default().mem, WritePolicy::WriteBackAllocate);
    let mut rng = 0x5eed_u64;
    let start = Instant::now();
    for i in 0..MEM_ACCESSES {
        let addr = if i % 2 == 0 {
            (i * 2) % (1 << 20)
        } else {
            rng = splitmix64(rng);
            (rng % (8 << 20)) & !3
        };
        let outcome = if i % 4 == 3 {
            mem.store(Addr(addr), i)
        } else {
            mem.load(Addr(addr), i)
        };
        black_box(outcome);
    }
    out.metric("mem.ns_per_access", elapsed_ns(start) / MEM_ACCESSES as f64);

    // 256 events in flight; each popped event schedules its successor,
    // 90% at now+1 (the next-cycle lane) and the rest 2..=65 cycles out.
    let mut queue: CalendarQueue<u32> = CalendarQueue::new();
    for i in 0..256 {
        queue.schedule(1 + u64::from(i % 4), i);
    }
    let mut rng = 0xca1e_u64;
    let mut popped = 0u64;
    let mut now = 0u64;
    let start = Instant::now();
    while popped < CALENDAR_EVENTS {
        now = queue.next_time().expect("events stay in flight");
        queue.advance(now);
        while let Some(ev) = queue.pop_due() {
            popped += 1;
            rng = splitmix64(rng);
            let delay = if rng % 10 < 9 { 1 } else { 2 + (rng >> 8) % 64 };
            queue.schedule(now + delay, ev);
        }
    }
    black_box(now);
    out.metric(
        "common.calendar_ns_per_event",
        elapsed_ns(start) / popped as f64,
    );
}

/// Runner and JSON costs on the workload's own jobs. Stores are timed
/// into a scratch directory; lookups, the cost index and JSON
/// throughput use `filled` — the workload's real cache directory when
/// it has one (the serve workloads), the scratch copy otherwise.
pub fn cache_ops(
    out: &mut RunOutput,
    workload: &str,
    specs: &[JobSpec],
    outcomes: &[JobOutcome],
    filled: Option<&Path>,
) {
    assert_eq!(specs.len(), outcomes.len());
    let n = specs.len() as f64;

    let start = Instant::now();
    for spec in specs {
        black_box(spec.job_hash());
    }
    out.metric("runner.job_hash_us", elapsed_ns(start) / 1e3 / n);

    let start = Instant::now();
    for (spec, outcome) in specs.iter().zip(outcomes) {
        black_box(dmt_runner::cache::encode_entry(spec, outcome).render());
    }
    out.metric("runner.encode_us_per_job", elapsed_ns(start) / 1e3 / n);

    let scratch_dir = fresh_dir(&format!("{workload}.store-scratch"));
    let scratch = Cache::open(&scratch_dir).expect("scratch cache under out/");
    let start = Instant::now();
    for (spec, outcome) in specs.iter().zip(outcomes) {
        scratch.store(spec, outcome).expect("scratch cache store");
    }
    out.metric("runner.cache_store_us", elapsed_ns(start) / 1e3 / n);

    let dir = filled.unwrap_or(&scratch_dir);
    let cache = Cache::open(dir).expect("workload cache directory");
    let start = Instant::now();
    let hits = specs.iter().filter(|s| cache.lookup(s).is_some()).count();
    out.metric("runner.cache_lookup_us", elapsed_ns(start) / 1e3 / n);
    if hits != specs.len() {
        out.fail(
            (specs.len() - hits) as u64,
            format!(
                "{} of {} jobs missing from {}",
                specs.len() - hits,
                specs.len(),
                dir.display()
            ),
        );
    }

    let index_ms: Vec<f64> = (0..3)
        .map(|_| {
            let start = Instant::now();
            black_box(cache.cost_index());
            elapsed_ns(start) / 1e6
        })
        .collect();
    out.metric(
        "runner.cost_index_ms",
        stats::median(&stats::sorted(index_ms)),
    );

    let mut files: Vec<_> = std::fs::read_dir(dir)
        .expect("listing the cache directory")
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|e| e == "json"))
        .collect();
    files.sort();
    out.metric("runner.cache_entries", files.len() as f64);
    let texts: Vec<String> = files
        .iter()
        .take(JSON_FILES)
        .map(|p| std::fs::read_to_string(p).expect("reading a cache entry"))
        .collect();
    let bytes: usize = texts.iter().map(String::len).sum();
    let start = Instant::now();
    let docs: Vec<Json> = texts
        .iter()
        .map(|t| Json::parse(t).expect("cache entries are JSON"))
        .collect();
    let parse_s = elapsed_ns(start) / 1e9;
    let start = Instant::now();
    let rendered: usize = docs.iter().map(|d| black_box(d.render()).len()).sum();
    let render_s = elapsed_ns(start) / 1e9;
    out.metric("common.json_parse_mb_per_s", bytes as f64 / 1e6 / parse_s);
    out.metric(
        "common.json_render_mb_per_s",
        rendered as f64 / 1e6 / render_s,
    );
    out.count("json_bytes_per_entry", bytes as f64 / texts.len() as f64);
}

/// The modelled design's outputs on the Table 3 grid at this seed: the
/// Fig 11/12 geomeans. Exact — they must repeat bit for bit.
pub fn sim_reference(seed: u64, out: &mut RunOutput) {
    let jobs = product::table3_jobs(&Arch::ALL, grid::job_seed(seed));
    let outcomes = product::run_plan(&jobs, dmt_bench::execute_job);
    let rows = dmt_bench::RowOutcome::from_jobs(&jobs, &outcomes);
    let incomplete = rows.iter().filter(|r| !r.complete()).count();
    if incomplete > 0 {
        out.fail(
            incomplete as u64,
            "a Table 3 row failed in the sim reference grid",
        );
    }
    let dmt = dmt_bench::geomean_rows(&rows, dmt_bench::RowOutcome::dmt_speedup);
    out.metric(
        "sim.mt_speedup_geomean",
        dmt_bench::geomean_rows(&rows, dmt_bench::RowOutcome::mt_speedup),
    );
    out.metric("sim.dmt_speedup_geomean", dmt);
    out.metric(
        "sim.dmt_energy_eff_geomean",
        dmt_bench::geomean_rows(&rows, dmt_bench::RowOutcome::dmt_efficiency),
    );
    out.metric("sim.dmt_speedup_vs_paper", dmt / PAPER_DMT_SPEEDUP);
}
