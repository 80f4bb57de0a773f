//! Every metric the benchmark reports, by name: the one list the
//! single-workload output, the `--all` report, the repeatability check
//! and `BENCHMARK.json` agree on (a unit test compares the last).

/// Which way is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// One named metric.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median an end-to-end metric may worsen by
    /// before a change counts as a regression; `None` for per-layer
    /// metrics, which carry no bound.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// What a user of the system sees. Every workload reports every one;
/// the README says what each means on each workload.
pub const END_TO_END: &[Metric] = &[
    e2e("sim_cycles_per_s", "1/s", Higher, 0.15),
    e2e("jobs_per_s", "1/s", Higher, 0.15),
    e2e("pass_ms_p50", "ms", Lower, 0.15),
    e2e("job_latency_ms_p50", "ms", Lower, 0.15),
    e2e("job_latency_ms_p95", "ms", Lower, 0.25),
    e2e("peak_rss_mb", "MB", Lower, 0.10),
    e2e("setup_s", "s", Lower, 0.25),
];

/// Single layers, from the traced run. A workload that does not exercise
/// a layer reports 0 for its metrics.
pub const PER_LAYER: &[Metric] = &[
    layer("fabric.run_share", "ratio", Lower),
    layer("fabric.mt_cycles_per_s", "1/s", Higher),
    layer("fabric.dmt_cycles_per_s", "1/s", Higher),
    layer("fabric.ns_per_token", "ns", Lower),
    layer("fabric.ns_per_fire", "ns", Lower),
    layer("fabric.tokens_routed", "count", Lower),
    layer("fabric.backpressure_cycles", "count", Lower),
    layer("gpu.run_share", "ratio", Lower),
    layer("gpu.cycles_per_s", "1/s", Higher),
    layer("gpu.ns_per_warp_instr", "ns", Lower),
    layer("gpu.instructions", "count", Lower),
    layer("gpu.stall_cycles", "count", Lower),
    layer("mem.l1_hit_ratio", "ratio", Higher),
    layer("mem.l2_hit_ratio", "ratio", Higher),
    layer("mem.dram_lines", "count", Lower),
    layer("mem.ns_per_access", "ns", Lower),
    layer("compiler.compile_us_per_job", "us", Lower),
    layer("compiler.replication_min", "count", Higher),
    layer("compiler.replication_max", "count", Higher),
    layer("kernels.build_us_per_job", "us", Lower),
    layer("kernels.workload_us_per_job", "us", Lower),
    layer("kernels.check_us_per_job", "us", Lower),
    layer("energy.evaluate_us_per_job", "us", Lower),
    layer("common.calendar_ns_per_event", "ns", Lower),
    layer("common.json_parse_mb_per_s", "MB/s", Higher),
    layer("common.json_render_mb_per_s", "MB/s", Higher),
    layer("runner.plan_overhead_us_per_job", "us", Lower),
    layer("runner.job_hash_us", "us", Lower),
    layer("runner.encode_us_per_job", "us", Lower),
    layer("runner.cache_store_us", "us", Lower),
    layer("runner.cache_lookup_us", "us", Lower),
    layer("runner.cost_index_ms", "ms", Lower),
    layer("runner.cache_entries", "count", Lower),
    layer("serve.submit_rtt_us_p50", "us", Lower),
    layer("serve.status_rtt_us_p50", "us", Lower),
    layer("serve.result_rtt_us_p50", "us", Lower),
    layer("serve.handler_submit_us_p50", "us", Lower),
    layer("serve.handler_result_us_p50", "us", Lower),
    layer("serve.exec_wall_ms_p50", "ms", Lower),
    layer("serve.queue_wait_ms_p50", "ms", Lower),
    layer("serve.parse_request_us", "us", Lower),
    layer("serve.polls_per_job", "count", Lower),
    layer("serve.response_bytes_per_job", "B", Lower),
    layer("serve.rejections", "count", Lower),
    layer("serve.cache_hits", "count", Higher),
    layer("serve.cache_misses", "count", Lower),
    layer("serve.requests_per_s", "1/s", Higher),
    layer("serve.request_latency_us_p50", "us", Lower),
    layer("serve.request_latency_us_p99", "us", Lower),
    layer("obs.trace_overhead_ratio", "ratio", Lower),
    layer("sim.cycles_total", "cycles", Lower),
    layer("sim.stats_fingerprint", "id", Lower),
    layer("sim.mt_speedup_geomean", "ratio", Higher),
    layer("sim.dmt_speedup_geomean", "ratio", Higher),
    layer("sim.dmt_energy_eff_geomean", "ratio", Higher),
    layer("sim.dmt_speedup_vs_paper", "ratio", Higher),
    layer("bench.trace_overhead_ratio", "ratio", Lower),
    layer("bench.layer_coverage", "ratio", Higher),
];

/// True for the modelled design's outputs, which must repeat exactly.
pub fn is_exact(name: &str) -> bool {
    name.starts_with("sim.")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::Workload;
    use dmt_common::json::Json;

    fn valid_name(s: &str) -> bool {
        s.len() <= 64
            && s.starts_with(|c: char| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn names_and_units_meet_the_contract() {
        let mut seen = std::collections::HashSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(m.name), "{}", m.name);
            assert!(seen.insert(m.name), "{} listed twice", m.name);
            assert!(
                m.unit.len() <= 16
                    && m.unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{}",
                m.unit
            );
        }
        assert!(END_TO_END
            .iter()
            .all(|m| m.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        assert!(PER_LAYER.iter().all(|m| m.bound.is_none()));
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        let largest = END_TO_END
            .iter()
            .filter_map(|m| m.bound)
            .fold(0.0, f64::max);
        assert_eq!(
            setup.bound,
            Some(largest),
            "setup_s carries the largest bound"
        );
    }

    /// `BENCHMARK.json` is written by hand; this keeps it equal to what
    /// the binary emits.
    #[test]
    fn benchmark_json_matches_the_registry() {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repo root");
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        let Json::Obj(keys) = &doc else {
            panic!("not an object")
        };
        let names: Vec<&str> = keys.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            names,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let list = |key: &str| doc.get(key).and_then(Json::as_arr).expect("array").to_vec();
        let text_of = |j: &Json, key: &str| {
            j.get(key)
                .and_then(Json::as_str)
                .expect("string")
                .to_owned()
        };

        let workloads = list("workloads");
        assert_eq!(workloads.len(), Workload::ALL.len());
        for (j, w) in workloads.iter().zip(Workload::ALL) {
            assert_eq!(text_of(j, "name"), w.name());
            assert_eq!(text_of(j, "why"), w.why());
        }
        for (key, metrics) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed = list(key);
            assert_eq!(listed.len(), metrics.len(), "{key}");
            for (j, m) in listed.iter().zip(metrics) {
                assert_eq!(text_of(j, "name"), m.name);
                assert_eq!(text_of(j, "unit"), m.unit, "{}", m.name);
                let better = match m.better {
                    Better::Lower => "lower",
                    Better::Higher => "higher",
                };
                assert_eq!(text_of(j, "better"), better, "{}", m.name);
                assert_eq!(j.get("bound").and_then(Json::as_f64), m.bound, "{}", m.name);
            }
        }
        let seconds = doc
            .get("run_seconds")
            .and_then(Json::as_u64)
            .expect("run_seconds");
        assert!((1..=60).contains(&seconds));
        assert_eq!(list("paths"), [Json::Str("benchmark".into())]);
    }
}
