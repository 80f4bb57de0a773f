//! Fig 5 — cumulative distribution of ΔTID transmission distances across
//! the benchmark suite. The paper reports that 87% of communicated tokens
//! travel a distance a 16-entry token buffer can cover without cascading.
//!
//! Pass `--json PATH` to also write the sites and CDFs as a versioned
//! JSON document (current schema_version, suite `fig05_delta_cdf`).

use dmt_bench::suite_comm_sites;
use dmt_core::dfg::delta_stats::{cdf, fraction_within, DistanceMetric};
use dmt_runner::{Cli, Json, RunnerArgs, Shared, SCHEMA_VERSION};

const CLI: Cli = Cli {
    name: "fig05_delta_cdf",
    shared: &[Shared::Json, Shared::Faults],
    flags: &[],
    positionals: &[],
};

const METRICS: [(DistanceMetric, &str, &str); 2] = [
    (
        DistanceMetric::Euclidean,
        "euclidean",
        "Euclidean (paper's Fig 5 metric)",
    ),
    (
        DistanceMetric::Linear,
        "linear",
        "linear TID shift (buffer sizing)",
    ),
];

fn main() {
    let args = RunnerArgs::from_env(&CLI);
    let sites = suite_comm_sites();
    println!(
        "Figure 5: CDF of transmission distances ({} communication sites, \
         dynamic-token weighted)\n",
        sites.len()
    );
    for (metric, _, name) in METRICS {
        println!("-- {name} --");
        println!("{:>10} {:>12}", "distance", "cumulative");
        for p in cdf(&sites, metric) {
            println!("{:>10.1} {:>11.1}%", p.distance, p.cumulative * 100.0);
        }
        let f16 = fraction_within(&sites, metric, 16.0);
        println!(
            "fraction within a 16-entry token buffer: {:.1}%  (paper: 87%)\n",
            f16 * 100.0
        );
    }
    println!("per-benchmark sites:");
    for s in &sites {
        println!(
            "  {:<12} {:<9} Δ{:<14} linear {:>3}  window {:>4}  tokens {}",
            s.kernel,
            s.primitive,
            format!("({},{},{})", s.delta.dx, s.delta.dy, s.delta.dz),
            s.linear_distance,
            s.window,
            s.dynamic_tokens
        );
    }

    if let Some(path) = &args.json {
        let metrics_json = Json::Obj(
            METRICS
                .iter()
                .map(|&(metric, key, _)| {
                    let points: Vec<Json> = cdf(&sites, metric)
                        .into_iter()
                        .map(|p| {
                            Json::obj()
                                .with("distance", p.distance)
                                .with("cumulative", p.cumulative)
                        })
                        .collect();
                    (
                        key.to_owned(),
                        Json::obj()
                            .with("cdf", points)
                            .with("fraction_within_16", fraction_within(&sites, metric, 16.0)),
                    )
                })
                .collect(),
        );
        let sites_json: Vec<Json> = sites
            .iter()
            .map(|s| {
                Json::obj()
                    .with("kernel", s.kernel.as_str())
                    .with("primitive", s.primitive)
                    .with(
                        "delta",
                        vec![
                            Json::F64(f64::from(s.delta.dx)),
                            Json::F64(f64::from(s.delta.dy)),
                            Json::F64(f64::from(s.delta.dz)),
                        ],
                    )
                    .with("euclidean", s.euclidean)
                    .with("linear_distance", s.linear_distance)
                    .with("window", s.window)
                    .with("dynamic_tokens", s.dynamic_tokens)
            })
            .collect();
        let doc = Json::obj()
            .with("schema_version", SCHEMA_VERSION)
            .with("generator", "dmt-runner")
            .with("suite", "fig05_delta_cdf")
            .with("site_count", sites.len())
            .with("metrics", metrics_json)
            .with("sites", sites_json);
        dmt_runner::write_json_logged(path, &doc);
    }
}
