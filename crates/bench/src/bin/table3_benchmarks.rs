//! Table 3 — the benchmark suite. Pass `--json PATH` for the inventory
//! as a versioned JSON document (current schema_version, suite
//! `table3_benchmarks`).

use dmt_runner::{Cli, Json, RunnerArgs, Shared, SCHEMA_VERSION};

const CLI: Cli = Cli {
    name: "table3_benchmarks",
    shared: &[Shared::Json, Shared::Faults],
    flags: &[],
    positionals: &[],
};

fn main() {
    let args = RunnerArgs::from_env(&CLI);
    println!("Table 3: benchmarks used to evaluate the system\n");
    print!("{}", dmt_kernels::suite::table3());
    if let Some(path) = &args.json {
        let benchmarks: Vec<Json> = dmt_kernels::suite::all()
            .iter()
            .map(|b| {
                let i = b.info();
                Json::obj()
                    .with("name", i.name)
                    .with("domain", i.domain)
                    .with("kernel", i.kernel)
                    .with("description", i.description)
            })
            .collect();
        let doc = Json::obj()
            .with("schema_version", SCHEMA_VERSION)
            .with("generator", "dmt-runner")
            .with("suite", "table3_benchmarks")
            .with("benchmarks", benchmarks);
        dmt_runner::write_json_logged(path, &doc);
    }
}
