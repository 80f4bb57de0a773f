//! §5.2's ILP argument in numbers: "a fully utilized spatial architecture
//! composed of 140 units delivers a 140/32 = 4.375× speedup over a fully
//! utilized 32-wide GPU core".
//!
//! This report shows, per benchmark, how many operations each machine
//! actually retires per cycle and what fraction of its peak that is — the
//! dMT-CGRA's edge is precisely the utilization the elimination of
//! barriers and redundant loads buys back.
//!
//! With `--per-phase`, additionally breaks the multi-phase (barrier-
//! delimited) kernels down phase by phase: cycles, operations per cycle,
//! utilization and energy for every phase on every machine — the view
//! that shows *where* a shared-memory kernel loses its utilization (the
//! drain/reconfigure phases) while the single-phase dMT version streams.
//!
//! Pool-parallel over the suite grid (`--threads N`), deterministic
//! output; `--json PATH` records every job (schema v2: per-job `"phases"`
//! arrays ride along).

use dmt_bench::{run_grid, suite_jobs, GridOptions, RowOutcome, SEED};
use dmt_core::{Arch, EnergyModel, SystemConfig};
use dmt_runner::{Cli, Flag, JobMetrics, RunnerArgs, Shared};

const CLI: Cli = Cli {
    name: "report_utilization",
    shared: &[
        Shared::Threads,
        Shared::Json,
        Shared::Cache,
        Shared::NoCache,
        Shared::Progress,
        Shared::Faults,
        Shared::DeadlineCycles,
    ],
    flags: &[Flag::switch(
        "--per-phase",
        "phase-by-phase utilization and energy for multi-phase kernels",
    )],
    positionals: &[],
};

fn main() {
    let args = RunnerArgs::from_env(&CLI);
    let per_phase = args.has_flag("--per-phase");
    let opts = GridOptions::from_args(&args);
    let cfg = SystemConfig::default();
    let run = run_grid(suite_jobs(cfg, SEED, usize::MAX), SEED, &opts);
    let grid_units = f64::from(cfg.grid.total_units());
    let lanes = f64::from(cfg.gpu.warp_width);
    println!("Functional-unit utilization (peak: SM = 32 lanes, CGRA = 140 units)\n");
    println!(
        "{:<12} {:>12} {:>8} {:>12} {:>8} {:>12} {:>8}",
        "benchmark", "SM ops/cyc", "util", "MT ops/cyc", "util", "dMT ops/cyc", "util"
    );
    let rows = run.rows();
    for r in &rows {
        let (Some(fermi), Some(mt), Some(dmt)) =
            (r.fermi.metrics(), r.mt.metrics(), r.dmt.metrics())
        else {
            println!("{:<12} (infeasible at the default configuration)", r.name);
            continue;
        };
        let sm = fermi.stats.gpu_thread_instructions as f64 / fermi.cycles() as f64;
        let mt_ops = mt.stats.ops_per_cycle();
        let dmt_ops = dmt.stats.ops_per_cycle();
        println!(
            "{:<12} {:>12.1} {:>7.1}% {:>12.1} {:>7.1}% {:>12.1} {:>7.1}%",
            r.name,
            sm,
            100.0 * sm / lanes,
            mt_ops,
            100.0 * mt_ops / grid_units,
            dmt_ops,
            100.0 * dmt_ops / grid_units,
        );
    }
    println!(
        "\nThe spatial fabric needs far lower *relative* utilization to win: its peak\n\
         is 4.375× the SM's, so matching the SM's absolute ops/cycle at 23% grid\n\
         utilization already breaks even (§5.2)."
    );
    if per_phase {
        print_per_phase(&rows, &cfg, lanes, grid_units);
    }
    opts.finish(&run, "report_utilization");
    dmt_bench::exit_on_incomplete(&rows);
}

/// The `--per-phase` section: phase-by-phase utilization and energy for
/// every benchmark where any machine runs more than one phase (the
/// multi-phase Table 3 kernels; the dMT single-phase row is printed
/// alongside for contrast).
fn print_per_phase(rows: &[RowOutcome], cfg: &SystemConfig, lanes: f64, grid_units: f64) {
    let model = EnergyModel::default();
    let ghz = cfg.clocks.core_ghz;
    println!("\nPer-phase utilization and energy (kernels with barrier-delimited phases)\n");
    for r in rows {
        let multi_phase = Arch::ALL
            .iter()
            .filter_map(|&a| r.outcome(a).metrics())
            .any(|m| m.stats.per_phase.len() > 1);
        if !multi_phase {
            continue;
        }
        for arch in Arch::ALL {
            let Some(m) = r.outcome(arch).metrics() else {
                continue;
            };
            print_machine_phases(&r.name, arch, m, &model, ghz, lanes, grid_units);
        }
    }
    println!(
        "single-phase dMT rows stream the whole launch through one configuration;\n\
         multi-phase rows pay a drain + reconfiguration at every barrier."
    );
}

fn print_machine_phases(
    bench: &str,
    arch: Arch,
    m: &JobMetrics,
    model: &EnergyModel,
    ghz: f64,
    lanes: f64,
    grid_units: f64,
) {
    let phases = &m.stats.per_phase;
    println!(
        "{bench} @ {arch} ({} phase{}, {} cycles total)",
        phases.len(),
        if phases.len() == 1 { "" } else { "s" },
        m.cycles()
    );
    println!(
        "  {:>5} {:>10} {:>6} {:>9} {:>7} {:>12}",
        "phase", "cycles", "cyc%", "ops/cyc", "util", "energy [uJ]"
    );
    let energies = model.evaluate_phases(arch.kind(), &m.stats, ghz);
    for (i, (p, e)) in phases.iter().zip(&energies).enumerate() {
        // The SM retires thread-instructions over 32 lanes; the fabrics
        // fire functional-unit ops over the 140-unit grid.
        let (ops, peak) = match arch {
            Arch::FermiSm => (
                p.gpu_thread_instructions as f64 / p.cycles.max(1) as f64,
                lanes,
            ),
            Arch::MtCgra | Arch::DmtCgra => (p.ops_per_cycle(), grid_units),
        };
        println!(
            "  {:>5} {:>10} {:>5.1}% {:>9.1} {:>6.1}% {:>12.3}",
            i,
            p.cycles,
            100.0 * p.cycles as f64 / m.cycles().max(1) as f64,
            ops,
            100.0 * ops / peak,
            e.total_j() * 1e6,
        );
    }
}
