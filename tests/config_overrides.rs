//! Every leaf of `SystemConfig`'s leaf list, set to 0 and to one past its
//! upper bound through the same setter `dmt-serve` applies overrides with,
//! either runs `convolution` to completion on all three machines or ends
//! `Infeasible` naming the leaf. Never a panic, a spin to the deadline or
//! an allocation abort: `validate` refuses the value before anything is
//! sized by it.

use std::panic::{catch_unwind, AssertUnwindSafe};

use dmt_bench::execute_job_limited;
use dmt_common::config::{CfgValue, Leaf};
use dmt_common::RunLimits;
use dmt_core::{Arch, SystemConfig};
use dmt_runner::{JobOutcome, JobSpec};

fn leaves(cfg: &SystemConfig) -> Vec<Leaf> {
    let mut out = Vec::new();
    cfg.visit_fields(&mut |leaf| out.push(leaf));
    out
}

#[test]
fn every_leaf_at_zero_and_past_its_bound_completes_or_is_refused_by_name() {
    let base = SystemConfig::default();
    let mut wrong = Vec::new();
    for leaf in leaves(&base) {
        let past = match *leaf.domain.end() {
            CfgValue::U64(n) => CfgValue::U64(n + 1),
            CfgValue::F64(x) => CfgValue::F64(x + 1.0),
        };
        for value in [CfgValue::U64(0), past] {
            let mut cfg = base;
            cfg.set_field(leaf.name, value)
                .unwrap_or_else(|e| panic!("{} = {value}: {e}", leaf.name));
            let admitted = cfg.validate().is_ok();
            for arch in Arch::ALL {
                let spec = JobSpec::new("convolution", arch, cfg, 42);
                let limits = RunLimits::deadline(5_000_000);
                let outcome =
                    catch_unwind(AssertUnwindSafe(|| execute_job_limited(&spec, &limits)));
                let fine = match &outcome {
                    Ok(JobOutcome::Completed(_)) => admitted,
                    Ok(JobOutcome::Infeasible(m)) => !admitted && m.contains(leaf.name),
                    _ => false,
                };
                if !fine {
                    let got = match outcome {
                        Ok(o) => format!("{o:?}"),
                        Err(_) => "panic".to_owned(),
                    };
                    wrong.push(format!("{} = {value} on {arch}: {got}", leaf.name));
                }
            }
        }
    }
    assert!(
        wrong.is_empty(),
        "{} bad outcomes:\n{}",
        wrong.len(),
        wrong.join("\n")
    );

    // The domains admit the Table 2 machine and every point the sweeps and
    // ablations run: `sweep_csv token_buffer` / `ablate_token_buffer`
    // (2..=128 entries) and `sweep_csv inflight` / `ablate_inflight`
    // (64..=4096 threads).
    base.validate().expect("Table 2 is valid");
    for tb in [2u32, 4, 8, 16, 32, 64, 128] {
        let mut cfg = base;
        cfg.fabric.token_buffer_entries = tb;
        cfg.validate()
            .unwrap_or_else(|e| panic!("token_buffer {tb}: {e}"));
    }
    for w in [64u32, 128, 256, 512, 1024, 2048, 4096] {
        let mut cfg = base;
        cfg.fabric.inflight_threads = w;
        cfg.validate()
            .unwrap_or_else(|e| panic!("inflight {w}: {e}"));
    }
}
