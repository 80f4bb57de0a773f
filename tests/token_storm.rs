//! Token-storm coverage for edge-batched delivery: many threads, a tiny
//! graph, one hot edge.
//!
//! A small kernel compiles at the replication cap (16 graph copies), so a
//! firing node emits up to 16 tokens per cycle down the *same* edge —
//! exactly the traffic pattern the edge-batched delivery path in
//! `dmt-fabric` coalesces into one calendar event per `(edge, cycle)`,
//! and past `BATCH_MIN_REPLICATION`, so that is the path the engine takes.
//! The golden fixture pins the storm's cycles, token counters and output
//! checksum on all three backends (regenerate with `DMT_UPDATE_GOLDEN=1`,
//! like `tests/golden_smoke.rs`), and both storms are checked against the
//! interpreter. Batched-vs-per-token delivery on the *same* program is
//! `dmt-fabric`'s own differential (`crates/fabric/src/machine/tests.rs`):
//! the path is not selectable from outside the crate.

use dmt_core::common::geom::Dim3;
use dmt_core::common::ids::Addr;
use dmt_core::fabric::{FabricMachine, BATCH_MIN_REPLICATION};
use dmt_core::{
    compiler, dfg::interp, Arch, Kernel, KernelBuilder, LaunchInput, Machine, MemImage,
    SystemConfig, Word,
};

const THREADS: u32 = 512;

/// `out[tid] = tid*tid + tid` over a five-node graph: the thread-id value
/// fans out to both multiplier inputs, the adder and the address
/// computation, so each of its out-edges carries one token per thread —
/// `THREADS` tokens through a handful of edges, the storm the batcher
/// must keep in per-edge FIFO order. Deliberately store-only: a single
/// load/store unit keeps the graph tiny enough to replicate past the
/// batching threshold (`storm_compiles_past_the_batching_threshold`).
fn storm_kernel() -> Kernel {
    let mut kb = KernelBuilder::new("token_storm", Dim3::linear(THREADS));
    let out = kb.param("out");
    let tid = kb.thread_idx(0);
    let sq = kb.mul_i(tid, tid);
    let s = kb.add_i(sq, tid);
    let oa = kb.index_addr(out, tid, 4);
    kb.store_global(oa, s);
    kb.finish().expect("token-storm kernel is well-formed")
}

fn storm_input() -> (Vec<Word>, MemImage) {
    (
        vec![Word::from_u32(0)],
        MemImage::with_words(THREADS as usize),
    )
}

fn output_checksum(mem: &MemImage) -> u64 {
    mem.read_i32_slice(Addr(0), THREADS as usize)
        .iter()
        .fold(0u64, |h, &v| h.rotate_left(5) ^ u64::from(v as u32))
}

/// With `DMT_UPDATE_GOLDEN=1`, rewrites the fixture instead of comparing
/// (the test then trivially passes; review the diff before committing).
fn check_or_update(got: &str, want: &str, fixture: &str) {
    if std::env::var_os("DMT_UPDATE_GOLDEN").is_some() {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("tests/fixtures")
            .join(fixture);
        std::fs::write(&path, got).unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
        eprintln!("updated {}", path.display());
        return;
    }
    assert!(
        got == want,
        "token-storm output drifted from the golden fixture {fixture} \
         (DMT_UPDATE_GOLDEN=1 regenerates after intentional changes)\n\
         --- got ---\n{got}\n--- want ---\n{want}"
    );
}

/// The storm on all three backends, pinned byte-for-byte: simulated
/// cycles, the token-traffic counters the batcher touches, and the
/// output checksum.
#[test]
fn storm_report_is_byte_identical_to_fixture() {
    let kernel = storm_kernel();
    let cfg = SystemConfig::default();
    let mut got = format!("token_storm threads={THREADS}\n");
    for arch in Arch::ALL {
        let (params, mem) = storm_input();
        let report = Machine::new(arch, cfg)
            .run(&kernel, LaunchInput::new(params, mem))
            .unwrap_or_else(|e| panic!("token_storm on {arch}: {e}"));
        let s = &report.stats;
        got.push_str(&format!(
            "{:<8} cycles={} tokens_routed={} noc_hops={} token_buffer_writes={} \
             threads_retired={} checksum={:#018x}\n",
            arch.key(),
            s.cycles,
            s.tokens_routed,
            s.noc_hops,
            s.token_buffer_writes,
            s.threads_retired,
            output_checksum(&report.memory),
        ));
    }
    check_or_update(
        &got,
        include_str!("fixtures/token_storm.golden.txt"),
        "token_storm.golden.txt",
    );
}

/// The storm graph is small enough to replicate at the cap, which is past
/// the threshold — the engine really does take the batched delivery path
/// on this fixture.
#[test]
fn storm_compiles_past_the_batching_threshold() {
    let cfg = SystemConfig::default();
    let program = compiler::compile(&storm_kernel(), &cfg).expect("compiles");
    assert!(
        program.replication >= BATCH_MIN_REPLICATION,
        "storm replication {} is below the batching threshold {}; the \
         fixture no longer exercises edge-batched delivery",
        program.replication,
        BATCH_MIN_REPLICATION
    );
}

/// The storm through an elevator: each thread receives its left
/// neighbour's loaded value, so the hot edges cross the re-tagging path
/// (dMT-only; the elevator's fan-in/fan-out edges batch like any other).
fn elevator_kernel() -> Kernel {
    let mut kb = KernelBuilder::new("token_storm_elev", Dim3::linear(THREADS));
    let inp = kb.param("in");
    let out = kb.param("out");
    let tid = kb.thread_idx(0);
    let a = kb.index_addr(inp, tid, 4);
    let x = kb.load_global(a);
    let prev = kb.from_thread_or_const(
        x,
        dmt_core::common::geom::Delta::new(-1),
        Word::from_i32(0),
        Some(64),
    );
    let s = kb.add_i(prev, x);
    let oa = kb.index_addr(out, tid, 4);
    kb.store_global(oa, s);
    kb.finish().expect("well-formed")
}

fn elevator_input() -> (Vec<Word>, MemImage) {
    // Deterministic, sign-mixed data (no RNG needed for a fixture).
    let data: Vec<i32> = (0..THREADS as i32)
        .map(|i| (i.wrapping_mul(2_654_435_761u32 as i32)) >> 16)
        .collect();
    let mut mem = MemImage::with_words(2 * THREADS as usize);
    mem.write_i32_slice(Addr(0), &data);
    (vec![Word::from_u32(0), Word::from_u32(4 * THREADS)], mem)
}

/// Both storms as compiled (real placement, replication and spill
/// decisions) on the engine, against the functional interpreter.
#[test]
fn storms_match_the_interpreter() {
    let cfg = SystemConfig::default();
    let fixtures = [
        ("storm", storm_kernel(), storm_input()),
        ("elevator", elevator_kernel(), elevator_input()),
    ];
    for (name, kernel, (params, mem)) in fixtures {
        let program = compiler::compile(&kernel, &cfg).expect("compiles");
        let oracle = interp::run_ref(&kernel, &params, &mem).expect("interp");
        let run = FabricMachine::new(cfg)
            .run(&program, LaunchInput::new(params, mem))
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(
            run.memory, oracle.memory,
            "{name} diverges from the interpreter"
        );
        assert_eq!(run.stats.threads_retired, u64::from(THREADS), "{name}");
    }
}
