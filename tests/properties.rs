//! Property-based tests over the communication machinery: for arbitrary
//! deltas, windows and inputs, the cycle-level fabric must agree with the
//! functional interpreter, and the elevator algebra must deliver exactly
//! one token per thread.

use dmt_core::common::geom::{Delta, Dim3};
use dmt_core::common::ids::Addr;
use dmt_core::dfg::node::CommConfig;
use dmt_core::{
    compiler, dfg::interp, fabric::FabricMachine, Kernel, KernelBuilder, LaunchInput, MemImage,
    SystemConfig, Word,
};
use proptest::prelude::*;

fn comm_kernel(delta: i32, window: u32, n: u32) -> Kernel {
    let mut kb = KernelBuilder::new("prop_comm", Dim3::linear(n));
    let inp = kb.param("in");
    let out = kb.param("out");
    let tid = kb.thread_idx(0);
    let a = kb.index_addr(inp, tid, 4);
    let x = kb.load_global(a);
    let v = kb.from_thread_or_const(x, Delta::new(delta), Word::from_i32(-1), Some(window));
    let s = kb.add_i(v, x);
    let oa = kb.index_addr(out, tid, 4);
    kb.store_global(oa, s);
    kb.finish().expect("well-formed")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Fabric == interpreter for arbitrary (delta, window) combinations.
    #[test]
    fn fabric_matches_interp_for_any_comm_pattern(
        delta in (-24i32..=24).prop_filter("non-zero", |d| *d != 0),
        window_pow in 3u32..=7, // windows 8..=128
        data in proptest::collection::vec(-1000i32..1000, 128),
    ) {
        let n = 128u32;
        let window = 1u32 << window_pow;
        prop_assume!((delta.unsigned_abs()) < window);
        let kernel = comm_kernel(delta, window, n);
        let mut mem = MemImage::with_words(2 * n as usize);
        mem.write_i32_slice(Addr(0), &data);
        let params = vec![Word::from_u32(0), Word::from_u32(4 * n)];

        let oracle = interp::run_ref(&kernel, &params, &mem).expect("interp");
        let cfg = SystemConfig::default();
        let program = compiler::compile(&kernel, &cfg).expect("compiles");
        let run = FabricMachine::new(cfg)
            .run(&program, LaunchInput::new(params, mem))
            .expect("fabric");
        prop_assert_eq!(run.memory, oracle.memory);
    }

    /// Every thread receives exactly one token from an elevator: either a
    /// forwarded value or the fallback constant (Fig 8 batch semantics).
    #[test]
    fn elevator_algebra_delivers_exactly_one_token_per_thread(
        shift in (-64i64..=64).prop_filter("non-zero", |s| *s != 0),
        window in 2u32..=256,
        threads in 1u32..=512,
    ) {
        prop_assume!(shift.unsigned_abs() < u64::from(window));
        let comm = CommConfig { shift, delta: Delta::new(-(shift as i32)), window };
        for t in 0..threads {
            let forwarded = comm.source_of(t, threads).is_some();
            // A thread gets the fallback exactly when it has no source.
            let _gets_const = !forwarded;
            // Sources and targets must be mutually consistent.
            if let Some(src) = comm.source_of(t, threads) {
                prop_assert_eq!(comm.target_of(src, threads), Some(t));
            }
            if let Some(dst) = comm.target_of(t, threads) {
                prop_assert_eq!(comm.source_of(dst, threads), Some(t));
            }
        }
        // Token conservation: #targets == #sources.
        let produced = (0..threads).filter(|&t| comm.target_of(t, threads).is_some()).count();
        let consumed = (0..threads).filter(|&t| comm.source_of(t, threads).is_some()).count();
        prop_assert_eq!(produced, consumed);
    }

    /// Prefix sums through the recurrent chain are correct for arbitrary
    /// inputs (wrapping arithmetic).
    #[test]
    fn recurrent_scan_is_correct_for_any_input(
        data in proptest::collection::vec(any::<i32>(), 64),
    ) {
        let n = 64u32;
        let mut kb = KernelBuilder::new("prop_scan", Dim3::linear(n));
        let inp = kb.param("in");
        let out = kb.param("out");
        let tid = kb.thread_idx(0);
        let a = kb.index_addr(inp, tid, 4);
        let x = kb.load_global(a);
        let (prev, rec) = kb.recurrent_from_thread_or_const(
            Delta::new(-1), Word::from_i32(0), None);
        let s = kb.add_i(prev, x);
        kb.close_recurrence(rec, s);
        let oa = kb.index_addr(out, tid, 4);
        kb.store_global(oa, s);
        let kernel = kb.finish().expect("well-formed");

        let mut mem = MemImage::with_words(2 * n as usize);
        mem.write_i32_slice(Addr(0), &data);
        let cfg = SystemConfig::default();
        let program = compiler::compile(&kernel, &cfg).expect("compiles");
        let run = FabricMachine::new(cfg)
            .run(&program, LaunchInput::new(
                vec![Word::from_u32(0), Word::from_u32(4 * n)], mem))
            .expect("fabric");
        let got = run.memory.read_i32_slice(Addr(4 * n as u64), n as usize);
        let mut acc = 0i32;
        for (i, &v) in data.iter().enumerate() {
            acc = acc.wrapping_add(v);
            prop_assert_eq!(got[i], acc, "index {}", i);
        }
    }
}

/// `result[tid] = in[tid/win]`, loaded once per window group by its
/// leader and forwarded to the rest through a windowed eLDST.
fn eldst_kernel(win: u32, n: u32) -> Kernel {
    let mut kb = KernelBuilder::new("prop_eldst", Dim3::linear(n));
    let inp = kb.param("in");
    let out = kb.param("out");
    let tid = kb.thread_idx(0);
    let w = kb.const_i(win as i32);
    let lane = kb.rem_i(tid, w);
    let zero = kb.const_i(0);
    let is_leader = kb.eq_i(lane, zero);
    let group = kb.div_i(tid, w);
    let ga = kb.index_addr(inp, group, 4);
    let v = kb.from_thread_or_mem(ga, is_leader, Delta::new(-1), Some(win));
    let oa = kb.index_addr(out, tid, 4);
    kb.store_global(oa, v);
    kb.finish().expect("well-formed")
}

// Differential stress for the hot-path engine structures: small in-flight
// windows exercise the ring-indexed matching stores right at (and past)
// their sizing bound, and replication exercises multi-fire on the
// active-node worklist. The optimized `FabricMachine` must agree with the
// reference interpreter on the final memory image *and* be cycle-exactly
// deterministic at every point.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Elevator kernels across (ΔTID, transmission window) × in-flight
    /// window × replication: memory equals the interpreter, cycle counts
    /// and every other counter repeat exactly. The replication range
    /// crosses `BATCH_MIN_REPLICATION`, so each delivery path the engine
    /// can pick meets compiled programs (real placement, `lvc_spilled`,
    /// `eldst_loop_latency`); the two paths against each other on one
    /// program is `dmt-fabric`'s own differential — the path is not
    /// selectable from here.
    #[test]
    fn fabric_matches_interp_under_window_and_replication(
        delta in (-6i32..=6).prop_filter("non-zero", |d| *d != 0),
        window_pow in 2u32..=6, // transmission windows 4..=64
        inflight_sel in 0usize..5,
        replication in 1u32..=16,
        data in proptest::collection::vec(-1000i32..1000, 64),
    ) {
        let n = 64u32;
        let window = 1u32 << window_pow;
        let inflight = [8u32, 16, 64, 512, 2048][inflight_sel];
        prop_assume!(delta.unsigned_abs() < window);
        let kernel = comm_kernel(delta, window, n);
        let mut mem = MemImage::with_words(2 * n as usize);
        mem.write_i32_slice(Addr(0), &data);
        let params = vec![Word::from_u32(0), Word::from_u32(4 * n)];

        let oracle = interp::run_ref(&kernel, &params, &mem).expect("interp");
        let mut cfg = SystemConfig::default();
        cfg.fabric.inflight_threads = inflight;
        let mut program = compiler::compile(&kernel, &cfg).expect("compiles");
        program.replication = replication;
        let machine = FabricMachine::new(cfg);
        let run = || {
            machine
                .run(&program, LaunchInput::new(params.clone(), mem.clone()))
                .expect("fabric")
        };
        let a = run();
        let b = run();
        prop_assert_eq!(&a.memory, &oracle.memory, "fabric diverges from interpreter");
        prop_assert_eq!(a.stats.cycles, b.stats.cycles, "nondeterministic cycles");
        prop_assert_eq!(a.stats, b.stats, "nondeterministic stats");
    }

    /// Windowed eLDST forwarding under small in-flight windows and
    /// replication: the token-buffer ring (forward values + parked
    /// threads) must preserve exact semantics.
    #[test]
    fn fabric_matches_interp_for_windowed_eldst(
        win_pow in 1u32..=4, // groups of 2..=16
        inflight_sel in 0usize..3,
        replication in 1u32..=3,
        data in proptest::collection::vec(-1000i32..1000, 32),
    ) {
        let n = 64u32;
        let win = 1u32 << win_pow;
        let inflight = [8u32, 32, 2048][inflight_sel];
        let groups = (n / win) as usize;
        let kernel = eldst_kernel(win, n);
        let mut mem = MemImage::with_words(groups + n as usize);
        mem.write_i32_slice(Addr(0), &data[..groups]);
        let params = vec![Word::from_u32(0), Word::from_u32(4 * groups as u32)];

        let oracle = interp::run_ref(&kernel, &params, &mem).expect("interp");
        let mut cfg = SystemConfig::default();
        cfg.fabric.inflight_threads = inflight;
        let mut program = compiler::compile(&kernel, &cfg).expect("compiles");
        program.replication = replication;
        let machine = FabricMachine::new(cfg);
        let run = || {
            machine
                .run(&program, LaunchInput::new(params.clone(), mem.clone()))
                .expect("fabric")
        };
        let a = run();
        let b = run();
        prop_assert_eq!(&a.memory, &oracle.memory, "fabric diverges from interpreter");
        prop_assert_eq!(a.stats.cycles, b.stats.cycles, "nondeterministic cycles");
        prop_assert_eq!(
            a.stats.global_loads, u64::from(n / win),
            "one load per window group"
        );
    }
}
