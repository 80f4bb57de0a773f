//! Engine-level tests that need the crate-private seam: the batched
//! delivery path against the per-token one on the *same program*
//! (`FabricMachine::run_with_delivery`), the entry-point checks of
//! `FabricMachine::run_limited`, and the engine's private structures —
//! the packed calendar word and the live-span rings' growth.
//!
//! Public callers only ever get the path the one rule picks
//! (`program.replication >= BATCH_MIN_REPLICATION`), so the differential
//! lives here: every fixture runs down both paths and must match the
//! reference interpreter on memory, and the two paths must agree on the
//! full `RunStats` (totals and per phase), on the rendered profile
//! artifact, and on the tracer's token accounting.

use super::events::{Ev, Packed};
use super::stores::{deliver_into, placed_live, EldstState, UnitState};
use super::*;
use crate::testutil::naive_program;
use dmt_common::geom::{Delta, Dim3};
use dmt_common::ids::{Addr, NodeId};
use dmt_common::value::Word;
use dmt_dfg::node::NodeKind;
use dmt_dfg::{interp, Kernel, KernelBuilder};
use dmt_obs::TraceEvent;
use std::collections::BTreeMap;

const STORM_THREADS: u32 = 512;

/// `out[tid] = tid*tid + tid`: the thread-id value fans out to four
/// consumers, so a handful of edges carry one token per thread each.
fn storm_kernel() -> Kernel {
    let mut kb = KernelBuilder::new("token_storm", Dim3::linear(STORM_THREADS));
    let out = kb.param("out");
    let tid = kb.thread_idx(0);
    let sq = kb.mul_i(tid, tid);
    let s = kb.add_i(sq, tid);
    let oa = kb.index_addr(out, tid, 4);
    kb.store_global(oa, s);
    kb.finish().expect("well-formed")
}

/// `out[tid] = in[tid] + in[tid + delta]` (fallback −1) through an
/// elevator with the given transmission window.
fn comm_kernel(delta: i32, window: u32, n: u32) -> Kernel {
    let mut kb = KernelBuilder::new("comm", Dim3::linear(n));
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

/// `out[tid] = in[tid / win]`, loaded once per window group by its leader
/// and forwarded to the rest through a windowed eLDST.
fn eldst_kernel(win: u32, n: u32) -> Kernel {
    let mut kb = KernelBuilder::new("eldst", Dim3::linear(n));
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

/// Deterministic, sign-mixed input words followed by `out_words` zeroed
/// output words; the parameters are the two base addresses.
fn in_out(in_words: u32, out_words: u32) -> (Vec<Word>, MemImage) {
    let data: Vec<i32> = (0..in_words as i32)
        .map(|i| i.wrapping_mul(2_654_435_761u32 as i32) >> 16)
        .collect();
    let mut mem = MemImage::with_words((in_words + out_words) as usize);
    mem.write_i32_slice(Addr(0), &data);
    (vec![Word::from_u32(0), Word::from_u32(4 * in_words)], mem)
}

/// The elevator / eLDST nodes of a single-phase program.
fn comm_nodes(program: &FabricProgram) -> Vec<NodeId> {
    let g = &program.phases[0].graph;
    g.node_ids()
        .filter(|&id| {
            matches!(
                g.kind(id),
                NodeKind::Elevator { .. } | NodeKind::ELoad { .. }
            )
        })
        .collect()
}

/// Tokens the tracer accounted for: every sampled window plus the final
/// unflushed one.
fn traced_tokens(obs: &Obs) -> u64 {
    let sampled: u64 = obs
        .tracer
        .events()
        .filter_map(|e| match e {
            TraceEvent::Sample {
                direct,
                elevator,
                eldst,
                ..
            } => Some(direct + elevator + eldst),
            _ => None,
        })
        .sum();
    sampled + obs.pending_window_tokens().iter().sum::<u64>()
}

/// Runs `program` down both delivery paths, observed, and checks every
/// contract in the module docs; `what` labels failures.
fn assert_deliveries_agree(
    what: &str,
    kernel: &Kernel,
    program: &FabricProgram,
    params: &[Word],
    mem: &MemImage,
) {
    let oracle = interp::run_ref(kernel, params, mem).expect("interp");
    let machine = FabricMachine::new(SystemConfig::default());
    let [batched, per_token] = [true, false].map(|batch_delivery| {
        let mut obs = Obs::new(true, true);
        let run = machine
            .run_with_delivery(
                program,
                LaunchInput::new(params.to_vec(), mem.clone()),
                &mut obs,
                &RunLimits::unlimited(),
                batch_delivery,
            )
            .unwrap_or_else(|e| panic!("{what} (batched={batch_delivery}): {e}"));
        assert_eq!(
            run.memory, oracle.memory,
            "{what} (batched={batch_delivery}) diverges from the interpreter"
        );
        // A coalesced delivery reports once per *token*, never once per
        // batch: per-edge totals equal per-class totals, and the tracer's
        // windows account for every one of them.
        let class_tokens: u64 = obs.profile.class_tokens.iter().sum();
        assert!(class_tokens > 0, "{what}: no tokens observed");
        assert_eq!(
            obs.profile.edge_tokens.values().sum::<u64>(),
            class_tokens,
            "{what} (batched={batch_delivery}): per-edge != per-class totals"
        );
        assert_eq!(
            traced_tokens(&obs),
            class_tokens,
            "{what} (batched={batch_delivery}): tracer loses or double-counts tokens"
        );
        assert_eq!(
            obs.tracer.dropped(),
            0,
            "{what}: ring overflow voids the sum"
        );
        (run.stats, obs.profile.to_json(10).render())
    });
    assert!(
        batched.0.phase_sums_match(),
        "{what}: per-phase sum != totals"
    );
    assert_eq!(
        batched.0, per_token.0,
        "{what}: deliveries disagree on RunStats"
    );
    assert_eq!(
        batched.1, per_token.1,
        "{what}: deliveries disagree on the profile"
    );
}

#[test]
fn delivery_paths_agree_on_the_token_storm() {
    let kernel = storm_kernel();
    let params = vec![Word::from_u32(0)];
    let mem = MemImage::with_words(STORM_THREADS as usize);
    let mut program = naive_program(&kernel, 12);
    for replication in [1, 16] {
        program.replication = replication;
        assert_deliveries_agree(
            &format!("storm R={replication}"),
            &kernel,
            &program,
            &params,
            &mem,
        );
    }
}

#[test]
fn delivery_paths_agree_on_the_elevator_storm() {
    let kernel = comm_kernel(-1, 64, STORM_THREADS);
    let (params, mem) = in_out(STORM_THREADS, STORM_THREADS);
    let mut program = naive_program(&kernel, 12);
    program.replication = 16;
    let elevators = comm_nodes(&program);
    assert_eq!(elevators.len(), 1);
    for spilled in [false, true] {
        // In the LVC the elevator's re-tagged token pays the spill
        // round-trip (port-contended, so arrivals bunch up).
        program.phases[0].lvc_spilled = if spilled {
            elevators.iter().copied().collect()
        } else {
            Default::default()
        };
        assert_deliveries_agree(
            &format!("elevator storm spilled={spilled}"),
            &kernel,
            &program,
            &params,
            &mem,
        );
    }
}

#[test]
fn delivery_paths_agree_across_comm_patterns_and_replications() {
    const N: u32 = 64;
    const REPLICATIONS: [u32; 7] = [1, 2, 5, 7, 8, 12, 16];
    for window in [4u32, 8, 16, 32, 64] {
        for delta in (-6i32..=6).filter(|&d| d != 0 && d.unsigned_abs() < window) {
            let kernel = comm_kernel(delta, window, N);
            let (params, mem) = in_out(N, N);
            let mut program = naive_program(&kernel, 12);
            for replication in REPLICATIONS {
                program.replication = replication;
                assert_deliveries_agree(
                    &format!("elevator Δ={delta} window={window} R={replication}"),
                    &kernel,
                    &program,
                    &params,
                    &mem,
                );
            }
        }
        // The windowed eLDST at the same window, with the Fig 10b loop
        // latency on odd rounds and the LVC spill on the widest windows.
        let kernel = eldst_kernel(window, N);
        let (params, mem) = in_out(N / window, N);
        let mut program = naive_program(&kernel, 12);
        let eldsts = comm_nodes(&program);
        if window >= 32 {
            program.phases[0].lvc_spilled = eldsts.iter().copied().collect();
        } else if window >= 8 {
            program.phases[0].eldst_loop_latency = eldsts.iter().map(|&n| (n, 3)).collect();
        }
        for replication in REPLICATIONS {
            program.replication = replication;
            assert_deliveries_agree(
                &format!("eLDST window={window} R={replication}"),
                &kernel,
                &program,
                &params,
                &mem,
            );
        }
    }
}

/// A launch that could never admit a thread used to spin the cycle loop
/// for ever (`can_inject()` stays true, so `now += 1` and nothing else).
/// Both ways of asking for one are typed errors at the entry point: these
/// run under `RunLimits::unlimited()`, so returning at all is the test.
fn zero_width_error(cfg: SystemConfig, replication: u32) -> String {
    let kernel = storm_kernel();
    let mut program = naive_program(&kernel, 12);
    program.replication = replication;
    let input = LaunchInput::new(vec![Word::from_u32(0)], MemImage::with_words(512));
    match FabricMachine::new(cfg).run(&program, input) {
        Err(Error::Config(m)) => m,
        other => panic!("expected Error::Config, got {other:?}"),
    }
}

#[test]
fn zero_replication_is_a_config_error_not_a_spin() {
    let m = zero_width_error(SystemConfig::default(), 0);
    assert!(m.contains("replication"), "{m}");
}

#[test]
fn zero_threads_injected_per_cycle_is_a_config_error_not_a_spin() {
    let mut cfg = SystemConfig::default();
    cfg.fabric.threads_injected_per_cycle = 0;
    let m = zero_width_error(cfg, 1);
    assert!(m.contains("fabric.threads_injected_per_cycle"), "{m}");
}

#[test]
fn every_event_round_trips_through_its_packed_word() {
    assert_eq!(std::mem::size_of::<Packed>(), 16);
    let edges = [
        (0, 0, 0, 0),
        (u32::MAX, u8::MAX, u32::MAX - 1, u32::MAX),
        (1, 2, 0x8000_0000, 0xdead_beef),
    ];
    for (node, port, tid, value) in edges {
        let (node, value) = (NodeId(node), Word(value));
        for ev in [
            Ev::Deliver {
                node,
                port,
                tid,
                value,
            },
            Ev::EloadProduce { node, tid, value },
            Ev::EloadOffer { node, tid, value },
            Ev::Release { node },
            Ev::SinkDone { tid },
            Ev::Batch { batch: value.0 },
        ] {
            assert_eq!(Ev::from(Packed::from(ev)), ev);
        }
    }
}

/// Tids that all share slot 3 of a 16-slot ring. 35 and 3 still share
/// one at 32 slots, so claiming 3 next to a live 35 doubles twice and
/// moves 35 up to slot 35; 67 then doubles once more, to 128.
const COLLIDING: [u32; 4] = [35, 3, 19, 67];

/// The operand word tid `tid` sends on `port`.
fn operand(tid: u32, port: u8) -> Word {
    Word(tid * 10 + u32::from(port))
}

/// `tid`'s complete operand set at the given arity.
fn operand_set(tid: u32, arity: u8) -> (u32, [Word; 3]) {
    let mut ops = [Word::ZERO; 3];
    for port in 0..arity {
        ops[usize::from(port)] = operand(tid, port);
    }
    (tid, ops)
}

#[test]
fn matching_ring_growth_is_invisible() {
    for arity in [2u8, 3] {
        let mut arena = StoreArena::default();
        let mut unit = UnitState {
            pending: arena.match_ring(),
            ..UnitState::default()
        };
        let start = unit.pending.len();
        let mut obs = Obs::new(false, true);
        for port in 0..arity - 1 {
            for (k, &tid) in COLLIDING.iter().enumerate() {
                assert!(!deliver_into(
                    &mut unit,
                    &mut obs,
                    arity,
                    port,
                    tid,
                    operand(tid, port)
                ));
                if port == 0 && k == 1 {
                    assert_eq!(unit.pending.len(), 4 * start, "two doublings");
                }
            }
        }
        // One claim per set, none for the slots growth moved.
        assert_eq!(obs.ring_live(), COLLIDING.len() as u64);
        assert_eq!(unit.pending.len(), 8 * start, "three doublings");
        assert_eq!(placed_live(&unit.pending), Some(COLLIDING.len()));
        // The last ports arrive in reverse: sets complete in that order.
        let last = arity - 1;
        for (k, &tid) in COLLIDING.iter().rev().enumerate() {
            assert!(deliver_into(
                &mut unit,
                &mut obs,
                arity,
                last,
                tid,
                operand(tid, last)
            ));
            assert_eq!(obs.ring_live(), (COLLIDING.len() - k - 1) as u64);
        }
        let done: Vec<_> = unit.ready.drain(..).collect();
        let want: Vec<_> = COLLIDING
            .iter()
            .rev()
            .map(|&t| operand_set(t, arity))
            .collect();
        assert_eq!(done, want, "arity {arity}");
        assert_eq!(placed_live(&unit.pending), Some(0));
    }
}

#[test]
fn matching_ring_matches_a_map_under_random_collisions() {
    // Deterministic LCG; tids ≡ 5 (mod 16), so every one collides at
    // the starting size and growth keeps firing as the live span widens.
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let mut rng = move |n: u64| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) % n
    };
    let arity = 3u8;
    let mut arena = StoreArena::default();
    let mut unit = UnitState {
        pending: arena.match_ring(),
        ..UnitState::default()
    };
    let mut obs = Obs::new(false, true);
    // Each tid's ports in a shuffled order, consumed from the back.
    let mut todo: Vec<(u32, Vec<u8>)> = (0..200u32)
        .map(|k| {
            let mut ports = vec![0u8, 1, 2];
            ports.swap(0, rng(3) as usize);
            ports.swap(1, 1 + rng(2) as usize);
            (5 + 16 * k, ports)
        })
        .collect();
    let mut partial: BTreeMap<u32, u8> = BTreeMap::new();
    let mut want = Vec::new();
    while !todo.is_empty() {
        // Favour the oldest tids so the live span slides forward.
        let i = rng(todo.len().min(24) as u64) as usize;
        let (tid, port) = (todo[i].0, todo[i].1.pop().expect("non-empty"));
        if todo[i].1.is_empty() {
            todo.remove(i);
        }
        let filled = partial.entry(tid).or_insert(0);
        *filled += 1;
        let completes = *filled == arity;
        if completes {
            partial.remove(&tid);
            want.push(operand_set(tid, arity));
        }
        let got = deliver_into(&mut unit, &mut obs, arity, port, tid, operand(tid, port));
        assert_eq!(got, completes, "tid {tid} port {port}");
        assert_eq!(obs.ring_live(), partial.len() as u64);
        assert_eq!(placed_live(&unit.pending), Some(partial.len()));
    }
    assert_eq!(unit.ready.drain(..).collect::<Vec<_>>(), want);
    assert!(unit.pending.len() > 16, "growth exercised");
}

#[test]
fn eldst_ring_growth_is_invisible() {
    let kernel = eldst_kernel(8, 256);
    let program = naive_program(&kernel, 12);
    let ix = comm_nodes(&program)[0].index();
    let cfg = SystemConfig::default();
    let params = [Word::from_u32(0), Word::from_u32(128)];
    let mut arena = StoreArena::default();
    let mut obs = Obs::new(false, true);
    let mut exec = PhaseExec::new(
        &cfg,
        &program,
        &program.phases[0],
        0,
        &params,
        0,
        1,
        &mut arena,
        &mut obs,
        false,
    );
    let start = exec.units[ix].eldst.len();
    let state = |k: usize, tid: u32| {
        if k % 2 == 0 {
            EldstState::Fwd(operand(tid, 0))
        } else {
            EldstState::Parked
        }
    };
    for (k, &tid) in COLLIDING.iter().enumerate() {
        exec.eldst_insert(ix, tid, state(k, tid));
        assert_eq!(exec.obs.ring_live(), k as u64 + 1);
        if k == 1 {
            assert_eq!(exec.units[ix].eldst.len(), 4 * start, "two doublings");
        }
    }
    assert_eq!(exec.units[ix].eldst.len(), 8 * start, "three doublings");
    assert_eq!(placed_live(&exec.units[ix].eldst), Some(COLLIDING.len()));
    // 131 aliases the live 3 even at 128 slots: a miss, not a hit.
    assert_eq!(exec.eldst_remove(ix, 131), None);
    for (k, &tid) in COLLIDING.iter().enumerate() {
        assert_eq!(exec.eldst_remove(ix, tid), Some(state(k, tid)));
        assert_eq!(exec.eldst_remove(ix, tid), None);
        assert_eq!(exec.obs.ring_live(), (COLLIDING.len() - k - 1) as u64);
    }
}
