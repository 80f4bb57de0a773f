//! Firing: the active-node walk, block-fired pure compute nodes, and the
//! one-at-a-time path of memory, eLDST and elevator nodes.

use super::events::Ev;
use super::phase::PhaseExec;
use super::stores::EldstState;
use dmt_common::config::UnitClass;
use dmt_common::ids::{Addr, NodeId};
use dmt_common::memimg::MemImage;
use dmt_common::stats::RunStats;
use dmt_common::value::Word;
use dmt_common::{Error, Result};
use dmt_dfg::node::{eval_pure, MemSpace, NodeKind};
use dmt_mem::{AccessOutcome, Lvc, MemSystem, Scratchpad};
use dmt_obs::EdgeClass;

/// SoA scratch a block firing drains its ready operand sets into: the
/// thread ids and, after the tight evaluation loop, the result words.
/// One instance lives on [`PhaseExec`] (pooled across phases via
/// [`StoreArena`]) and is reused by every block, so steady-state block
/// firing allocates nothing.
#[derive(Debug, Default)]
pub(super) struct FireScratch {
    pub(super) tids: Vec<u32>,
    pub(super) vals: Vec<Word>,
}

/// Per-node firing invariants, precomputed once at phase load so firing
/// never re-matches `NodeKind` or re-reads `cfg.latencies` per token:
/// operand arity, the unit class that names the stat counter, the
/// result latency, and whether the node is pure compute (it can never
/// stall, so it block-fires).
#[derive(Debug, Clone, Copy)]
pub(super) struct FireMeta {
    /// Result latency (`now + latency` is the send base). Meaningful
    /// for pure nodes only; memory and communication nodes derive their
    /// timing inside their `fire_one` arms.
    pub(super) latency: u64,
    /// Unit class for stat accounting ([`UnitClass::LoadStore`] for
    /// non-pure nodes, where it is never read).
    pub(super) class: UnitClass,
    /// Operand arity (also the matching-store trigger: arity > 1).
    pub(super) arity: u8,
    /// Pure compute (`Alu/Fpu/Special/Ctrl/Unary/Select/Join/Split`):
    /// evaluated by `eval_pure`, never blocked, always block-fired. Note
    /// elevators are *not* pure despite `UnitClass::Control` — they
    /// re-tag tids and may touch the LVC.
    pub(super) pure: bool,
}

/// The `RunStats` operation counter a unit class increments per firing
/// (bumped once per block).
fn class_counter(stats: &mut RunStats, class: UnitClass) -> &mut u64 {
    match class {
        UnitClass::Alu => &mut stats.alu_ops,
        UnitClass::Fpu => &mut stats.fpu_ops,
        UnitClass::Special => &mut stats.special_ops,
        UnitClass::Control => &mut stats.control_ops,
        UnitClass::SplitJoin => &mut stats.sju_ops,
        UnitClass::LoadStore => unreachable!("pure compute classes only"),
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum Fired {
    Done,
    Blocked,
}

impl<'a> PhaseExec<'a> {
    /// Marks `node` as having a complete operand set ready to fire.
    #[inline]
    pub(super) fn mark_active(&mut self, ix: usize) {
        self.active[ix / 64] |= 1 << (ix % 64);
    }

    #[allow(clippy::too_many_arguments)]
    pub(super) fn fire_all(
        &mut self,
        global: &mut MemImage,
        shared_imgs: &mut [MemImage],
        mem: &mut MemSystem,
        scratch: &mut Scratchpad,
        lvc: &mut Lvc,
        stats: &mut RunStats,
    ) -> Result<()> {
        let mut any_blocked = false;
        // Each node exists once per graph replica, so it fires up to R
        // operations per cycle.
        let fires_per_cycle = self.program.replication;
        // Walk only nodes with ready operand sets, in ascending node order
        // (identical to the full scan this replaces). Firing never makes
        // another node ready in the same cycle — every send lands at
        // `now + 1` or later — so iterating a per-word snapshot is exact.
        for w in 0..self.active.len() {
            let mut word = self.active[w];
            while word != 0 {
                let bit = word.trailing_zeros() as usize;
                word &= word - 1;
                let ix = w * 64 + bit;
                let node = NodeId(ix as u32);
                let meta = self.meta[ix];
                if meta.pure {
                    // Pure compute never stalls: the whole quota-bounded
                    // block (of one, at replication 1) fires in one tight
                    // loop with dispatch, latency, stat and obs upkeep
                    // hoisted out (see the module docs).
                    let count = self.units[ix].ready.len().min(fires_per_cycle as usize);
                    self.fire_block(node, ix, count, meta, stats);
                    self.ready_total -= count as u32;
                    self.obs.node_fires(node.0, count as u64);
                } else {
                    for _ in 0..fires_per_cycle {
                        let Some((tid, ops)) = self.units[ix].ready.pop_front() else {
                            break;
                        };
                        match self.fire_one(
                            node,
                            tid,
                            ops,
                            global,
                            shared_imgs,
                            mem,
                            scratch,
                            lvc,
                            stats,
                        )? {
                            Fired::Done => {
                                self.ready_total -= 1;
                                self.obs.node_fire(node.0);
                            }
                            Fired::Blocked => {
                                // Structural stall: retry the same token
                                // next cycle (FIFO: back at the front, so
                                // the undrained tail keeps its order).
                                self.units[ix].ready.push_front((tid, ops));
                                any_blocked = true;
                                break;
                            }
                        }
                    }
                }
                if self.units[ix].ready.is_empty() {
                    self.active[w] &= !(1u64 << bit);
                }
            }
        }
        if any_blocked {
            stats.backpressure_cycles += 1;
        }
        Ok(())
    }

    /// Fires `count` ready operand sets of a pure compute node as one
    /// block: drain into the SoA scratch, evaluate in a tight loop with
    /// the `NodeKind` dispatch hoisted, bump the class counter once, and
    /// hand the whole result vector to [`PhaseExec::send_block`]. The
    /// caller guarantees `meta.pure` (the block can never stall) and
    /// `1 ≤ count ≤ ready.len()`.
    fn fire_block(
        &mut self,
        node: NodeId,
        ix: usize,
        count: usize,
        meta: FireMeta,
        stats: &mut RunStats,
    ) {
        let mut scratch = std::mem::take(&mut self.fire_scratch);
        scratch.tids.clear();
        scratch.vals.clear();
        scratch.tids.reserve(count);
        scratch.vals.reserve(count);
        // Borrowed at the phase lifetime (not `&self`) so the drain loop
        // below can hold `&mut self.units[ix]` concurrently.
        let kind: &'a NodeKind = self.phase.graph.kind(node);
        let arity = usize::from(meta.arity);
        let unit = &mut self.units[ix];
        for _ in 0..count {
            let (tid, ops) = unit.ready.pop_front().expect("caller bounded count");
            scratch.tids.push(tid);
            scratch.vals.push(eval_pure(kind, &ops[..arity]));
        }
        *class_counter(stats, meta.class) += count as u64;
        // Block-fired nodes are pure compute, hence ordinary dataflow
        // edges (elevators and eLDSTs never block-fire).
        self.send_block(
            node,
            EdgeClass::Direct,
            &scratch.tids,
            &scratch.vals,
            self.now + meta.latency,
            stats,
        );
        self.fire_scratch = scratch;
    }

    #[allow(clippy::too_many_arguments)]
    fn fire_one(
        &mut self,
        node: NodeId,
        tid: u32,
        ops: [Word; 3],
        global: &mut MemImage,
        shared_imgs: &mut [MemImage],
        mem: &mut MemSystem,
        scratch: &mut Scratchpad,
        lvc: &mut Lvc,
        stats: &mut RunStats,
    ) -> Result<Fired> {
        let lat = &self.cfg.latencies;
        // Borrowed from the phase program (lifetime `'a`, not `&self`), so
        // the match arms below can call `&mut self` methods — and firing
        // skips a `NodeKind` copy per operation.
        let kind: &'a NodeKind = self.phase.graph.kind(node);
        match *kind {
            NodeKind::Load(space) => {
                let Some((value, done)) = self.issue_load(
                    node,
                    tid,
                    ops[0],
                    space,
                    global,
                    shared_imgs,
                    mem,
                    scratch,
                    stats,
                )?
                else {
                    return Ok(Fired::Blocked);
                };
                self.send(node, tid, value, done, stats);
                Ok(Fired::Done)
            }
            NodeKind::Store(space) => {
                if self.units[node.index()].outstanding >= self.outstanding_cap() {
                    return Ok(Fired::Blocked);
                }
                let addr = Addr(u64::from(ops[0].as_u32()));
                // Stores are fire-and-forget: the unit hands the request to
                // the memory system (which books bandwidth and may fill a
                // line in the background) and acknowledges as soon as it is
                // accepted — the same treatment the SIMT baseline gets.
                let ack = match space {
                    MemSpace::Global => match mem.store(addr, self.now + lat.ldst_issue) {
                        AccessOutcome::Done(_fill) => {
                            stats.global_stores += 1;
                            global.try_store(addr, ops[1])?;
                            self.now + lat.ldst_issue + 1
                        }
                        AccessOutcome::StallMshrFull => return Ok(Fired::Blocked),
                    },
                    MemSpace::Shared => {
                        stats.shared_stores += 1;
                        let b = (tid / self.block_threads) as usize;
                        shared_imgs[b].try_store(addr, ops[1])?;
                        scratch.access(addr, self.now + lat.ldst_issue)
                    }
                };
                self.units[node.index()].outstanding += 1;
                self.schedule(ack, Ev::Release { node });
                // The ordering token (or sink completion) appears at the
                // acknowledgement.
                self.send(node, tid, Word::ZERO, ack, stats);
                Ok(Fired::Done)
            }
            NodeKind::Elevator { comm, .. } => {
                stats.elevator_ops += 1;
                let spilled = self.phase.lvc_spilled.contains(&node);
                if let Some(dst) = self.comm_target(&comm, tid) {
                    let base = if spilled {
                        // Producer writes the LVC; consumer reads it back.
                        let slot = Addr(u64::from(dst % self.cfg.mem.lvc.entries) * 4);
                        let written = lvc.write(slot, self.now + lat.elevator);
                        lvc.read(slot, written)
                    } else {
                        self.now + lat.elevator
                    };
                    self.send(node, dst, ops[0], base, stats);
                }
                // Fallback constants are generated at injection (see
                // `inject_block`), not here — a recurrent chain's first thread
                // must receive its constant before any input token exists.
                Ok(Fired::Done)
            }
            NodeKind::ELoad { comm, space } => {
                let enable = ops[1].as_bool();
                if enable {
                    let Some((value, done)) = self.issue_load(
                        node,
                        tid,
                        ops[0],
                        space,
                        global,
                        shared_imgs,
                        mem,
                        scratch,
                        stats,
                    )?
                    else {
                        return Ok(Fired::Blocked);
                    };
                    self.schedule(done, Ev::EloadProduce { node, tid, value });
                    return Ok(Fired::Done);
                }
                let Some(_) = self.comm_source(&comm, tid) else {
                    return Err(Error::Runtime(format!(
                        "eLDST {node}: thread {tid} has a false predicate but no in-window \
                         source thread"
                    )));
                };
                match self.eldst_remove(node.index(), tid) {
                    Some(EldstState::Fwd(v)) => {
                        stats.eldst_forwards += 1;
                        self.schedule(
                            self.now + lat.ldst_issue,
                            Ev::EloadProduce {
                                node,
                                tid,
                                value: v,
                            },
                        );
                    }
                    Some(EldstState::Parked) => unreachable!("thread {tid} fired twice"),
                    None => {
                        self.eldst_insert(node.index(), tid, EldstState::Parked);
                        self.parked_total += 1;
                    }
                }
                Ok(Fired::Done)
            }
            NodeKind::Const(_)
            | NodeKind::ThreadIdx(_)
            | NodeKind::BlockIdx
            | NodeKind::Param(_)
            | NodeKind::Alu(_)
            | NodeKind::Fpu(_)
            | NodeKind::Special(_)
            | NodeKind::Ctrl(_)
            | NodeKind::Unary(_)
            | NodeKind::Select
            | NodeKind::Join
            | NodeKind::Split => {
                unreachable!("{kind}: sources are injected and pure nodes block-fire")
            }
        }
    }
}
