//! One phase's execution state and its cycle loop: construction from the
//! phase program, thread injection, retirement, and `run`.

use super::events::{DueCursor, EdgeOut, Ev, OpenBatch, Packed, TokenBatch};
use super::fire::{FireMeta, FireScratch};
use super::stores::{EldstState, StoreArena, UnitState, EMPTY_TAG};
use crate::program::{FabricProgram, PhaseProgram};
use dmt_common::config::{SystemConfig, UnitClass};
use dmt_common::ids::NodeId;
use dmt_common::memimg::MemImage;
use dmt_common::sched::CalendarQueue;
use dmt_common::stats::RunStats;
use dmt_common::value::Word;
use dmt_common::{Error, Result, RunLimits};
use dmt_dfg::node::NodeKind;
use dmt_mem::{Lvc, MemSystem, Scratchpad};
use dmt_obs::{CycleSample, EdgeClass, Obs};

pub(super) struct PhaseExec<'a> {
    pub(super) cfg: &'a SystemConfig,
    pub(super) program: &'a FabricProgram,
    pub(super) phase: &'a PhaseProgram,
    /// First block of this execution (streaming runs cover all blocks).
    pub(super) block: u32,
    pub(super) params: &'a [Word],
    /// Total threads executed by this PhaseExec (one block, or the whole
    /// launch when streaming).
    pub(super) threads: u32,
    /// Threads per block — communication and thread coordinates are always
    /// block-local (§3.1: threads communicate within a thread block).
    pub(super) block_threads: u32,
    pub(super) units: Vec<UnitState>,
    /// Bitmask over nodes with at least one complete operand set; firing
    /// walks set bits in ascending node order.
    pub(super) active: Vec<u64>,
    /// Per-node firing invariants (arity, class, latency, purity),
    /// precomputed at phase load (see [`FireMeta`]).
    pub(super) meta: Vec<FireMeta>,
    pub(super) events: CalendarQueue<Packed>,
    /// Global schedule sequence: one increment per *logical* event (each
    /// token and each bookkeeping event), batched or not. Doubles as the
    /// scheduled-event total the profile reports.
    pub(super) seq: u64,
    /// Logical events handled so far; `seq − handled` is the pending
    /// logical depth the cycle samples report (token-denominated, so
    /// batching is invisible to the observability layer).
    pub(super) handled: u64,
    /// Per-token delivery (no coalescing): the launch's replication is
    /// below [`BATCH_MIN_REPLICATION`]; see the module docs.
    pub(super) unbatched: bool,
    /// Block-firing SoA scratch, pooled across phases via [`StoreArena`].
    pub(super) fire_scratch: FireScratch,
    /// `edge_base[n]` = id of node `n`'s first out-edge; edge `(n, i)`
    /// has id `edge_base[n] + i` (aligned with `graph.consumers(n)`).
    /// Carries an end sentinel: node `n`'s out-degree is
    /// `edge_base[n + 1] − edge_base[n]`.
    pub(super) edge_base: Vec<u32>,
    /// Flat CSR out-edge payload, indexed by edge id (see `edge_base`).
    pub(super) out_edges: Vec<EdgeOut>,
    /// Per-node Σ hops over out-edges (bulk NoC-hop accounting in `send`).
    pub(super) hops_sum: Vec<u64>,
    /// Per-edge open batch (indexed by edge id).
    pub(super) open: Vec<OpenBatch>,
    /// Batch slab; `Ev::Batch` holds indices into it. Payloads are read
    /// in place during delivery and cleared in place afterwards — no
    /// per-cycle moves.
    pub(super) batches: Vec<TokenBatch>,
    /// Free slab slots (their payload capacity is retained in place).
    pub(super) free_batches: Vec<u32>,
    /// Spare cleared batches (arena-pooled across phases).
    pub(super) batch_pool: Vec<TokenBatch>,
    /// Per-cycle scratch: due batches with merge cursors.
    pub(super) due_batches: Vec<DueCursor>,
    pub(super) now: u64,
    pub(super) next_inject: u32,
    pub(super) retire_floor: u32,
    pub(super) retired: Vec<bool>,
    pub(super) sinks_done: Vec<u32>,
    pub(super) sink_count: u32,
    pub(super) retired_count: u32,
    /// Operand sets currently in `ready` queues (completion check).
    pub(super) ready_total: u32,
    /// Threads currently parked at eLDST buffers (completion check).
    pub(super) parked_total: u32,
    /// The run's observation handle (disabled on unobserved runs; every
    /// report degrades to one branch — see `dmt_obs`).
    pub(super) obs: &'a mut Obs,
    pub(super) source_nodes: Vec<NodeId>,
    /// Elevator nodes with their configuration: fallback constants are
    /// generated at thread injection (the controller tracks the TID stream,
    /// so window-start threads get their constant without waiting for any
    /// data token — essential for recurrent chains like Fig 6).
    pub(super) elevator_nodes: Vec<(NodeId, dmt_dfg::node::CommConfig, Word)>,
}

impl<'a> PhaseExec<'a> {
    #[allow(clippy::too_many_arguments)]
    pub(super) fn new(
        cfg: &'a SystemConfig,
        program: &'a FabricProgram,
        phase: &'a PhaseProgram,
        block: u32,
        params: &'a [Word],
        start: u64,
        blocks_covered: u32,
        arena: &mut StoreArena,
        obs: &'a mut Obs,
        batch_delivery: bool,
    ) -> PhaseExec<'a> {
        let n = phase.graph.len();
        let threads = program.threads_per_block() * blocks_covered;
        let sink_count = phase
            .graph
            .node_ids()
            .filter(|&id| phase.graph.consumers(id).is_empty())
            .count() as u32;
        let source_nodes: Vec<NodeId> = phase
            .graph
            .node_ids()
            .filter(|&id| phase.graph.kind(id).is_source())
            .collect();
        let elevator_nodes: Vec<(NodeId, dmt_dfg::node::CommConfig, Word)> = phase
            .graph
            .node_ids()
            .filter_map(|id| match *phase.graph.kind(id) {
                NodeKind::Elevator { comm, fallback } => Some((id, comm, fallback)),
                _ => None,
            })
            .collect();
        let lat = &cfg.latencies;
        let meta: Vec<FireMeta> = phase
            .graph
            .node_ids()
            .map(|id| {
                let kind = phase.graph.kind(id);
                let pure = matches!(
                    kind,
                    NodeKind::Alu(_)
                        | NodeKind::Fpu(_)
                        | NodeKind::Special(_)
                        | NodeKind::Ctrl(_)
                        | NodeKind::Unary(_)
                        | NodeKind::Select
                        | NodeKind::Join
                        | NodeKind::Split
                );
                let (latency, class) = if pure {
                    let class = kind.unit_class().expect("compute node");
                    let latency = match class {
                        UnitClass::Alu => lat.alu,
                        UnitClass::Fpu => lat.fpu,
                        UnitClass::Special => lat.special,
                        UnitClass::Control => lat.control,
                        UnitClass::SplitJoin => lat.sju,
                        UnitClass::LoadStore => unreachable!("pure nodes are not load/store"),
                    };
                    (latency, class)
                } else {
                    (0, UnitClass::LoadStore)
                };
                FireMeta {
                    latency,
                    class,
                    arity: kind.arity() as u8,
                    pure,
                }
            })
            .collect();
        let mut units = Vec::with_capacity(n);
        for id in phase.graph.node_ids() {
            // Single-operand nodes never match: a token is an operand set
            // by itself, so delivery bypasses the ring (see
            // `deliver_into`) and no ring is allocated.
            let needs_store = meta[id.index()].arity > 1;
            let is_eldst = matches!(phase.graph.kind(id), NodeKind::ELoad { .. });
            units.push(UnitState {
                pending: if needs_store {
                    arena.match_ring()
                } else {
                    Vec::new()
                },
                eldst: if is_eldst {
                    arena.eldst_ring()
                } else {
                    Vec::new()
                },
                ..UnitState::default()
            });
        }
        // Edge ids: a prefix sum over out-degrees (with an end sentinel),
        // so the per-edge tables are flat arrays indexed in O(1) from
        // `send`. `out_edges` is the CSR payload: destination, port, and
        // the edge's precomputed arrival delta (hop latency already
        // multiplied in), replacing two nested-`Vec` derefs and a multiply
        // per token on the hot send path.
        let mut edge_base = Vec::with_capacity(n + 1);
        let mut edges = 0u32;
        for id in phase.graph.node_ids() {
            edge_base.push(edges);
            edges += phase.graph.consumers(id).len() as u32;
        }
        edge_base.push(edges);
        let mut out_edges = Vec::with_capacity(edges as usize);
        let mut hops_sum = Vec::with_capacity(n);
        for id in phase.graph.node_ids() {
            let row = &phase.edge_hops[id.index()];
            hops_sum.push(row.iter().sum());
            for (i, &(consumer, port)) in phase.graph.consumers(id).iter().enumerate() {
                out_edges.push(EdgeOut {
                    node: consumer.0,
                    port: port.0,
                    delta: cfg.fabric.noc_hop_latency * row[i],
                });
            }
        }
        PhaseExec {
            cfg,
            program,
            phase,
            block,
            params,
            threads,
            block_threads: program.threads_per_block(),
            units,
            active: vec![0u64; n.div_ceil(64)],
            meta,
            events: CalendarQueue::new(),
            seq: 0,
            handled: 0,
            unbatched: !batch_delivery,
            fire_scratch: std::mem::take(&mut arena.fire_scratch),
            edge_base,
            out_edges,
            hops_sum,
            open: vec![OpenBatch::CLOSED; edges as usize],
            batches: Vec::new(),
            free_batches: Vec::new(),
            batch_pool: std::mem::take(&mut arena.token_batches),
            due_batches: Vec::new(),
            now: start,
            next_inject: 0,
            retire_floor: 0,
            retired: vec![false; threads as usize],
            sinks_done: vec![0; threads as usize],
            sink_count,
            retired_count: 0,
            ready_total: 0,
            parked_total: 0,
            obs,
            source_nodes,
            elevator_nodes,
        }
    }

    fn source_value(&self, kind: &NodeKind, tid: u32) -> Word {
        match *kind {
            NodeKind::Const(w) => w,
            NodeKind::ThreadIdx(dim) => Word::from_u32(
                self.program
                    .block
                    .coord(dmt_common::ids::ThreadId(tid % self.block_threads), dim),
            ),
            NodeKind::BlockIdx => Word::from_u32(self.block + tid / self.block_threads),
            NodeKind::Param(slot) => self.params[usize::from(slot)],
            ref other => unreachable!("not a source: {other}"),
        }
    }

    /// Block-local communication: the sender of `tid`'s token, or `None`
    /// at window/block boundaries. Streaming runs carry several blocks in
    /// one tid space; communication never crosses a block.
    pub(super) fn comm_source(&self, comm: &dmt_dfg::node::CommConfig, tid: u32) -> Option<u32> {
        let local = tid % self.block_threads;
        comm.source_of(local, self.block_threads)
            .map(|src_local| tid - local + src_local)
    }

    /// Block-local communication: the receiver of `tid`'s token.
    pub(super) fn comm_target(&self, comm: &dmt_dfg::node::CommConfig, tid: u32) -> Option<u32> {
        let local = tid % self.block_threads;
        comm.target_of(local, self.block_threads)
            .map(|dst_local| tid - local + dst_local)
    }

    fn can_inject(&self) -> bool {
        self.next_inject < self.threads
            && self.next_inject < self.retire_floor + self.cfg.fabric.inflight_threads
    }

    /// Admits this cycle's threads: each source node fans its whole
    /// intake out through one [`PhaseExec::send_block`] (a block of one
    /// when a single thread enters), hoisting the `NodeKind` lookup, edge
    /// walk, stat upkeep, and observer report out of the thread loop.
    /// Source-major order is output-invariant: source nodes own disjoint
    /// out-edges, every per-edge stream stays ascending in tid, and each
    /// consumer's completion order follows its last-arriving port's
    /// stream — the same commutation argument the module docs make for
    /// block-fired compute nodes.
    fn inject_block(&mut self, stats: &mut RunStats) {
        // One injector per graph replica (§3): R threads enter per cycle.
        let per_cycle = self.cfg.fabric.threads_injected_per_cycle * self.program.replication;
        // Both injection bounds depend only on `next_inject` (the retire
        // floor moves during delivery, not here), so the cycle's intake
        // is a contiguous tid block known up front.
        let cap = (self.retire_floor + self.cfg.fabric.inflight_threads).min(self.threads);
        let count = per_cycle.min(cap.saturating_sub(self.next_inject));
        if count == 0 {
            return;
        }
        let t0 = self.next_inject;
        self.next_inject += count;
        let mut scratch = std::mem::take(&mut self.fire_scratch);
        scratch.tids.clear();
        scratch.tids.extend(t0..t0 + count);
        for i in 0..self.source_nodes.len() {
            let node = self.source_nodes[i];
            scratch.vals.clear();
            let kind = self.phase.graph.kind(node);
            for tid in t0..t0 + count {
                scratch.vals.push(self.source_value(kind, tid));
            }
            self.send_block(
                node,
                EdgeClass::Direct,
                &scratch.tids,
                &scratch.vals,
                self.now,
                stats,
            );
        }
        for i in 0..self.elevator_nodes.len() {
            let (node, comm, fallback) = self.elevator_nodes[i];
            scratch.tids.clear();
            scratch.vals.clear();
            for tid in t0..t0 + count {
                if self.comm_source(&comm, tid).is_none() {
                    scratch.tids.push(tid);
                    scratch.vals.push(fallback);
                }
            }
            if !scratch.tids.is_empty() {
                stats.elevator_const_tokens += scratch.tids.len() as u64;
                self.send_block(
                    node,
                    EdgeClass::Elevator,
                    &scratch.tids,
                    &scratch.vals,
                    self.now + self.cfg.latencies.elevator,
                    stats,
                );
            }
        }
        self.fire_scratch = scratch;
    }

    fn sink_done(&mut self, tid: u32, stats: &mut RunStats) {
        let t = tid as usize;
        self.sinks_done[t] += 1;
        if self.sinks_done[t] == self.sink_count && !self.retired[t] {
            self.retired[t] = true;
            self.retired_count += 1;
            stats.threads_retired += 1;
            while (self.retire_floor as usize) < self.retired.len()
                && self.retired[self.retire_floor as usize]
            {
                self.retire_floor += 1;
            }
        }
    }

    fn complete(&self) -> bool {
        self.retired_count == self.threads
            && self.events.is_empty()
            && self.ready_total == 0
            && self.parked_total == 0
    }

    fn has_local_work(&self) -> bool {
        self.can_inject() || self.ready_total > 0
    }

    /// Parked tids at each node (deadlock diagnostics; cold path).
    fn parked_report(&self) -> Vec<String> {
        self.units
            .iter()
            .enumerate()
            .filter_map(|(i, u)| {
                let mut tids: Vec<u32> = u
                    .eldst
                    .iter()
                    .filter(|s| s.tag != EMPTY_TAG && s.state == EldstState::Parked)
                    .map(|s| s.tag)
                    .collect();
                if tids.is_empty() {
                    return None;
                }
                tids.sort_unstable();
                Some(format!("n{i} waiting for {tids:?}"))
            })
            .collect()
    }

    /// Returns this phase's ring allocations to the arena so the next
    /// phase reuses them (capacity is retained; contents are
    /// re-initialized on reuse — a drained phase may leave unconsumed
    /// eLDST forwards behind, so rings are not assumed clean).
    pub(super) fn recycle(&mut self, arena: &mut StoreArena) {
        for unit in &mut self.units {
            if unit.pending.capacity() > 0 {
                arena.match_rings.push(std::mem::take(&mut unit.pending));
            }
            if unit.eldst.capacity() > 0 {
                arena.eldst_rings.push(std::mem::take(&mut unit.eldst));
            }
        }
        // Batch payload buffers ride the same pool (a drained phase has
        // consumed and cleared every batch, so slab entries are empty).
        arena.token_batches.append(&mut self.batch_pool);
        for mut b in self.batches.drain(..) {
            debug_assert!(b.seqs.is_empty(), "batch survived its phase");
            b.clear();
            arena.token_batches.push(b);
        }
        self.free_batches.clear();
        arena.fire_scratch = std::mem::take(&mut self.fire_scratch);
    }

    #[allow(clippy::too_many_arguments)]
    pub(super) fn run(
        &mut self,
        global: &mut MemImage,
        shared_imgs: &mut [MemImage],
        mem: &mut MemSystem,
        scratch: &mut Scratchpad,
        lvc: &mut Lvc,
        stats: &mut RunStats,
        limits: &RunLimits<'_>,
    ) -> Result<u64> {
        if self.sink_count == 0 {
            return Err(Error::Runtime(format!(
                "program {} phase has no sink nodes; threads can never retire",
                self.program.name
            )));
        }
        loop {
            // 0. Cooperative limits: deadline / cancellation, checked at
            // the cycle boundary so a timed-out run stops deterministically
            // at the same simulated cycle on every host.
            limits.check(self.now)?;
            // 1. Deliver everything due this cycle. Single (bookkeeping)
            // events run immediately in pop order — which is schedule
            // order among themselves — while token batches are set aside
            // and then merged back into per-node schedule order. The two
            // classes touch disjoint state and deliveries create no
            // events, so this matches per-token delivery byte for byte.
            self.events.advance(self.now);
            let mut due = std::mem::take(&mut self.due_batches);
            let mut handled = 0u64;
            while let Some(ev) = self.events.pop_due() {
                handled += 1;
                match Ev::from(ev) {
                    Ev::Batch { batch } => {
                        handled -= 1; // counted per token when freed below
                        let b = &self.batches[batch as usize];
                        due.push(DueCursor {
                            id: batch,
                            pos: 0,
                            node: b.node,
                            seq0: b.seqs[0],
                        });
                    }
                    Ev::Deliver {
                        node,
                        port,
                        tid,
                        value,
                    } => self.deliver(node, port, tid, value, stats),
                    Ev::EloadProduce { node, tid, value } => {
                        self.eload_produce(node, tid, value, lvc, stats);
                    }
                    Ev::EloadOffer { node, tid, value } => {
                        self.eload_offer(node, tid, value, stats);
                    }
                    Ev::Release { node } => {
                        let u = &mut self.units[node.index()];
                        u.outstanding = u.outstanding.saturating_sub(1);
                    }
                    Ev::SinkDone { tid } => self.sink_done(tid, stats),
                }
            }
            self.handled += handled;
            if !due.is_empty() {
                self.deliver_due(&mut due, stats);
                for c in due.drain(..) {
                    let b = &mut self.batches[c.id as usize];
                    self.handled += b.seqs.len() as u64;
                    b.clear();
                    self.free_batches.push(c.id);
                }
            }
            self.due_batches = due;
            // 2. Inject new threads.
            self.inject_block(stats);
            // 3. Fire ready units (one op per unit per cycle).
            self.fire_all(global, shared_imgs, mem, scratch, lvc, stats)?;
            // 4. Done?
            if self.complete() {
                debug_assert_eq!(self.seq, self.handled, "logical events leaked");
                self.obs.calendar_scheduled(self.seq);
                return Ok(self.now);
            }
            // 5. Observe. Disabled handles reduce both calls to one
            // branch each; the counter gathering runs only at sample
            // boundaries of an enabled handle. Calendar depth counts
            // pending *logical* events (tokens, not batch entries), so
            // the profile and samples are identical with and without
            // edge batching.
            self.obs.calendar_depth(self.seq - self.handled);
            if self.obs.due(self.now) {
                let (l1_fills, l2_fills) = mem.fill_counts();
                let sample = CycleSample {
                    cycle: self.now,
                    injected: u64::from(self.next_inject),
                    retired: u64::from(self.retired_count),
                    calendar: self.seq - self.handled,
                    ready: u64::from(self.ready_total),
                    outstanding: self.units.iter().map(|u| u64::from(u.outstanding)).sum(),
                    l1_fills,
                    l2_fills,
                };
                self.obs.sample(sample);
            }
            // 6. Advance time.
            if self.has_local_work() {
                self.now += 1;
            } else if let Some(t) = self.events.next_time() {
                self.now = t;
            } else {
                let parked = self.parked_report();
                return Err(Error::Deadlock {
                    cycle: self.now,
                    detail: if parked.is_empty() {
                        format!(
                            "{} of {} threads retired, no events pending",
                            self.retired_count, self.threads
                        )
                    } else {
                        format!(
                            "eLDST threads parked without producers: {}",
                            parked.join("; ")
                        )
                    },
                });
            }
        }
    }
}
