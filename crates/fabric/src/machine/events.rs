//! Calendar events and token transport: scheduling, per-token and
//! edge-batched sends, and the delivery of due tokens into matching stores.

use super::phase::PhaseExec;
use super::stores::deliver_into;
use dmt_common::ids::NodeId;
use dmt_common::stats::RunStats;
use dmt_common::value::Word;
use dmt_dfg::node::NodeKind;
use dmt_obs::EdgeClass;

/// A token-delivery or bookkeeping event on the calendar queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum Ev {
    /// A token arrives at `node`'s matching store.
    Deliver {
        node: NodeId,
        port: u8,
        tid: u32,
        value: Word,
    },
    /// An eLDST output becomes architecturally visible: fan it out and
    /// offer the duplicate to the next thread in the window.
    EloadProduce { node: NodeId, tid: u32, value: Word },
    /// An eLDST duplicate token reaches the token buffer (after any
    /// Fig 10b loop latency): hand it to a parked consumer or buffer it.
    EloadOffer { node: NodeId, tid: u32, value: Word },
    /// A memory operation completed; release the unit's outstanding slot.
    Release { node: NodeId },
    /// A sink operation of `tid` completed.
    SinkDone { tid: u32 },
    /// A coalesced per-`(edge, cycle)` token batch is due: index into
    /// `PhaseExec::batches` (batched delivery only).
    Batch { batch: u32 },
}

/// An [`Ev`] as the calendar stores it: one 128-bit word, built and
/// taken apart with shifts in registers. An enum is assembled in memory
/// field by field and then copied into its bucket, so the copy reloads
/// bytes just written by narrower stores, which the CPU cannot forward;
/// a word packed in registers goes straight into the bucket.
///
/// Bits 0–31 hold the value (or the batch index), 32–63 the tid, 64–95
/// the node, 96–103 the port and 104–111 the variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) struct Packed(u128);

impl From<Ev> for Packed {
    #[inline(always)]
    fn from(ev: Ev) -> Packed {
        let (variant, node, port, tid, value) = match ev {
            Ev::Deliver {
                node,
                port,
                tid,
                value,
            } => (0u8, node.0, port, tid, value.0),
            Ev::EloadProduce { node, tid, value } => (1, node.0, 0, tid, value.0),
            Ev::EloadOffer { node, tid, value } => (2, node.0, 0, tid, value.0),
            Ev::Release { node } => (3, node.0, 0, 0, 0),
            Ev::SinkDone { tid } => (4, 0, 0, tid, 0),
            Ev::Batch { batch } => (5, 0, 0, 0, batch),
        };
        Packed(
            u128::from(value)
                | u128::from(tid) << 32
                | u128::from(node) << 64
                | u128::from(port) << 96
                | u128::from(variant) << 104,
        )
    }
}

impl From<Packed> for Ev {
    #[inline(always)]
    fn from(Packed(w): Packed) -> Ev {
        let value = w as u32;
        let tid = (w >> 32) as u32;
        let node = NodeId((w >> 64) as u32);
        match (w >> 104) as u8 {
            0 => Ev::Deliver {
                node,
                port: (w >> 96) as u8,
                tid,
                value: Word(value),
            },
            1 => Ev::EloadProduce {
                node,
                tid,
                value: Word(value),
            },
            2 => Ev::EloadOffer {
                node,
                tid,
                value: Word(value),
            },
            3 => Ev::Release { node },
            4 => Ev::SinkDone { tid },
            5 => Ev::Batch { batch: value },
            v => unreachable!("no event variant {v}"),
        }
    }
}

/// All tokens crossing one `(edge, arrival cycle)`, coalesced into a
/// single calendar entry with an SoA payload. `seqs` is strictly
/// ascending: tokens are appended in schedule order, which is what the
/// delivery merge relies on (see the module docs).
#[derive(Debug, Default)]
pub(super) struct TokenBatch {
    /// Destination node of the edge.
    pub(super) node: u32,
    /// Destination operand port of the edge.
    pub(super) port: u8,
    pub(super) seqs: Vec<u64>,
    pub(super) tids: Vec<u32>,
    pub(super) vals: Vec<Word>,
}

impl TokenBatch {
    pub(super) fn clear(&mut self) {
        self.seqs.clear();
        self.tids.clear();
        self.vals.clear();
    }
}

/// One CSR out-edge: destination node/port and the precomputed arrival
/// delta (`noc_hop_latency · hops`) added to a producer's result cycle.
#[derive(Debug, Clone, Copy)]
pub(super) struct EdgeOut {
    pub(super) node: u32,
    pub(super) port: u8,
    pub(super) delta: u64,
}

/// Per-edge coalescing state: the batch currently accepting tokens for
/// the edge, valid only while `cycle` is still in the future. A consumed
/// batch's entry goes stale harmlessly — its `cycle` is in the past and
/// new arrivals always land at `now + 1` or later, so it can never match.
#[derive(Debug, Clone, Copy)]
pub(super) struct OpenBatch {
    pub(super) cycle: u64,
    pub(super) batch: u32,
}

impl OpenBatch {
    pub(super) const CLOSED: OpenBatch = OpenBatch {
        cycle: u64::MAX,
        batch: 0,
    };
}

/// A due batch's delivery cursor for one cycle's merge pass; the payload
/// stays in the slab and is read in place. `node` and `seq0` (the head
/// token's seq) are copied out at drain time so the grouping sort never
/// chases into the slab.
#[derive(Debug, Clone, Copy)]
pub(super) struct DueCursor {
    pub(super) id: u32,
    pub(super) pos: u32,
    pub(super) node: u32,
    pub(super) seq0: u64,
}

impl<'a> PhaseExec<'a> {
    pub(super) fn schedule(&mut self, at: u64, ev: Ev) {
        // Nothing lands in the cycle that scheduled it: tokens cross at
        // least one pipeline boundary.
        self.seq += 1;
        self.events.schedule(at.max(self.now + 1), ev.into());
    }

    /// A batch slab slot for the given destination, reusing payload
    /// capacity from the free list or the arena pool.
    fn alloc_batch(&mut self, node: u32, port: u8) -> u32 {
        let id = match self.free_batches.pop() {
            Some(id) => id,
            None => {
                let id = self.batches.len() as u32;
                self.batches.push(self.batch_pool.pop().unwrap_or_default());
                id
            }
        };
        let b = &mut self.batches[id as usize];
        debug_assert!(b.seqs.is_empty(), "allocated batch not cleared");
        b.node = node;
        b.port = port;
        id
    }

    /// Fans `value` out from `node` to all consumers, booking NoC hops.
    /// `base` is the cycle the producing unit's result is available.
    ///
    /// Each token appends to its edge's open batch when one is already
    /// headed for the same arrival cycle; otherwise a fresh batch opens
    /// and a single calendar entry is scheduled for the whole coalesced
    /// payload. An edge can legitimately have several batches due at one
    /// cycle (arrival times are not monotonic on load edges); the
    /// delivery merge orders them by seq.
    pub(super) fn send(
        &mut self,
        node: NodeId,
        tid: u32,
        value: Word,
        base: u64,
        stats: &mut RunStats,
    ) {
        let ix = node.index();
        let first = self.edge_base[ix] as usize;
        let last = self.edge_base[ix + 1] as usize;
        if first == last {
            self.schedule(base, Ev::SinkDone { tid });
            return;
        }
        stats.tokens_routed += (last - first) as u64;
        stats.noc_hops += self.hops_sum[ix];
        if self.obs.on() {
            // Edges are classified by their producer: elevator and eLDST
            // outputs are the paper's inter-thread channels, everything
            // else is ordinary dataflow. Unobserved runs pay one branch.
            let class = match self.phase.graph.kind(node) {
                NodeKind::Elevator { .. } => EdgeClass::Elevator,
                NodeKind::ELoad { .. } => EdgeClass::Eldst,
                _ => EdgeClass::Direct,
            };
            for eid in first..last {
                self.obs.edge_token(class, node.0, self.out_edges[eid].node);
            }
        }
        for eid in first..last {
            let e = self.out_edges[eid];
            let arrival = (base + e.delta).max(self.now + 1);
            self.seq += 1;
            if self.unbatched {
                self.events.schedule(
                    arrival,
                    Ev::Deliver {
                        node: NodeId(e.node),
                        port: e.port,
                        tid,
                        value,
                    }
                    .into(),
                );
                continue;
            }
            let slot = self.open[eid];
            let id = if slot.cycle == arrival {
                slot.batch
            } else {
                let id = self.alloc_batch(e.node, e.port);
                self.open[eid] = OpenBatch {
                    cycle: arrival,
                    batch: id,
                };
                self.events
                    .schedule(arrival, Ev::Batch { batch: id }.into());
                id
            };
            let b = &mut self.batches[id as usize];
            b.seqs.push(self.seq);
            b.tids.push(tid);
            b.vals.push(value);
        }
    }

    /// [`PhaseExec::send`] for a whole result block: fans every
    /// `(tids[i], vals[i])` token out from `node`, with the edge walk
    /// hoisted outside the token loop (edge-major). Per-edge streams stay
    /// strictly ascending in seq and all tokens share one arrival cycle
    /// per edge, so on the batched delivery path each out-edge costs one
    /// open-batch probe and one bulk append; results are byte-identical
    /// to `count` per-token sends (see the module docs for the seq
    /// commutation argument).
    pub(super) fn send_block(
        &mut self,
        node: NodeId,
        class: EdgeClass,
        tids: &[u32],
        vals: &[Word],
        base: u64,
        stats: &mut RunStats,
    ) {
        let ix = node.index();
        let first = self.edge_base[ix] as usize;
        let last = self.edge_base[ix + 1] as usize;
        let count = tids.len();
        if first == last {
            let at = base.max(self.now + 1);
            for &tid in tids {
                self.seq += 1;
                self.events.schedule(at, Ev::SinkDone { tid }.into());
            }
            return;
        }
        stats.tokens_routed += ((last - first) * count) as u64;
        stats.noc_hops += self.hops_sum[ix] * count as u64;
        if self.obs.on() {
            for eid in first..last {
                self.obs
                    .edge_tokens(class, node.0, self.out_edges[eid].node, count as u64);
            }
        }
        for eid in first..last {
            let e = self.out_edges[eid];
            let arrival = (base + e.delta).max(self.now + 1);
            if self.unbatched {
                for i in 0..count {
                    self.seq += 1;
                    self.events.schedule(
                        arrival,
                        Ev::Deliver {
                            node: NodeId(e.node),
                            port: e.port,
                            tid: tids[i],
                            value: vals[i],
                        }
                        .into(),
                    );
                }
                continue;
            }
            let slot = self.open[eid];
            let id = if slot.cycle == arrival {
                slot.batch
            } else {
                let id = self.alloc_batch(e.node, e.port);
                self.open[eid] = OpenBatch {
                    cycle: arrival,
                    batch: id,
                };
                self.events
                    .schedule(arrival, Ev::Batch { batch: id }.into());
                id
            };
            let b = &mut self.batches[id as usize];
            b.tids.extend_from_slice(tids);
            b.vals.extend_from_slice(vals);
            b.seqs.reserve(count);
            for _ in 0..count {
                self.seq += 1;
                b.seqs.push(self.seq);
            }
        }
    }

    pub(super) fn deliver(
        &mut self,
        node: NodeId,
        port: u8,
        tid: u32,
        value: Word,
        stats: &mut RunStats,
    ) {
        stats.token_buffer_writes += 1;
        let ix = node.index();
        if deliver_into(
            &mut self.units[ix],
            self.obs,
            self.meta[ix].arity,
            port,
            tid,
            value,
        ) {
            self.ready_total += 1;
            self.mark_active(ix);
        }
    }

    /// Delivers a run of one batch's tokens — `pos` up to (exclusive) the
    /// first seq ≥ `limit` — with the unit borrow and arity hoisted out of
    /// the per-token loop. Returns the new cursor.
    fn deliver_batch_run(
        &mut self,
        id: u32,
        mut pos: usize,
        limit: u64,
        stats: &mut RunStats,
    ) -> usize {
        let b = &self.batches[id as usize];
        let ix = b.node as usize;
        let port = b.port;
        let arity = self.meta[ix].arity;
        let len = b.tids.len();
        let unit = &mut self.units[ix];
        let obs = &mut *self.obs;
        let start = pos;
        let mut completed = 0u32;
        if limit == u64::MAX {
            // Whole-batch sweep (no competing stream): seqs untouched.
            while pos < len {
                completed += u32::from(deliver_into(
                    unit,
                    obs,
                    arity,
                    port,
                    b.tids[pos],
                    b.vals[pos],
                ));
                pos += 1;
            }
        } else {
            while pos < len && b.seqs[pos] < limit {
                completed += u32::from(deliver_into(
                    unit,
                    obs,
                    arity,
                    port,
                    b.tids[pos],
                    b.vals[pos],
                ));
                pos += 1;
            }
        }
        stats.token_buffer_writes += (pos - start) as u64;
        if completed > 0 {
            self.ready_total += completed;
            self.mark_active(ix);
        }
        pos
    }

    /// Delivers every batch due this cycle, restoring per-node schedule
    /// order: batches are grouped by destination node and each group's
    /// streams are merged by ascending seq (deliveries to different nodes
    /// commute — see the module docs). The common case — one due batch
    /// per node — is a straight SoA sweep with no merge at all.
    pub(super) fn deliver_due(&mut self, due: &mut [DueCursor], stats: &mut RunStats) {
        if due.len() > 1 {
            due.sort_unstable_by_key(|c| (c.node, c.seq0));
        }
        let mut i = 0;
        while i < due.len() {
            let node = due[i].node;
            let mut j = i + 1;
            while j < due.len() && due[j].node == node {
                j += 1;
            }
            if j - i == 1 {
                self.deliver_batch_run(due[i].id, 0, u64::MAX, stats);
            } else {
                self.deliver_merged(&mut due[i..j], stats);
            }
            i = j;
        }
    }

    /// Merges one node's due in-edge batches by seq: repeatedly run the
    /// stream with the earliest head token up to the runner-up's head.
    /// Groups are bounded by the node's in-degree (operand arity ≤ 3), so
    /// a linear min scan beats any heap.
    fn deliver_merged(&mut self, group: &mut [DueCursor], stats: &mut RunStats) {
        loop {
            let mut best = usize::MAX;
            let mut best_seq = u64::MAX;
            let mut limit = u64::MAX;
            for (k, c) in group.iter().enumerate() {
                let b = &self.batches[c.id as usize];
                if let Some(&s) = b.seqs.get(c.pos as usize) {
                    if s < best_seq {
                        limit = best_seq;
                        best_seq = s;
                        best = k;
                    } else {
                        limit = limit.min(s);
                    }
                }
            }
            if best == usize::MAX {
                return;
            }
            let (id, pos) = (group[best].id, group[best].pos as usize);
            group[best].pos = self.deliver_batch_run(id, pos, limit, stats) as u32;
        }
    }
}
