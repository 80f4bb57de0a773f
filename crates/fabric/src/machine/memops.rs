//! Memory operations: load issue and the eLDST produce/offer hops.

use super::events::Ev;
use super::phase::PhaseExec;
use super::stores::EldstState;
use dmt_common::ids::{Addr, NodeId};
use dmt_common::memimg::MemImage;
use dmt_common::stats::RunStats;
use dmt_common::value::Word;
use dmt_common::Result;
use dmt_dfg::node::{MemSpace, NodeKind};
use dmt_mem::{AccessOutcome, Lvc, MemSystem, Scratchpad};

impl<'a> PhaseExec<'a> {
    /// In-flight memory operations a (replicated) LDST node may hold: one
    /// request queue per physical replica.
    pub(super) fn outstanding_cap(&self) -> u32 {
        self.cfg.fabric.ldst_queue_entries * self.program.replication
    }

    /// Books and issues `tid`'s load at `node`: the loaded value and its
    /// completion cycle, with the unit's outstanding slot claimed and its
    /// release scheduled — or `None` on a structural stall (LDST queue or
    /// MSHRs full). What completion produces is the caller's: a plain load
    /// fans the value out, an eLDST routes it through [`Ev::EloadProduce`].
    #[allow(clippy::too_many_arguments)]
    pub(super) fn issue_load(
        &mut self,
        node: NodeId,
        tid: u32,
        addr_w: Word,
        space: MemSpace,
        global: &mut MemImage,
        shared_imgs: &mut [MemImage],
        mem: &mut MemSystem,
        scratch: &mut Scratchpad,
        stats: &mut RunStats,
    ) -> Result<Option<(Word, u64)>> {
        if self.units[node.index()].outstanding >= self.outstanding_cap() {
            return Ok(None);
        }
        let addr = Addr(u64::from(addr_w.as_u32()));
        let issue = self.now + self.cfg.latencies.ldst_issue;
        let (value, done) = match space {
            MemSpace::Global => match mem.load(addr, issue) {
                AccessOutcome::Done(t) => {
                    stats.global_loads += 1;
                    (global.try_load(addr)?, t)
                }
                AccessOutcome::StallMshrFull => return Ok(None),
            },
            MemSpace::Shared => {
                stats.shared_loads += 1;
                let b = (tid / self.block_threads) as usize;
                (shared_imgs[b].try_load(addr)?, scratch.access(addr, issue))
            }
        };
        self.units[node.index()].outstanding += 1;
        self.schedule(done, Ev::Release { node });
        Ok(Some((value, done)))
    }

    /// Handles an eLDST output becoming visible: fan out downstream, then
    /// duplicate the token to `tid + shift` (§4.2), waking a parked thread
    /// if it is already waiting. Long-distance eLDSTs pay the Fig 10b
    /// elevator-loop latency (and LVC-spilled ones the spill round-trip) on
    /// the duplicate path.
    pub(super) fn eload_produce(
        &mut self,
        node: NodeId,
        tid: u32,
        value: Word,
        lvc: &mut Lvc,
        stats: &mut RunStats,
    ) {
        self.send(node, tid, value, self.now, stats);
        let NodeKind::ELoad { comm, .. } = *self.phase.graph.kind(node) else {
            unreachable!("eload_produce on non-eLDST node");
        };
        if let Some(dst) = self.comm_target(&comm, tid) {
            let loop_latency = self
                .phase
                .eldst_loop_latency
                .get(&node)
                .copied()
                .unwrap_or(0);
            let offer_at = if self.phase.lvc_spilled.contains(&node) {
                let slot = Addr(u64::from(dst % self.cfg.mem.lvc.entries) * 4);
                let written = lvc.write(slot, self.now);
                lvc.read(slot, written)
            } else {
                self.now + self.cfg.latencies.ldst_issue + loop_latency
            };
            self.schedule(
                offer_at,
                Ev::EloadOffer {
                    node,
                    tid: dst,
                    value,
                },
            );
        }
    }

    /// The duplicate token lands in the eLDST token buffer.
    pub(super) fn eload_offer(
        &mut self,
        node: NodeId,
        dst: u32,
        value: Word,
        stats: &mut RunStats,
    ) {
        stats.token_buffer_writes += 1;
        match self.eldst_remove(node.index(), dst) {
            Some(EldstState::Parked) => {
                self.parked_total -= 1;
                stats.eldst_forwards += 1;
                self.schedule(
                    self.now + self.cfg.latencies.ldst_issue,
                    Ev::EloadProduce {
                        node,
                        tid: dst,
                        value,
                    },
                );
            }
            other => {
                debug_assert!(other.is_none(), "duplicate eLDST offer for thread {dst}");
                self.eldst_insert(node.index(), dst, EldstState::Fwd(value));
            }
        }
    }
}
