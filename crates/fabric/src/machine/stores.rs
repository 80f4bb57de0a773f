//! Matching-store and eLDST token-buffer state: the pooled ring
//! allocations, their slots, and the per-node runtime state they live in.

use super::events::TokenBatch;
use super::fire::FireScratch;
use super::phase::PhaseExec;
use dmt_common::value::Word;
use dmt_obs::{Obs, StoreKind};
use std::collections::{HashMap, VecDeque};

/// Recycled matching-store / eLDST ring allocations, shared across the
/// phases of one launch: a multi-phase kernel re-initializes one pooled
/// allocation set per phase instead of allocating fresh rings in every
/// `PhaseExec` (clearing retained capacity is a memset; the allocator
/// round-trip is what the pool removes).
#[derive(Debug, Default)]
pub(super) struct StoreArena {
    pub(super) match_rings: Vec<Vec<MatchSlot>>,
    pub(super) eldst_rings: Vec<Vec<EldstSlot>>,
    /// Cleared [`TokenBatch`]es with retained payload capacity, recycled
    /// across phases exactly like the rings.
    pub(super) token_batches: Vec<TokenBatch>,
    /// Block-firing SoA scratch (tids + results), pooled likewise.
    pub(super) fire_scratch: FireScratch,
}

impl StoreArena {
    /// A matching-store ring of exactly `size` empty slots, reusing a
    /// pooled allocation when one is available.
    pub(super) fn match_ring(&mut self, size: usize) -> Vec<MatchSlot> {
        let mut ring = self.match_rings.pop().unwrap_or_default();
        ring.clear();
        ring.resize(size, MatchSlot::EMPTY);
        ring
    }

    /// An eLDST token-buffer ring of exactly `size` empty slots, ditto.
    pub(super) fn eldst_ring(&mut self, size: usize) -> Vec<EldstSlot> {
        let mut ring = self.eldst_rings.pop().unwrap_or_default();
        ring.clear();
        ring.resize(size, EldstSlot::EMPTY);
        ring
    }
}

/// Tag marking a matching-store or eLDST ring slot as free.
pub(super) const EMPTY_TAG: u32 = u32::MAX;

/// One window-indexed matching-store slot: a partially assembled operand
/// set for thread `tag`. Unfilled ports read as zero when the set
/// completes (matching the old `Option`-based store's `unwrap_or(ZERO)`).
#[derive(Debug, Clone, Copy)]
pub(super) struct MatchSlot {
    pub(super) tag: u32,
    /// Bitmask of ports already received.
    pub(super) filled: u8,
    pub(super) ops: [Word; 3],
}

impl MatchSlot {
    const EMPTY: MatchSlot = MatchSlot {
        tag: EMPTY_TAG,
        filled: 0,
        ops: [Word::ZERO; 3],
    };
}

/// What an eLDST token-buffer entry holds for its thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum EldstState {
    /// A duplicate value arrived before the thread fired.
    Fwd(Word),
    /// The thread fired with a false predicate and waits for its value.
    Parked,
}

/// One eLDST token-buffer slot (see [`EldstState`]); free when
/// `tag == EMPTY_TAG`.
#[derive(Debug, Clone, Copy)]
pub(super) struct EldstSlot {
    pub(super) tag: u32,
    pub(super) state: EldstState,
}

impl EldstSlot {
    const EMPTY: EldstSlot = EldstSlot {
        tag: EMPTY_TAG,
        state: EldstState::Parked,
    };
}

/// Per-node runtime state.
#[derive(Debug, Default)]
pub(super) struct UnitState {
    /// Matching store: `tid & ring_mask`-indexed slots (empty for source
    /// nodes, which are injected, never delivered to). The allocation is
    /// pooled in a [`StoreArena`] across the launch's phases.
    pub(super) pending: Vec<MatchSlot>,
    /// Matching-store spill for tids whose ring slot is held by another
    /// live tid. Empty in steady state; see the module docs.
    pub(super) spill: HashMap<u32, MatchSlot>,
    /// Complete operand sets awaiting their firing slot.
    pub(super) ready: VecDeque<(u32, [Word; 3])>,
    /// eLDST token buffer: forwarded values / parked threads, ring-indexed
    /// like `pending` (allocated only for eLDST nodes, pooled likewise).
    pub(super) eldst: Vec<EldstSlot>,
    /// eLDST spill, mirroring `spill`.
    pub(super) eldst_spill: HashMap<u32, EldstSlot>,
    /// Outstanding memory operations (LDST occupancy).
    pub(super) outstanding: u32,
}

impl<'a> PhaseExec<'a> {
    /// Removes and returns thread `tid`'s eLDST token-buffer entry at node
    /// `ix`, following the same ring-then-spill discipline as the matching
    /// store.
    pub(super) fn eldst_remove(&mut self, ix: usize, tid: u32) -> Option<EldstState> {
        let si = (tid & self.ring_mask) as usize;
        let unit = &mut self.units[ix];
        if unit.eldst[si].tag == tid {
            let state = unit.eldst[si].state;
            unit.eldst[si] = EldstSlot::EMPTY;
            self.obs.ring_free();
            return Some(state);
        }
        if unit.eldst_spill.is_empty() {
            None
        } else {
            unit.eldst_spill.remove(&tid).map(|s| s.state)
        }
    }

    /// Inserts an eLDST token-buffer entry for `tid` at node `ix` (ring
    /// slot when free, spill otherwise). The caller guarantees no entry
    /// for `tid` exists (remove-before-insert discipline), so a tid never
    /// holds both a ring slot and a spill entry.
    pub(super) fn eldst_insert(&mut self, ix: usize, tid: u32, state: EldstState) {
        let si = (tid & self.ring_mask) as usize;
        let now = self.now;
        let unit = &mut self.units[ix];
        if unit.eldst[si].tag == EMPTY_TAG {
            unit.eldst[si] = EldstSlot { tag: tid, state };
            self.obs.ring_claim();
        } else {
            debug_assert_ne!(unit.eldst[si].tag, tid, "duplicate eLDST entry for {tid}");
            self.obs.spill(StoreKind::Eldst, now, ix as u32);
            unit.eldst_spill.insert(tid, EldstSlot { tag: tid, state });
        }
    }
}

/// Writes one token into `unit`'s matching store and returns whether it
/// completed an operand set (pushed to `unit.ready`). A free function so
/// batch sweeps can hoist the unit borrow and per-node lookups out of
/// their token loop; `PhaseExec::deliver` wraps it for singles.
#[allow(clippy::too_many_arguments)]
#[inline]
pub(super) fn deliver_into(
    unit: &mut UnitState,
    obs: &mut Obs,
    arity: u8,
    mask: u32,
    now: u64,
    node: u32,
    port: u8,
    tid: u32,
    value: Word,
) -> bool {
    debug_assert_ne!(tid, EMPTY_TAG, "tid collides with the empty-slot tag");
    if arity == 1 {
        // A single-operand token is a complete set by itself: the ring
        // claim/free pair would cancel before the next occupancy sample,
        // so the store is bypassed entirely (and never allocated).
        let mut ops = [Word::ZERO; 3];
        ops[port as usize] = value;
        unit.ready.push_back((tid, ops));
        return true;
    }
    let si = (tid & mask) as usize;
    // Resolve the slot for `tid`: its ring slot, its spill entry, or a
    // fresh claim (ring when free, spill when occupied by another tid).
    // A tid must never hold both a ring slot and a spill entry, so a
    // spilled tid is looked up before an empty ring slot is claimed.
    let ring_hit = unit.pending[si].tag == tid;
    let slot: &mut MatchSlot = if ring_hit {
        &mut unit.pending[si]
    } else if !unit.spill.is_empty() && unit.spill.contains_key(&tid) {
        unit.spill.get_mut(&tid).expect("present")
    } else if unit.pending[si].tag == EMPTY_TAG {
        obs.ring_claim();
        let s = &mut unit.pending[si];
        s.tag = tid;
        s
    } else {
        obs.spill(StoreKind::Match, now, node);
        unit.spill.entry(tid).or_insert(MatchSlot {
            tag: tid,
            ..MatchSlot::EMPTY
        })
    };
    debug_assert_eq!(slot.filled & (1 << port), 0, "duplicate operand");
    slot.filled |= 1 << port;
    slot.ops[port as usize] = value;
    if slot.filled.count_ones() == u32::from(arity) {
        let ops = slot.ops;
        if ring_hit || unit.pending[si].tag == tid {
            unit.pending[si] = MatchSlot::EMPTY;
            obs.ring_free();
        } else {
            unit.spill.remove(&tid);
        }
        unit.ready.push_back((tid, ops));
        return true;
    }
    false
}
