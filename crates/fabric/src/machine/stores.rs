//! Matching-store and eLDST token-buffer state: the pooled live-span
//! rings, their slots, and the per-node runtime state they live in.

use super::events::TokenBatch;
use super::fire::FireScratch;
use super::phase::PhaseExec;
use dmt_common::value::Word;
use dmt_obs::Obs;
use std::collections::VecDeque;

/// Slots a matching-store or eLDST ring starts a phase with. A ring
/// doubles only when an arriving tid's slot is held by another live tid
/// (see [`grow_until_free`]), so it ends sized to the span of tids live
/// at once at its node, not to the in-flight window.
const RING_START: usize = 16;

/// Recycled matching-store / eLDST ring allocations, shared across the
/// phases of one launch: a multi-phase kernel re-initializes one pooled
/// allocation set per phase instead of allocating fresh rings in every
/// `PhaseExec` (a ring keeps the capacity it grew to, so a later phase
/// re-grows without an allocator round-trip).
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
    /// A matching-store ring of [`RING_START`] empty slots, reusing a
    /// pooled allocation when one is available.
    pub(super) fn match_ring(&mut self) -> Vec<MatchSlot> {
        let mut ring = self.match_rings.pop().unwrap_or_default();
        ring.clear();
        ring.resize(RING_START, MatchSlot::EMPTY);
        ring
    }

    /// An eLDST token-buffer ring of [`RING_START`] empty slots, ditto.
    pub(super) fn eldst_ring(&mut self) -> Vec<EldstSlot> {
        let mut ring = self.eldst_rings.pop().unwrap_or_default();
        ring.clear();
        ring.resize(RING_START, EldstSlot::EMPTY);
        ring
    }
}

/// Tag marking a matching-store or eLDST ring slot as free.
pub(super) const EMPTY_TAG: u32 = u32::MAX;

/// One matching-store ring slot: a partially assembled operand
/// set for thread `tag`. Unfilled ports read as zero when the set
/// completes (matching the old `Option`-based store's `unwrap_or(ZERO)`).
#[derive(Debug, Clone, Copy)]
pub(super) struct MatchSlot {
    pub(super) tag: u32,
    /// Bitmask of ports already received.
    pub(super) filled: u8,
    pub(super) ops: [Word; 3],
}

impl RingSlot for MatchSlot {
    const EMPTY: MatchSlot = MatchSlot {
        tag: EMPTY_TAG,
        filled: 0,
        ops: [Word::ZERO; 3],
    };
    fn tag(&self) -> u32 {
        self.tag
    }
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

impl RingSlot for EldstSlot {
    const EMPTY: EldstSlot = EldstSlot {
        tag: EMPTY_TAG,
        state: EldstState::Parked,
    };
    fn tag(&self) -> u32 {
        self.tag
    }
}

/// A slot of a live-span ring: free, or owned by the thread its tag
/// names, at index `tag & (len − 1)` of a power-of-two ring.
pub(super) trait RingSlot: Copy {
    /// The free slot.
    const EMPTY: Self;
    /// The owning tid, or [`EMPTY_TAG`].
    fn tag(&self) -> u32;
}

/// Returns `tid`'s free slot in `ring`, doubling the ring while another
/// live tid holds it (callers come here only on that collision). Doubling
/// keeps every live slot at `tag & mask` (the mask gains one bit), so
/// each one either stays or moves up by the old length, into the fresh
/// upper half. Re-placement reports nothing to the observer: the slots
/// it moves were claimed once and are freed once.
#[inline(never)]
pub(super) fn grow_until_free<S: RingSlot>(ring: &mut Vec<S>, tid: u32) -> usize {
    let live = if cfg!(debug_assertions) {
        placed_live(ring)
    } else {
        None
    };
    loop {
        let n = ring.len();
        let si = tid as usize & (n - 1);
        let held = ring[si].tag();
        if held == EMPTY_TAG {
            return si;
        }
        // Two tids share a slot of `n` only when they differ by at least
        // `n`, so the larger one is at least `n`: as every tid is below
        // the launch's thread count, growth ends by
        // `threads.next_power_of_two()` slots. Checked in release too —
        // a misplaced slot would otherwise double the ring without end.
        assert!(
            held != tid && tid.max(held) as usize >= n,
            "tids {tid} and {held} cannot share a slot of {n}"
        );
        ring.resize(2 * n, S::EMPTY);
        for i in 0..n {
            let tag = ring[i].tag();
            if tag != EMPTY_TAG && tag as usize & n != 0 {
                ring[i + n] = ring[i];
                ring[i] = S::EMPTY;
            }
        }
        debug_assert_eq!(placed_live(ring), live, "ring growth moved a slot");
    }
}

/// The live-slot count of `ring` when every live slot sits at
/// `tag & (len − 1)`, `None` when one does not.
pub(super) fn placed_live<S: RingSlot>(ring: &[S]) -> Option<usize> {
    let mask = ring.len() - 1;
    let mut live = 0;
    for (i, s) in ring.iter().enumerate() {
        if s.tag() != EMPTY_TAG {
            if s.tag() as usize & mask != i {
                return None;
            }
            live += 1;
        }
    }
    Some(live)
}

/// Per-node runtime state.
#[derive(Debug, Default)]
pub(super) struct UnitState {
    /// Matching store: a live-span ring of slots indexed
    /// `tid & (len − 1)` (empty for single-operand nodes, which never
    /// match). The allocation is pooled in a [`StoreArena`] across the
    /// launch's phases.
    pub(super) pending: Vec<MatchSlot>,
    /// Complete operand sets awaiting their firing slot.
    pub(super) ready: VecDeque<(u32, [Word; 3])>,
    /// eLDST token buffer: forwarded values / parked threads, a
    /// live-span ring like `pending` (allocated only for eLDST nodes,
    /// pooled likewise).
    pub(super) eldst: Vec<EldstSlot>,
    /// Outstanding memory operations (LDST occupancy).
    pub(super) outstanding: u32,
}

impl<'a> PhaseExec<'a> {
    /// Removes and returns thread `tid`'s eLDST token-buffer entry at node
    /// `ix`.
    pub(super) fn eldst_remove(&mut self, ix: usize, tid: u32) -> Option<EldstState> {
        let ring = &mut self.units[ix].eldst;
        let si = tid as usize & (ring.len() - 1);
        let slot = ring[si];
        if slot.tag != tid {
            return None;
        }
        ring[si] = EldstSlot::EMPTY;
        self.obs.ring_free();
        Some(slot.state)
    }

    /// Inserts an eLDST token-buffer entry for `tid` at node `ix`, growing
    /// the ring when its slot is held by another thread. The caller
    /// guarantees no entry for `tid` exists (remove-before-insert
    /// discipline).
    pub(super) fn eldst_insert(&mut self, ix: usize, tid: u32, state: EldstState) {
        let ring = &mut self.units[ix].eldst;
        let mut si = tid as usize & (ring.len() - 1);
        if ring[si].tag != EMPTY_TAG {
            si = grow_until_free(ring, tid);
        }
        ring[si] = EldstSlot { tag: tid, state };
        self.obs.ring_claim();
    }
}

/// Writes one token into `unit`'s matching store and returns whether it
/// completed an operand set (pushed to `unit.ready`). A free function so
/// batch sweeps can hoist the unit borrow and per-node lookups out of
/// their token loop; `PhaseExec::deliver` wraps it for singles.
#[inline]
pub(super) fn deliver_into(
    unit: &mut UnitState,
    obs: &mut Obs,
    arity: u8,
    port: u8,
    tid: u32,
    value: Word,
) -> bool {
    debug_assert_ne!(tid, EMPTY_TAG, "tid collides with the empty-slot tag");
    let port_ix = usize::from(port);
    if arity == 1 {
        // A single-operand token is a complete set by itself: the ring
        // claim/free pair would cancel before the next occupancy sample,
        // so the store is bypassed entirely (and never allocated).
        let mut ops = [Word::ZERO; 3];
        ops[port_ix] = value;
        unit.ready.push_back((tid, ops));
        return true;
    }
    let mut si = tid as usize & (unit.pending.len() - 1);
    let tag = unit.pending[si].tag;
    if tag != tid {
        if tag != EMPTY_TAG {
            si = grow_until_free(&mut unit.pending, tid);
        }
        unit.pending[si].tag = tid;
        obs.ring_claim();
    }
    let slot = &mut unit.pending[si];
    debug_assert_eq!(slot.filled & (1 << port), 0, "duplicate operand");
    let filled = slot.filled | 1 << port;
    if filled.count_ones() == u32::from(arity) {
        // Read the operands before writing the arriving one, so the
        // completed set is assembled in registers instead of reloaded.
        let mut ops = slot.ops;
        ops[port_ix] = value;
        *slot = MatchSlot::EMPTY;
        obs.ring_free();
        unit.ready.push_back((tid, ops));
        return true;
    }
    slot.filled = filled;
    slot.ops[port_ix] = value;
    false
}
