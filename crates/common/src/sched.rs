//! Discrete-event scheduling primitives for the cycle engines.
//!
//! [`CalendarQueue`] replaces the classic `BinaryHeap<(cycle, seq, ev)>`
//! event queue in the simulator hot loops. Almost every event a cycle
//! engine schedules lands a small, bounded number of cycles in the future
//! (unit latencies, NoC hops, cache hit latencies), so a bucket-per-cycle
//! wheel makes both `schedule` and `pop` O(1); the rare far-future event
//! (a contended DRAM completion) overflows into a small heap that is
//! drained back into the wheel as time advances.
//!
//! Where the events land, measured over the fabric engine's Table 3 grid
//! (the 18 MT-CGRA and dMT-CGRA jobs of `fig11_speedup`, 4.33 M schedules):
//! 20.6 % at exactly `now + 1`, 79.4 % further out in the wheel, 0.03 %
//! past the horizon in the overflow heap. Two structures follow from that:
//!
//! * **A next-cycle lane.** Events due at `now + 1` skip the wheel and
//!   land in a flat lane — no slot hashing, no occupancy-bitmap update.
//!   The lane preserves the ordering contract for free: the wheel bucket
//!   for cycle `t` can only hold events scheduled at cycles `< t - 1` (a
//!   distance-1 schedule goes to the lane), so bucket-before-lane *is*
//!   global FIFO order.
//! * **Recycled bucket buffers.** Most events go to the wheel, and a
//!   slot that kept its own buffer would next be written a whole horizon
//!   later, long after its lines left the cache. Instead an empty slot
//!   owns no buffer: it takes the most recently drained one from a LIFO
//!   stack on its first push and gives it back when [`CalendarQueue::pop_due`]
//!   empties it, so the queue holds at most as many buffers as it ever
//!   had non-empty slots at once, and a push usually writes a line that
//!   was read a few cycles ago.
//!
//! # Ordering contract
//!
//! Events pop in ascending `(cycle, insertion order)` — exactly the order
//! a `BinaryHeap` keyed on `(cycle, monotonic seq)` would produce. Within
//! one cycle the queue is FIFO. This is the ordering the fabric engine's
//! determinism rests on, and the property tests in this module pit the
//! wheel against a reference heap to lock it in.
//!
//! # Caller invariants
//!
//! * `advance(now)` must be called with non-decreasing `now`.
//! * `schedule(at, ..)` requires `at > now` (the engines clamp to
//!   `now + 1`: nothing lands in the cycle that scheduled it).
//! * All events due at a cycle must be drained (via [`CalendarQueue::pop_due`])
//!   before time advances past it; the engines visit every cycle that has
//!   events, so this holds by construction.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// Horizon of the bucket wheel, in cycles. Events scheduled further than
/// this ahead of `now` go to the overflow heap. The value covers the
/// common worst case of a cold L1+L2+DRAM miss chain with queueing slack,
/// so overflow is rare even in memory-bound phases.
const WHEEL_HORIZON: u64 = 1024;

/// A far-future event parked in the overflow heap; ordered by
/// `(time, seq)` so draining preserves the global ordering contract.
struct Overflow<T> {
    time: u64,
    seq: u64,
    item: T,
}

impl<T> PartialEq for Overflow<T> {
    fn eq(&self, other: &Self) -> bool {
        (self.time, self.seq) == (other.time, other.seq)
    }
}
impl<T> Eq for Overflow<T> {}
impl<T> PartialOrd for Overflow<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for Overflow<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

/// An O(1) schedule/pop event queue for cycle-level simulation.
///
/// See the module docs for the ordering contract and caller invariants.
pub struct CalendarQueue<T> {
    /// One FIFO bucket per cycle in `[now + 1, now + WHEEL_HORIZON]`,
    /// indexed by `cycle & (WHEEL_HORIZON - 1)`. A slot whose occupancy
    /// bit is clear owns no allocation (see `spare`).
    wheel: Box<[VecDeque<T>]>,
    /// Drained bucket buffers, cleared, most recently drained on top: a
    /// slot takes one on its first push and returns it when it empties.
    spare: Vec<VecDeque<T>>,
    /// Occupancy bitmap over wheel slots (one bit per slot) so
    /// [`CalendarQueue::next_time`] skips empty buckets a word at a time.
    occupied: Box<[u64]>,
    /// Events due exactly at `now + 1` — the dominant arrival distance —
    /// bypassing wheel indexing and occupancy bookkeeping. Swapped into
    /// `cur_lane` when time advances one cycle.
    next_lane: VecDeque<T>,
    /// The lane's events for the *current* cycle, served by
    /// [`CalendarQueue::pop_due`] after the wheel bucket.
    cur_lane: VecDeque<T>,
    /// Far-future events, drained into the wheel as `now` advances.
    overflow: BinaryHeap<Reverse<Overflow<T>>>,
    /// Monotonic insertion counter; makes overflow ordering total.
    seq: u64,
    /// The engine's current cycle, as last reported via
    /// [`CalendarQueue::advance`].
    now: u64,
    len: usize,
}

impl<T> std::fmt::Debug for CalendarQueue<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CalendarQueue")
            .field("len", &self.len)
            .field("now", &self.now)
            .field("overflow", &self.overflow.len())
            .finish()
    }
}

impl<T> CalendarQueue<T> {
    /// Creates an empty queue positioned at cycle 0.
    #[must_use]
    pub fn new() -> CalendarQueue<T> {
        let mut wheel = Vec::with_capacity(WHEEL_HORIZON as usize);
        wheel.resize_with(WHEEL_HORIZON as usize, VecDeque::new);
        CalendarQueue {
            wheel: wheel.into_boxed_slice(),
            spare: Vec::new(),
            occupied: vec![0u64; (WHEEL_HORIZON / 64) as usize].into_boxed_slice(),
            next_lane: VecDeque::new(),
            cur_lane: VecDeque::new(),
            overflow: BinaryHeap::new(),
            seq: 0,
            now: 0,
            len: 0,
        }
    }

    /// Number of pending events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no events are pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    #[inline]
    fn slot_of(at: u64) -> usize {
        (at & (WHEEL_HORIZON - 1)) as usize
    }

    #[inline]
    fn is_marked(&self, slot: usize) -> bool {
        self.occupied[slot / 64] & (1 << (slot % 64)) != 0
    }

    /// Appends `item` to wheel slot `slot`, handing an empty slot the
    /// most recently drained buffer first.
    #[inline]
    fn push_wheel(&mut self, slot: usize, item: T) {
        let word = &mut self.occupied[slot / 64];
        let bit = 1 << (slot % 64);
        if *word & bit == 0 {
            *word |= bit;
            if let Some(buf) = self.spare.pop() {
                self.wheel[slot] = buf;
            }
        }
        self.wheel[slot].push_back(item);
    }

    /// Schedules `item` at cycle `at`.
    ///
    /// # Panics
    ///
    /// Debug-asserts `at > now`: an event may never land in the cycle
    /// that schedules it (the engines clamp before calling).
    pub fn schedule(&mut self, at: u64, item: T) {
        debug_assert!(at > self.now, "event at {at} not after now {}", self.now);
        self.seq += 1;
        self.len += 1;
        if at == self.now + 1 {
            self.next_lane.push_back(item);
        } else if at.saturating_sub(self.now) < WHEEL_HORIZON {
            self.push_wheel(Self::slot_of(at), item);
        } else {
            self.overflow.push(Reverse(Overflow {
                time: at,
                seq: self.seq,
                item,
            }));
        }
    }

    /// Advances the queue's notion of the current cycle, pulling any
    /// overflow events that are now within the wheel horizon into their
    /// buckets. Must be called before popping or scheduling at `now`.
    pub fn advance(&mut self, now: u64) {
        debug_assert!(now >= self.now, "time went backwards");
        if now > self.now {
            debug_assert!(self.cur_lane.is_empty(), "undrained lane events");
            if now == self.now + 1 {
                // Rewind the drained lane's head so the next cycle's
                // pushes start at the front of its buffer again.
                self.cur_lane.clear();
                std::mem::swap(&mut self.cur_lane, &mut self.next_lane);
            } else {
                // A multi-cycle jump can only happen when no event is due
                // in between — next_time() reports now + 1 whenever the
                // lane is non-empty, so nothing can be skipped here.
                debug_assert!(self.next_lane.is_empty(), "lane events skipped");
            }
        }
        self.now = now;
        while let Some(Reverse(head)) = self.overflow.peek() {
            if head.time.saturating_sub(now) >= WHEEL_HORIZON {
                break;
            }
            let Reverse(ev) = self.overflow.pop().expect("peeked");
            self.push_wheel(Self::slot_of(ev.time), ev.item);
        }
    }

    /// Pops the next event due at the current cycle (set via
    /// [`CalendarQueue::advance`]), in FIFO order, or `None` when the
    /// current cycle is exhausted. The wheel bucket drains before the
    /// next-cycle lane: every bucket entry for this cycle was scheduled
    /// at least two cycles ago, before any lane entry, so that *is*
    /// schedule order. The pop that empties the bucket returns its
    /// buffer to the spare stack.
    pub fn pop_due(&mut self) -> Option<T> {
        let slot = Self::slot_of(self.now);
        if self.is_marked(slot) {
            let bucket = &mut self.wheel[slot];
            let item = bucket.pop_front().expect("a marked bucket is non-empty");
            if bucket.is_empty() {
                let mut buf = std::mem::take(bucket);
                buf.clear();
                self.spare.push(buf);
                self.occupied[slot / 64] &= !(1 << (slot % 64));
            }
            self.len -= 1;
            return Some(item);
        }
        let item = self.cur_lane.pop_front();
        if item.is_some() {
            self.len -= 1;
        }
        item
    }

    /// The cycle of the earliest pending event, or `None` when empty.
    /// Used by the engines to jump over idle gaps.
    #[must_use]
    pub fn next_time(&self) -> Option<u64> {
        if self.len == 0 {
            return None;
        }
        // Lane events bound the answer: current-cycle remnants are due
        // now, pending next-cycle events at now + 1. Only an occupied
        // bucket at `now` itself can beat the latter, and the ring scan
        // below starts there, so taking the scan's min stays exact.
        if !self.cur_lane.is_empty() {
            return Some(self.now);
        }
        let lane_next = if self.next_lane.is_empty() {
            None
        } else {
            Some(self.now + 1)
        };
        // Scan the occupancy bitmap a word at a time, in ring order from
        // `now`'s slot; every wheel event lies within
        // [now, now + WHEEL_HORIZON), so ring distance equals time order.
        let words = self.occupied.len();
        let start = Self::slot_of(self.now);
        let (sw, sb) = (start / 64, start % 64);
        let mut found = None;
        let first = self.occupied[sw] & (!0u64 << sb);
        if first != 0 {
            found = Some(sw * 64 + first.trailing_zeros() as usize);
        } else {
            for k in 1..=words {
                let w = (sw + k) % words;
                let mut word = self.occupied[w];
                if w == sw {
                    // Wrapped all the way around: only the bits before
                    // the start slot remain unchecked.
                    word &= !(!0u64 << sb);
                }
                if word != 0 {
                    found = Some(w * 64 + word.trailing_zeros() as usize);
                    break;
                }
            }
        }
        let wheel_next = match found {
            Some(slot) => {
                let dist = (slot + WHEEL_HORIZON as usize - start) % WHEEL_HORIZON as usize;
                Some(self.now + dist as u64)
            }
            None => self.overflow.peek().map(|Reverse(o)| o.time),
        };
        match (wheel_next, lane_next) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }
}

impl<T> Default for CalendarQueue<T> {
    fn default() -> Self {
        CalendarQueue::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference model: the BinaryHeap ordering the engines used before.
    struct HeapRef {
        heap: BinaryHeap<Reverse<(u64, u64, u32)>>,
        seq: u64,
    }

    impl HeapRef {
        fn new() -> HeapRef {
            HeapRef {
                heap: BinaryHeap::new(),
                seq: 0,
            }
        }
        fn schedule(&mut self, at: u64, v: u32) {
            self.seq += 1;
            self.heap.push(Reverse((at, self.seq, v)));
        }
        fn pop_due(&mut self, now: u64) -> Option<u32> {
            match self.heap.peek() {
                Some(&Reverse((t, _, _))) if t <= now => {
                    self.heap.pop().map(|Reverse((_, _, v))| v)
                }
                _ => None,
            }
        }
        fn next_time(&self) -> Option<u64> {
            self.heap.peek().map(|&Reverse((t, _, _))| t)
        }
    }

    #[test]
    fn fifo_within_a_cycle() {
        let mut q = CalendarQueue::new();
        q.schedule(5, "a");
        q.schedule(3, "b");
        q.schedule(5, "c");
        q.advance(3);
        assert_eq!(q.pop_due(), Some("b"));
        assert_eq!(q.pop_due(), None);
        q.advance(5);
        assert_eq!(q.pop_due(), Some("a"));
        assert_eq!(q.pop_due(), Some("c"));
        assert_eq!(q.pop_due(), None);
        assert!(q.is_empty());
    }

    #[test]
    fn far_future_events_survive_the_horizon() {
        let mut q = CalendarQueue::new();
        q.schedule(WHEEL_HORIZON * 3 + 17, 1u32);
        q.schedule(2, 2u32);
        assert_eq!(q.len(), 2);
        q.advance(2);
        assert_eq!(q.pop_due(), Some(2));
        assert_eq!(q.next_time(), Some(WHEEL_HORIZON * 3 + 17));
        q.advance(WHEEL_HORIZON * 3 + 17);
        assert_eq!(q.pop_due(), Some(1));
        assert!(q.is_empty());
    }

    #[test]
    fn overflow_drains_before_later_wheel_pushes_at_same_cycle() {
        let mut q = CalendarQueue::new();
        let t = WHEEL_HORIZON + 100;
        // Scheduled first, from far away: overflows.
        q.schedule(t, 1u32);
        // Advance until t is inside the horizon, then schedule a second
        // event at the same cycle: it must pop *after* the first.
        q.advance(200);
        q.schedule(t, 2u32);
        q.advance(t);
        assert_eq!(q.pop_due(), Some(1));
        assert_eq!(q.pop_due(), Some(2));
    }

    #[test]
    fn lane_pops_after_the_bucket_and_drains_with_it() {
        let mut q = CalendarQueue::new();
        // Distance 2 from cycle 0: wheel bucket for cycle 2.
        q.schedule(2, 1u32);
        q.advance(1);
        // Distance 1 from cycle 1: the next-cycle lane. Scheduled later,
        // so it must pop after the bucket entry.
        q.schedule(2, 2u32);
        assert_eq!(q.next_time(), Some(2));
        q.advance(2);
        assert_eq!(q.pop_due(), Some(1));
        assert_eq!(q.next_time(), Some(2)); // lane remnant still due now
        assert_eq!(q.pop_due(), Some(2));
        assert_eq!(q.pop_due(), None);
        assert!(q.is_empty());
        // Same shape once the bucket's buffer has been recycled.
        q.schedule(4, 3u32);
        q.advance(3);
        q.schedule(4, 4u32);
        q.advance(4);
        assert_eq!(q.pop_due(), Some(3));
        assert_eq!(q.pop_due(), Some(4));
        assert_eq!(q.pop_due(), None);
        assert!(q.is_empty());
    }

    #[test]
    fn next_time_scans_to_the_earliest_bucket() {
        let mut q: CalendarQueue<u32> = CalendarQueue::new();
        assert_eq!(q.next_time(), None);
        q.schedule(700, 1);
        q.schedule(900, 2);
        assert_eq!(q.next_time(), Some(700));
        q.advance(700);
        let _ = q.pop_due();
        assert_eq!(q.next_time(), Some(900));
    }

    #[test]
    fn overflow_refills_a_drained_bucket_in_order() {
        let mut q = CalendarQueue::new();
        let t = WHEEL_HORIZON + 7;
        q.schedule(t, 1u32); // overflows, drains back first
        q.schedule(3, 2u32);
        q.schedule(3, 3u32);
        q.advance(3);
        assert_eq!(q.pop_due(), Some(2));
        assert_eq!(q.pop_due(), Some(3));
        assert_eq!(q.pop_due(), None);
        assert_eq!(q.len(), 1);
        // Cycle 3's drained buffer is the one cycle t's bucket takes.
        assert_eq!((nonempty_slots(&q), bucket_buffers(&q)), (0, 1));
        q.advance(t);
        q.schedule(t + 1, 4u32);
        assert_eq!((nonempty_slots(&q), bucket_buffers(&q)), (1, 1));
        assert_eq!(q.pop_due(), Some(1));
        assert_eq!(q.pop_due(), None);
        assert_eq!(q.next_time(), Some(t + 1));
        assert_eq!(q.len(), 1);
    }

    /// Wheel slots holding at least one event.
    fn nonempty_slots<T>(q: &CalendarQueue<T>) -> usize {
        q.occupied.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Bucket buffers the queue owns, in slots or on the spare stack.
    fn bucket_buffers<T>(q: &CalendarQueue<T>) -> usize {
        q.wheel.iter().filter(|b| b.capacity() > 0).count() + q.spare.len()
    }

    #[test]
    fn randomized_against_reference_heap() {
        // Deterministic LCG so the test needs no external crates.
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut rng = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        let mut q = CalendarQueue::new();
        let mut r = HeapRef::new();
        let mut now = 0u64;
        let mut popped = 0u64;
        let mut refills = 0u32;
        // Buffers are recycled, never hoarded: the queue owns at most as
        // many as it ever had non-empty slots at once.
        let mut peak = 0;
        let mut check_buffers = |q: &CalendarQueue<u32>| {
            peak = peak.max(nonempty_slots(q));
            assert!(bucket_buffers(q) <= peak, "{} buffers", bucket_buffers(q));
        };
        for i in 0..20_000u32 {
            // Mixed near/far schedule distances, including past-horizon.
            let burst = rng() % 4;
            let mut deltas: Vec<u64> = (0..burst)
                .map(|_| match rng() % 10 {
                    0 => 1 + rng() % 3,
                    1..=7 => 1 + rng() % 300,
                    8 => 1 + rng() % (WHEEL_HORIZON - 1),
                    _ => WHEEL_HORIZON + rng() % 5000,
                })
                .collect();
            if i % 16 == 0 {
                // Refill slots one horizon after they drained: the one
                // drained last cycle directly, the one drained this cycle
                // through the overflow heap.
                deltas.extend([WHEEL_HORIZON - 1, WHEEL_HORIZON]);
                refills += 2;
            }
            for (j, delta) in deltas.into_iter().enumerate() {
                let v = i * 8 + j as u32;
                q.schedule(now + delta, v);
                r.schedule(now + delta, v);
                check_buffers(&q);
            }
            // Advance: usually +1, sometimes jump to the next event.
            now = match rng() % 5 {
                0 => match r.next_time() {
                    Some(t) => t.max(now),
                    None => now + 1,
                },
                _ => now + 1,
            };
            q.advance(now);
            check_buffers(&q);
            assert_eq!(q.next_time(), r.next_time(), "next_time at {now}");
            loop {
                let a = q.pop_due();
                let b = r.pop_due(now);
                assert_eq!(a, b, "pop at {now}");
                if a.is_none() {
                    break;
                }
                popped += 1;
            }
            assert_eq!(q.len(), r.heap.len(), "len at {now}");
        }
        assert!(popped > 10_000, "exercised {popped} pops");
        assert!(
            refills > 2_000 && peak > 0,
            "{refills} refills, peak {peak}"
        );
    }
}
