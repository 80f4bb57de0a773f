//! A banked, set-associative, MSHR-limited cache timing model.
//!
//! Used for both L1 and L2 (Table 2 geometries). Only tags are modelled —
//! functional data lives in `dmt_common::memimg::MemImage` — so the cache
//! answers *when* an access completes and what traffic it generates, not
//! what value it returns.
//!
//! The model is a deterministic booking machine (see [`crate::dram`]): an
//! access books a slot on its bank and, on a miss, recursively books the
//! backing level, returning the composed completion cycle. The only
//! *structural stall* surfaced to callers is MSHR exhaustion, which the
//! issuing unit must retry — this is the mechanism that throttles
//! memory-bound kernels on the baselines.

use dmt_common::config::{CacheConfig, WritePolicy};
use dmt_common::ids::Addr;

/// The backing store a cache level misses to.
pub trait Backing {
    /// Books a line read at `now`; returns the data-ready cycle.
    fn read_line(&mut self, addr: Addr, now: u64) -> u64;
    /// Books a line write at `now`; returns the completion cycle.
    fn write_line(&mut self, addr: Addr, now: u64) -> u64;
}

impl Backing for crate::dram::Dram {
    fn read_line(&mut self, addr: Addr, now: u64) -> u64 {
        self.read(addr, now)
    }
    fn write_line(&mut self, addr: Addr, now: u64) -> u64 {
        self.write(addr, now)
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct Way {
    tag: Option<u64>,
    dirty: bool,
    last_used: u64,
}

/// Result of a cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessOutcome {
    /// Access accepted; data ready / write retired at the given cycle.
    Done(u64),
    /// All MSHRs are in flight; the unit must retry on a later cycle.
    StallMshrFull,
}

/// One cache level.
#[derive(Debug, Clone)]
pub struct CacheLevel {
    cfg: CacheConfig,
    policy: WritePolicy,
    /// All ways of all sets, pre-sized flat: set `s` occupies
    /// `[s * ways, (s + 1) * ways)`. One contiguous allocation instead of
    /// a `Vec` per set keeps the per-access lookup on one cache line.
    ways: Box<[Way]>,
    bank_busy: Box<[u64]>,
    /// In-flight fills as `(line index, fill cycle)`, sorted by line.
    /// Occupancy is bounded by `cfg.mshrs` (a handful of entries), so a
    /// sorted vec beats a `HashMap` on the probe every access performs.
    mshrs: Vec<(u64, u64)>,
    /// Earliest fill cycle among `mshrs` — purging is skipped entirely
    /// while `now` has not reached it.
    earliest_fill: u64,
    tick: u64,
    /// Demand hits (including hits under an in-flight fill).
    pub hits: u64,
    /// Demand misses that generated backing-level traffic.
    pub misses: u64,
    /// Dirty-line write-backs generated by evictions.
    pub writebacks: u64,
}

impl CacheLevel {
    /// Creates a cache level with the given geometry and write policy.
    /// The policy is the machine's (§5.1), not a configuration leaf; see
    /// [`crate::MemSystem::new`].
    #[must_use]
    pub fn new(cfg: CacheConfig, policy: WritePolicy) -> CacheLevel {
        let sets = cfg.sets() as usize;
        CacheLevel {
            policy,
            ways: vec![Way::default(); sets * cfg.ways as usize].into_boxed_slice(),
            bank_busy: vec![0; cfg.banks as usize].into_boxed_slice(),
            mshrs: Vec::with_capacity(cfg.mshrs as usize),
            earliest_fill: u64::MAX,
            tick: 0,
            hits: 0,
            misses: 0,
            writebacks: 0,
            cfg,
        }
    }

    /// The configured geometry.
    #[must_use]
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    fn line_of(&self, addr: Addr) -> u64 {
        addr.block_index(self.cfg.line_bytes)
    }

    fn set_of(&self, line: u64) -> usize {
        (line % self.cfg.sets()) as usize
    }

    /// Banks are word-interleaved (like the scratchpad): consecutive words
    /// of one line live in different banks, so per-thread unit-stride
    /// accesses proceed in parallel while still bounding total bandwidth
    /// to one access per bank per cycle.
    fn bank_of(&self, addr: Addr) -> usize {
        ((addr.0 / 4) % u64::from(self.cfg.banks)) as usize
    }

    /// The ways of `line`'s set, as a flat sub-slice.
    fn set_ways(&mut self, line: u64) -> &mut [Way] {
        let w = self.cfg.ways as usize;
        let s = self.set_of(line) * w;
        &mut self.ways[s..s + w]
    }

    fn purge_mshrs(&mut self, now: u64) {
        if now < self.earliest_fill {
            return;
        }
        self.mshrs.retain(|&(_, fill)| fill > now);
        self.earliest_fill = self
            .mshrs
            .iter()
            .map(|&(_, fill)| fill)
            .min()
            .unwrap_or(u64::MAX);
    }

    /// The in-flight fill cycle for `line`, if an MSHR tracks it.
    fn mshr_fill(&self, line: u64) -> Option<u64> {
        self.mshrs
            .binary_search_by_key(&line, |&(l, _)| l)
            .ok()
            .map(|i| self.mshrs[i].1)
    }

    /// Records an in-flight fill (caller has checked occupancy).
    fn mshr_insert(&mut self, line: u64, fill: u64) {
        match self.mshrs.binary_search_by_key(&line, |&(l, _)| l) {
            // Callers probe `mshr_fill` (after purging) before booking a
            // new miss, so a tracked line never reaches here.
            Ok(_) => unreachable!("MSHR double-booked for line {line}"),
            Err(i) => self.mshrs.insert(i, (line, fill)),
        }
        self.earliest_fill = self.earliest_fill.min(fill);
    }

    /// Books the bank serving `addr`, returning the access start cycle.
    fn book_bank(&mut self, addr: Addr, now: u64) -> u64 {
        let b = self.bank_of(addr);
        let start = now.max(self.bank_busy[b]);
        self.bank_busy[b] = start + 1;
        start
    }

    fn lookup(&mut self, line: u64) -> Option<usize> {
        self.set_ways(line).iter().position(|w| w.tag == Some(line))
    }

    fn touch(&mut self, line: u64, way: usize) {
        self.tick += 1;
        let tick = self.tick;
        self.set_ways(line)[way].last_used = tick;
    }

    /// Installs `line`, evicting the LRU way. Returns the evicted line if
    /// it was dirty (the caller books its write-back).
    fn install(&mut self, line: u64) -> Option<u64> {
        self.tick += 1;
        let tick = self.tick;
        let ways = self.set_ways(line);
        let victim_ix = ways
            .iter()
            .enumerate()
            .min_by_key(|(_, w)| (w.tag.is_some(), w.last_used))
            .map(|(i, _)| i)
            .expect("cache has at least one way");
        let victim = &mut ways[victim_ix];
        // Tags store full line indices, so the evicted line needs no
        // reconstruction.
        let evicted = match (victim.tag, victim.dirty) {
            (Some(old), true) => Some(old),
            _ => None,
        };
        victim.tag = Some(line);
        victim.dirty = false;
        victim.last_used = tick;
        evicted
    }

    fn mark_dirty(&mut self, line: u64) {
        if let Some(w) = self.set_ways(line).iter_mut().find(|w| w.tag == Some(line)) {
            w.dirty = true;
        }
    }

    /// A demand load.
    pub fn load(&mut self, addr: Addr, now: u64, next: &mut dyn Backing) -> AccessOutcome {
        let line = self.line_of(addr);
        self.purge_mshrs(now);

        // Hit under an in-flight fill: no new traffic, wait for the fill.
        if let Some(fill) = self.mshr_fill(line) {
            self.hits += 1;
            let start = self.book_bank(addr, now);
            return AccessOutcome::Done(fill.max(start + self.cfg.hit_latency));
        }
        if let Some(way) = self.lookup(line) {
            self.hits += 1;
            self.touch(line, way);
            let start = self.book_bank(addr, now);
            return AccessOutcome::Done(start + self.cfg.hit_latency);
        }
        // Miss: need an MSHR.
        if self.mshrs.len() >= self.cfg.mshrs as usize {
            return AccessOutcome::StallMshrFull;
        }
        self.misses += 1;
        let start = self.book_bank(addr, now);
        let fill = next.read_line(addr, start + self.cfg.hit_latency);
        if let Some(victim_line) = self.install(line) {
            self.writebacks += 1;
            let victim_addr = Addr(victim_line * self.cfg.line_bytes);
            next.write_line(victim_addr, start + self.cfg.hit_latency);
        }
        self.mshr_insert(line, fill);
        AccessOutcome::Done(fill)
    }

    /// A demand store. Under write-back/write-allocate the store completes
    /// locally (allocating on miss); under write-through/no-allocate it is
    /// forwarded to the backing level fire-and-forget (the returned cycle is
    /// when the request leaves this level, bandwidth having been booked
    /// downstream).
    pub fn store(&mut self, addr: Addr, now: u64, next: &mut dyn Backing) -> AccessOutcome {
        let line = self.line_of(addr);
        self.purge_mshrs(now);
        match self.policy {
            WritePolicy::WriteBackAllocate => {
                if let Some(fill) = self.mshr_fill(line) {
                    self.hits += 1;
                    let start = self.book_bank(addr, now);
                    self.mark_dirty(line);
                    return AccessOutcome::Done(fill.max(start + self.cfg.hit_latency));
                }
                if let Some(way) = self.lookup(line) {
                    self.hits += 1;
                    self.touch(line, way);
                    self.mark_dirty(line);
                    let start = self.book_bank(addr, now);
                    return AccessOutcome::Done(start + self.cfg.hit_latency);
                }
                if self.mshrs.len() >= self.cfg.mshrs as usize {
                    return AccessOutcome::StallMshrFull;
                }
                self.misses += 1;
                let start = self.book_bank(addr, now);
                let fill = next.read_line(addr, start + self.cfg.hit_latency);
                if let Some(victim_line) = self.install(line) {
                    self.writebacks += 1;
                    next.write_line(Addr(victim_line * self.cfg.line_bytes), start);
                }
                self.mark_dirty(line);
                self.mshr_insert(line, fill);
                AccessOutcome::Done(fill)
            }
            WritePolicy::WriteThroughNoAllocate => {
                let start = self.book_bank(addr, now);
                if let Some(way) = self.lookup(line) {
                    self.hits += 1;
                    self.touch(line, way);
                    // Keep the cached copy coherent.
                } else {
                    self.misses += 1;
                }
                // Forward the write downstream; the thread does not wait.
                next.write_line(addr, start + self.cfg.hit_latency);
                AccessOutcome::Done(start + self.cfg.hit_latency)
            }
        }
    }

    /// The earliest cycle at which every bank is free.
    #[must_use]
    pub fn idle_at(&self) -> u64 {
        self.bank_busy.iter().copied().max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A backing store with fixed latency and an access log.
    struct FixedBacking {
        latency: u64,
        reads: u64,
        writes: u64,
    }

    impl Backing for FixedBacking {
        fn read_line(&mut self, _addr: Addr, now: u64) -> u64 {
            self.reads += 1;
            now + self.latency
        }
        fn write_line(&mut self, _addr: Addr, now: u64) -> u64 {
            self.writes += 1;
            now + self.latency
        }
    }

    fn small_cache(policy: WritePolicy) -> CacheLevel {
        let cfg = CacheConfig {
            size_bytes: 1024, // 2 sets × 4 ways × 128B
            line_bytes: 128,
            ways: 4,
            banks: 2,
            hit_latency: 4,
            mshrs: 2,
        };
        CacheLevel::new(cfg, policy)
    }

    fn backing() -> FixedBacking {
        FixedBacking {
            latency: 100,
            reads: 0,
            writes: 0,
        }
    }

    #[test]
    fn miss_then_hit() {
        let mut c = small_cache(WritePolicy::WriteBackAllocate);
        let mut b = backing();
        let m = c.load(Addr(0), 0, &mut b);
        assert_eq!(m, AccessOutcome::Done(104), "miss = hit_latency + backing");
        assert_eq!(c.misses, 1);
        // After the fill lands, the same line hits.
        let h = c.load(Addr(64), 200, &mut b);
        assert_eq!(h, AccessOutcome::Done(204));
        assert_eq!(c.hits, 1);
        assert_eq!(b.reads, 1);
    }

    #[test]
    fn hit_under_fill_waits_for_fill_without_traffic() {
        let mut c = small_cache(WritePolicy::WriteBackAllocate);
        let mut b = backing();
        c.load(Addr(0), 0, &mut b);
        let second = c.load(Addr(4), 1, &mut b);
        assert_eq!(second, AccessOutcome::Done(104), "waits for in-flight fill");
        assert_eq!(b.reads, 1, "no duplicate backing read");
        assert_eq!(c.hits, 1);
    }

    #[test]
    fn mshr_exhaustion_stalls() {
        let mut c = small_cache(WritePolicy::WriteBackAllocate);
        let mut b = backing();
        assert!(matches!(c.load(Addr(0), 0, &mut b), AccessOutcome::Done(_)));
        assert!(matches!(
            c.load(Addr(512), 0, &mut b),
            AccessOutcome::Done(_)
        ));
        assert_eq!(
            c.load(Addr(1024), 0, &mut b),
            AccessOutcome::StallMshrFull,
            "third concurrent miss exceeds 2 MSHRs"
        );
        // Once fills land, misses flow again.
        assert!(matches!(
            c.load(Addr(1024), 200, &mut b),
            AccessOutcome::Done(_)
        ));
    }

    #[test]
    fn write_back_dirty_eviction_generates_writeback() {
        let mut c = small_cache(WritePolicy::WriteBackAllocate);
        let mut b = backing();
        // Set 0 lines: line numbers even (2 sets). Fill 4 ways of set 0 with
        // stores (dirty), then load a 5th line mapping to set 0.
        for i in 0..4u64 {
            let addr = Addr(i * 256); // lines 0,2,4,6 → set 0
            assert!(matches!(
                c.store(addr, i * 300, &mut b),
                AccessOutcome::Done(_)
            ));
        }
        assert_eq!(c.writebacks, 0);
        let _ = c.load(Addr(4 * 256), 2000, &mut b);
        assert_eq!(c.writebacks, 1, "evicting a dirty line writes it back");
        assert!(b.writes >= 1);
    }

    #[test]
    fn write_through_forwards_every_store() {
        let mut c = small_cache(WritePolicy::WriteThroughNoAllocate);
        let mut b = backing();
        let s = c.store(Addr(0), 0, &mut b);
        assert!(matches!(s, AccessOutcome::Done(_)));
        assert_eq!(b.writes, 1);
        // Store miss does not allocate: a subsequent load misses.
        let l = c.load(Addr(0), 50, &mut b);
        assert!(matches!(l, AccessOutcome::Done(_)));
        assert_eq!(c.misses, 2, "store miss + load miss");
        assert_eq!(b.reads, 1);
    }

    #[test]
    fn bank_conflicts_serialize_same_bank() {
        let mut c = small_cache(WritePolicy::WriteBackAllocate);
        let mut b = backing();
        // Warm two lines in the same bank (bank = line % 2): lines 0 and 2.
        c.load(Addr(0), 0, &mut b);
        c.load(Addr(256), 0, &mut b);
        // Both hit now; issued the same cycle they serialize on the bank.
        let t1 = c.load(Addr(0), 300, &mut b);
        let t2 = c.load(Addr(256), 300, &mut b);
        assert_eq!(t1, AccessOutcome::Done(304));
        assert_eq!(t2, AccessOutcome::Done(305));
    }
}
