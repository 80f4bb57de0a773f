//! The assembled global-memory hierarchy: L1 → L2 → DRAM.
//!
//! `MemSystem` is the single entry point the execution backends use for
//! global-memory timing. The L1 write policy is the §5.1 architectural
//! difference between machines: write-back/write-allocate for MT-CGRA and
//! dMT-CGRA cores, write-through/write-no-allocate for the Fermi baseline.

use crate::cache::{AccessOutcome, Backing, CacheLevel};
use crate::dram::Dram;
use dmt_common::config::{MemConfig, WritePolicy};
use dmt_common::ids::Addr;
use dmt_common::stats::{PhaseStats, RunStats};

/// L1 → L2 → DRAM hierarchy timing model.
#[derive(Debug, Clone)]
pub struct MemSystem {
    l1: CacheLevel,
    l2: CacheLevel,
    dram: Dram,
}

/// `CacheLevel` + `Dram` viewed as one backing store for the L1.
struct L2Dram<'a> {
    l2: &'a mut CacheLevel,
    dram: &'a mut Dram,
}

impl Backing for L2Dram<'_> {
    fn read_line(&mut self, addr: Addr, now: u64) -> u64 {
        match self.l2.load(addr, now, self.dram) {
            AccessOutcome::Done(t) => t,
            // The L2 has ample MSHRs; under extreme pressure model the
            // stall as queueing delay rather than propagating rejection.
            AccessOutcome::StallMshrFull => {
                let retry = now + self.l2.config().hit_latency;
                match self.l2.load(addr, retry, self.dram) {
                    AccessOutcome::Done(t) => t,
                    AccessOutcome::StallMshrFull => retry + self.l2.config().hit_latency * 4,
                }
            }
        }
    }

    fn write_line(&mut self, addr: Addr, now: u64) -> u64 {
        match self.l2.store(addr, now, self.dram) {
            AccessOutcome::Done(t) => t,
            AccessOutcome::StallMshrFull => now + self.l2.config().hit_latency * 4,
        }
    }
}

impl MemSystem {
    /// Builds the hierarchy. The write policies belong to the machine,
    /// not to `cfg`: `l1_policy` is the §5.1 per-machine L1 policy, and
    /// the L2 is always write-back/write-allocate, as on Fermi.
    #[must_use]
    pub fn new(cfg: &MemConfig, l1_policy: WritePolicy) -> MemSystem {
        MemSystem {
            l1: CacheLevel::new(cfg.l1, l1_policy),
            l2: CacheLevel::new(cfg.l2, WritePolicy::WriteBackAllocate),
            dram: Dram::new(cfg.dram, cfg.l2.line_bytes),
        }
    }

    /// Books a load issued at `now`; `Done(t)` gives the data-ready cycle,
    /// `StallMshrFull` asks the unit to retry later.
    pub fn load(&mut self, addr: Addr, now: u64) -> AccessOutcome {
        let mut next = L2Dram {
            l2: &mut self.l2,
            dram: &mut self.dram,
        };
        self.l1.load(addr, now, &mut next)
    }

    /// Books a store issued at `now`.
    pub fn store(&mut self, addr: Addr, now: u64) -> AccessOutcome {
        let mut next = L2Dram {
            l2: &mut self.l2,
            dram: &mut self.dram,
        };
        self.l1.store(addr, now, &mut next)
    }

    /// Copies hierarchy counters into a [`RunStats`] record (totals view;
    /// delegates to [`MemSystem::export_phase`] so the two exports cannot
    /// drift).
    pub fn export_stats(&self, stats: &mut RunStats) {
        let mut counters = stats.totals();
        self.export_phase(&mut counters);
        stats.l1_hits = counters.l1_hits;
        stats.l1_misses = counters.l1_misses;
        stats.l2_hits = counters.l2_hits;
        stats.l2_misses = counters.l2_misses;
        stats.dram_reads = counters.dram_reads;
        stats.dram_writes = counters.dram_writes;
    }

    /// Copies hierarchy counters into a cumulative [`PhaseStats`] snapshot
    /// (the engines call this at every phase boundary; the counters are
    /// cumulative, so phase shares are recovered by differencing).
    pub fn export_phase(&self, stats: &mut PhaseStats) {
        stats.l1_hits = self.l1.hits;
        stats.l1_misses = self.l1.misses;
        stats.l2_hits = self.l2.hits;
        stats.l2_misses = self.l2.misses;
        stats.dram_reads = self.dram.reads;
        stats.dram_writes = self.dram.writes;
    }

    /// Cumulative `(l1, l2)` fill counts — misses that pulled a line into
    /// the level. Cheap enough to read every cycle; the observability
    /// sampler polls this at trace sample boundaries.
    #[must_use]
    pub fn fill_counts(&self) -> (u64, u64) {
        (self.l1.misses, self.l2.misses)
    }

    /// The earliest cycle at which the whole hierarchy is quiescent.
    #[must_use]
    pub fn idle_at(&self) -> u64 {
        self.l1
            .idle_at()
            .max(self.l2.idle_at())
            .max(self.dram.idle_at())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmt_common::config::MemConfig;

    fn system(policy: WritePolicy) -> MemSystem {
        MemSystem::new(&MemConfig::default(), policy)
    }

    #[test]
    fn cold_load_reaches_dram_then_hits() {
        let mut m = system(WritePolicy::WriteBackAllocate);
        let AccessOutcome::Done(t_miss) = m.load(Addr(0), 0) else {
            panic!("unexpected stall");
        };
        // Cold miss traverses L1 + L2 + DRAM latencies.
        assert!(t_miss >= 24 + 60 + 220, "cold miss {t_miss}");
        let AccessOutcome::Done(t_hit) = m.load(Addr(0), t_miss + 1) else {
            panic!("unexpected stall");
        };
        assert_eq!(t_hit, t_miss + 1 + 24, "subsequent access is an L1 hit");
        let mut s = RunStats::default();
        m.export_stats(&mut s);
        assert_eq!((s.l1_hits, s.l1_misses), (1, 1));
        assert_eq!(s.dram_reads, 1);
    }

    #[test]
    fn write_through_store_misses_do_not_allocate() {
        let mut m = system(WritePolicy::WriteThroughNoAllocate);
        let _ = m.store(Addr(0), 0);
        let AccessOutcome::Done(_) = m.load(Addr(0), 1000) else {
            panic!("unexpected stall");
        };
        let mut s = RunStats::default();
        m.export_stats(&mut s);
        assert_eq!(s.l1_misses, 2, "store miss then load miss");
    }

    #[test]
    fn write_back_store_allocates() {
        let mut m = system(WritePolicy::WriteBackAllocate);
        let _ = m.store(Addr(0), 0);
        let AccessOutcome::Done(_) = m.load(Addr(0), 2000) else {
            panic!("unexpected stall");
        };
        let mut s = RunStats::default();
        m.export_stats(&mut s);
        assert_eq!(s.l1_hits, 1, "load hits the allocated line");
        assert_eq!(s.l1_misses, 1);
    }

    #[test]
    fn determinism() {
        let run = || {
            let mut m = system(WritePolicy::WriteBackAllocate);
            let mut last = 0;
            for i in 0..200u64 {
                if let AccessOutcome::Done(t) = m.load(Addr(i * 64), i) {
                    last = t;
                }
            }
            last
        };
        assert_eq!(run(), run());
    }
}
