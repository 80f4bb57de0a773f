//! Memory-hierarchy behaviour tests: locality, eviction, bandwidth and
//! policy effects that the architecture comparison rests on.

use dmt_common::config::{CacheConfig, DramConfig, MemConfig, WritePolicy};
use dmt_common::ids::Addr;
use dmt_common::stats::RunStats;
use dmt_mem::{AccessOutcome, CacheLevel, Dram, MemSystem, Scratchpad};

fn done(outcome: AccessOutcome) -> u64 {
    match outcome {
        AccessOutcome::Done(t) => t,
        AccessOutcome::StallMshrFull => panic!("unexpected stall"),
    }
}

#[test]
fn hot_working_set_stays_resident() {
    let mut m = MemSystem::new(&MemConfig::default(), WritePolicy::WriteBackAllocate);
    // Touch 4 KiB (32 lines), then sweep it 10 more times.
    let mut now = 0;
    for pass in 0..11u64 {
        for line in 0..32u64 {
            now = done(m.load(Addr(line * 128), now)).max(now + 1);
        }
        let _ = pass;
    }
    let mut s = RunStats::default();
    m.export_stats(&mut s);
    assert_eq!(s.l1_misses, 32, "only the cold pass misses");
    assert_eq!(s.l1_hits, 32 * 10);
}

#[test]
fn streaming_misses_every_line() {
    let mut m = MemSystem::new(&MemConfig::default(), WritePolicy::WriteBackAllocate);
    let mut now = 0;
    // 1 MiB stream: far beyond the 64 KiB L1 — every line misses L1.
    for line in 0..1024u64 {
        loop {
            match m.load(Addr(line * 128), now) {
                AccessOutcome::Done(t) => {
                    now = t;
                    break;
                }
                AccessOutcome::StallMshrFull => now += 1,
            }
        }
    }
    let mut s = RunStats::default();
    m.export_stats(&mut s);
    assert_eq!(s.l1_misses, 1024);
    assert!(
        s.l2_misses >= 1024 - 6144 / 128,
        "L2 cannot hold the stream either"
    );
    assert_eq!(s.dram_reads, s.l2_misses);
}

#[test]
fn lru_evicts_the_least_recent_way() {
    // 2-set cache, 2 ways, 64B lines: lines 0,2,4 map to set 0.
    let cfg = CacheConfig {
        size_bytes: 256,
        line_bytes: 64,
        ways: 2,
        banks: 1,
        hit_latency: 1,
        mshrs: 8,
    };
    let mut c = CacheLevel::new(cfg, WritePolicy::WriteBackAllocate);
    let mut dram = Dram::new(MemConfig::default().dram, 64);
    let a = Addr(0); // set 0
    let b = Addr(128); // set 0
    let evictor = Addr(256); // set 0
    let mut now = 0;
    now = done(c.load(a, now, &mut dram)) + 1;
    now = done(c.load(b, now, &mut dram)) + 1;
    // Touch `a` again so `b` is the LRU way.
    now = done(c.load(a, now, &mut dram)) + 1;
    now = done(c.load(evictor, now, &mut dram)) + 1; // evicts b
    let misses_before = c.misses;
    now = done(c.load(a, now, &mut dram)) + 1; // still resident
    assert_eq!(c.misses, misses_before, "a survived the eviction");
    let _ = done(c.load(b, now, &mut dram)); // b was evicted
    assert_eq!(c.misses, misses_before + 1, "b was the LRU victim");
}

#[test]
fn write_through_l1_pushes_every_store_to_l2() {
    let mut m = MemSystem::new(&MemConfig::default(), WritePolicy::WriteThroughNoAllocate);
    let mut now = 0;
    for i in 0..64u64 {
        now = done(m.store(Addr(i * 4), now)) + 1; // same line mostly
    }
    let mut s = RunStats::default();
    m.export_stats(&mut s);
    // Write-back would coalesce these into 2 dirty lines; write-through
    // pays L2 bandwidth for all 64.
    assert!(s.l2_hits + s.l2_misses >= 64);
}

#[test]
fn write_back_l1_coalesces_stores_into_dirty_lines() {
    let mut m = MemSystem::new(&MemConfig::default(), WritePolicy::WriteBackAllocate);
    let mut now = 0;
    for i in 0..64u64 {
        now = done(m.store(Addr(i * 4), now)) + 1;
    }
    let mut s = RunStats::default();
    m.export_stats(&mut s);
    // 64 word stores land in 2 lines: 2 allocate fills, the rest hit.
    assert_eq!(s.l1_misses, 2);
    assert_eq!(s.l1_hits, 62);
}

#[test]
fn dram_channels_scale_bandwidth() {
    let narrow = DramConfig {
        channels: 1,
        banks_per_channel: 1,
        latency: 100,
        bank_busy_cycles: 10,
    };
    let wide = DramConfig {
        channels: 8,
        ..narrow
    };
    let run = |cfg: DramConfig| {
        let mut d = Dram::new(cfg, 128);
        (0..64u64).map(|i| d.read(Addr(i * 128), 0)).max().unwrap()
    };
    let t_narrow = run(narrow);
    let t_wide = run(wide);
    assert!(
        t_narrow > 4 * t_wide,
        "8 channels should be much faster: {t_narrow} vs {t_wide}"
    );
}

#[test]
fn scratchpad_conflict_degree_serializes_linearly() {
    let cfg = dmt_common::config::ScratchpadConfig {
        size_bytes: 4096,
        banks: 32,
        latency: 4,
    };
    // 8 accesses to the same bank issued the same cycle.
    let mut p = Scratchpad::new(cfg);
    let times: Vec<u64> = (0..8u64).map(|i| p.access(Addr(i * 32 * 4), 0)).collect();
    for (i, &t) in times.iter().enumerate() {
        assert_eq!(t, 4 + i as u64, "access {i} serialized behind the bank");
    }
    assert_eq!(p.bank_conflicts, 7);
}

#[test]
fn mshr_stall_clears_after_fills_land() {
    let mut cfg = MemConfig::default();
    cfg.l1.mshrs = 2;
    let mut m = MemSystem::new(&cfg, WritePolicy::WriteBackAllocate);
    assert!(matches!(m.load(Addr(0), 0), AccessOutcome::Done(_)));
    assert!(matches!(m.load(Addr(4096), 0), AccessOutcome::Done(_)));
    assert!(matches!(
        m.load(Addr(8192), 0),
        AccessOutcome::StallMshrFull
    ));
    // Far in the future the fills have landed.
    assert!(matches!(m.load(Addr(8192), 10_000), AccessOutcome::Done(_)));
}
