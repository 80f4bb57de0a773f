//! The Fermi-class SM timing model: in-order warps over a scoreboard.
//!
//! §5.1 equates one dMT-CGRA core with one NVIDIA SM: "in an Nvidia SM,
//! that logic assembles 32 CUDA cores". This model captures the mechanisms
//! the paper's comparison turns on:
//!
//! * **32-wide SIMT issue** — at most one warp-instruction issues per
//!   cycle, so peak throughput is 32 lanes vs the fabric's 140 units;
//! * **register-file traffic** — every operand is a register read, every
//!   result a write (charged by the energy model);
//! * **scoreboarded memory latency** — loads complete through the same
//!   L1/L2/DRAM hierarchy, with per-warp address coalescing;
//! * **shared-memory banking** — per-lane scratchpad accesses serialize on
//!   bank conflicts;
//! * **barrier synchronization** — `__syncthreads()` blocks every warp in
//!   the block until the slowest arrives (and its memory settles).
//!
//! The L1 uses Fermi's write-through / write-no-allocate policy (§5.1).

use crate::lower::{lower, GpuInstr, GpuProgram, IssueClass};
use dmt_common::config::{SystemConfig, WritePolicy};
use dmt_common::ids::{Addr, NodeId, ThreadId};
use dmt_common::memimg::MemImage;
use dmt_common::stats::{PhaseStats, RunStats};
use dmt_common::value::Word;
use dmt_common::{Error, Result, RunLimits};
use dmt_dfg::kernel::LaunchInput;
use dmt_dfg::node::{eval_pure, MemSpace, NodeKind};
use dmt_dfg::{Dfg, Kernel};
use dmt_mem::{AccessOutcome, MemSystem, Scratchpad};
use dmt_obs::{CycleSample, Obs};

/// Result of a GPU run: final memory image plus statistics.
#[derive(Debug, Clone)]
pub struct GpuRunResult {
    /// Final global-memory image.
    pub memory: MemImage,
    /// Event counters and total cycles.
    pub stats: RunStats,
}

/// The SIMT baseline machine.
#[derive(Debug, Clone)]
pub struct GpuMachine {
    cfg: SystemConfig,
}

impl GpuMachine {
    /// Creates a machine with the given configuration.
    #[must_use]
    pub fn new(cfg: SystemConfig) -> GpuMachine {
        GpuMachine { cfg }
    }

    /// The machine's configuration.
    #[must_use]
    pub fn config(&self) -> &SystemConfig {
        &self.cfg
    }

    /// Lowers and executes `kernel`, running grid blocks sequentially on
    /// one SM (matching the fabric backends' per-core methodology).
    ///
    /// # Errors
    ///
    /// Returns [`Error::Compile`] for kernels using inter-thread
    /// communication and [`Error::Runtime`] for parameter/address errors.
    pub fn run(&self, kernel: &Kernel, input: LaunchInput) -> Result<GpuRunResult> {
        self.run_observed(kernel, input, &mut Obs::disabled())
    }

    /// [`GpuMachine::run`] with an observation handle. The SIMT model is
    /// wave-scheduled, so observation is wave-granular: each wave of
    /// resident blocks is reported as one span with a counter sample at
    /// its boundary (the fabric engines report true per-phase spans and
    /// in-loop samples). A disabled handle costs nothing.
    ///
    /// # Errors
    ///
    /// As [`GpuMachine::run`].
    pub fn run_observed(
        &self,
        kernel: &Kernel,
        input: LaunchInput,
        obs: &mut Obs,
    ) -> Result<GpuRunResult> {
        self.run_limited(kernel, input, obs, &RunLimits::unlimited())
    }

    /// [`GpuMachine::run_observed`] under cooperative [`RunLimits`]:
    /// the issue loop checks the deadline and cancellation token every
    /// cycle (`now` carries across waves, so the budget bounds the
    /// whole launch). The unlimited check is one compare per cycle.
    ///
    /// # Errors
    ///
    /// As [`GpuMachine::run`], plus [`Error::TimedOut`] /
    /// [`Error::Cancelled`] when a limit trips, and [`Error::Config`]
    /// for a configuration [`SystemConfig::validate`] refuses.
    pub fn run_limited(
        &self,
        kernel: &Kernel,
        input: LaunchInput,
        obs: &mut Obs,
        limits: &RunLimits<'_>,
    ) -> Result<GpuRunResult> {
        self.cfg.validate()?;
        let program = lower(kernel)?;
        if input.params.len() != kernel.param_names().len() {
            return Err(Error::Runtime(format!(
                "kernel {} expects {} parameters, got {}",
                kernel.name(),
                kernel.param_names().len(),
                input.params.len()
            )));
        }
        let mut global = input.memory;
        let mut stats = RunStats::default();
        // Fermi L1: write-through, write-no-allocate (§5.1).
        let mut mem = MemSystem::new(&self.cfg.mem, WritePolicy::WriteThroughNoAllocate);
        let mut scratch = Scratchpad::new(self.cfg.mem.scratchpad);
        let mut now = 0u64;
        // Concurrent resident blocks, limited by warp slots and scratchpad
        // capacity (Fermi runs several blocks per SM; their warps hide each
        // other's barrier and memory stalls).
        let warps_per_block = kernel
            .threads_per_block()
            .div_ceil(self.cfg.gpu.warp_width)
            .max(1);
        let by_warps = (self.cfg.gpu.max_warps / warps_per_block).max(1);
        let by_shared = if kernel.shared_words() == 0 {
            u32::MAX
        } else {
            ((self.cfg.mem.scratchpad.size_bytes / 4) as u32 / kernel.shared_words()).max(1)
        };
        let wave = by_warps.min(by_shared).min(kernel.grid_blocks());
        // Phase attribution: blocks of one wave pass their barriers
        // independently, so the per-phase split follows the *frontier* —
        // the lowest phase any unfinished warp is still in. Counters are
        // snapshotted whenever the frontier advances (and at each wave
        // end), and each delta is credited to the phase that just drained;
        // work a leading block already did in the next phase rides along
        // with the frontier phase. The split is therefore frontier-exact,
        // while the per-counter sums equal the totals exactly by
        // construction (single-phase kernels report one phase == totals).
        let phase_count = kernel.phases().len().max(1);
        let mut per_phase = vec![PhaseStats::default(); phase_count];
        let mut prev = PhaseStats::default();
        let mut first = 0u32;
        let mut wave_ix = 0u32;
        while first < kernel.grid_blocks() {
            let last = (first + wave).min(kernel.grid_blocks());
            obs.phase_begin(wave_ix, now);
            let mut exec =
                WaveExec::new(&self.cfg, kernel, &program, first..last, &input.params, now);
            now = exec.run(
                &mut global,
                &mut mem,
                &mut scratch,
                &mut stats,
                &mut per_phase,
                &mut prev,
                limits,
            )?;
            // Wave tail (including the final memory settle): the last
            // phase's share of this wave.
            let cum = cumulative_snapshot(&stats, now, &mem, &scratch);
            per_phase[phase_count - 1].accumulate(&cum.minus(&prev));
            prev = cum;
            first = last;
            if obs.on() {
                let threads = u64::from(last) * u64::from(kernel.threads_per_block());
                let (l1_fills, l2_fills) = mem.fill_counts();
                obs.sample(CycleSample {
                    cycle: now,
                    injected: threads,
                    retired: threads,
                    l1_fills,
                    l2_fills,
                    ..Default::default()
                });
            }
            obs.phase_end(now);
            wave_ix += 1;
        }
        obs.finish(now);
        // Each phase executed once architecturally (waves re-run the same
        // configuration); the totals' phase count is the kernel's.
        for p in &mut per_phase {
            p.phases = 1;
        }
        Ok(GpuRunResult {
            memory: global,
            stats: RunStats::from_phases(per_phase),
        })
    }
}

/// The run's cumulative counters at one instant: everything accumulated
/// in `stats`, plus the live state exported only at boundaries (cycles,
/// bank conflicts, hierarchy counters). Differencing consecutive
/// snapshots yields the per-phase shares; the final snapshot is
/// bit-identical to the totals the pre-phase-resolved engine reported.
fn cumulative_snapshot(
    stats: &RunStats,
    now: u64,
    mem: &MemSystem,
    scratch: &Scratchpad,
) -> PhaseStats {
    let mut cum = stats.totals();
    cum.cycles = now;
    cum.shared_bank_conflicts = scratch.bank_conflicts;
    mem.export_phase(&mut cum);
    cum
}

/// Per-warp execution state.
#[derive(Debug, Clone)]
struct Warp {
    /// Resident-block slot this warp belongs to.
    slot: usize,
    /// First linear thread id in the warp (within its block).
    base_tid: u32,
    /// Active lanes (the last warp of an odd-sized block is partial).
    lanes: u32,
    /// Next instruction index in the flattened stream.
    pc: usize,
    /// Earliest cycle the warp may issue again.
    ready_at: u64,
    /// Per-register (= per dataflow node) operand-ready cycles for the
    /// current phase.
    reg_ready: Vec<u64>,
    /// Latest memory completion issued by this warp (barriers wait on it).
    mem_settle: u64,
    /// Waiting at a barrier.
    at_barrier: bool,
}

/// One resident thread block (an SM keeps several in flight, §5.1:
/// "the amount of logic in an SM" includes the multi-block scheduler).
#[derive(Debug)]
struct BlockSlot {
    /// Grid-wide block index.
    block: u32,
    /// Register values for the current phase: `values[node][thread]`.
    values: Vec<Vec<Word>>,
    /// The block's shared-memory image.
    shared: MemImage,
    /// Current phase index.
    phase: usize,
}

/// Executes one *wave* of concurrently resident blocks; waves run
/// back-to-back until the grid is exhausted. Within a wave the scheduler
/// round-robins over every resident warp, so one block's barrier stall is
/// hidden by other blocks — just like a real SM.
struct WaveExec<'a> {
    cfg: &'a SystemConfig,
    kernel: &'a Kernel,
    params: &'a [Word],
    /// Flattened instruction stream: (phase index, instruction).
    stream: Vec<(usize, GpuInstr)>,
    warps: Vec<Warp>,
    slots: Vec<BlockSlot>,
    now: u64,
    rr: usize,
    /// Lowest phase any unfinished warp is still in — the boundary the
    /// per-phase statistics split on (see `GpuMachine::run`).
    frontier: usize,
    /// Phases in the kernel (frontier tracking is skipped when 1).
    phase_count: usize,
    /// Reused per-instruction coalescing buffer (line indices); a member
    /// so the issue hot path never allocates.
    scratch_lines: Vec<u64>,
    /// Reused per-instruction lane-result buffer, ditto.
    scratch_vals: Vec<Word>,
}

impl<'a> WaveExec<'a> {
    fn new(
        cfg: &'a SystemConfig,
        kernel: &'a Kernel,
        program: &'a GpuProgram,
        blocks: std::ops::Range<u32>,
        params: &'a [Word],
        start: u64,
    ) -> WaveExec<'a> {
        let mut stream = Vec::new();
        for (pi, phase) in program.phases.iter().enumerate() {
            if pi > 0 {
                stream.push((pi - 1, GpuInstr::Barrier));
            }
            stream.extend(phase.iter().map(|&i| (pi, i)));
        }
        let threads = kernel.threads_per_block();
        let width = cfg.gpu.warp_width;
        let n_warps = threads.div_ceil(width);
        let mut warps = Vec::new();
        let mut slots = Vec::new();
        for (si, block) in blocks.enumerate() {
            slots.push(BlockSlot {
                block,
                values: Vec::new(),
                shared: MemImage::with_words(kernel.shared_words() as usize),
                phase: 0,
            });
            for w in 0..n_warps {
                warps.push(Warp {
                    slot: si,
                    base_tid: w * width,
                    lanes: width.min(threads - w * width),
                    pc: 0,
                    ready_at: start,
                    reg_ready: Vec::new(),
                    mem_settle: start,
                    at_barrier: false,
                });
            }
        }
        WaveExec {
            cfg,
            kernel,
            params,
            stream,
            warps,
            slots,
            now: start,
            rr: 0,
            frontier: 0,
            phase_count: program.phases.len().max(1),
            scratch_lines: Vec::with_capacity(width as usize),
            scratch_vals: Vec::with_capacity(width as usize),
        }
    }

    /// The lowest phase an unfinished warp is still executing (a warp
    /// parked at the barrier closing phase `p` is still in `p`); `None`
    /// when every warp has retired.
    fn min_unfinished_phase(&self, end: usize) -> Option<usize> {
        self.warps
            .iter()
            .filter(|w| w.pc < end)
            .map(|w| self.stream[w.pc].0)
            .min()
    }

    /// Materializes source registers for `slot`'s current phase
    /// (threadIdx, constants, parameters — special registers and
    /// immediates on a real SM, so no instructions).
    fn enter_phase(&mut self, si: usize) {
        let graph = &self.kernel.phases()[self.slots[si].phase];
        let threads = self.kernel.threads_per_block() as usize;
        let block = self.slots[si].block;
        let mut values = vec![vec![Word::ZERO; threads]; graph.len()];
        for id in graph.node_ids() {
            let kind = graph.kind(id);
            if !kind.is_source() {
                continue;
            }
            for (t, v) in values[id.index()].iter_mut().enumerate() {
                *v = match *kind {
                    NodeKind::Const(w) => w,
                    NodeKind::ThreadIdx(d) => {
                        Word::from_u32(self.kernel.block().coord(ThreadId(t as u32), d))
                    }
                    NodeKind::BlockIdx => Word::from_u32(block),
                    NodeKind::Param(slot) => self.params[usize::from(slot)],
                    _ => unreachable!(),
                };
            }
        }
        self.slots[si].values = values;
        let at = self.now;
        for w in &mut self.warps {
            if w.slot == si {
                w.reg_ready = vec![at; graph.len()];
            }
        }
    }

    fn operands_ready(&self, warp: &Warp, graph: &Dfg, node: NodeId) -> u64 {
        graph
            .inputs(node)
            .iter()
            .flatten()
            .map(|src| warp.reg_ready[src.index()])
            .max()
            .unwrap_or(self.now)
    }

    #[allow(clippy::too_many_arguments)]
    fn issue(
        &mut self,
        wi: usize,
        phase_ix: usize,
        instr: GpuInstr,
        global: &mut MemImage,
        mem: &mut MemSystem,
        scratch: &mut Scratchpad,
        stats: &mut RunStats,
    ) -> Result<bool> {
        let graph = &self.kernel.phases()[phase_ix];
        let GpuInstr::Op { node, class } = instr else {
            unreachable!("barriers handled by the scheduler");
        };
        let si = self.warps[wi].slot;
        let lanes = u64::from(self.warps[wi].lanes);
        let g = self.cfg.gpu;
        let n_srcs = graph.inputs(node).iter().flatten().count() as u64;

        let (done_at, issue_busy) = match class {
            IssueClass::Alu => (self.now + g.alu_latency, g.issue_latency),
            IssueClass::Fpu => (self.now + g.fpu_latency, g.issue_latency),
            IssueClass::Sfu => (
                self.now + g.sfu_latency,
                u64::from(g.warp_width / g.sfu_lanes),
            ),
            IssueClass::LoadGlobal | IssueClass::StoreGlobal => {
                let is_store = matches!(class, IssueClass::StoreGlobal);
                // Coalesce per-lane addresses into unique line transactions
                // (buffer reused across instructions — no allocation here).
                let warp = &self.warps[wi];
                let line = self.cfg.mem.l1.line_bytes;
                let addr_node = graph.inputs(node)[0].expect("wired");
                let mut lines = std::mem::take(&mut self.scratch_lines);
                lines.clear();
                lines.extend((0..warp.lanes).map(|l| {
                    let t = (warp.base_tid + l) as usize;
                    u64::from(self.slots[si].values[addr_node.index()][t].as_u32()) / line
                }));
                lines.sort_unstable();
                lines.dedup();
                let mut worst = self.now;
                let mut stalled = false;
                for &ln in &lines {
                    let addr = Addr(ln * line);
                    let outcome = if is_store {
                        mem.store(addr, self.now + g.issue_latency)
                    } else {
                        mem.load(addr, self.now + g.issue_latency)
                    };
                    match outcome {
                        AccessOutcome::Done(t) => worst = worst.max(t),
                        // Replay the whole instruction next cycle; partial
                        // bookings model the bandwidth cost of replays.
                        AccessOutcome::StallMshrFull => {
                            stalled = true;
                            break;
                        }
                    }
                }
                let n_lines = lines.len() as u64;
                self.scratch_lines = lines;
                if stalled {
                    return Ok(false);
                }
                if is_store {
                    stats.global_stores += n_lines;
                    // Stores are fire-and-forget on the SM too.
                    worst = self.now + g.issue_latency;
                } else {
                    stats.global_loads += n_lines;
                }
                self.do_memory(phase_ix, node, wi, is_store, MemSpace::Global, global)?;
                (worst, g.issue_latency)
            }
            IssueClass::LoadShared | IssueClass::StoreShared => {
                let is_store = matches!(class, IssueClass::StoreShared);
                let warp = &self.warps[wi];
                let addr_node = graph.inputs(node)[0].expect("wired");
                let mut worst = self.now;
                for l in 0..warp.lanes {
                    let t = (warp.base_tid + l) as usize;
                    let a = u64::from(self.slots[si].values[addr_node.index()][t].as_u32());
                    let done = scratch.access(Addr(a), self.now + g.issue_latency);
                    worst = worst.max(done);
                }
                if is_store {
                    stats.shared_stores += lanes;
                } else {
                    stats.shared_loads += lanes;
                }
                self.do_memory(phase_ix, node, wi, is_store, MemSpace::Shared, global)?;
                (worst, g.issue_latency)
            }
        };

        // Functional result for compute classes. Operands fit a fixed
        // array (arity ≤ 3) and lane results go through the reused member
        // buffer, so the per-lane evaluation allocates nothing.
        if matches!(class, IssueClass::Alu | IssueClass::Fpu | IssueClass::Sfu) {
            let warp = &self.warps[wi];
            let mut vals = std::mem::take(&mut self.scratch_vals);
            vals.clear();
            vals.extend((0..warp.lanes).map(|l| {
                let t = (warp.base_tid + l) as usize;
                let mut ops = [Word::ZERO; 3];
                let mut n = 0;
                for src in graph.inputs(node).iter().flatten() {
                    ops[n] = self.slots[si].values[src.index()][t];
                    n += 1;
                }
                eval_pure(graph.kind(node), &ops[..n])
            }));
            let base = self.warps[wi].base_tid as usize;
            for (l, &v) in vals.iter().enumerate() {
                self.slots[si].values[node.index()][base + l] = v;
            }
            self.scratch_vals = vals;
        }

        stats.gpu_instructions += 1;
        stats.gpu_thread_instructions += lanes;
        stats.register_reads += n_srcs * lanes;
        stats.register_writes += lanes;

        let warp = &mut self.warps[wi];
        warp.reg_ready[node.index()] = done_at;
        if matches!(
            class,
            IssueClass::LoadGlobal
                | IssueClass::StoreGlobal
                | IssueClass::LoadShared
                | IssueClass::StoreShared
        ) {
            warp.mem_settle = warp.mem_settle.max(done_at);
        }
        warp.pc += 1;
        warp.ready_at = self.now + issue_busy.max(1);
        Ok(true)
    }

    /// Functional memory effect for every lane (timing handled by caller).
    fn do_memory(
        &mut self,
        phase_ix: usize,
        node: NodeId,
        wi: usize,
        is_store: bool,
        space: MemSpace,
        global: &mut MemImage,
    ) -> Result<()> {
        let graph = &self.kernel.phases()[phase_ix];
        let si = self.warps[wi].slot;
        let (base, lanes) = (self.warps[wi].base_tid, self.warps[wi].lanes);
        let addr_node = graph.inputs(node)[0].expect("wired");
        for l in 0..lanes {
            let t = (base + l) as usize;
            let addr = Addr(u64::from(
                self.slots[si].values[addr_node.index()][t].as_u32(),
            ));
            if is_store {
                let val_node = graph.inputs(node)[1].expect("wired");
                let v = self.slots[si].values[val_node.index()][t];
                match space {
                    MemSpace::Global => global.try_store(addr, v)?,
                    MemSpace::Shared => self.slots[si].shared.try_store(addr, v)?,
                }
                self.slots[si].values[node.index()][t] = Word::ZERO; // ordering token
            } else {
                let v = match space {
                    MemSpace::Global => global.try_load(addr)?,
                    MemSpace::Shared => self.slots[si].shared.try_load(addr)?,
                };
                self.slots[si].values[node.index()][t] = v;
            }
        }
        Ok(())
    }

    /// Releases any block whose unfinished warps are all parked at the
    /// barrier with their memory settled; moves the block to its next
    /// phase. Returns whether any warp was released (the only event that
    /// can advance the phase frontier).
    fn release_barriers(&mut self, end: usize, stats: &mut RunStats) -> bool {
        let mut released = false;
        for si in 0..self.slots.len() {
            // Pass 1 (runs every cycle — no allocation): is every
            // unfinished warp of this block parked at the barrier, and
            // when does the slowest one's memory settle?
            let mut any_unfinished = false;
            let mut all_parked = true;
            let mut release = self.now;
            for w in &self.warps {
                if w.slot != si || w.pc >= end {
                    continue;
                }
                any_unfinished = true;
                if !w.at_barrier {
                    all_parked = false;
                    break;
                }
                release = release.max(w.mem_settle);
            }
            if !any_unfinished || !all_parked {
                continue;
            }
            // Pass 2: release them (rare — once per barrier per block).
            let mut first_released_pc = usize::MAX;
            for w in &mut self.warps {
                if w.slot != si || w.pc >= end {
                    continue;
                }
                w.at_barrier = false;
                stats.barrier_wait_cycles += release.saturating_sub(w.ready_at);
                w.pc += 1;
                w.ready_at = release + 1;
                stats.barriers += 1;
                released = true;
                if first_released_pc == usize::MAX {
                    first_released_pc = w.pc;
                }
            }
            // Phase boundary: materialize the next phase's registers.
            let next_pc = first_released_pc.min(end - 1);
            let (pi, _) = self.stream[next_pc];
            if pi != self.slots[si].phase && pi < self.kernel.phases().len() {
                self.slots[si].phase = pi;
                self.enter_phase(si);
            }
        }
        released
    }

    #[allow(clippy::too_many_arguments)]
    fn run(
        &mut self,
        global: &mut MemImage,
        mem: &mut MemSystem,
        scratch: &mut Scratchpad,
        stats: &mut RunStats,
        per_phase: &mut [PhaseStats],
        prev: &mut PhaseStats,
        limits: &RunLimits<'_>,
    ) -> Result<u64> {
        if self.stream.is_empty() {
            return Ok(self.now);
        }
        for si in 0..self.slots.len() {
            self.enter_phase(si);
        }
        let end = self.stream.len();
        loop {
            if self.warps.iter().all(|w| w.pc >= end) {
                let settle = self
                    .warps
                    .iter()
                    .map(|w| w.mem_settle)
                    .max()
                    .unwrap_or(self.now);
                return Ok(self.now.max(settle));
            }
            // Cooperative limits: deadline / cancellation, checked after
            // the completion test so a wave that finished exactly at the
            // budget still returns, and deterministically at the same
            // simulated cycle on every host.
            limits.check(self.now)?;

            // Barrier releases are the only events that can advance the
            // phase frontier; when it moves, credit everything since the
            // previous snapshot to the phase that just drained.
            if self.release_barriers(end, stats) && self.phase_count > 1 {
                if let Some(f) = self.min_unfinished_phase(end) {
                    if f > self.frontier {
                        let cum = cumulative_snapshot(stats, self.now, mem, scratch);
                        per_phase[self.frontier].accumulate(&cum.minus(prev));
                        *prev = cum;
                        self.frontier = f;
                    }
                }
            }

            // Round-robin issue over every resident warp.
            let n = self.warps.len();
            let mut issued = false;
            for k in 0..n {
                let wi = (self.rr + k) % n;
                let w = &self.warps[wi];
                if w.pc >= end || w.at_barrier || w.ready_at > self.now {
                    continue;
                }
                let (pi, instr) = self.stream[w.pc];
                match instr {
                    GpuInstr::Barrier => {
                        self.warps[wi].at_barrier = true;
                        // Parking is free; try the next warp this cycle.
                        continue;
                    }
                    GpuInstr::Op { node, .. } => {
                        let graph = &self.kernel.phases()[pi];
                        if self.operands_ready(w, graph, node) > self.now {
                            continue;
                        }
                        if self.issue(wi, pi, instr, global, mem, scratch, stats)? {
                            self.rr = (wi + 1) % n;
                            issued = true;
                            break;
                        }
                        // Memory-structural stall (MSHRs full): let another
                        // warp try — hiding latency is the SM's job.
                    }
                }
            }
            if !issued && self.warps.iter().any(|w| w.pc < end) {
                stats.gpu_stall_cycles += 1;
            }
            self.now += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmt_common::geom::Dim3;
    use dmt_dfg::{interp, KernelBuilder};

    fn cfg() -> SystemConfig {
        SystemConfig::default()
    }

    fn differential(kernel: &Kernel, params: Vec<Word>, mem: MemImage) -> RunStats {
        // The oracle borrows the launch; only the machine consumes it.
        let oracle = interp::run_ref(kernel, &params, &mem).unwrap();
        let run = GpuMachine::new(cfg())
            .run(kernel, LaunchInput::new(params, mem))
            .unwrap();
        assert_eq!(run.memory, oracle.memory, "GPU memory diverges from oracle");
        run.stats
    }

    #[test]
    fn simple_map_kernel() {
        let n = 128u32;
        let mut kb = KernelBuilder::new("map", Dim3::linear(n));
        let inp = kb.param("in");
        let out = kb.param("out");
        let tid = kb.thread_idx(0);
        let a = kb.index_addr(inp, tid, 4);
        let x = kb.load_global(a);
        let y = kb.add_i(x, x);
        let oa = kb.index_addr(out, tid, 4);
        kb.store_global(oa, y);
        let k = kb.finish().unwrap();
        let mut mem = MemImage::with_words(2 * n as usize);
        mem.write_i32_slice(Addr(0), &(0..n as i32).collect::<Vec<_>>());
        let stats = differential(&k, vec![Word::from_u32(0), Word::from_u32(4 * n)], mem);
        // Per warp: 2×(mul+add) addressing, load, add, store = 7.
        assert_eq!(stats.gpu_instructions, u64::from(n / 32) * 7);
        assert!(stats.global_loads >= 4, "4 coalesced lines");
        assert!(stats.cycles > 0);
    }

    #[test]
    fn two_phase_shared_kernel_with_barrier() {
        let n = 64u32;
        let mut kb = KernelBuilder::new("stage", Dim3::linear(n));
        kb.set_shared_words(n);
        let tid = kb.thread_idx(0);
        let z = kb.const_i(0);
        let sa = kb.index_addr(z, tid, 4);
        kb.store_shared(sa, tid);
        kb.barrier();
        let tid2 = kb.thread_idx(0);
        let out = kb.param("out");
        let z2 = kb.const_i(0);
        // Read the neighbour's slot (wrapping): classic post-barrier read.
        let one = kb.const_i(1);
        let tplus = kb.add_i(tid2, one);
        let nn = kb.const_i(n as i32);
        let wrapped = kb.rem_i(tplus, nn);
        let sa2 = kb.index_addr(z2, wrapped, 4);
        let v = kb.load_shared(sa2);
        let oa = kb.index_addr(out, tid2, 4);
        kb.store_global(oa, v);
        let k = kb.finish().unwrap();
        let stats = differential(
            &k,
            vec![Word::from_u32(0)],
            MemImage::with_words(n as usize),
        );
        assert_eq!(stats.barriers, u64::from(n / 32), "each warp synchronizes");
        assert_eq!(stats.shared_stores, u64::from(n));
        assert_eq!(stats.shared_loads, u64::from(n));
    }

    #[test]
    fn coalescing_reduces_transactions() {
        // Unit-stride access by 32 lanes over 4-byte words = 1 line (128B).
        let n = 32u32;
        let mut kb = KernelBuilder::new("coal", Dim3::linear(n));
        let inp = kb.param("in");
        let out = kb.param("out");
        let tid = kb.thread_idx(0);
        let a = kb.index_addr(inp, tid, 4);
        let x = kb.load_global(a);
        let oa = kb.index_addr(out, tid, 4);
        kb.store_global(oa, x);
        let k = kb.finish().unwrap();
        let mut mem = MemImage::with_words(2 * n as usize);
        mem.write_i32_slice(Addr(0), &(0..n as i32).collect::<Vec<_>>());
        let stats = differential(&k, vec![Word::from_u32(0), Word::from_u32(4 * n)], mem);
        assert_eq!(stats.global_loads, 1, "fully coalesced warp load");
        assert_eq!(stats.global_stores, 1);
    }

    #[test]
    fn strided_access_is_not_coalesced() {
        // Stride of one line per lane: 8 lanes → 8 transactions.
        let n = 8u32;
        let mut kb = KernelBuilder::new("stride", Dim3::linear(n));
        let inp = kb.param("in");
        let out = kb.param("out");
        let tid = kb.thread_idx(0);
        let a = kb.index_addr(inp, tid, 128);
        let x = kb.load_global(a);
        let oa = kb.index_addr(out, tid, 4);
        kb.store_global(oa, x);
        let k = kb.finish().unwrap();
        let mut mem = MemImage::with_words(512);
        for i in 0..n {
            mem.store(Addr(u64::from(i) * 128), Word::from_i32(i as i32));
        }
        let stats = differential(&k, vec![Word::from_u32(0), Word::from_u32(1024)], mem);
        assert_eq!(stats.global_loads, 8, "one transaction per lane");
    }

    #[test]
    fn gpu_rejects_dmt_kernels() {
        use dmt_common::geom::Delta;
        let mut kb = KernelBuilder::new("comm", Dim3::linear(8));
        let out = kb.param("out");
        let tid = kb.thread_idx(0);
        let v = kb.from_thread_or_const(tid, Delta::new(-1), Word::ZERO, None);
        let a = kb.index_addr(out, tid, 4);
        kb.store_global(a, v);
        let k = kb.finish().unwrap();
        assert!(GpuMachine::new(cfg())
            .run(
                &k,
                LaunchInput::new(vec![Word::ZERO], MemImage::with_words(8))
            )
            .is_err());
    }

    #[test]
    fn determinism() {
        let n = 64u32;
        let mut kb = KernelBuilder::new("det", Dim3::linear(n));
        let out = kb.param("out");
        let tid = kb.thread_idx(0);
        let x = kb.mul_i(tid, tid);
        let a = kb.index_addr(out, tid, 4);
        kb.store_global(a, x);
        let k = kb.finish().unwrap();
        let run = || {
            GpuMachine::new(cfg())
                .run(
                    &k,
                    LaunchInput::new(vec![Word::from_u32(0)], MemImage::with_words(n as usize)),
                )
                .unwrap()
                .stats
                .cycles
        };
        assert_eq!(run(), run());
    }
}
