//! The cycle-level MT-CGRA / dMT-CGRA execution engine.
//!
//! The machine executes a [`FabricProgram`] with dynamic tagged-token
//! dataflow (§3): every token carries its thread id as a tag; per-node
//! matching stores collect operand sets; a node fires at most one operation
//! per cycle; fired tokens traverse the statically-routed NoC with
//! per-edge hop latency. Threads are injected one per cycle (configurable)
//! subject to the in-flight window, and a barrier-delimited phase ends when
//! the fabric drains.
//!
//! Elevator nodes re-tag tokens between threads, and eLDST units forward
//! loaded values to later threads, exactly as in the paper's Fig 8/9
//! pseudo-code. Both are functionally identical to — and tested against —
//! the reference interpreter in `dmt-dfg`.
//!
//! # Hot-path structure
//!
//! The engine's per-cycle work is dominated by three structures, all
//! chosen so the common case is an array index, not a hash or a heap:
//!
//! * **Live-span matching stores.** Tokens are tagged with thread ids,
//!   and each node's store is a power-of-two ring of slots indexed
//!   `tid & (len − 1)`, each slot tagged with the owning tid (the eLDST
//!   token buffers are the same kind of ring). A ring starts at a few
//!   slots and doubles only when an arriving tid finds its slot held by
//!   another live tid; doubling keeps every live slot at `tag & mask`
//!   (the mask gains one bit, so a slot stays or moves up by the old
//!   length), and re-placement is invisible to the observer's ring
//!   occupancy. A ring therefore ends sized to the span of tids live at
//!   once *at its node* instead of to the whole in-flight window. Over
//!   the Table 3 fabric jobs, 559 of 923 matching rings never leave 16
//!   slots and the widest reach 2048; one pass allocates 0.14 M matching
//!   slots where window sizing (2048–4096 per node) took 1.69 M, most of
//!   them never touched. Growth always terminates: every tid is below
//!   the launch's thread count, so by `threads.next_power_of_two()` slots
//!   no two tids share one. There is no overflow path; tagged-token
//!   semantics are exact by construction.
//! * **Calendar event queue.** Almost every scheduled event (NoC
//!   delivery, unit latency, cache hit) lands a small bounded number of
//!   cycles ahead, so events live in a bucket-per-cycle wheel
//!   ([`dmt_common::sched::CalendarQueue`]) with O(1) schedule/pop; rare
//!   far-future completions (contended DRAM) overflow to a heap. The
//!   queue pops in ascending `(cycle, insertion order)` — byte-identical
//!   to the `BinaryHeap<(cycle, seq, ev)>` it replaced, since the
//!   monotonic `seq` made per-cycle ordering FIFO already. That ordering
//!   contract is what keeps per-job cycles/energy/stats reproducible.
//!   Its entries are `Packed` words: an event is built in registers and
//!   written into its bucket with one store, and the cycle loop unpacks
//!   it back into an `Ev` to match on.
//! * **Active-node firing.** Instead of scanning every graph node every
//!   cycle, a bitmask tracks nodes with complete operand sets; firing
//!   iterates set bits in ascending node order (the same order the full
//!   scan used), so drained nodes cost nothing.
//! * **Block-fired compute nodes — unconditionally.** A replicated node
//!   holds up to `R` ready operand sets per cycle, all executing the
//!   *same static operation* — the paper's premise, and what makes block
//!   execution legal at any replication (a block of one is the
//!   degenerate case, not a special path). A pure compute node (`Alu`/
//!   `Fpu`/`Special`/`Ctrl`/`Unary`/`Select`/`Join`/`Split`) drains its
//!   whole firing quota into reused SoA scratch and evaluates it in one
//!   tight loop with the `NodeKind` dispatch, the unit-class/latency
//!   lookup, the stat-counter increment and the `Obs::node_fires` upkeep
//!   hoisted out per block; results leave through one `send_block` per
//!   node instead of one `send` per token. Thread injection works the
//!   same way (`inject_block`). Two invariants make this exact:
//!   - *Same-cycle readiness is frozen.* All deliveries due in a cycle
//!     complete (step 1 of the cycle loop) before any node fires
//!     (step 3), and every token a firing emits lands at `now + 1` or
//!     later — so the ready queue a node sees at its firing slot cannot
//!     change mid-block, and draining `k` entries up front observes
//!     exactly the tokens a one-at-a-time loop would have popped.
//!   - *The stall-requeue FIFO rule.* Memory, eLDST and elevator nodes
//!     fire one operation at a time (`fire_one`): a structural stall
//!     (MSHR or LDST queue full) can interrupt them mid-quota, and the
//!     stalled token is pushed back at the *front* of the ready queue,
//!     so the queue stays in FIFO order and the next cycle retries the
//!     same token first. Pure nodes can never stall, which is why only
//!     they block-fire — a drained block always completes.
//!
//!   Within one block, seqs are assigned edge-major instead of
//!   token-major; each per-edge stream still carries strictly ascending
//!   seqs in token order, and the whole block occupies one contiguous
//!   seq range, so every consumer's per-node merge (and therefore every
//!   output byte) is independent of the block length.
//! * **Token delivery: two paths, one rule.** Fired tokens reach their
//!   consumers' matching stores either *per token* (one calendar entry
//!   each, which the bucket-wheel calendar already makes cheap) or
//!   *edge-batched*: all tokens crossing the same `(edge, arrival cycle)`
//!   coalesce into one calendar entry carrying an SoA payload (parallel
//!   seq/tid/value arrays, pooled in the [`StoreArena`] like the rings
//!   above). The engine picks once per launch, by the only thing that
//!   decides which is cheaper — how deep a batch can get (a node fires
//!   ≤ R ops per cycle and an edge's hop delay is fixed, so ≤ `R`
//!   tokens): `program.replication >= BATCH_MIN_REPLICATION` batches,
//!   anything below delivers per token. Both stay because each wins one
//!   side of the rule on the repo benchmark (`sim_cycles_per_s`, block
//!   firing on, 3 runs each on 2 vCPUs at the commit that set the rule):
//!
//!   | delivery  | `fabric_grid` (R 1–5) | `fabric_wide` (R ≥ 8) |
//!   |-----------|-----------------------|-----------------------|
//!   | per token | 4.6–5.0e5 (the rule)  | 3.7–3.9e5 (−19 %)     |
//!   | batched   | 3.1–3.4e5 (−36 %)     | 4.7–4.9e5 (the rule)  |
//!
//!   Results are byte-identical on either path. Batched delivery
//!   preserves the **per-edge FIFO invariant**: every logical event is
//!   stamped with its global schedule sequence number, a batch's payload
//!   is appended in schedule order (strictly ascending seq), and at
//!   delivery each node's due in-edge batches are merged back into
//!   ascending-seq order — so every matching store observes its tokens
//!   in exactly the order the per-token path delivers them, and operand
//!   sets complete (and fire) in the same order. Deliveries to
//!   *different* nodes touch disjoint matching-store state and commute,
//!   which is why the per-node merge is sufficient; bookkeeping events
//!   (releases, sink completions, the eLDST offer/produce hops) stay
//!   per-token and are processed in schedule order among themselves.
//!   The per-token path doubles as the reference the batched path is
//!   differentially tested against, on the same program, through the
//!   private `FabricMachine::run_with_delivery` seam (`machine/tests.rs`).
//!
//! Ring allocations are pooled per launch ([`StoreArena`]): a multi-phase
//! kernel re-initializes the previous phase's buffers (keeping the
//! capacity they grew to) instead of paying an allocator round-trip per
//! `PhaseExec`. Statistics are phase-resolved — the counters are
//! snapshotted at every phase boundary and the run's totals are derived
//! as the exact field-wise sum of the per-phase records (see
//! [`dmt_common::stats`]).

mod events;
mod fire;
mod memops;
mod phase;
mod stores;

use crate::program::FabricProgram;
use dmt_common::config::{SystemConfig, WritePolicy};
use dmt_common::memimg::MemImage;
use dmt_common::stats::{PhaseStats, RunStats};
use dmt_common::{Error, Result, RunLimits};
use dmt_dfg::kernel::LaunchInput;
use dmt_mem::{Lvc, MemSystem, Scratchpad};
use dmt_obs::Obs;
use phase::PhaseExec;
use stores::StoreArena;

/// Result of a fabric run: final memory image plus statistics.
#[derive(Debug, Clone)]
pub struct FabricRunResult {
    /// Final global-memory image.
    pub memory: MemImage,
    /// Event counters and total cycles.
    pub stats: RunStats,
}

/// The one rule that selects the delivery path: a launch whose
/// `program.replication` is at least this coalesces tokens per
/// `(edge, arrival cycle)`, anything below delivers per token. A batch
/// carries at most `R` tokens, while its fixed overhead — slab
/// alloc/free, a calendar entry, the per-cycle grouping sort, the
/// per-node seq merge — is roughly ten bucket-wheel pushes; the module
/// docs tabulate what each path costs on the wrong side of the line.
pub const BATCH_MIN_REPLICATION: u32 = 8;

/// The CGRA core simulator. Construct once per configuration and run
/// compiled programs on it.
///
/// # Examples
///
/// See the crate-level docs; programs are normally produced by
/// `dmt-compiler`.
#[derive(Debug, Clone)]
pub struct FabricMachine {
    cfg: SystemConfig,
}

impl FabricMachine {
    /// Creates a machine with the given configuration (Table 2 defaults via
    /// `SystemConfig::default()`).
    #[must_use]
    pub fn new(cfg: SystemConfig) -> FabricMachine {
        FabricMachine { cfg }
    }

    /// The machine's configuration.
    #[must_use]
    pub fn config(&self) -> &SystemConfig {
        &self.cfg
    }

    /// Executes `program` on `input`, running grid blocks and phases
    /// sequentially on one core (the paper's per-core comparison).
    ///
    /// # Errors
    ///
    /// Returns [`Error::Runtime`] for parameter mismatches or bad
    /// addresses, and [`Error::Deadlock`] when the fabric cannot make
    /// progress.
    pub fn run(&self, program: &FabricProgram, input: LaunchInput) -> Result<FabricRunResult> {
        self.run_observed(program, input, &mut Obs::disabled())
    }

    /// [`FabricMachine::run`] with an observation handle: the engine
    /// reports phase boundaries, node firings, per-edge tokens, ring
    /// occupancy and periodic counter samples into `obs`. Passing
    /// [`Obs::disabled`] (which [`FabricMachine::run`] does) reduces
    /// every report to one predicted-not-taken branch, so observed and
    /// unobserved runs produce identical results and statistics.
    ///
    /// # Errors
    ///
    /// As [`FabricMachine::run`].
    pub fn run_observed(
        &self,
        program: &FabricProgram,
        input: LaunchInput,
        obs: &mut Obs,
    ) -> Result<FabricRunResult> {
        self.run_limited(program, input, obs, &RunLimits::unlimited())
    }

    /// [`FabricMachine::run_observed`] under cooperative [`RunLimits`]:
    /// the cycle loop checks the deadline and cancellation token every
    /// cycle (`now` carries across phases, so the budget bounds the
    /// whole launch, reconfiguration gaps included). The unlimited
    /// check is one compare per cycle.
    ///
    /// # Errors
    ///
    /// As [`FabricMachine::run`], plus [`Error::TimedOut`] /
    /// [`Error::Cancelled`] when a limit trips, and [`Error::Config`]
    /// for a zero injection width (`program.replication` or
    /// `fabric.threads_injected_per_cycle`) — a launch that could never
    /// admit a thread is refused here instead of spinning the cycle loop.
    pub fn run_limited(
        &self,
        program: &FabricProgram,
        input: LaunchInput,
        obs: &mut Obs,
        limits: &RunLimits<'_>,
    ) -> Result<FabricRunResult> {
        if program.replication == 0 {
            return Err(Error::Config(format!(
                "program {}: replication must be at least 1",
                program.name
            )));
        }
        if self.cfg.fabric.threads_injected_per_cycle == 0 {
            return Err(Error::Config(
                "fabric.threads_injected_per_cycle must be at least 1".to_owned(),
            ));
        }
        let batch_delivery = program.replication >= BATCH_MIN_REPLICATION;
        self.run_with_delivery(program, input, obs, limits, batch_delivery)
    }

    /// The body of [`FabricMachine::run_limited`] with the delivery path
    /// spelled out, so the crate's tests can run the *same program* down
    /// both (see the module docs). Not a knob: the only non-test caller
    /// passes the one rule's verdict.
    fn run_with_delivery(
        &self,
        program: &FabricProgram,
        input: LaunchInput,
        obs: &mut Obs,
        limits: &RunLimits<'_>,
        batch_delivery: bool,
    ) -> Result<FabricRunResult> {
        if input.params.len() != program.param_count {
            return Err(Error::Runtime(format!(
                "program {} expects {} parameters, got {}",
                program.name,
                program.param_count,
                input.params.len()
            )));
        }
        let mut global = input.memory;
        let mut stats = RunStats::default();
        // The CGRA cores use write-back / write-allocate L1 (§5.1).
        let mut mem = MemSystem::new(&self.cfg.mem, WritePolicy::WriteBackAllocate);
        let mut lvc = Lvc::new(self.cfg.mem.lvc);
        let mut scratch = Scratchpad::new(self.cfg.mem.scratchpad);
        let mut now = 0u64;

        // Phase-major execution: the fabric is configured for phase p and
        // *every* block's threads stream through it back to back (blocks
        // are independent; a barrier only orders phases within one block,
        // and executing phase p of all blocks before phase p+1 of any
        // trivially satisfies it). Single-phase dMT kernels therefore
        // stream the entire launch with no drain at all — the paper's core
        // claim — while shared-memory kernels drain once per barrier.
        let mut shared_imgs: Vec<MemImage> = (0..program.grid_blocks)
            .map(|_| MemImage::with_words(program.shared_words as usize))
            .collect();
        // Ring allocations are pooled across phases (one allocation set
        // per launch, re-initialized per phase), and the counters are
        // snapshotted at every phase boundary so the run reports a
        // per-phase breakdown whose field-wise sum *is* the totals.
        let mut arena = StoreArena::default();
        let mut per_phase: Vec<PhaseStats> = Vec::with_capacity(program.phases.len());
        let mut prev = PhaseStats::default();
        for (pi, phase) in program.phases.iter().enumerate() {
            if pi > 0 {
                now += self.cfg.fabric.reconfiguration_cycles;
            }
            obs.phase_begin(pi as u32, now);
            let mut exec = PhaseExec::new(
                &self.cfg,
                program,
                phase,
                0,
                &input.params,
                now,
                program.grid_blocks,
                &mut arena,
                obs,
                batch_delivery,
            );
            now = exec.run(
                &mut global,
                &mut shared_imgs,
                &mut mem,
                &mut scratch,
                &mut lvc,
                &mut stats,
                limits,
            )?;
            exec.recycle(&mut arena);
            obs.phase_end(now);
            stats.phases += 1;
            let cum = cumulative_snapshot(&stats, now, &mem, &scratch, &lvc);
            per_phase.push(cum.minus(&prev));
            prev = cum;
        }
        obs.finish(now);
        Ok(FabricRunResult {
            memory: global,
            stats: RunStats::from_phases(per_phase),
        })
    }
}

/// The run's cumulative counters at one instant: everything accumulated in
/// `stats` so far, plus the live cumulative state the flat accumulation
/// only exports at run end (cycles, bank conflicts, hierarchy counters,
/// LVC traffic). Differencing consecutive snapshots yields exact per-phase
/// shares, and the final snapshot is bit-identical to the whole-run totals
/// the pre-phase-resolved engine reported.
fn cumulative_snapshot(
    stats: &RunStats,
    now: u64,
    mem: &MemSystem,
    scratch: &Scratchpad,
    lvc: &Lvc,
) -> PhaseStats {
    let mut cum = stats.totals();
    cum.cycles = now;
    cum.shared_bank_conflicts = scratch.bank_conflicts;
    cum.lvc_reads = lvc.reads;
    cum.lvc_writes = lvc.writes;
    mem.export_phase(&mut cum);
    cum
}

#[cfg(test)]
mod tests;
