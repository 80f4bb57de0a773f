//! The user-facing machine: pick an architecture, run kernels.

use dmt_common::config::SystemConfig;
use dmt_common::memimg::MemImage;
use dmt_common::stats::RunStats;
use dmt_common::{Error, Result, RunLimits};
use dmt_dfg::{Kernel, LaunchInput};
use dmt_energy::{ArchKind, EnergyModel, EnergyReport};
use dmt_fabric::FabricMachine;
use dmt_gpu::GpuMachine;
use dmt_obs::Obs;
use std::fmt;

/// The three machines the paper evaluates (§5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Arch {
    /// Von Neumann GPGPU baseline (one Fermi-class SM).
    FermiSm,
    /// Multithreaded CGRA without inter-thread communication (SGMF): runs
    /// shared-memory kernels on the fabric.
    MtCgra,
    /// The paper's contribution: MT-CGRA with elevator nodes and eLDST
    /// units.
    DmtCgra,
}

impl Arch {
    /// All architectures, in the paper's presentation order.
    pub const ALL: [Arch; 3] = [Arch::FermiSm, Arch::MtCgra, Arch::DmtCgra];

    /// The energy-model family for this architecture.
    #[must_use]
    pub fn kind(self) -> ArchKind {
        match self {
            Arch::FermiSm => ArchKind::FermiSm,
            Arch::MtCgra => ArchKind::MtCgra,
            Arch::DmtCgra => ArchKind::DmtCgra,
        }
    }

    /// A stable machine-readable identifier, used by job descriptors and
    /// JSON artifacts (`Display` is the human-facing paper name).
    #[must_use]
    pub fn key(self) -> &'static str {
        match self {
            Arch::FermiSm => "fermi_sm",
            Arch::MtCgra => "mt_cgra",
            Arch::DmtCgra => "dmt_cgra",
        }
    }
}

impl std::str::FromStr for Arch {
    type Err = String;

    /// Parses either the stable [`Arch::key`] form or the paper name.
    fn from_str(s: &str) -> std::result::Result<Arch, String> {
        match s {
            "fermi_sm" | "Fermi SM" => Ok(Arch::FermiSm),
            "mt_cgra" | "MT-CGRA" => Ok(Arch::MtCgra),
            "dmt_cgra" | "dMT-CGRA" => Ok(Arch::DmtCgra),
            other => Err(format!(
                "unknown architecture {other:?}; expected fermi_sm, mt_cgra or dmt_cgra"
            )),
        }
    }
}

impl fmt::Display for Arch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(&self.kind(), f)
    }
}

/// Everything a kernel run produces: the final memory, raw event counters,
/// and modelled energy.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Which machine ran.
    pub arch: Arch,
    /// Kernel name.
    pub kernel: String,
    /// Final global memory image.
    pub memory: MemImage,
    /// Cycle and event counters.
    pub stats: RunStats,
    /// Energy breakdown.
    pub energy: EnergyReport,
}

impl RunReport {
    /// Execution time in core cycles.
    #[must_use]
    pub fn cycles(&self) -> u64 {
        self.stats.cycles
    }

    /// Total energy in joules.
    #[must_use]
    pub fn total_joules(&self) -> f64 {
        self.energy.total_j()
    }
}

impl fmt::Display for RunReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} on {}: {} cycles, {:.3} µJ",
            self.kernel,
            self.arch,
            self.cycles(),
            self.total_joules() * 1e6
        )
    }
}

/// A configured machine instance.
///
/// # Examples
///
/// ```
/// use dmt_core::{Arch, Machine};
/// use dmt_common::{SystemConfig, MemImage, Word};
/// use dmt_common::geom::Dim3;
/// use dmt_dfg::{KernelBuilder, LaunchInput};
///
/// let mut kb = KernelBuilder::new("ids", Dim3::linear(32));
/// let out = kb.param("out");
/// let tid = kb.thread_idx(0);
/// let a = kb.index_addr(out, tid, 4);
/// kb.store_global(a, tid);
/// let kernel = kb.finish()?;
///
/// let m = Machine::new(Arch::DmtCgra, SystemConfig::default());
/// let report = m.run(&kernel, LaunchInput::new(
///     vec![Word::from_u32(0)],
///     MemImage::with_words(32),
/// ))?;
/// assert!(report.cycles() > 0);
/// # Ok::<(), dmt_common::Error>(())
/// ```
#[derive(Debug, Clone)]
pub struct Machine {
    arch: Arch,
    cfg: SystemConfig,
    energy: EnergyModel,
}

impl Machine {
    /// A machine of the given architecture with this configuration and the
    /// default energy constants.
    #[must_use]
    pub fn new(arch: Arch, cfg: SystemConfig) -> Machine {
        Machine {
            arch,
            cfg,
            energy: EnergyModel::default(),
        }
    }

    /// Replaces the energy model.
    #[must_use]
    pub fn with_energy_model(mut self, model: EnergyModel) -> Machine {
        self.energy = model;
        self
    }

    /// The architecture this machine models.
    #[must_use]
    pub fn arch(&self) -> Arch {
        self.arch
    }

    /// The configuration in use.
    #[must_use]
    pub fn config(&self) -> &SystemConfig {
        &self.cfg
    }

    /// Runs `kernel` to completion.
    ///
    /// # Errors
    ///
    /// * [`Error::Compile`] when the kernel needs capabilities the
    ///   architecture lacks (inter-thread communication on `FermiSm` or
    ///   `MtCgra`), or cannot be placed/routed;
    /// * [`Error::CapacityExceeded`] when the kernel graph outgrows the
    ///   grid;
    /// * [`Error::Runtime`] / [`Error::Deadlock`] for execution failures.
    pub fn run(&self, kernel: &Kernel, input: LaunchInput) -> Result<RunReport> {
        self.run_observed(kernel, input, &mut Obs::disabled())
    }

    /// [`Machine::run`] with an observation handle: the backend engine
    /// reports phase spans, firings, token traffic and counter samples
    /// into `obs` (see `dmt_obs`). A disabled handle (what
    /// [`Machine::run`] passes) costs one branch per report site, so
    /// observed and unobserved runs are result-identical.
    ///
    /// # Errors
    ///
    /// As [`Machine::run`].
    pub fn run_observed(
        &self,
        kernel: &Kernel,
        input: LaunchInput,
        obs: &mut Obs,
    ) -> Result<RunReport> {
        self.run_limited(kernel, input, obs, &RunLimits::unlimited())
    }

    /// [`Machine::run_observed`] under cooperative [`RunLimits`]: the
    /// backend engine checks the simulated-cycle deadline and the
    /// cancellation token every cycle. The compile step is not covered
    /// by the budget (it is not cycle-accurate work).
    ///
    /// # Errors
    ///
    /// As [`Machine::run`], plus [`Error::TimedOut`] /
    /// [`Error::Cancelled`] when a limit trips, and [`Error::Config`]
    /// for a configuration [`SystemConfig::validate`] refuses (checked
    /// before the compile step).
    pub fn run_limited(
        &self,
        kernel: &Kernel,
        input: LaunchInput,
        obs: &mut Obs,
        limits: &RunLimits<'_>,
    ) -> Result<RunReport> {
        self.cfg.validate()?;
        let (memory, stats) = match self.arch {
            Arch::FermiSm => {
                let run = GpuMachine::new(self.cfg).run_limited(kernel, input, obs, limits)?;
                (run.memory, run.stats)
            }
            Arch::MtCgra => {
                if kernel.uses_inter_thread_comm() {
                    return Err(Error::Compile(format!(
                        "kernel {} uses direct inter-thread communication; the baseline \
                         MT-CGRA has no elevator/eLDST units — target Arch::DmtCgra",
                        kernel.name()
                    )));
                }
                self.run_fabric(kernel, input, obs, limits)?
            }
            Arch::DmtCgra => self.run_fabric(kernel, input, obs, limits)?,
        };
        let energy = self
            .energy
            .evaluate(self.arch.kind(), &stats, self.cfg.clocks.core_ghz);
        Ok(RunReport {
            arch: self.arch,
            kernel: kernel.name().to_owned(),
            memory,
            stats,
            energy,
        })
    }

    fn run_fabric(
        &self,
        kernel: &Kernel,
        input: LaunchInput,
        obs: &mut Obs,
        limits: &RunLimits<'_>,
    ) -> Result<(MemImage, RunStats)> {
        let program = dmt_compiler::compile(kernel, &self.cfg)?;
        let run = FabricMachine::new(self.cfg).run_limited(&program, input, obs, limits)?;
        Ok((run.memory, run.stats))
    }
}
