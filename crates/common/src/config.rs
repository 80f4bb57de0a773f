//! System configuration, defaulting to the paper's Table 2.
//!
//! A [`SystemConfig`] fully describes one simulated machine: the CGRA grid
//! composition, fabric micro-architecture parameters, memory hierarchy and
//! the Fermi-SM baseline. Ablation studies build variants via struct update
//! syntax; `SystemConfig::default()` is the Table 2 machine.

use std::fmt;
use std::ops::RangeInclusive;

use crate::error::{Error, Result};

/// Functional-unit classes populating the CGRA grid (§4, Fig 7).
///
/// `Control` units double as elevator nodes and `LoadStore` units as eLDST
/// units — the paper converts existing units by adding combinational logic,
/// so both consume capacity from the same pools.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum UnitClass {
    /// Integer arithmetic/logic units.
    Alu,
    /// Floating-point units.
    Fpu,
    /// Special compute units (division, square root, exponential).
    Special,
    /// Load/store units; may be configured as eLDST.
    LoadStore,
    /// Split/join units preserving intra-thread memory order.
    SplitJoin,
    /// Control units (select, compare, bitwise); may be configured as
    /// elevator nodes.
    Control,
}

impl UnitClass {
    /// All unit classes, in display order.
    pub const ALL: [UnitClass; 6] = [
        UnitClass::Alu,
        UnitClass::Fpu,
        UnitClass::Special,
        UnitClass::LoadStore,
        UnitClass::SplitJoin,
        UnitClass::Control,
    ];
}

impl fmt::Display for UnitClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            UnitClass::Alu => "ALU",
            UnitClass::Fpu => "FPU",
            UnitClass::Special => "SCU",
            UnitClass::LoadStore => "LDST",
            UnitClass::SplitJoin => "SJU",
            UnitClass::Control => "CU",
        };
        f.write_str(s)
    }
}

/// The complete configuration of one simulated machine. `default()` is the
/// paper's Table 2 system.
///
/// # Examples
///
/// ```
/// use dmt_common::config::SystemConfig;
///
/// let cfg = SystemConfig::default();
/// assert_eq!(cfg.grid.total_units(), 140);
/// assert_eq!(cfg.fabric.token_buffer_entries, 16);
/// assert_eq!(cfg.mem.l1.sets(), 128);
///
/// // Ablation variant: smaller elevator token buffers.
/// let small = SystemConfig {
///     fabric: dmt_common::config::FabricConfig {
///         token_buffer_entries: 4,
///         ..cfg.fabric
///     },
///     ..cfg
/// };
/// assert_eq!(small.fabric.token_buffer_entries, 4);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SystemConfig {
    /// CGRA grid composition.
    pub grid: GridConfig,
    /// Fabric micro-architecture.
    pub fabric: FabricConfig,
    /// Unit latencies.
    pub latencies: UnitLatencies,
    /// Memory hierarchy.
    pub mem: MemConfig,
    /// Fermi-SM baseline.
    pub gpu: GpuConfig,
    /// Clock domains.
    pub clocks: ClockConfig,
}

/// One scalar leaf of a [`SystemConfig`], in canonical form.
///
/// Produced by [`SystemConfig::visit_fields`]; consumers that need a
/// stable identity for a configuration (job hashing, artifact metadata)
/// fold these instead of relying on struct layout or `Debug` output.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub enum CfgValue {
    /// An unsigned integer field (`u32`/`u64` widened to `u64`).
    U64(u64),
    /// A floating-point field (clock frequencies).
    F64(f64),
}

impl fmt::Display for CfgValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CfgValue::U64(n) => write!(f, "{n}"),
            CfgValue::F64(x) => write!(f, "{x}"),
        }
    }
}

/// One row of the leaf list as [`SystemConfig::visit_fields`] yields it:
/// a scalar leaf's dotted name, its current value and its domain.
#[derive(Debug, Clone, PartialEq)]
pub struct Leaf {
    /// Dotted path from the [`SystemConfig`] root, e.g. `fabric.grid_width`.
    pub name: &'static str,
    /// The current value.
    pub value: CfgValue,
    /// The values [`SystemConfig::validate`] admits.
    pub domain: RangeInclusive<CfgValue>,
}

impl Leaf {
    fn new<T: LeafType>(name: &'static str, value: T, domain: RangeInclusive<T>) -> Leaf {
        let (lo, hi) = domain.into_inner();
        Leaf {
            name,
            value: value.to_cfg(),
            domain: lo.to_cfg()..=hi.to_cfg(),
        }
    }

    /// Names the leaf and the bound it breaks when the value lies
    /// outside its domain (a NaN lies below every domain).
    fn check(&self) -> std::result::Result<(), String> {
        let (name, lo, hi) = (self.name, self.domain.start(), self.domain.end());
        if self.domain.contains(&self.value) {
            Ok(())
        } else if self.value > *hi {
            Err(format!("{name} must be at most {hi}"))
        } else {
            Err(format!("{name} must be at least {lo}"))
        }
    }
}

/// A Rust type a leaf may have, and its canonical [`CfgValue`] form.
trait LeafType: Copy {
    fn to_cfg(self) -> CfgValue;
    /// `None` when the type cannot hold `v`.
    fn from_cfg(v: CfgValue) -> Option<Self>;
}

impl LeafType for u64 {
    fn to_cfg(self) -> CfgValue {
        CfgValue::U64(self)
    }
    fn from_cfg(v: CfgValue) -> Option<u64> {
        match v {
            CfgValue::U64(n) => Some(n),
            CfgValue::F64(_) => None,
        }
    }
}

impl LeafType for u32 {
    fn to_cfg(self) -> CfgValue {
        CfgValue::U64(self.into())
    }
    fn from_cfg(v: CfgValue) -> Option<u32> {
        u64::from_cfg(v).and_then(|n| u32::try_from(n).ok())
    }
}

impl LeafType for f64 {
    fn to_cfg(self) -> CfgValue {
        CfgValue::F64(self)
    }
    fn from_cfg(v: CfgValue) -> Option<f64> {
        match v {
            CfgValue::F64(x) => Some(x),
            // Whole numbers arrive as integers from JSON ("2" not "2.0");
            // widen rather than bounce the request.
            #[allow(clippy::cast_precision_loss)]
            CfgValue::U64(n) => Some(n as f64),
        }
    }
}

/// Generates the leaf structs and the field reflection of [`SystemConfig`]
/// from the leaf list it is invoked with: each struct, the `Default`
/// impls, [`SystemConfig::visit_fields`] and [`SystemConfig::set_field`].
///
/// A row reads `leaf: type = default, domain;` under its doc comment; the
/// two cache levels share one row per leaf, with the L1 default first. A
/// domain may name leaves of its own struct listed before it (they are
/// bound while the row's bounds are computed). The containers
/// [`SystemConfig`] and [`MemConfig`] are written by hand, and their
/// `Default` is one struct literal, so a field there with no section in
/// the list does not compile ("missing field").
macro_rules! config_leaves {
    (
        $mem:ident: $Mem:ident {
            $(#[$cache_attr:meta])*
            $l1:ident, $l2:ident: $Cache:ident {
                $($(#[$cf_attr:meta])* $cf:ident: $ct:ty = $cd1:expr, $cd2:expr, $cdom:expr;)*
            }
            $($(#[$ms_attr:meta])* $ms:ident: $MS:ident {
                $($(#[$mf_attr:meta])* $mf:ident: $mt:ty = $md:expr, $mdom:expr;)*
            })*
        }
        $($(#[$s_attr:meta])* $s:ident: $S:ident {
            $($(#[$f_attr:meta])* $f:ident: $t:ty = $d:expr, $dom:expr;)*
        })*
    ) => {
        $(#[$cache_attr])*
        pub struct $Cache { $($(#[$cf_attr])* pub $cf: $ct,)* }
        $($(#[$ms_attr])* pub struct $MS { $($(#[$mf_attr])* pub $mf: $mt,)* })*
        $($(#[$s_attr])* pub struct $S { $($(#[$f_attr])* pub $f: $t,)* })*

        impl Default for $Mem {
            fn default() -> $Mem {
                $Mem {
                    $l1: $Cache { $($cf: $cd1),* },
                    $l2: $Cache { $($cf: $cd2),* },
                    $($ms: $MS { $($mf: $md),* }),*
                }
            }
        }

        $(impl Default for $S {
            fn default() -> $S {
                $S { $($f: $d),* }
            }
        })*

        impl Default for SystemConfig {
            fn default() -> SystemConfig {
                SystemConfig { $mem: $Mem::default(), $($s: $S::default()),* }
            }
        }

        impl SystemConfig {
            /// Visits every scalar leaf, with its dotted name, value and
            /// domain, in the order of the leaf list in this module's
            /// source.
            ///
            /// That list is the single declaration of the leaves, so a
            /// config hash built on this visit can never silently ignore a
            /// knob. Consumers that need order-independence must still
            /// sort by name (see `dmt-runner`'s stable hasher).
            pub fn visit_fields(&self, visit: &mut impl FnMut(Leaf)) {
                let $Cache { $($cf),* } = self.$mem.$l1;
                $(visit(Leaf::new::<$ct>(
                    concat!(stringify!($mem), ".", stringify!($l1), ".", stringify!($cf)),
                    $cf,
                    $cdom,
                ));)*
                let $Cache { $($cf),* } = self.$mem.$l2;
                $(visit(Leaf::new::<$ct>(
                    concat!(stringify!($mem), ".", stringify!($l2), ".", stringify!($cf)),
                    $cf,
                    $cdom,
                ));)*
                $(
                    let $MS { $($mf),* } = self.$mem.$ms;
                    $(visit(Leaf::new::<$mt>(
                        concat!(stringify!($mem), ".", stringify!($ms), ".", stringify!($mf)),
                        $mf,
                        $mdom,
                    ));)*
                )*
                $(
                    let $S { $($f),* } = self.$s;
                    $(visit(Leaf::new::<$t>(concat!(stringify!($s), ".", stringify!($f)), $f, $dom));)*
                )*
            }

            /// Sets one scalar leaf by its [`SystemConfig::visit_fields`]
            /// dotted name — the write half of the field reflection that
            /// `dmt-serve` uses to apply per-request configuration
            /// overrides. The domain is not checked here;
            /// [`SystemConfig::validate`] checks it before a run.
            ///
            /// # Errors
            ///
            /// Returns a message for an unknown field name, or a value the
            /// leaf's type cannot hold (a float for an integer leaf, an
            /// integer wider than the leaf), leaving the config untouched.
            pub fn set_field(&mut self, name: &str, value: CfgValue) -> std::result::Result<(), String> {
                let held = match name {
                    $(concat!(stringify!($mem), ".", stringify!($l1), ".", stringify!($cf)) =>
                        <$ct>::from_cfg(value).map(|v| self.$mem.$l1.$cf = v),)*
                    $(concat!(stringify!($mem), ".", stringify!($l2), ".", stringify!($cf)) =>
                        <$ct>::from_cfg(value).map(|v| self.$mem.$l2.$cf = v),)*
                    $($(concat!(stringify!($mem), ".", stringify!($ms), ".", stringify!($mf)) =>
                        <$mt>::from_cfg(value).map(|v| self.$mem.$ms.$mf = v),)*)*
                    $($(concat!(stringify!($s), ".", stringify!($f)) =>
                        <$t>::from_cfg(value).map(|v| self.$s.$f = v),)*)*
                    _ => return Err(format!("unknown config field {name:?}")),
                };
                held.ok_or_else(|| format!("{name} cannot hold {value}"))
            }
        }
    };
}

/// Largest latency or busy time a leaf may take, in core cycles: far above
/// every Table 2 value, and small enough that no cycle sum overflows.
const MAX_CYCLES: u64 = 1 << 16;
/// Largest cache or scratchpad capacity in bytes; bounds the tag array a
/// cache level allocates.
const MAX_BYTES: u64 = 1 << 24;
/// Largest unit pool of one class, and largest bank, way or MSHR count.
const MAX_UNITS: u32 = 4096;

// The leaf list: every scalar of a `SystemConfig` with its doc, type,
// Table 2 default and the domain `validate` admits. Lower bounds of 1 mark
// counts the engines divide by or size by; upper bounds cap every
// allocation a leaf sizes and keep every product of leaves inside its
// integer type.
config_leaves! {
    mem: MemConfig {
        /// Geometry and timing of one cache level.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        l1, l2: CacheConfig {
            /// Line size in bytes.
            line_bytes: u64 = 128, 128, 4..=4096;
            /// Associativity.
            ways: u32 = 4, 16, 1..=MAX_UNITS;
            /// Number of independent banks (one access per bank per cycle).
            banks: u32 = 32, 6, 1..=MAX_UNITS;
            /// Hit latency in core cycles.
            hit_latency: u64 = 24, 60, 0..=MAX_CYCLES;
            /// Miss-status holding registers: maximum outstanding misses.
            mshrs: u32 = 64, 64, 1..=MAX_UNITS;
            // Last: its bound reads `line_bytes` and `ways`, so a bad one of
            // those is reported by its own name first.
            /// Total capacity in bytes; at least one set of `line_bytes × ways`.
            size_bytes: u64 = 64 * 1024, 768 * 1024,
                line_bytes.saturating_mul(ways.into())..=MAX_BYTES;
        }
        /// GDDR5-like DRAM model (Table 2: 16 banks, 6 channels).
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        dram: DramConfig {
            /// Independent channels; requests are interleaved by line address.
            channels: u32 = 6, 1..=64;
            /// Banks per channel; a bank is busy for `bank_busy_cycles` per access.
            banks_per_channel: u32 = 16, 1..=256;
            /// Access latency in core cycles (row activate + CAS at 0.924 GHz,
            /// expressed in the 1.4 GHz core domain).
            latency: u64 = 220, 0..=MAX_CYCLES;
            /// Cycles a bank stays busy per line transfer (bandwidth model).
            bank_busy_cycles: u64 = 16, 0..=MAX_CYCLES;
        }
        /// Shared-memory scratchpad (used only by the GPGPU and MT-CGRA baselines;
        /// the dMT-CGRA programming model eliminates it).
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        scratchpad: ScratchpadConfig {
            /// Capacity in bytes (Fermi: 48 KiB).
            size_bytes: u64 = 48 * 1024, 0..=MAX_BYTES;
            /// Banks; conflicting accesses within a warp serialize.
            banks: u32 = 32, 1..=MAX_UNITS;
            /// Access latency in core cycles.
            latency: u64 = 24, 0..=MAX_CYCLES;
        }
        /// Live Value Cache: the compiler-managed spill buffer used when a ΔTID is
        /// too large even for cascaded elevator nodes (§4.3).
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        lvc: LvcConfig {
            /// Capacity in 32-bit entries.
            entries: u32 = 2048, 1..=1 << 20;
            /// Access latency in core cycles.
            latency: u64 = 4, 0..=MAX_CYCLES;
        }
    }
    /// CGRA grid composition (Table 2: 140 interconnected units).
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    grid: GridConfig {
        /// Number of integer ALUs.
        alus: u32 = 32, 1..=MAX_UNITS;
        /// Number of floating-point units.
        fpus: u32 = 32, 1..=MAX_UNITS;
        /// Number of special compute units.
        specials: u32 = 12, 1..=MAX_UNITS;
        /// Number of load/store units (each convertible to eLDST).
        ldsts: u32 = 32, 1..=MAX_UNITS;
        /// Number of split/join units.
        sjus: u32 = 16, 1..=MAX_UNITS;
        /// Number of control units (each convertible to an elevator node).
        controls: u32 = 16, 1..=MAX_UNITS;
    }
    /// Fabric micro-architecture parameters.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    fabric: FabricConfig {
        /// Entries in each elevator/eLDST token buffer; bounds the ΔTID a single
        /// node can shift (§4.3; default 16 per Fig 5 discussion).
        token_buffer_entries: u32 = 16, 1..=MAX_UNITS;
        /// In-flight memory requests a load/store unit can track (its internal
        /// request queue; SGMF LDST units pipeline many outstanding accesses —
        /// this is distinct from the 16-entry elevator token buffer).
        ldst_queue_entries: u32 = 256, 1..=1 << 16;
        /// Maximum threads concurrently in flight in the fabric. Matching
        /// stores are indexed `tid mod inflight_threads`, and the injector only
        /// admits thread `t` once thread `t − inflight_threads` retired.
        inflight_threads: u32 = 2048, 1..=1 << 16;
        /// NoC latency per routing hop, in core cycles.
        noc_hop_latency: u64 = 1, 0..=MAX_CYCLES;
        /// Threads injected per cycle ("a new thread can thus be injected into
        /// the computational fabric on every cycle", §3).
        threads_injected_per_cycle: u32 = 1, 1..=1024;
        /// Side length of the square placement grid (`grid_width²` slots must
        /// hold every configured unit).
        grid_width: u32 = 12, 1..=256;
        /// Cycles to reconfigure the fabric between barrier-delimited phases
        /// ("the configuration process itself is lightweight", §3).
        reconfiguration_cycles: u64 = 16, 0..=MAX_CYCLES;
    }
    /// Pipeline latencies per unit class, in core cycles.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    latencies: UnitLatencies {
        /// Integer ALU operation latency.
        alu: u64 = 1, 0..=MAX_CYCLES;
        /// Floating-point operation latency.
        fpu: u64 = 4, 0..=MAX_CYCLES;
        /// Special-function (div/sqrt/exp) latency.
        special: u64 = 8, 0..=MAX_CYCLES;
        /// Control (select/compare/bitwise) latency.
        control: u64 = 1, 0..=MAX_CYCLES;
        /// Split/join pass-through latency.
        sju: u64 = 1, 0..=MAX_CYCLES;
        /// Elevator re-tagging latency.
        elevator: u64 = 1, 0..=MAX_CYCLES;
        /// Load/store issue latency (memory latency comes from the hierarchy).
        ldst_issue: u64 = 1, 0..=MAX_CYCLES;
    }
    /// Fermi-SM baseline parameters (§5.1: "the amount of logic found in a
    /// dMT-CGRA core is approximately the same as in an Nvidia SM").
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    gpu: GpuConfig {
        /// SIMT width: lanes issued per cycle.
        warp_width: u32 = 32, 1..=1024;
        /// Maximum resident warps per SM (Fermi: 48).
        max_warps: u32 = 48, 1..=1024;
        /// Instruction issue latency floor (cycles between dependent issues).
        issue_latency: u64 = 1, 0..=MAX_CYCLES;
        /// ALU instruction latency.
        alu_latency: u64 = 4, 0..=MAX_CYCLES;
        /// FPU instruction latency.
        fpu_latency: u64 = 4, 0..=MAX_CYCLES;
        /// Special-function instruction latency.
        sfu_latency: u64 = 16, 0..=MAX_CYCLES;
        /// Number of special-function lanes (Fermi: 4 SFUs per SM); a warp's
        /// SFU instruction occupies `warp_width / sfu_lanes` issue slots.
        sfu_lanes: u32 = 4, 1..=1024;
    }
    /// Clock frequencies, used for leakage-energy accounting. Table 2's
    /// interconnect (1.4 GHz), L2 (0.7 GHz) and DRAM (0.924 GHz) clocks are
    /// not leaves: every latency is stated in core cycles, so only
    /// [`SystemConfig::to_table`] prints them.
    #[derive(Debug, Clone, Copy, PartialEq)]
    clocks: ClockConfig {
        /// Core and fabric clock, GHz.
        core_ghz: f64 = 1.4, 0.1..=10.0;
    }
}

impl GridConfig {
    /// Units available in a class pool.
    #[must_use]
    pub fn capacity(&self, class: UnitClass) -> u32 {
        match class {
            UnitClass::Alu => self.alus,
            UnitClass::Fpu => self.fpus,
            UnitClass::Special => self.specials,
            UnitClass::LoadStore => self.ldsts,
            UnitClass::SplitJoin => self.sjus,
            UnitClass::Control => self.controls,
        }
    }

    /// Total number of functional units in the grid.
    #[must_use]
    pub fn total_units(&self) -> u32 {
        UnitClass::ALL.iter().map(|&c| self.capacity(c)).sum()
    }
}

impl CacheConfig {
    /// Number of sets; capacity / (line × ways).
    #[must_use]
    pub fn sets(&self) -> u64 {
        self.size_bytes / (self.line_bytes * u64::from(self.ways))
    }
}

/// Write policy of a cache level (§5.1: dMT-CGRA uses write-back +
/// write-allocate L1; Fermi uses write-through + write-no-allocate).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WritePolicy {
    /// Write-back, write-allocate.
    WriteBackAllocate,
    /// Write-through, write-no-allocate.
    WriteThroughNoAllocate,
}

/// The complete memory-system configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemConfig {
    /// L1 data cache (64 KB, 32 banks, 128 B lines, 4-way).
    pub l1: CacheConfig,
    /// L2 cache (768 KB, 6 banks, 128 B lines, 16-way).
    pub l2: CacheConfig,
    /// DRAM.
    pub dram: DramConfig,
    /// Shared-memory scratchpad.
    pub scratchpad: ScratchpadConfig,
    /// Live Value Cache.
    pub lvc: LvcConfig,
}

impl SystemConfig {
    /// Checks every leaf against the domain its row in the leaf list
    /// declares, in list order.
    ///
    /// # Errors
    ///
    /// [`Error::Config`] naming the first leaf outside its domain and the
    /// bound it breaks, e.g. `mem.l1.mshrs must be at least 1`.
    pub fn validate(&self) -> Result<()> {
        let mut verdict = Ok(());
        self.visit_fields(&mut |leaf| {
            if verdict.is_ok() {
                verdict = leaf.check();
            }
        });
        verdict.map_err(Error::Config)
    }

    /// Renders the configuration as the paper's Table 2.
    #[must_use]
    pub fn to_table(&self) -> String {
        let g = &self.grid;
        let mut s = String::new();
        s.push_str("Parameter            | Value\n");
        s.push_str("---------------------+-------------------------------------------\n");
        s.push_str(&format!(
            "dMT-CGRA Core        | {} interconnected compute/LDST/control units\n",
            g.total_units()
        ));
        s.push_str(&format!("Arithmetic units     | {} ALUs\n", g.alus));
        s.push_str(&format!(
            "Floating point units | {} FPUs, {} Special Compute units\n",
            g.fpus, g.specials
        ));
        s.push_str(&format!("Load/Store units     | {} LDST Units\n", g.ldsts));
        s.push_str(&format!(
            "Control units        | {} Split/Join units, {} Control/Elevator units\n",
            g.sjus, g.controls
        ));
        s.push_str(&format!(
            "Frequency [GHz]      | core {}, Interconnect 1.4, L2 0.7, DRAM 0.924\n",
            self.clocks.core_ghz
        ));
        s.push_str(&format!(
            "L1                   | {}KB, {} banks, {}B/line, {}-way\n",
            self.mem.l1.size_bytes / 1024,
            self.mem.l1.banks,
            self.mem.l1.line_bytes,
            self.mem.l1.ways
        ));
        s.push_str(&format!(
            "L2                   | {}KB, {} banks, {}B/line, {}-way\n",
            self.mem.l2.size_bytes / 1024,
            self.mem.l2.banks,
            self.mem.l2.line_bytes,
            self.mem.l2.ways
        ));
        s.push_str(&format!(
            "GDDR5 DRAM           | {} banks, {} channels\n",
            self.mem.dram.banks_per_channel, self.mem.dram.channels
        ));
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_grid_composition() {
        let g = GridConfig::default();
        assert_eq!(g.total_units(), 140);
        assert_eq!(g.capacity(UnitClass::Alu), 32);
        assert_eq!(g.capacity(UnitClass::Fpu), 32);
        assert_eq!(g.capacity(UnitClass::Special), 12);
        assert_eq!(g.capacity(UnitClass::LoadStore), 32);
        assert_eq!(g.capacity(UnitClass::SplitJoin), 16);
        assert_eq!(g.capacity(UnitClass::Control), 16);
    }

    #[test]
    fn grid_fits_placement() {
        let cfg = SystemConfig::default();
        assert!(cfg.grid.total_units() <= cfg.fabric.grid_width * cfg.fabric.grid_width);
    }

    #[test]
    fn l1_geometry() {
        let cfg = SystemConfig::default();
        // 64 KiB / (128 B * 4 ways) = 128 sets.
        assert_eq!(cfg.mem.l1.sets(), 128);
        assert_eq!(cfg.mem.l2.sets(), 384);
    }

    #[test]
    fn table_rendering_mentions_all_sections() {
        let t = SystemConfig::default().to_table();
        for needle in ["140", "32 ALUs", "GDDR5", "1.4", "0.924", "786", "768"] {
            if needle == "786" {
                continue; // paper's 786KB is a typo for 768KB; we use 768.
            }
            assert!(t.contains(needle), "table missing {needle}: {t}");
        }
    }

    #[test]
    fn visit_fields_covers_every_leaf_with_unique_names() {
        let mut fields = Vec::new();
        SystemConfig::default().visit_fields(&mut |l| fields.push((l.name, l.value)));
        // 6 grid + 7 fabric + 7 latencies + 12 cache + 4 dram + 3 scratchpad
        // + 2 lvc + 7 gpu + 1 clock = 49 leaves.
        assert_eq!(fields.len(), 49);
        let mut names: Vec<&str> = fields.iter().map(|(n, _)| *n).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), fields.len(), "duplicate field names");
        assert!(fields
            .iter()
            .any(|&(n, v)| n == "fabric.token_buffer_entries" && v == CfgValue::U64(16)));
        assert!(fields
            .iter()
            .any(|&(n, v)| n == "clocks.core_ghz" && v == CfgValue::F64(1.4)));
    }

    #[test]
    fn set_field_round_trips_every_visited_leaf() {
        let base = SystemConfig::default();
        let mut fields = Vec::new();
        base.visit_fields(&mut |l| fields.push((l.name, l.value)));
        // Nudge every leaf through its visited name...
        let nudged = |v: &CfgValue| match *v {
            CfgValue::U64(n) => CfgValue::U64(n + 1),
            CfgValue::F64(x) => CfgValue::F64(x * 2.0),
        };
        let mut cfg = base;
        for (name, value) in &fields {
            cfg.set_field(name, nudged(value)).unwrap();
        }
        // ...and confirm the visit reads every change back, proving the
        // setter's name table covers visit_fields arm for arm and never
        // writes the wrong leaf.
        let mut after = std::collections::BTreeMap::new();
        cfg.visit_fields(&mut |l| {
            after.insert(l.name, l.value);
        });
        assert_eq!(after.len(), fields.len());
        for (name, value) in &fields {
            assert_eq!(after[name], nudged(value), "{name}");
        }
    }

    #[test]
    fn set_field_rejects_bad_names_types_and_ranges() {
        let mut cfg = SystemConfig::default();
        assert!(cfg
            .set_field("grid.alus_typo", CfgValue::U64(1))
            .unwrap_err()
            .contains("unknown config field"));
        // u32 fields must not silently truncate, nor take a float.
        assert_eq!(
            cfg.set_field("grid.alus", CfgValue::U64(1 << 40)),
            Err("grid.alus cannot hold 1099511627776".to_owned())
        );
        assert_eq!(
            cfg.set_field("grid.alus", CfgValue::F64(3.5)),
            Err("grid.alus cannot hold 3.5".to_owned())
        );
        // Whole numbers widen into float fields (JSON integers).
        cfg.set_field("clocks.core_ghz", CfgValue::U64(2)).unwrap();
        assert_eq!(cfg.clocks.core_ghz, 2.0);
        // The config is otherwise untouched by the failed writes.
        assert_eq!(cfg.grid, GridConfig::default());
    }

    #[test]
    fn validate_names_the_leaf_and_the_bound_it_breaks() {
        let base = SystemConfig::default();
        assert_eq!(base.validate(), Ok(()));
        let refused = |name: &str, value: CfgValue| {
            let mut cfg = base;
            cfg.set_field(name, value).unwrap();
            match cfg.validate() {
                Err(Error::Config(m)) => m,
                other => panic!("{name} = {value}: {other:?}"),
            }
        };
        assert_eq!(
            refused("mem.l1.mshrs", CfgValue::U64(0)),
            "mem.l1.mshrs must be at least 1"
        );
        assert_eq!(
            refused("mem.l1.banks", CfgValue::U64(4_000_000_000)),
            "mem.l1.banks must be at most 4096"
        );
        // The cross-leaf rule: at least one set of line_bytes × ways.
        assert_eq!(
            refused("mem.l2.size_bytes", CfgValue::U64(1024)),
            "mem.l2.size_bytes must be at least 2048"
        );
        assert_eq!(
            refused("clocks.core_ghz", CfgValue::F64(f64::NAN)),
            "clocks.core_ghz must be at least 0.1"
        );
    }

    #[test]
    fn unit_class_display() {
        let names: Vec<String> = UnitClass::ALL.iter().map(|c| c.to_string()).collect();
        assert_eq!(names, ["ALU", "FPU", "SCU", "LDST", "SJU", "CU"]);
    }
}
