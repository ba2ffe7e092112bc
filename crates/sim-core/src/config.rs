//! Microarchitectural configuration (Table I of the paper) and derived
//! latencies.

use crate::addr::LineGeometry;
use std::fmt;

/// A latency in core clock cycles.
pub type Latency = u64;

/// Interconnect / LLC organisation determining the average LLC round-trip
/// latency seen by one core.
///
/// The paper models a 16-core tiled CMP with a 4x4 2D mesh (3 cycles/hop),
/// giving an average LLC round-trip of ~30 cycles, and a crossbar variant with
/// an 18-cycle round trip (§VI-E2). The `Fixed` variant supports the latency
/// sweeps of Figures 2 and 5.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum NocModel {
    /// 4x4 2D mesh, 3 cycles/hop: ~30-cycle average LLC round trip.
    Mesh4x4,
    /// Wide crossbar: 18-cycle average LLC round trip.
    Crossbar,
    /// A fixed round-trip latency, for sensitivity sweeps.
    Fixed(Latency),
}

impl NocModel {
    /// Average LLC round-trip latency (request + response) in cycles.
    pub const fn llc_round_trip(self) -> Latency {
        match self {
            NocModel::Mesh4x4 => 30,
            NocModel::Crossbar => 18,
            NocModel::Fixed(lat) => lat,
        }
    }
}

impl fmt::Display for NocModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NocModel::Mesh4x4 => write!(f, "4x4 mesh (30-cycle LLC round trip)"),
            NocModel::Crossbar => write!(f, "crossbar (18-cycle LLC round trip)"),
            NocModel::Fixed(lat) => write!(f, "fixed {lat}-cycle LLC round trip"),
        }
    }
}

/// Idealised components used by the opportunity study of Figure 1.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct PerfectComponents {
    /// Every instruction fetch hits in the L1-I.
    pub perfect_l1i: bool,
    /// Every branch is found in the BTB (no BTB-miss-induced squashes).
    pub perfect_btb: bool,
}

impl PerfectComponents {
    /// Nothing idealised (the realistic configuration).
    pub const fn none() -> Self {
        PerfectComponents {
            perfect_l1i: false,
            perfect_btb: false,
        }
    }

    /// Perfect L1-I only.
    pub const fn l1i() -> Self {
        PerfectComponents {
            perfect_l1i: true,
            perfect_btb: false,
        }
    }

    /// Perfect L1-I and perfect BTB.
    pub const fn l1i_and_btb() -> Self {
        PerfectComponents {
            perfect_l1i: true,
            perfect_btb: true,
        }
    }
}

/// Microarchitectural parameters of the simulated core and memory hierarchy.
///
/// The defaults returned by [`MicroarchConfig::hpca17`] reproduce Table I of
/// the paper: a 3-way out-of-order core resembling an ARM Cortex-A57, a 2K
/// entry BTB, a 32 KB / 2-way L1-I with a 64-entry prefetch buffer, a shared
/// NUCA LLC reached over a 4x4 mesh, and a 45 ns memory.
///
/// # Example
///
/// ```
/// use sim_core::{MicroarchConfig, NocModel};
/// let cfg = MicroarchConfig::hpca17()
///     .with_btb_entries(32 * 1024)
///     .with_noc(NocModel::Fixed(50));
/// assert_eq!(cfg.llc_round_trip(), 50);
/// cfg.validate().unwrap();
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct MicroarchConfig {
    /// Core clock frequency in GHz (used to convert the 45 ns memory latency).
    pub clock_ghz: f64,
    /// Fetch / decode / retire width (3-way OoO in the paper).
    pub fetch_width: u64,
    /// Reorder buffer capacity (128 in the paper).
    pub rob_entries: u64,
    /// Load/store queue capacity (32 in the paper; only used by the back-end
    /// data-stall model).
    pub lsq_entries: u64,
    /// Number of BTB entries (2K in the baseline).
    pub btb_entries: u64,
    /// BTB associativity.
    pub btb_ways: u64,
    /// Storage budget of the direction predictor in bytes (8 KB TAGE).
    pub predictor_budget_bytes: u64,
    /// Return address stack depth.
    pub ras_entries: u64,
    /// Fetch target queue depth (32 entries for FDIP/Boomerang).
    pub ftq_entries: usize,
    /// L1-I capacity in bytes (32 KB).
    pub l1i_bytes: u64,
    /// L1-I associativity (2-way).
    pub l1i_ways: u64,
    /// L1-I hit latency in cycles (2).
    pub l1i_latency: Latency,
    /// L1-I prefetch buffer entries (64).
    pub l1i_prefetch_buffer_entries: usize,
    /// Cache-line geometry (64-byte lines).
    pub line: LineGeometry,
    /// Shared LLC capacity in bytes (512 KB per core x 16 cores).
    pub llc_bytes: u64,
    /// LLC associativity (16-way).
    pub llc_ways: u64,
    /// LLC bank access latency in cycles (5). The round-trip figures reported
    /// by [`NocModel`] (30 cycles for the mesh, 18 for the crossbar) already
    /// include the bank access, matching how the paper quotes "average LLC
    /// access latency".
    pub llc_bank_latency: Latency,
    /// Interconnect model determining the LLC round-trip latency.
    pub noc: NocModel,
    /// Main-memory latency in nanoseconds (45 ns).
    pub memory_latency_ns: f64,
    /// Number of in-flight instruction-fetch misses the core can sustain.
    pub fetch_mshrs: usize,
    /// Branch resolution latency: cycles between fetching a mispredicted
    /// branch and redirecting the front end (models the depth of the OoO
    /// pipeline up to execute).
    pub branch_resolution_latency: Latency,
    /// Extra bubble cycles charged when the pipeline is squashed, on top of
    /// the resolution latency (decode/rename refill).
    pub squash_penalty: Latency,
    /// Maximum prefetch probes the prefetch engine may issue per cycle.
    pub prefetch_probes_per_cycle: u64,
    /// BTB prefetch buffer entries used by Boomerang (32).
    pub btb_prefetch_buffer_entries: usize,
    /// Idealised structures for opportunity studies.
    pub perfect: PerfectComponents,
}

impl MicroarchConfig {
    /// The configuration of Table I of the paper.
    pub fn hpca17() -> Self {
        MicroarchConfig {
            clock_ghz: 2.0,
            fetch_width: 3,
            rob_entries: 128,
            lsq_entries: 32,
            btb_entries: 2048,
            btb_ways: 4,
            predictor_budget_bytes: 8 * 1024,
            ras_entries: 32,
            ftq_entries: 32,
            l1i_bytes: 32 * 1024,
            l1i_ways: 2,
            l1i_latency: 2,
            l1i_prefetch_buffer_entries: 64,
            line: LineGeometry::default(),
            llc_bytes: 16 * 512 * 1024,
            llc_ways: 16,
            llc_bank_latency: 5,
            noc: NocModel::Mesh4x4,
            memory_latency_ns: 45.0,
            fetch_mshrs: 16,
            branch_resolution_latency: 12,
            squash_penalty: 3,
            prefetch_probes_per_cycle: 4,
            btb_prefetch_buffer_entries: 32,
            perfect: PerfectComponents::none(),
        }
    }

    /// Returns the configuration with a different BTB capacity.
    #[must_use]
    pub fn with_btb_entries(mut self, entries: u64) -> Self {
        self.btb_entries = entries;
        self
    }

    /// Returns the configuration with a different interconnect model.
    #[must_use]
    pub fn with_noc(mut self, noc: NocModel) -> Self {
        self.noc = noc;
        self
    }

    /// Returns the configuration with a different FTQ depth.
    #[must_use]
    pub fn with_ftq_entries(mut self, entries: usize) -> Self {
        self.ftq_entries = entries;
        self
    }

    /// Returns the configuration with the given idealised components.
    #[must_use]
    pub fn with_perfect(mut self, perfect: PerfectComponents) -> Self {
        self.perfect = perfect;
        self
    }

    /// Average LLC round-trip latency in cycles (interconnect + bank access).
    pub fn llc_round_trip(&self) -> Latency {
        self.noc.llc_round_trip()
    }

    /// Main-memory round-trip latency in cycles.
    pub fn memory_latency(&self) -> Latency {
        (self.memory_latency_ns * self.clock_ghz).round() as Latency
    }

    /// Number of cache lines in the L1-I.
    pub fn l1i_lines(&self) -> u64 {
        self.l1i_bytes / self.line.line_bytes()
    }

    /// Number of cache lines in the LLC.
    pub fn llc_lines(&self) -> u64 {
        self.llc_bytes / self.line.line_bytes()
    }

    /// Validates internal consistency of the parameters.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] describing the first violated constraint.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.fetch_width == 0 {
            return Err(ConfigError::new("fetch_width must be non-zero"));
        }
        if !self.btb_entries.is_power_of_two() {
            return Err(ConfigError::new("btb_entries must be a power of two"));
        }
        if self.btb_ways == 0 || !self.btb_entries.is_multiple_of(self.btb_ways) {
            return Err(ConfigError::new(
                "btb_ways must be non-zero and divide btb_entries",
            ));
        }
        if !self
            .l1i_bytes
            .is_multiple_of(self.line.line_bytes() * self.l1i_ways)
        {
            return Err(ConfigError::new(
                "l1i_bytes must be a multiple of line size times associativity",
            ));
        }
        if !self
            .llc_bytes
            .is_multiple_of(self.line.line_bytes() * self.llc_ways)
        {
            return Err(ConfigError::new(
                "llc_bytes must be a multiple of line size times associativity",
            ));
        }
        if self.ftq_entries == 0 {
            return Err(ConfigError::new("ftq_entries must be non-zero"));
        }
        if self.fetch_mshrs == 0 {
            return Err(ConfigError::new("fetch_mshrs must be non-zero"));
        }
        if self.clock_ghz <= 0.0 {
            return Err(ConfigError::new("clock_ghz must be positive"));
        }
        Ok(())
    }
}

impl Default for MicroarchConfig {
    fn default() -> Self {
        MicroarchConfig::hpca17()
    }
}

/// Error returned by [`MicroarchConfig::validate`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ConfigError {
    message: &'static str,
}

impl ConfigError {
    const fn new(message: &'static str) -> Self {
        ConfigError { message }
    }
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "invalid microarchitectural configuration: {}",
            self.message
        )
    }
}

impl std::error::Error for ConfigError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hpca17_matches_table1() {
        let cfg = MicroarchConfig::hpca17();
        assert_eq!(cfg.fetch_width, 3);
        assert_eq!(cfg.rob_entries, 128);
        assert_eq!(cfg.lsq_entries, 32);
        assert_eq!(cfg.btb_entries, 2048);
        assert_eq!(cfg.predictor_budget_bytes, 8 * 1024);
        assert_eq!(cfg.l1i_bytes, 32 * 1024);
        assert_eq!(cfg.l1i_ways, 2);
        assert_eq!(cfg.l1i_latency, 2);
        assert_eq!(cfg.llc_bytes, 8 * 1024 * 1024);
        assert_eq!(cfg.llc_ways, 16);
        assert_eq!(cfg.noc, NocModel::Mesh4x4);
        assert!((cfg.memory_latency_ns - 45.0).abs() < f64::EPSILON);
        cfg.validate().unwrap();
    }

    #[test]
    fn derived_latencies() {
        let cfg = MicroarchConfig::hpca17();
        assert_eq!(cfg.llc_round_trip(), 30);
        assert_eq!(cfg.memory_latency(), 90);
        assert_eq!(cfg.l1i_lines(), 512);
        assert_eq!(cfg.llc_lines(), 131072);
        let xbar = cfg.clone().with_noc(NocModel::Crossbar);
        assert_eq!(xbar.llc_round_trip(), 18);
        let fixed = cfg.with_noc(NocModel::Fixed(1));
        assert_eq!(fixed.llc_round_trip(), 1);
    }

    #[test]
    fn builder_methods() {
        let cfg = MicroarchConfig::hpca17()
            .with_btb_entries(32 * 1024)
            .with_ftq_entries(8)
            .with_perfect(PerfectComponents::l1i());
        assert_eq!(cfg.btb_entries, 32 * 1024);
        assert_eq!(cfg.ftq_entries, 8);
        assert!(cfg.perfect.perfect_l1i);
        assert!(!cfg.perfect.perfect_btb);
        cfg.validate().unwrap();
    }

    #[test]
    fn validation_catches_bad_configs() {
        let mut cfg = MicroarchConfig::hpca17();
        cfg.btb_entries = 3000;
        assert!(cfg.validate().is_err());

        let mut cfg = MicroarchConfig::hpca17();
        cfg.fetch_width = 0;
        assert!(cfg.validate().is_err());

        let mut cfg = MicroarchConfig::hpca17();
        cfg.ftq_entries = 0;
        assert!(cfg.validate().is_err());

        let mut cfg = MicroarchConfig::hpca17();
        cfg.l1i_ways = 3;
        assert!(cfg.validate().is_err());

        let mut cfg = MicroarchConfig::hpca17();
        cfg.clock_ghz = 0.0;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn config_error_displays_reason() {
        let mut cfg = MicroarchConfig::hpca17();
        cfg.fetch_mshrs = 0;
        let err = cfg.validate().unwrap_err();
        assert!(err.to_string().contains("fetch_mshrs"));
    }

    #[test]
    fn perfect_component_presets() {
        assert!(!PerfectComponents::none().perfect_l1i);
        assert!(PerfectComponents::l1i().perfect_l1i);
        assert!(!PerfectComponents::l1i().perfect_btb);
        assert!(PerfectComponents::l1i_and_btb().perfect_btb);
    }

    #[test]
    fn noc_display() {
        assert!(NocModel::Mesh4x4.to_string().contains("mesh"));
        assert!(NocModel::Crossbar.to_string().contains("crossbar"));
        assert!(NocModel::Fixed(7).to_string().contains('7'));
    }
}
