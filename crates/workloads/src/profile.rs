//! Workload profiles.
//!
//! The paper evaluates six commercial server workloads (Table II): Nutch,
//! Darwin Streaming, Apache, Zeus, Oracle and DB2, running under the Flexus
//! full-system simulator. Those binaries and traces are not available, so this
//! crate generates *synthetic* workloads whose front-end-relevant
//! characteristics match what the paper reports: multi-megabyte instruction
//! footprints, branch working sets far exceeding a 2K-entry BTB, ~92 % of
//! taken conditional branches landing within four cache blocks of the branch
//! (Figure 4), deep layered call chains, and per-workload differences in
//! streaming behaviour and BTB pressure.
//!
//! A [`WorkloadProfile`] is a declarative description of one such workload;
//! [`crate::layout::CodeLayout::generate`] turns it into a static code layout
//! and [`crate::trace::TraceGenerator`] walks that layout to produce the
//! dynamic instruction stream.

use crate::layout::{
    MAX_CODE_INSTRUCTIONS, MAX_DISPATCH_CALL_INSTRUCTIONS, MAX_DISPATCH_JUMP_INSTRUCTIONS,
    MAX_FUNCTION_INSTRUCTIONS,
};
use serde::{Deserialize, Serialize};
use sim_core::field;
use sim_core::field::Field;
use sim_core::rng::SimRng;
use std::fmt;

/// Relative frequencies of the different terminator kinds of a basic block.
///
/// The remainder after calls, jumps, indirect branches and returns is made up
/// of conditional branches, which dominate in all profiles.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct TerminatorMix {
    /// Fraction of blocks ending in a direct call.
    pub call: f64,
    /// Fraction of blocks ending in an indirect call.
    pub indirect_call: f64,
    /// Fraction of blocks ending in an unconditional direct jump.
    pub jump: f64,
    /// Fraction of blocks ending in an indirect jump.
    pub indirect_jump: f64,
    /// Fraction of blocks ending in an *early* return (in addition to the
    /// structural return that terminates every function).
    pub early_return: f64,
}

impl TerminatorMix {
    /// Fraction of blocks ending in a conditional branch.
    pub fn conditional(&self) -> f64 {
        (1.0 - self.call - self.indirect_call - self.jump - self.indirect_jump - self.early_return)
            .max(0.0)
    }

    /// Validates that the fractions are non-negative and sum to at most one.
    pub fn is_valid(&self) -> bool {
        self.validate().is_ok()
    }

    /// Validates the mix, naming the offending field on failure.
    pub fn validate(&self) -> Result<(), ProfileError> {
        let parts = [
            ("terminators.call", self.call),
            ("terminators.indirect_call", self.indirect_call),
            ("terminators.jump", self.jump),
            ("terminators.indirect_jump", self.indirect_jump),
            ("terminators.early_return", self.early_return),
        ];
        for (field, p) in parts {
            unit_fraction(field, p)?;
        }
        let sum: f64 = parts.iter().map(|&(_, p)| p).sum();
        if sum > 1.0 {
            return Err(ProfileError::new(
                "terminators",
                format!("fractions sum to {sum} (must be at most 1)"),
            ));
        }
        Ok(())
    }
}

/// Mix of dynamic behaviours assigned to static conditional branches.
///
/// The behaviours differ in how hard they are for the direction predictors:
/// biased branches are easy for everything including a bimodal predictor,
/// loop exits and history patterns need TAGE-like history, and a small
/// fraction of data-dependent branches is unpredictable for everyone.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct ConditionalBehaviorMix {
    /// Fraction of conditional branches that are loop back-edges.
    pub loop_backedge: f64,
    /// Fraction exhibiting a short repeating history pattern.
    pub pattern: f64,
    /// Fraction that are effectively data-dependent (close to 50/50).
    pub data_dependent: f64,
    /// Mean probability of "taken" for the remaining biased branches.
    pub bias_mean: f64,
    /// Mean loop trip count for loop back-edges.
    pub mean_trip_count: f64,
}

impl ConditionalBehaviorMix {
    /// Fraction of conditional branches that are simply biased.
    pub fn biased(&self) -> f64 {
        (1.0 - self.loop_backedge - self.pattern - self.data_dependent).max(0.0)
    }

    /// Validates the mix.
    pub fn is_valid(&self) -> bool {
        self.validate().is_ok()
    }

    /// Validates the mix, naming the offending field on failure.
    pub fn validate(&self) -> Result<(), ProfileError> {
        let parts = [
            ("conditionals.loop_backedge", self.loop_backedge),
            ("conditionals.pattern", self.pattern),
            ("conditionals.data_dependent", self.data_dependent),
        ];
        for (field, p) in parts {
            unit_fraction(field, p)?;
        }
        let sum: f64 = parts.iter().map(|&(_, p)| p).sum();
        if sum > 1.0 {
            return Err(ProfileError::new(
                "conditionals",
                format!("fractions sum to {sum} (must be at most 1)"),
            ));
        }
        unit_fraction("conditionals.bias_mean", self.bias_mean)?;
        if self.mean_trip_count.is_nan() || self.mean_trip_count < 2.0 {
            return Err(ProfileError::new(
                "conditionals.mean_trip_count",
                format!("must be at least 2 (got {})", self.mean_trip_count),
            ));
        }
        Ok(())
    }
}

/// Parameters of the simple out-of-order back-end model.
///
/// The back-end is not the subject of the paper, but its data stalls determine
/// how much of the front-end improvement turns into end-to-end speedup
/// (Figures 1 and 9 saturate between 1.1x and 1.7x). Each retired instruction
/// is given an execution latency drawn from this distribution.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct BackendProfile {
    /// Fraction of instructions that are memory loads.
    pub load_fraction: f64,
    /// Probability that a load misses the L1-D and hits the LLC.
    pub l1d_miss_rate: f64,
    /// Probability that a load misses the LLC entirely (goes to memory).
    pub llc_miss_rate: f64,
    /// Baseline execution latency of a non-memory instruction in cycles.
    pub base_latency: u64,
}

/// Salt XORed into the workload seed to derive the back-end latency RNG
/// stream (kept stable so committed reports never shift).
pub const LATENCY_SEED_SALT: u64 = 0xbac_bac_bac;

/// Per-instruction latency classes drawn by [`BackendProfile::latency_classes`].
/// The numeric values index the back end's class→latency table. A class
/// stream holds them packed four to a byte (see [`get`](latency_class::get)).
pub mod latency_class {
    /// Non-load instruction: base latency.
    pub const BASE: u8 = 0;
    /// Load missing the LLC: memory latency.
    pub const MEMORY: u8 = 1;
    /// Load missing the L1-D, hitting the LLC.
    pub const LLC: u8 = 2;
    /// Load hitting the L1-D: base latency + 2.
    pub const L1D_HIT: u8 = 3;

    /// Class `i` of a packed stream: bits `2 * (i % 4)` of byte `i / 4`.
    ///
    /// # Panics
    ///
    /// Panics if `i / 4` is past the end of `packed`.
    #[inline]
    pub fn get(packed: &[u8], i: usize) -> u8 {
        (packed[i >> 2] >> ((i & 3) * 2)) & 3
    }
}

impl BackendProfile {
    /// Precomputes the per-instruction latency-**class** stream for a
    /// workload seed, packed four classes to a byte.
    ///
    /// The back end draws one Bernoulli cascade per instruction it accepts,
    /// and the accepted-instruction sequence is the same for every
    /// mechanism, configuration and engine that runs the same workload — the
    /// draw values depend only on the RNG state, never on simulation timing.
    /// The whole stream is therefore a pure function of `(profile, seed)`
    /// and can be generated once per workload and shared by every simulator
    /// run over it, instead of re-drawn instruction-by-instruction inside
    /// each run's hot loop. Classes rather than latencies are stored so the
    /// stream stays independent of the microarchitectural configuration
    /// (LLC/memory latencies map in at simulation time).
    ///
    /// A class has four values, so it takes 2 bits: class `i` sits in bits
    /// `2 * (i % 4)` of byte `i / 4` (read it with [`latency_class::get`]),
    /// the stream is `count.div_ceil(4)` bytes long and the unused high bits
    /// of its last byte are zero.
    ///
    /// Draw-for-draw identical to the back end's online cascade: same
    /// number and order of underlying `next_u64` calls, so a simulator fed
    /// this stream produces byte-identical statistics to one drawing live.
    pub fn latency_classes(&self, workload_seed: u64, count: usize) -> Vec<u8> {
        use crate::profile::latency_class as class;
        let mut rng = SimRng::seeded(workload_seed ^ LATENCY_SEED_SALT);
        let load_t = SimRng::chance_threshold(self.load_fraction);
        let llc_t = SimRng::chance_threshold(self.llc_miss_rate);
        let l1d_t = SimRng::chance_threshold(self.l1d_miss_rate);
        let mut draw = || {
            if rng.unit_bits() >= load_t {
                class::BASE
            } else if rng.unit_bits() < llc_t {
                class::MEMORY
            } else if rng.unit_bits() < l1d_t {
                class::LLC
            } else {
                class::L1D_HIT
            }
        };
        let mut packed = vec![0u8; count.div_ceil(4)];
        let (full, tail) = (count / 4, count % 4);
        for byte in &mut packed[..full] {
            *byte = draw() | draw() << 2 | draw() << 4 | draw() << 6;
        }
        if tail > 0 {
            packed[full] = (0..tail).fold(0, |byte, k| byte | draw() << (2 * k));
        }
        packed
    }

    /// Validates the back-end parameters.
    pub fn is_valid(&self) -> bool {
        self.validate().is_ok()
    }

    /// Validates the back-end parameters, naming the offending field on
    /// failure.
    pub fn validate(&self) -> Result<(), ProfileError> {
        unit_fraction("backend.load_fraction", self.load_fraction)?;
        unit_fraction("backend.l1d_miss_rate", self.l1d_miss_rate)?;
        unit_fraction("backend.llc_miss_rate", self.llc_miss_rate)?;
        if self.base_latency < 1 {
            return Err(ProfileError::new(
                "backend.base_latency",
                "must be at least 1 cycle (got 0)".to_string(),
            ));
        }
        Ok(())
    }
}

/// A field-level [`WorkloadProfile`] validation error: which field is out of
/// range and why. Surfaces through the campaign spec parser so a bad
/// user-authored profile is rejected with its field name instead of
/// panicking a simulation worker mid-campaign.
#[derive(Clone, Debug, PartialEq)]
pub struct ProfileError {
    /// Dotted path of the offending field (e.g. `terminators.call`).
    pub field: &'static str,
    /// What is wrong with the value.
    pub message: String,
}

impl ProfileError {
    fn new(field: &'static str, message: String) -> Self {
        ProfileError { field, message }
    }
}

impl fmt::Display for ProfileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "`{}` {}", self.field, self.message)
    }
}

impl std::error::Error for ProfileError {}

fn unit_fraction(field: &'static str, value: f64) -> Result<(), ProfileError> {
    if (0.0..=1.0).contains(&value) {
        Ok(())
    } else {
        Err(ProfileError::new(
            field,
            format!("must be a fraction in [0, 1] (got {value})"),
        ))
    }
}

/// Names of the six server workloads studied in the paper (Table II).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub enum WorkloadKind {
    /// Nutch — open-source web search (Apache Nutch v1.2).
    Nutch,
    /// Darwin Streaming Server — media streaming.
    Streaming,
    /// Apache HTTP Server — SPECweb99 web front end.
    Apache,
    /// Zeus Web Server — SPECweb99 web front end.
    Zeus,
    /// Oracle 10g — TPC-C online transaction processing.
    Oracle,
    /// IBM DB2 v8 ESE — TPC-C online transaction processing.
    Db2,
}

impl WorkloadKind {
    /// All six workloads in the order the paper lists them.
    pub const ALL: [WorkloadKind; 6] = [
        WorkloadKind::Nutch,
        WorkloadKind::Streaming,
        WorkloadKind::Apache,
        WorkloadKind::Zeus,
        WorkloadKind::Oracle,
        WorkloadKind::Db2,
    ];

    /// Human-readable name as used in the paper's figures.
    pub const fn name(self) -> &'static str {
        match self {
            WorkloadKind::Nutch => "Nutch",
            WorkloadKind::Streaming => "Streaming",
            WorkloadKind::Apache => "Apache",
            WorkloadKind::Zeus => "Zeus",
            WorkloadKind::Oracle => "Oracle",
            WorkloadKind::Db2 => "DB2",
        }
    }

    /// The synthetic profile standing in for this workload.
    pub fn profile(self) -> WorkloadProfile {
        WorkloadProfile::for_kind(self)
    }
}

impl fmt::Display for WorkloadKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Declarative description of one synthetic server workload.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct WorkloadProfile {
    /// Which paper workload this profile emulates.
    pub kind: WorkloadKind,
    /// One-line description (Table II analogue).
    pub description: String,
    /// Seed from which layout and trace randomness are derived.
    pub seed: u64,
    /// Target active instruction footprint in bytes.
    pub footprint_bytes: u64,
    /// Mean basic-block length in instructions.
    pub mean_block_instructions: f64,
    /// Mean number of basic blocks per function.
    pub mean_function_blocks: f64,
    /// Terminator mix.
    pub terminators: TerminatorMix,
    /// Conditional-branch behaviour mix.
    pub conditionals: ConditionalBehaviorMix,
    /// Mean distance, in cache blocks, of a taken conditional branch target
    /// (Figure 4: ~92 % within four blocks).
    pub cond_target_mean_lines: f64,
    /// Fraction of taken conditional targets that are backward (loops and
    /// retries).
    pub cond_backward_fraction: f64,
    /// Maximum call depth the trace generator will follow before forcing a
    /// return (layered server stacks reach ~10-20).
    pub max_call_depth: usize,
    /// Number of top-level "service" entry points the dispatcher cycles
    /// through; this controls instruction working-set churn.
    pub service_roots: usize,
    /// Fraction of call sites that call a "hot" (frequently reused) callee
    /// rather than a uniformly random one; higher values create more
    /// temporal reuse and thus more L1-I hits.
    pub hot_callee_fraction: f64,
    /// Fraction of the instruction footprint occupied by the shared
    /// *utility layer*: the leaf helper code (allocator, libc-like routines)
    /// at the tail of the layout that every service calls into. Utility
    /// functions are exactly the ones `Function::is_hot` marks, and they are
    /// the "hot" callees that [`hot_callee_fraction`](Self::hot_callee_fraction)
    /// steers call sites toward — so a larger utility layer spreads the same
    /// reuse over more code. Layout generation clamps the value to
    /// `[0.03, 0.4]`.
    ///
    /// Formerly (mis)named `hot_function_fraction`; campaign specs still
    /// accept that key as a deprecated alias.
    pub utility_fraction: f64,
    /// Back-end data-stall model.
    pub backend: BackendProfile,
}

/// Every tunable [`WorkloadProfile`] field, named once: its key (a dotted
/// path into a sub-struct), its kind and its getter and setter. The kind and
/// description stand outside it, being the preset a profile starts from and
/// its label. The campaign spec reads and writes `[[workload]]` tables
/// through it, in this order, and the codec stores a profile through it, so
/// the artifact key covers every field here.
#[rustfmt::skip]
pub static PROFILE_FIELDS: [Field<WorkloadProfile>; 24] = [
    field!("seed", Integer, seed),
    field!("footprint_bytes", Integer, footprint_bytes),
    field!("service_roots", Index, service_roots),
    field!("max_call_depth", Index, max_call_depth),
    field!("mean_block_instructions", Number, mean_block_instructions),
    field!("mean_function_blocks", Number, mean_function_blocks),
    field!("cond_target_mean_lines", Number, cond_target_mean_lines),
    field!("cond_backward_fraction", Number, cond_backward_fraction),
    field!("hot_callee_fraction", Number, hot_callee_fraction),
    field!("utility_fraction", Number, utility_fraction),
    field!("terminators.call", Number, terminators.call),
    field!("terminators.indirect_call", Number, terminators.indirect_call),
    field!("terminators.jump", Number, terminators.jump),
    field!("terminators.indirect_jump", Number, terminators.indirect_jump),
    field!("terminators.early_return", Number, terminators.early_return),
    field!("conditionals.loop_backedge", Number, conditionals.loop_backedge),
    field!("conditionals.pattern", Number, conditionals.pattern),
    field!("conditionals.data_dependent", Number, conditionals.data_dependent),
    field!("conditionals.bias_mean", Number, conditionals.bias_mean),
    field!("conditionals.mean_trip_count", Number, conditionals.mean_trip_count),
    field!("backend.load_fraction", Number, backend.load_fraction),
    field!("backend.l1d_miss_rate", Number, backend.l1d_miss_rate),
    field!("backend.llc_miss_rate", Number, backend.llc_miss_rate),
    field!("backend.base_latency", Integer, backend.base_latency),
];

impl WorkloadProfile {
    /// The profile standing in for `kind`.
    ///
    /// The parameters are chosen so that a 2K-entry-BTB, 32 KB-L1-I baseline
    /// core reproduces the qualitative per-workload behaviour of the paper:
    /// OLTP workloads (Oracle, DB2) have the largest footprints and BTB
    /// pressure, Streaming is the most sequential, and the web workloads sit
    /// in between.
    pub fn for_kind(kind: WorkloadKind) -> Self {
        match kind {
            WorkloadKind::Nutch => WorkloadProfile {
                kind,
                description: "Apache Nutch v1.2, 230 clients, 1.4 GB index (web search)".into(),
                seed: 0x4e75_7463_6801,
                footprint_bytes: 1_600 * 1024,
                mean_block_instructions: 6.5,
                mean_function_blocks: 14.0,
                terminators: TerminatorMix {
                    call: 0.095,
                    indirect_call: 0.012,
                    jump: 0.055,
                    indirect_jump: 0.006,
                    early_return: 0.035,
                },
                conditionals: ConditionalBehaviorMix {
                    loop_backedge: 0.1,
                    pattern: 0.1,
                    data_dependent: 0.045,
                    bias_mean: 0.82,
                    mean_trip_count: 6.0,
                },
                cond_target_mean_lines: 1.6,
                cond_backward_fraction: 0.32,
                max_call_depth: 18,
                service_roots: 96,
                hot_callee_fraction: 0.3,
                utility_fraction: 0.06,
                backend: BackendProfile {
                    load_fraction: 0.26,
                    l1d_miss_rate: 0.045,
                    llc_miss_rate: 0.004,
                    base_latency: 1,
                },
            },
            WorkloadKind::Streaming => WorkloadProfile {
                kind,
                description: "Darwin Streaming Server 6.0.3, 7500 clients (media streaming)".into(),
                seed: 0x5374_7265_616d,
                footprint_bytes: 1_100 * 1024,
                mean_block_instructions: 8.5,
                mean_function_blocks: 18.0,
                terminators: TerminatorMix {
                    call: 0.075,
                    indirect_call: 0.008,
                    jump: 0.045,
                    indirect_jump: 0.004,
                    early_return: 0.025,
                },
                conditionals: ConditionalBehaviorMix {
                    loop_backedge: 0.14,
                    pattern: 0.08,
                    data_dependent: 0.035,
                    bias_mean: 0.86,
                    mean_trip_count: 8.0,
                },
                cond_target_mean_lines: 1.4,
                cond_backward_fraction: 0.34,
                max_call_depth: 16,
                service_roots: 48,
                hot_callee_fraction: 0.4,
                utility_fraction: 0.08,
                backend: BackendProfile {
                    load_fraction: 0.24,
                    l1d_miss_rate: 0.05,
                    llc_miss_rate: 0.006,
                    base_latency: 1,
                },
            },
            WorkloadKind::Apache => WorkloadProfile {
                kind,
                description: "Apache HTTP Server v2.0, 16K connections, fastCGI (SPECweb99)".into(),
                seed: 0x4170_6163_6865,
                footprint_bytes: 2_000 * 1024,
                mean_block_instructions: 6.0,
                mean_function_blocks: 13.0,
                terminators: TerminatorMix {
                    call: 0.105,
                    indirect_call: 0.014,
                    jump: 0.06,
                    indirect_jump: 0.007,
                    early_return: 0.04,
                },
                conditionals: ConditionalBehaviorMix {
                    loop_backedge: 0.09,
                    pattern: 0.11,
                    data_dependent: 0.05,
                    bias_mean: 0.80,
                    mean_trip_count: 5.0,
                },
                cond_target_mean_lines: 1.7,
                cond_backward_fraction: 0.30,
                max_call_depth: 20,
                service_roots: 128,
                hot_callee_fraction: 0.28,
                utility_fraction: 0.05,
                backend: BackendProfile {
                    load_fraction: 0.27,
                    l1d_miss_rate: 0.05,
                    llc_miss_rate: 0.005,
                    base_latency: 1,
                },
            },
            WorkloadKind::Zeus => WorkloadProfile {
                kind,
                description: "Zeus Web Server, 16K connections, fastCGI (SPECweb99)".into(),
                seed: 0x5a65_7573_0001,
                footprint_bytes: 1_800 * 1024,
                mean_block_instructions: 6.2,
                mean_function_blocks: 13.5,
                terminators: TerminatorMix {
                    call: 0.1,
                    indirect_call: 0.013,
                    jump: 0.058,
                    indirect_jump: 0.006,
                    early_return: 0.038,
                },
                conditionals: ConditionalBehaviorMix {
                    loop_backedge: 0.09,
                    pattern: 0.1,
                    data_dependent: 0.048,
                    bias_mean: 0.81,
                    mean_trip_count: 5.5,
                },
                cond_target_mean_lines: 1.65,
                cond_backward_fraction: 0.31,
                max_call_depth: 19,
                service_roots: 112,
                hot_callee_fraction: 0.3,
                utility_fraction: 0.05,
                backend: BackendProfile {
                    load_fraction: 0.26,
                    l1d_miss_rate: 0.048,
                    llc_miss_rate: 0.005,
                    base_latency: 1,
                },
            },
            WorkloadKind::Oracle => WorkloadProfile {
                kind,
                description: "Oracle 10g Enterprise Database Server, TPC-C, 100 warehouses".into(),
                seed: 0x4f72_6163_6c65,
                footprint_bytes: 3_200 * 1024,
                mean_block_instructions: 5.4,
                mean_function_blocks: 12.0,
                terminators: TerminatorMix {
                    call: 0.115,
                    indirect_call: 0.018,
                    jump: 0.065,
                    indirect_jump: 0.009,
                    early_return: 0.045,
                },
                conditionals: ConditionalBehaviorMix {
                    loop_backedge: 0.08,
                    pattern: 0.12,
                    data_dependent: 0.055,
                    bias_mean: 0.78,
                    mean_trip_count: 4.5,
                },
                cond_target_mean_lines: 1.8,
                cond_backward_fraction: 0.29,
                max_call_depth: 22,
                service_roots: 192,
                hot_callee_fraction: 0.22,
                utility_fraction: 0.04,
                backend: BackendProfile {
                    load_fraction: 0.30,
                    l1d_miss_rate: 0.06,
                    llc_miss_rate: 0.008,
                    base_latency: 1,
                },
            },
            WorkloadKind::Db2 => WorkloadProfile {
                kind,
                description: "IBM DB2 v8 ESE Database Server, TPC-C, 100 warehouses".into(),
                seed: 0x4442_3200_0001,
                footprint_bytes: 3_600 * 1024,
                mean_block_instructions: 5.2,
                mean_function_blocks: 11.5,
                terminators: TerminatorMix {
                    call: 0.12,
                    indirect_call: 0.02,
                    jump: 0.068,
                    indirect_jump: 0.01,
                    early_return: 0.048,
                },
                conditionals: ConditionalBehaviorMix {
                    loop_backedge: 0.08,
                    pattern: 0.12,
                    data_dependent: 0.05,
                    bias_mean: 0.78,
                    mean_trip_count: 4.5,
                },
                cond_target_mean_lines: 1.85,
                cond_backward_fraction: 0.28,
                max_call_depth: 22,
                service_roots: 224,
                hot_callee_fraction: 0.2,
                utility_fraction: 0.04,
                backend: BackendProfile {
                    load_fraction: 0.31,
                    l1d_miss_rate: 0.062,
                    llc_miss_rate: 0.009,
                    base_latency: 1,
                },
            },
        }
    }

    /// All six paper workloads.
    pub fn all() -> Vec<WorkloadProfile> {
        WorkloadKind::ALL.iter().map(|k| k.profile()).collect()
    }

    /// A small profile for unit tests and doc examples: a few tens of KB of
    /// code, so layout generation and short simulations are fast.
    pub fn tiny(seed: u64) -> Self {
        let mut p = WorkloadProfile::for_kind(WorkloadKind::Nutch);
        p.description = "tiny synthetic workload for tests".into();
        p.seed = seed;
        p.footprint_bytes = 48 * 1024;
        p.service_roots = 16;
        p.max_call_depth = 12;
        p
    }

    /// Returns the profile with a different footprint, keeping everything
    /// else fixed. Useful for footprint-sensitivity studies.
    #[must_use]
    pub fn with_footprint_bytes(mut self, bytes: u64) -> Self {
        self.footprint_bytes = bytes;
        self
    }

    /// Returns the profile with a different seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Returns the profile with a different maximum call depth.
    #[must_use]
    pub fn with_max_call_depth(mut self, depth: usize) -> Self {
        self.max_call_depth = depth;
        self
    }

    /// Short name of the underlying workload.
    pub fn name(&self) -> &'static str {
        self.kind.name()
    }

    /// Validates that all fractions and means are in range.
    pub fn is_valid(&self) -> bool {
        self.validate().is_ok()
    }

    /// Validates the profile, naming the first offending field on failure.
    ///
    /// The campaign spec parser calls this for every resolved `[[workload]]`
    /// entry, so an out-of-range value is reported as a field-level spec
    /// error at parse time instead of panicking a pool worker inside
    /// [`crate::layout::CodeLayout::generate`] mid-campaign.
    pub fn validate(&self) -> Result<(), ProfileError> {
        if self.footprint_bytes < MIN_FOOTPRINT_BYTES {
            return Err(ProfileError::new(
                "footprint_bytes",
                format!(
                    "must be at least {MIN_FOOTPRINT_BYTES} bytes (got {})",
                    self.footprint_bytes
                ),
            ));
        }
        if self.footprint_bytes > MAX_FOOTPRINT_BYTES {
            return Err(ProfileError::new(
                "footprint_bytes",
                format!(
                    "must be at most {MAX_FOOTPRINT_BYTES} bytes (got {})",
                    self.footprint_bytes
                ),
            ));
        }
        if self.mean_block_instructions.is_nan() || self.mean_block_instructions < 2.0 {
            return Err(ProfileError::new(
                "mean_block_instructions",
                format!("must be at least 2 (got {})", self.mean_block_instructions),
            ));
        }
        if self.mean_function_blocks.is_nan() || self.mean_function_blocks < 2.0 {
            return Err(ProfileError::new(
                "mean_function_blocks",
                format!("must be at least 2 (got {})", self.mean_function_blocks),
            ));
        }
        self.terminators.validate()?;
        self.conditionals.validate()?;
        if self.cond_target_mean_lines.is_nan() || self.cond_target_mean_lines <= 0.0 {
            return Err(ProfileError::new(
                "cond_target_mean_lines",
                format!("must be positive (got {})", self.cond_target_mean_lines),
            ));
        }
        unit_fraction("cond_backward_fraction", self.cond_backward_fraction)?;
        if self.max_call_depth < 2 {
            return Err(ProfileError::new(
                "max_call_depth",
                format!("must be at least 2 (got {})", self.max_call_depth),
            ));
        }
        if self.service_roots < 1 {
            return Err(ProfileError::new(
                "service_roots",
                "must be at least 1 (got 0)".to_string(),
            ));
        }
        unit_fraction("hot_callee_fraction", self.hot_callee_fraction)?;
        unit_fraction("utility_fraction", self.utility_fraction)?;
        let budget = self.subtree_instructions(self.footprint_bytes);
        if budget < MIN_SUBTREE_INSTRUCTIONS {
            let fits = match self.smallest_fitting_footprint() {
                Some(bytes) => format!("the smallest footprint_bytes that does is {bytes}"),
                None => format!("no footprint_bytes up to {MAX_FOOTPRINT_BYTES} does"),
            };
            return Err(ProfileError::new(
                "service_roots",
                format!(
                    "must leave each root {MIN_SUBTREE_INSTRUCTIONS} instructions of service \
                     code, but footprint_bytes = {} leaves {budget} (got {}); {fits}",
                    self.footprint_bytes, self.service_roots
                ),
            ));
        }
        let laid_out = self.max_laid_out_instructions();
        if laid_out > MAX_CODE_INSTRUCTIONS {
            return Err(ProfileError::new(
                "service_roots",
                format!(
                    "footprint_bytes = {} with {} roots can lay out {laid_out} instructions, \
                     more than the {MAX_CODE_INSTRUCTIONS} a layout addresses; at most {} \
                     roots fit",
                    self.footprint_bytes,
                    self.service_roots,
                    self.most_service_roots()
                ),
            ));
        }
        self.backend.validate()?;
        Ok(())
    }

    /// The most instructions a layout of this profile can hold. The layout
    /// overshoots its footprint: the dispatcher has a call block per root,
    /// each service subtree stops only after the function that crosses its
    /// budget (the budgets sum to at most the footprint), and the utility
    /// layer ends at most one function past the larger of the footprint and
    /// the subtrees' end. [`validate`](Self::validate) requires this to be
    /// at most [`MAX_CODE_INSTRUCTIONS`].
    pub(crate) fn max_laid_out_instructions(&self) -> u64 {
        let roots = self.service_roots as u64;
        let per_root = MAX_FUNCTION_INSTRUCTIONS + MAX_DISPATCH_CALL_INSTRUCTIONS;
        (self.footprint_bytes / sim_core::INSTRUCTION_BYTES)
            .saturating_add(roots.saturating_mul(per_root))
            .saturating_add(MAX_DISPATCH_JUMP_INSTRUCTIONS + MAX_FUNCTION_INSTRUCTIONS)
    }

    /// The most service roots whose layout fits
    /// [`MAX_CODE_INSTRUCTIONS`] at this profile's footprint (see
    /// [`max_laid_out_instructions`](Self::max_laid_out_instructions)).
    pub(crate) fn most_service_roots(&self) -> u64 {
        let fixed = self.footprint_bytes / sim_core::INSTRUCTION_BYTES
            + MAX_DISPATCH_JUMP_INSTRUCTIONS
            + MAX_FUNCTION_INSTRUCTIONS;
        let per_root = MAX_FUNCTION_INSTRUCTIONS + MAX_DISPATCH_CALL_INSTRUCTIONS;
        MAX_CODE_INSTRUCTIONS.saturating_sub(fixed) / per_root
    }

    /// Instructions the layout plans for each service root's subtree at a
    /// footprint of `footprint_bytes`: the service share of the footprint
    /// (what the utility layer leaves) split evenly over the roots.
    /// [`validate`](Self::validate) requires at least
    /// [`MIN_SUBTREE_INSTRUCTIONS`], so a layout never overshoots its
    /// footprint to give a root room.
    pub(crate) fn subtree_instructions(&self, footprint_bytes: u64) -> u64 {
        let target = footprint_bytes / sim_core::INSTRUCTION_BYTES;
        let utility = self.utility_fraction.clamp(0.03, 0.4);
        let service = (target as f64 * (1.0 - utility)) as u64;
        service / self.service_roots.max(1) as u64
    }

    /// The smallest footprint, at least this profile's and at most
    /// [`MAX_FOOTPRINT_BYTES`], that gives every root
    /// [`MIN_SUBTREE_INSTRUCTIONS`]; `None` if even the largest does not.
    /// The budget never falls as the footprint grows, so a bisection finds
    /// it.
    fn smallest_fitting_footprint(&self) -> Option<u64> {
        let fits = |bytes| self.subtree_instructions(bytes) >= MIN_SUBTREE_INSTRUCTIONS;
        let (mut lo, mut hi) = (self.footprint_bytes, MAX_FOOTPRINT_BYTES);
        if !fits(hi) {
            return None;
        }
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if fits(mid) {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        Some(lo)
    }
}

/// Smallest footprint a profile may request (16 KB): below this the layered
/// dispatcher/service/utility structure degenerates.
pub const MIN_FOOTPRINT_BYTES: u64 = 16 * 1024;

/// Largest footprint a profile may request (512 MiB, ~125x the largest
/// paper workload): half of the 1 GiB of code a layout addresses
/// ([`MAX_CODE_INSTRUCTIONS`]), which leaves the other half for what the
/// layout lays out past its footprint. [`WorkloadProfile::validate`]
/// checks that worst case too.
pub const MAX_FOOTPRINT_BYTES: u64 = 1 << 29;

/// Fewest instructions (1 KB) of code the layout plans for one service
/// root's subtree: a profile whose footprint leaves a root less fails
/// [`WorkloadProfile::validate`] on `service_roots`.
pub const MIN_SUBTREE_INSTRUCTIONS: u64 = 256;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_profiles_are_valid() {
        for kind in WorkloadKind::ALL {
            let p = kind.profile();
            assert!(p.is_valid(), "profile for {kind} is invalid");
            assert_eq!(p.kind, kind);
            assert!(!p.description.is_empty());
        }
        assert!(WorkloadProfile::tiny(1).is_valid());
    }

    #[test]
    fn oltp_workloads_have_larger_footprints_and_btb_pressure() {
        let nutch = WorkloadKind::Nutch.profile();
        let oracle = WorkloadKind::Oracle.profile();
        let db2 = WorkloadKind::Db2.profile();
        assert!(oracle.footprint_bytes > nutch.footprint_bytes);
        assert!(db2.footprint_bytes > oracle.footprint_bytes);
        // OLTP code is branchier: shorter blocks, more calls.
        assert!(db2.mean_block_instructions < nutch.mean_block_instructions);
        assert!(db2.terminators.call > nutch.terminators.call);
    }

    #[test]
    fn streaming_is_the_most_sequential() {
        let streaming = WorkloadKind::Streaming.profile();
        for kind in WorkloadKind::ALL {
            let p = kind.profile();
            assert!(streaming.mean_block_instructions >= p.mean_block_instructions);
        }
    }

    #[test]
    fn terminator_mix_accounting() {
        let mix = TerminatorMix {
            call: 0.1,
            indirect_call: 0.05,
            jump: 0.05,
            indirect_jump: 0.0,
            early_return: 0.1,
        };
        assert!(mix.is_valid());
        assert!((mix.conditional() - 0.7).abs() < 1e-12);

        let bad = TerminatorMix {
            call: 0.9,
            indirect_call: 0.9,
            jump: 0.0,
            indirect_jump: 0.0,
            early_return: 0.0,
        };
        assert!(!bad.is_valid());
    }

    #[test]
    fn conditional_mix_accounting() {
        let mix = ConditionalBehaviorMix {
            loop_backedge: 0.2,
            pattern: 0.1,
            data_dependent: 0.05,
            bias_mean: 0.8,
            mean_trip_count: 8.0,
        };
        assert!(mix.is_valid());
        assert!((mix.biased() - 0.65).abs() < 1e-12);
        let bad = ConditionalBehaviorMix {
            mean_trip_count: 1.0,
            ..mix
        };
        assert!(!bad.is_valid());
    }

    /// Sets every [`PROFILE_FIELDS`] entry to a distinct value through its
    /// setter, then names every profile field without `..`: a field added
    /// to the struct fails to compile here until it is named, and the test
    /// fails until the table names it too, at the struct field it sets.
    #[test]
    fn the_field_table_names_every_profile_field_once() {
        use sim_core::field::Access;
        let mut p = WorkloadProfile::tiny(1);
        for (i, field) in PROFILE_FIELDS.iter().enumerate() {
            let v = i as u64 + 2;
            match field.access {
                Access::Integer(_, set) => set(&mut p, v),
                Access::Index(_, set) => set(&mut p, v as usize),
                Access::Number(_, set) => set(&mut p, v as f64),
                Access::Bool(..) | Access::Noc(..) => panic!("`{}`'s kind", field.key),
            }
        }
        let WorkloadProfile {
            kind: _,
            description: _,
            seed,
            footprint_bytes,
            mean_block_instructions,
            mean_function_blocks,
            terminators,
            conditionals,
            cond_target_mean_lines,
            cond_backward_fraction,
            max_call_depth,
            service_roots,
            hot_callee_fraction,
            utility_fraction,
            backend,
        } = p;
        let TerminatorMix {
            call,
            indirect_call,
            jump,
            indirect_jump,
            early_return,
        } = terminators;
        let ConditionalBehaviorMix {
            loop_backedge,
            pattern,
            data_dependent,
            bias_mean,
            mean_trip_count,
        } = conditionals;
        let BackendProfile {
            load_fraction,
            l1d_miss_rate,
            llc_miss_rate,
            base_latency,
        } = backend;
        let named = [
            ("seed", seed as f64),
            ("footprint_bytes", footprint_bytes as f64),
            ("service_roots", service_roots as f64),
            ("max_call_depth", max_call_depth as f64),
            ("mean_block_instructions", mean_block_instructions),
            ("mean_function_blocks", mean_function_blocks),
            ("cond_target_mean_lines", cond_target_mean_lines),
            ("cond_backward_fraction", cond_backward_fraction),
            ("hot_callee_fraction", hot_callee_fraction),
            ("utility_fraction", utility_fraction),
            ("terminators.call", call),
            ("terminators.indirect_call", indirect_call),
            ("terminators.jump", jump),
            ("terminators.indirect_jump", indirect_jump),
            ("terminators.early_return", early_return),
            ("conditionals.loop_backedge", loop_backedge),
            ("conditionals.pattern", pattern),
            ("conditionals.data_dependent", data_dependent),
            ("conditionals.bias_mean", bias_mean),
            ("conditionals.mean_trip_count", mean_trip_count),
            ("backend.load_fraction", load_fraction),
            ("backend.l1d_miss_rate", l1d_miss_rate),
            ("backend.llc_miss_rate", llc_miss_rate),
            ("backend.base_latency", base_latency as f64),
        ];
        let set: Vec<(&str, f64)> = (PROFILE_FIELDS.iter().enumerate())
            .map(|(i, field)| (field.key, i as f64 + 2.0))
            .collect();
        assert_eq!(named.to_vec(), set);
    }

    #[test]
    fn validate_names_the_offending_field() {
        let err = WorkloadProfile::tiny(1)
            .with_footprint_bytes(0)
            .validate()
            .unwrap_err();
        assert_eq!(err.field, "footprint_bytes");
        assert!(err.to_string().contains("got 0"), "{err}");
        let err = WorkloadProfile::tiny(1)
            .with_footprint_bytes(MAX_FOOTPRINT_BYTES + 1)
            .validate()
            .unwrap_err();
        assert_eq!(err.field, "footprint_bytes");

        let mut no_roots = WorkloadProfile::tiny(1);
        no_roots.service_roots = 0;
        let err = no_roots.validate().unwrap_err();
        assert_eq!(err.field, "service_roots");

        let mut hot = WorkloadProfile::tiny(1);
        hot.hot_callee_fraction = 1.5;
        let err = hot.validate().unwrap_err();
        assert_eq!(err.field, "hot_callee_fraction");

        let mut bad_mix = WorkloadProfile::tiny(1);
        bad_mix.terminators.call = 0.95;
        bad_mix.terminators.jump = 0.95;
        let err = bad_mix.validate().unwrap_err();
        assert_eq!(err.field, "terminators");
        assert!(err.to_string().contains("sum"), "{err}");

        let mut bad_backend = WorkloadProfile::tiny(1);
        bad_backend.backend.base_latency = 0;
        let err = bad_backend.validate().unwrap_err();
        assert_eq!(err.field, "backend.base_latency");
    }

    /// A root count no text segment can hold is a field error, not a
    /// reservation: at `1 << 40` roots, planning the layout would ask for a
    /// 4 TB root table. Validation alone decides it; nothing is generated.
    #[test]
    fn service_roots_are_bounded_by_the_text_segment() {
        let roots = |mut profile: WorkloadProfile, roots: usize| {
            profile.service_roots = roots;
            profile
        };
        let huge = roots(
            WorkloadProfile::tiny(1).with_footprint_bytes(MAX_FOOTPRINT_BYTES),
            1 << 40,
        );
        let err = huge.validate().unwrap_err();
        assert_eq!(err.field, "service_roots");
        assert!(err.to_string().contains("got 1099511627776"), "{err}");
        assert!(err.to_string().contains("no footprint_bytes"), "{err}");
        // The most roots the largest footprint holds, and one more. There
        // the worst-case overshoot binds before the 1 KB subtree floor.
        let service = roots(huge.clone(), 1);
        let floor = service.subtree_instructions(MAX_FOOTPRINT_BYTES) / MIN_SUBTREE_INSTRUCTIONS;
        let most = huge.most_service_roots();
        assert!(most < floor, "{most} roots, {floor} by the floor");
        let most = most as usize;
        assert!(roots(huge.clone(), most).is_valid());
        let err = roots(huge, most + 1).validate().unwrap_err();
        assert_eq!(err.field, "service_roots");
        let fit = format!("at most {most} roots fit");
        assert!(err.to_string().contains(&fit), "{err}");
    }

    /// Every valid profile's layout ends inside the 28 bits a block record
    /// gives an instruction offset, however far the planner overshoots its
    /// footprint: the 512 MiB footprint bound leaves half the range for the
    /// overshoot, and validation bounds the worst case. A profile whose
    /// functions all draw the most blocks of the most instructions lays out
    /// over 4x its footprint, so halving alone would not be the bound.
    #[test]
    fn a_laid_out_end_fits_the_packed_range() {
        assert_eq!(MAX_FOOTPRINT_BYTES, 512 << 20);
        assert_eq!(MAX_FOOTPRINT_BYTES / sim_core::INSTRUCTION_BYTES, 1 << 27);
        let mut most = WorkloadProfile::tiny(1).with_footprint_bytes(MAX_FOOTPRINT_BYTES);
        most.service_roots = most.most_service_roots() as usize;
        assert!(most.is_valid());
        assert!(most.max_laid_out_instructions() <= MAX_CODE_INSTRUCTIONS);
        for kind in WorkloadKind::ALL {
            let paper = kind.profile();
            assert!(paper.max_laid_out_instructions() <= MAX_CODE_INSTRUCTIONS);
            let scaled = paper.with_footprint_bytes(MAX_FOOTPRINT_BYTES);
            assert!(scaled.is_valid(), "{kind} at the largest footprint");
        }

        // The bound holds for a layout that overshoots as far as functions
        // can.
        let mut widest = WorkloadProfile::tiny(5);
        widest.mean_function_blocks = 10_000.0;
        widest.mean_block_instructions = 10_000.0;
        let layout = crate::CodeLayout::generate(&widest);
        let end =
            (layout.code_end().raw() - layout.code_base().raw()) / sim_core::INSTRUCTION_BYTES;
        let footprint = widest.footprint_bytes / sim_core::INSTRUCTION_BYTES;
        assert!(end > 4 * footprint, "{end} instructions for {footprint}");
        assert!(end <= widest.max_laid_out_instructions());
    }

    /// A footprint that leaves a root less than a 1 KB subtree would be
    /// overshot by the layout (Oracle's 192 roots at 128 KB laid out 1.87x
    /// the footprint), so it is rejected, naming the smallest footprint
    /// that fits; that one validates.
    #[test]
    fn a_footprint_too_small_for_its_roots_is_rejected() {
        let shrunk = WorkloadKind::Oracle
            .profile()
            .with_footprint_bytes(128 * 1024);
        let err = shrunk.validate().unwrap_err();
        assert_eq!(err.field, "service_roots");
        assert!(err.to_string().contains("got 192"), "{err}");
        let smallest = shrunk.smallest_fitting_footprint().unwrap();
        let named = format!("the smallest footprint_bytes that does is {smallest}");
        assert!(err.to_string().contains(&named), "{err}");
        assert!(shrunk.clone().with_footprint_bytes(smallest).is_valid());
        let short = shrunk.clone().with_footprint_bytes(smallest - 1);
        assert_eq!(short.validate().unwrap_err().field, "service_roots");
        // The floor binds exactly below that footprint: 256 instructions for
        // each of 192 roots, 96% of the footprint being service code.
        assert!(
            smallest > 192 * 1024 && smallest <= 256 * 1024,
            "{smallest}"
        );
        assert!(shrunk.with_footprint_bytes(256 * 1024).is_valid());
    }

    /// A shorter class stream is the packed prefix of a longer one, down to
    /// a partial last byte whose unused high bits are zero.
    #[test]
    fn latency_classes_pack_a_prefix_four_to_a_byte() {
        let backend = WorkloadKind::Oracle.profile().backend;
        let long = backend.latency_classes(7, 4_003);
        for n in [0, 1, 2, 3, 4, 5, 1_001, 4_002, 4_003] {
            let short = backend.latency_classes(7, n);
            assert_eq!(short.len(), n.div_ceil(4), "{n} classes");
            let full = n / 4;
            assert_eq!(short[..full], long[..full], "{n} classes");
            if n % 4 != 0 {
                let used = (1u8 << (2 * (n % 4))) - 1;
                assert_eq!(short[full], long[full] & used, "{n} classes");
            }
            for i in 0..n {
                assert_eq!(latency_class::get(&short, i), latency_class::get(&long, i));
            }
        }
        // Every class value occurs, so a packing slip cannot hide behind
        // zeros.
        let mut seen = [false; 4];
        (0..4_003).for_each(|i| seen[usize::from(latency_class::get(&long, i))] = true);
        assert_eq!(seen, [true; 4]);
    }

    #[test]
    fn workload_kind_display_matches_paper_labels() {
        let names: Vec<_> = WorkloadKind::ALL.iter().map(|k| k.to_string()).collect();
        assert_eq!(
            names,
            vec!["Nutch", "Streaming", "Apache", "Zeus", "Oracle", "DB2"]
        );
    }

    #[test]
    fn profiles_all_returns_six() {
        assert_eq!(WorkloadProfile::all().len(), 6);
    }
}
