//! Synthetic server-workload substrate for the Boomerang reproduction.
//!
//! The paper evaluates Boomerang on six commercial server workloads running
//! under a full-system simulator. Neither the binaries nor the traces are
//! available, so this crate builds the closest synthetic equivalent that
//! exercises the same front-end code paths:
//!
//! 1. [`WorkloadProfile`] — a declarative description of one workload's
//!    front-end-relevant characteristics (instruction footprint, branch mix,
//!    branch-target distances, call depth, temporal reuse).
//! 2. [`CodeLayout`] — a deterministic synthetic text segment generated from
//!    a profile: functions, basic blocks, and a control-flow graph.
//! 3. [`TraceGenerator`] / [`Trace`] — the dynamic execution path through
//!    that layout, which the front-end simulator uses as its oracle.
//! 4. [`analysis`] — workload characterisation (Figure 4's branch-distance
//!    distribution, working-set sizes, dynamic branch mix).
//!
//! # Example
//!
//! ```
//! use workloads::{CodeLayout, Trace, WorkloadProfile};
//! use workloads::analysis::BranchDistanceHistogram;
//!
//! let profile = WorkloadProfile::tiny(1);
//! let layout = CodeLayout::generate(&profile);
//! let trace = Trace::generate_blocks(&layout, 10_000);
//! let hist = BranchDistanceHistogram::measure(&trace, layout.geometry(), 8);
//! // Most taken conditional branches land close to the branch (Figure 4).
//! assert!(hist.cumulative_within(4) > 0.8);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod analysis;
pub mod codec;
pub mod layout;
pub mod profile;
pub mod trace;

pub use codec::{ByteReader, CodecError};
pub use layout::{
    BlockId, BranchBehavior, CodeLayout, ControlFlow, Function, FunctionId, Ids, LayoutSummary,
    StaticBlock, CODE_BASE, MAX_CODE_INSTRUCTIONS,
};
pub use profile::{
    latency_class, BackendProfile, ConditionalBehaviorMix, ProfileError, TerminatorMix,
    WorkloadKind, WorkloadProfile, LATENCY_SEED_SALT, MAX_FOOTPRINT_BYTES, MIN_FOOTPRINT_BYTES,
    MIN_SUBTREE_INSTRUCTIONS, PROFILE_FIELDS,
};
pub use trace::{BlockSource, Trace, TraceGenerator};
