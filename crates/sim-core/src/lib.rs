//! Common building blocks shared by every crate in the Boomerang reproduction.
//!
//! This crate defines the vocabulary of the simulator:
//!
//! * [`Addr`] — byte addresses in the instruction address space, together with
//!   cache-line geometry helpers ([`LineGeometry`]).
//! * [`BranchKind`], [`BranchInfo`] and [`BasicBlock`] — the abstract RISC
//!   control-flow model used by the synthetic workloads and the front-end
//!   simulator.
//! * [`MicroarchConfig`] — the microarchitectural parameters of Table I of the
//!   paper, plus derived quantities (LLC round-trip latency for the mesh and
//!   crossbar interconnects).
//! * [`stats`] — lightweight counters and ratio helpers used by the metrics
//!   the paper reports (stall-cycle coverage, squashes per kilo-instruction,
//!   speedup).
//! * [`mod@field`] — field tables: one entry per tunable field of a struct,
//!   with its key and typed getter and setter.
//! * [`rng`] — deterministic, seedable random number helpers so that every
//!   workload trace and every experiment is exactly reproducible.
//! * [`pool`] — a small work-stealing thread pool on which the experiment
//!   harness and the campaign engine shard their sweeps.
//!
//! # Example
//!
//! ```
//! use sim_core::{Addr, LineGeometry, MicroarchConfig};
//!
//! let geom = LineGeometry::default();
//! let a = Addr::new(0x1_0040);
//! assert_eq!(geom.line_of(a).0, 0x1_0040 / 64);
//!
//! let cfg = MicroarchConfig::hpca17();
//! assert_eq!(cfg.btb_entries, 2048);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod addr;
pub mod block;
pub mod branch;
pub mod config;
pub mod field;
pub mod fxhash;
pub mod order_queue;
pub mod pool;
pub mod rng;
pub mod stats;

pub use addr::{Addr, CacheLine, LineGeometry, INSTRUCTION_BYTES};
pub use block::{BasicBlock, DynamicBlock, MAX_BASIC_BLOCK_INSTRUCTIONS};
pub use branch::{BranchInfo, BranchKind, BranchOutcome};
pub use config::{Latency, MicroarchConfig, NocModel, PerfectComponents};
pub use fxhash::{FxBuildHasher, FxHashMap, FxHashSet};
pub use order_queue::OrderQueue;
pub use stats::{Counter, Ratio};
