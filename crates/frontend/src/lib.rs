//! Cycle-level decoupled front-end simulator for the Boomerang reproduction.
//!
//! This crate is the substrate on which every control-flow-delivery mechanism
//! of the paper is evaluated. It models the front end of a 3-way out-of-order
//! core (Table I): a branch prediction unit (basic-block BTB + direction
//! predictor + return address stack), a fetch target queue, a fetch engine
//! talking to the L1-I hierarchy, a simplified out-of-order back end, and the
//! statistics the paper reports (front-end stall cycles and their breakdown,
//! squashes per kilo-instruction by cause, IPC).
//!
//! Mechanisms plug in through [`ControlFlowMechanism`]; the no-prefetch
//! baseline is [`NoPrefetch`].
//!
//! # Example
//!
//! ```
//! use frontend::{NoPrefetch, Simulator};
//! use sim_core::MicroarchConfig;
//! use workloads::{CodeLayout, Trace, WorkloadProfile};
//!
//! let layout = CodeLayout::generate(&WorkloadProfile::tiny(1));
//! let trace = Trace::generate_blocks(&layout, 3_000);
//! let mut sim = Simulator::new(
//!     MicroarchConfig::hpca17(),
//!     &layout,
//!     trace.blocks(),
//!     Box::new(NoPrefetch::new()),
//! );
//! let stats = sim.run();
//! assert!(stats.instructions > 0);
//! assert!(stats.ipc() > 0.0);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod backend;
pub mod ftq;
pub mod mechanism;
pub mod simulator;
pub mod stats;

pub use backend::BackEnd;
pub use ftq::{Ftq, FtqEntry, Reached, SquashCause};
pub use mechanism::{
    predecode_line_iter, BtbMissAction, ControlFlowMechanism, MechContext, NoPrefetch,
};
pub use simulator::{SimEngine, Simulator};
pub use stats::{MissBreakdown, SimStats, SquashRates, SquashStats};
