//! # Boomerang: a metadata-free architecture for control flow delivery
//!
//! A from-scratch Rust reproduction of Kumar, Huang, Grot and Nagarajan,
//! *Boomerang: a Metadata-Free Architecture for Control Flow Delivery*,
//! HPCA 2017.
//!
//! Boomerang solves the two front-end problems of server workloads — L1-I
//! misses and BTB misses — using only structures a modest core already has.
//! It pairs a branch-predictor-directed instruction prefetcher (FDIP) with a
//! basic-block BTB whose misses it detects and prefills by predecoding the
//! very cache blocks the prefetcher brings in. The result matches
//! Confluence, the state-of-the-art unified instruction-supply scheme, while
//! adding only ~540 bytes of state instead of hundreds of kilobytes.
//!
//! This crate is the top-level library of the reproduction:
//!
//! * [`Boomerang`] / [`ThrottlePolicy`] — the mechanism itself (§IV),
//! * [`Mechanism`], [`WorkloadData`], [`RunLength`] — the experiment API
//!   the campaign crate, the examples and the figure binaries run every
//!   cell through,
//! * [`storage`] — the §VI-D storage/complexity comparison.
//!
//! The substrates live in their own crates: synthetic server workloads
//! (`workloads`), branch predictors (`branch-pred`), BTB organisations
//! (`btb`), the instruction memory hierarchy (`cache`), the cycle-level
//! decoupled front-end simulator (`frontend`) and the prior-work prefetchers
//! (`prefetchers`).
//!
//! # Quick start
//!
//! ```
//! use boomerang::{Mechanism, RunLength, WorkloadData};
//! use sim_core::MicroarchConfig;
//! use workloads::WorkloadKind;
//!
//! // A short run of the Nutch-like workload on the Table I core.
//! let data = WorkloadData::generate(WorkloadKind::Nutch, RunLength::smoke_test());
//! let config = MicroarchConfig::hpca17();
//!
//! let baseline = data.run(Mechanism::Baseline, &config);
//! let boomerang = data.run(Mechanism::Boomerang(Default::default()), &config);
//!
//! // Boomerang eliminates front-end stalls and BTB-miss squashes, so it is
//! // at least as fast as the no-prefetch baseline.
//! assert!(boomerang.speedup_vs(&baseline) >= 1.0);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod dispatch;
pub mod experiment;
pub mod mechanism;
pub mod storage;

pub use dispatch::AnyMechanism;
pub use experiment::{Mechanism, RunLength, WorkloadData};
pub use mechanism::{Boomerang, ThrottlePolicy};

// Re-export the substrate crates so downstream users (and the examples) can
// reach every piece through a single dependency.
pub use branch_pred;
pub use btb;
pub use cache;
pub use frontend;
pub use prefetchers;
pub use sim_core;
pub use workloads;

impl Default for ThrottlePolicy {
    fn default() -> Self {
        ThrottlePolicy::PAPER_DEFAULT
    }
}
