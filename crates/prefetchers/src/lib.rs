//! Instruction prefetchers and BTB prefillers evaluated against Boomerang.
//!
//! The paper compares Boomerang against five prior control-flow-delivery
//! mechanisms (§V-A); each is implemented here as a
//! [`ControlFlowMechanism`] plug-in for the
//! front-end simulator:
//!
//! * [`NextLine`] — next-N-line prefetcher,
//! * [`Dip`] — discontinuity prefetcher (8K-entry discontinuity table plus a
//!   next-2-line prefetcher),
//! * [`Fdip`] — fetch-directed instruction prefetching: the FTQ-scanning
//!   prefetch engine of §IV-A,
//! * [`Pif`] — proactive instruction fetch: retire-stream temporal streaming
//!   with private metadata,
//! * [`Shift`] — shared history instruction fetch: the same temporal
//!   streaming with the history virtualised into the LLC,
//! * [`Confluence`] — SHIFT plus predecode-driven BTB prefill.
//!
//! [`MechanismKind`] is the factory the experiment harness uses to build any
//! of them (plus the baseline) by name.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod confluence;
pub mod dip;
pub mod fdip;
pub mod next_line;
pub mod temporal;

pub use confluence::Confluence;
pub use dip::Dip;
pub use fdip::Fdip;
pub use next_line::NextLine;
pub use temporal::{Pif, Shift, TemporalStreamer};

use frontend::{ControlFlowMechanism, NoPrefetch};

/// Factory enum naming every mechanism of the paper's evaluation.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MechanismKind {
    /// No instruction prefetching and no BTB prefill.
    Baseline,
    /// Next-2-line prefetcher.
    NextLine,
    /// Discontinuity prefetcher + next-2-line.
    Dip,
    /// Fetch-directed instruction prefetching.
    Fdip,
    /// Proactive instruction fetch (private temporal streaming).
    Pif,
    /// Shared history instruction fetch (LLC-virtualised temporal streaming).
    Shift,
    /// Confluence: SHIFT + BTB prefill.
    Confluence,
}

impl MechanismKind {
    /// The six prefetching mechanisms of Figures 7-9, in presentation order
    /// (excluding Boomerang, which lives in the `boomerang` crate).
    pub const FIGURE7: [MechanismKind; 5] = [
        MechanismKind::NextLine,
        MechanismKind::Dip,
        MechanismKind::Fdip,
        MechanismKind::Shift,
        MechanismKind::Confluence,
    ];

    /// Builds the mechanism.
    pub fn build(self) -> Box<dyn ControlFlowMechanism> {
        match self {
            MechanismKind::Baseline => Box::new(NoPrefetch::new()),
            MechanismKind::NextLine => Box::new(NextLine::new(2)),
            MechanismKind::Dip => Box::new(Dip::new(8 * 1024, 2)),
            MechanismKind::Fdip => Box::new(Fdip::new()),
            MechanismKind::Pif => Box::new(Pif::new()),
            MechanismKind::Shift => Box::new(Shift::new()),
            MechanismKind::Confluence => Box::new(Confluence::new()),
        }
    }

    /// Display label used by the figures.
    pub const fn label(self) -> &'static str {
        match self {
            MechanismKind::Baseline => "Baseline",
            MechanismKind::NextLine => "Next Line",
            MechanismKind::Dip => "DIP",
            MechanismKind::Fdip => "FDIP",
            MechanismKind::Pif => "PIF",
            MechanismKind::Shift => "SHIFT",
            MechanismKind::Confluence => "Confluence",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factory_builds_every_mechanism() {
        for kind in [
            MechanismKind::Baseline,
            MechanismKind::NextLine,
            MechanismKind::Dip,
            MechanismKind::Fdip,
            MechanismKind::Pif,
            MechanismKind::Shift,
            MechanismKind::Confluence,
        ] {
            let m = kind.build();
            assert!(!m.name().is_empty());
            assert!(!kind.label().is_empty());
        }
        assert_eq!(MechanismKind::FIGURE7.len(), 5);
    }

    #[test]
    fn fetch_directed_flags() {
        assert!(MechanismKind::Fdip.build().is_fetch_directed());
        assert!(!MechanismKind::NextLine.build().is_fetch_directed());
        assert!(!MechanismKind::Shift.build().is_fetch_directed());
    }

    #[test]
    fn metadata_cost_ordering_matches_the_paper() {
        // §II/VI-D: temporal-streaming prefetchers carry hundreds of KB of
        // metadata; FDIP and next-line carry essentially none beyond the FTQ.
        let pif = MechanismKind::Pif.build().storage_overhead_bits();
        let shift = MechanismKind::Shift.build().storage_overhead_bits();
        let confluence = MechanismKind::Confluence.build().storage_overhead_bits();
        let fdip = MechanismKind::Fdip.build().storage_overhead_bits();
        let next_line = MechanismKind::NextLine.build().storage_overhead_bits();
        assert!(pif > 150 * 1024 * 8);
        assert!(shift > 150 * 1024 * 8);
        assert!(confluence >= shift);
        assert!(fdip < 4 * 1024 * 8);
        assert_eq!(next_line, 0);
    }
}
