//! Instruction prefetchers and BTB prefillers evaluated against Boomerang.
//!
//! The paper compares Boomerang against five prior control-flow-delivery
//! mechanisms (§V-A); each is implemented here as a
//! [`ControlFlowMechanism`](frontend::ControlFlowMechanism) plug-in for the
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

#[cfg(test)]
mod tests {
    use super::*;
    use frontend::ControlFlowMechanism;

    #[test]
    fn factory_builds_every_mechanism() {
        // Every mechanism starts with no queued work, so the simulator's idle
        // skip may jump from cycle 0.
        assert_eq!(NextLine::new(2).next_tick_event(), None);
        assert_eq!(Dip::new(8 * 1024, 2).next_tick_event(), None);
        assert_eq!(Fdip::new().next_tick_event(), None);
        assert_eq!(Pif::new().next_tick_event(), None);
        assert_eq!(Shift::new().next_tick_event(), None);
        assert_eq!(Confluence::new().next_tick_event(), None);
    }

    #[test]
    fn fetch_directed_flags() {
        assert!(Fdip::new().is_fetch_directed());
        assert!(!NextLine::new(2).is_fetch_directed());
        assert!(!Dip::new(8 * 1024, 2).is_fetch_directed());
        assert!(!Pif::new().is_fetch_directed());
        assert!(!Shift::new().is_fetch_directed());
        assert!(!Confluence::new().is_fetch_directed());
    }

    #[test]
    fn metadata_cost_ordering_matches_the_paper() {
        // §II/VI-D: temporal-streaming prefetchers carry hundreds of KB of
        // metadata; FDIP and next-line carry essentially none beyond the FTQ.
        let pif = Pif::new().storage_overhead_bits();
        let shift = Shift::new().storage_overhead_bits();
        let confluence = Confluence::new().storage_overhead_bits();
        let fdip = Fdip::new().storage_overhead_bits();
        let next_line = NextLine::new(2).storage_overhead_bits();
        assert!(pif > 150 * 1024 * 8);
        assert!(shift > 150 * 1024 * 8);
        assert!(confluence >= shift);
        assert!(fdip < 4 * 1024 * 8);
        assert_eq!(next_line, 0);
    }
}
