//! Next-N-line prefetcher.
//!
//! On every demand fetch of line `L`, prefetch lines `L+1 .. L+N`. This is
//! the simplest baseline of the evaluation; it covers the sequential misses
//! that dominate the no-prefetch miss-cycle breakdown (Figure 3) but none of
//! the discontinuities.

use frontend::{ControlFlowMechanism, MechContext};
use sim_core::CacheLine;

/// Next-N-line instruction prefetcher (N = 2 in the paper's configuration).
#[derive(Clone, Copy, Debug)]
pub struct NextLine {
    degree: u64,
}

impl NextLine {
    /// Creates a prefetcher that prefetches the next `degree` lines.
    ///
    /// # Panics
    ///
    /// Panics if `degree` is zero.
    pub fn new(degree: u64) -> Self {
        assert!(degree > 0, "prefetch degree must be non-zero");
        NextLine { degree }
    }

    /// Prefetch degree.
    pub fn degree(&self) -> u64 {
        self.degree
    }
}

impl ControlFlowMechanism for NextLine {
    fn on_demand_fetch(
        &mut self,
        line: CacheLine,
        _previous_line: Option<CacheLine>,
        _missed: bool,
        ctx: &mut MechContext<'_>,
    ) {
        for i in 1..=self.degree {
            ctx.prefetch_line(line.step(i));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use frontend::Simulator;
    use sim_core::MicroarchConfig;
    use workloads::{CodeLayout, Trace, WorkloadProfile};

    #[test]
    fn construction_and_degree() {
        let p = NextLine::new(4);
        assert_eq!(p.degree(), 4);
        assert_eq!(p.storage_overhead_bits(), 0);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_degree_rejected() {
        let _ = NextLine::new(0);
    }

    #[test]
    fn next_line_reduces_stall_cycles_vs_baseline() {
        let layout = CodeLayout::generate(&WorkloadProfile::tiny(13));
        let trace = Trace::generate_blocks(&layout, 15_000);
        let baseline = Simulator::new(
            MicroarchConfig::hpca17(),
            &layout,
            &trace,
            Box::new(frontend::NoPrefetch::new()),
        )
        .run_with_warmup(1_000);
        let next_line = Simulator::new(
            MicroarchConfig::hpca17(),
            &layout,
            &trace,
            Box::new(NextLine::new(2)),
        )
        .run_with_warmup(1_000);
        assert!(
            next_line.fetch_stall_cycles < baseline.fetch_stall_cycles,
            "next-line ({}) must cover some of the baseline's stalls ({})",
            next_line.fetch_stall_cycles,
            baseline.fetch_stall_cycles
        );
        // Sequential misses are what it covers; it cannot fix BTB misses.
        assert_eq!(
            next_line.squashes.btb_miss > 0,
            baseline.squashes.btb_miss > 0
        );
    }
}
