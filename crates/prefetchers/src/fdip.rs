//! Fetch-directed instruction prefetching (FDIP, Reinman/Calder/Austin).
//!
//! FDIP is the branch-predictor-directed prefetcher Boomerang builds on
//! (§IV-A): the prefetch engine scans newly created FTQ entries, computes the
//! cache lines each basic block spans, and issues prefetch probes for them —
//! running arbitrarily far ahead of the fetch engine because probes need no
//! response. Under a BTB miss the branch prediction unit keeps enqueueing
//! sequential addresses (the simulator charges that time), so FDIP loses
//! coverage only on the unconditional discontinuities a small BTB fails to
//! capture.

use frontend::{ControlFlowMechanism, FtqEntry, MechContext};
use sim_core::CacheLine;
use std::collections::VecDeque;

/// The FDIP prefetch engine.
#[derive(Clone, Debug)]
pub struct Fdip {
    pending: VecDeque<CacheLine>,
    issued: u64,
}

impl Fdip {
    /// Creates the prefetch engine.
    pub fn new() -> Self {
        Fdip {
            pending: VecDeque::new(),
            issued: 0,
        }
    }

    /// Prefetch probes issued so far.
    pub fn issued(&self) -> u64 {
        self.issued
    }

    /// Lines waiting to be probed.
    pub fn pending(&self) -> usize {
        self.pending.len()
    }
}

impl Default for Fdip {
    fn default() -> Self {
        Fdip::new()
    }
}

impl ControlFlowMechanism for Fdip {
    fn is_fetch_directed(&self) -> bool {
        true
    }

    fn on_ftq_push(&mut self, entry: &FtqEntry, ctx: &mut MechContext<'_>) {
        // The prefetch engine works at cache-block granularity: one probe per
        // distinct line the basic block spans (§IV-A). The scan only
        // enqueues lines; the probes issue from `tick`.
        let geometry = ctx.layout.geometry();
        for line in geometry.lines_spanned(entry.start, entry.instructions) {
            if self.pending.back() != Some(&line) {
                self.pending.push_back(line);
            }
        }
    }

    fn tick(&mut self, ctx: &mut MechContext<'_>) {
        for _ in 0..ctx.config.prefetch_probes_per_cycle {
            let Some(line) = self.pending.pop_front() else {
                break;
            };
            ctx.prefetch_line(line);
            self.issued += 1;
        }
    }

    fn next_tick_event(&self) -> Option<u64> {
        // Queued probes issue on the very next tick; an empty queue stays
        // empty until the next FTQ push.
        (!self.pending.is_empty()).then_some(0)
    }

    fn on_squash(&mut self, _cause: frontend::SquashCause, _ctx: &mut MechContext<'_>) {
        // Prefetch probes for the squashed path are abandoned.
        self.pending.clear();
    }

    fn storage_overhead_bits(&self) -> u64 {
        // FDIP's only cost beyond the baseline is the deeper FTQ, charged in
        // the Boomerang/FDIP storage model (§VI-D); the pending-probe queue
        // models the FTQ scan pointer, not a real structure.
        btb::storage::ftq_bytes(32) * 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use frontend::{NoPrefetch, Simulator};
    use sim_core::MicroarchConfig;
    use workloads::{CodeLayout, Trace, WorkloadProfile};

    fn run<M: ControlFlowMechanism>(mechanism: M, btb_entries: u64) -> frontend::SimStats {
        let layout = CodeLayout::generate(&WorkloadProfile::tiny(41));
        let trace = Trace::generate_blocks(&layout, 20_000);
        Simulator::new(
            MicroarchConfig::hpca17().with_btb_entries(btb_entries),
            &layout,
            &trace,
            Box::new(mechanism),
        )
        .run_with_warmup(1_000)
    }

    #[test]
    fn fdip_covers_most_stall_cycles() {
        let baseline = run(NoPrefetch::new(), 2048);
        let fdip = run(Fdip::new(), 2048);
        let coverage = fdip.stall_coverage_vs(&baseline);
        assert!(
            coverage > 0.4,
            "FDIP should cover a large fraction of stalls, got {coverage:.2}"
        );
        assert!(fdip.speedup_vs(&baseline) > 1.0);
    }

    #[test]
    fn fdip_with_a_large_btb_squashes_less_and_runs_faster() {
        let baseline = run(NoPrefetch::new(), 2048);
        let small = run(Fdip::new(), 256);
        let large = run(Fdip::new(), 32 * 1024);
        assert!(large.squashes.btb_miss < small.squashes.btb_miss);
        assert!(
            large.cycles <= small.cycles,
            "a larger BTB must not slow FDIP down ({} vs {})",
            large.cycles,
            small.cycles
        );
        // Coverage stays in the same ballpark; the paper notes it can even
        // dip slightly because fewer squashes mean fewer wrong-path
        // prefetches that happen to land on the correct path (§VI-B).
        let delta = large.stall_coverage_vs(&baseline) - small.stall_coverage_vs(&baseline);
        assert!(
            delta > -0.25,
            "coverage collapsed with a larger BTB: {delta}"
        );
    }

    #[test]
    fn fdip_does_not_fix_btb_miss_squashes() {
        let baseline = run(NoPrefetch::new(), 2048);
        let fdip = run(Fdip::new(), 2048);
        // FDIP only prefetches instructions; BTB-miss squashes remain within
        // noise of the baseline.
        assert!(fdip.squashes.btb_miss > 0);
        let ratio = fdip.squashes.btb_miss as f64 / baseline.squashes.btb_miss.max(1) as f64;
        assert!(
            ratio > 0.5,
            "FDIP unexpectedly removed BTB-miss squashes ({ratio})"
        );
    }

    #[test]
    fn prefetch_engine_bookkeeping() {
        let fdip = Fdip::new();
        assert_eq!(fdip.pending(), 0);
        assert_eq!(fdip.issued(), 0);
        assert!(fdip.is_fetch_directed());
        assert!(fdip.storage_overhead_bits() > 0);
        let _ = Fdip::default();
    }
}
