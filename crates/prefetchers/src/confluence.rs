//! Confluence: unified instruction supply (Kaynak et al., MICRO 2015).
//!
//! Confluence is the state-of-the-art Boomerang compares against: it reuses
//! SHIFT's LLC-virtualised temporal-streaming instruction prefetcher and, as
//! prefetched cache blocks arrive, predecodes them and inserts BTB entries
//! for the branches they contain — so a single prefetcher feeds both the
//! L1-I and the BTB. Its weakness (§VI-A) is that the BTB is only as good as
//! the prefetcher: when a prefetch is wrong or late, the corresponding
//! branches are absent from the BTB and the front end runs off a cliff
//! without even knowing it missed.

use crate::temporal::TemporalStreamer;
use frontend::{ControlFlowMechanism, MechContext};
use sim_core::{CacheLine, DynamicBlock, Latency};

/// Confluence: SHIFT + predecode-driven BTB prefill.
#[derive(Clone, Debug)]
pub struct Confluence {
    streamer: TemporalStreamer,
    btb_prefills: u64,
}

impl Confluence {
    /// Creates Confluence with SHIFT's prefetcher configuration.
    pub fn new() -> Self {
        let llc_latency: Latency = sim_core::MicroarchConfig::hpca17().llc_round_trip();
        Confluence {
            streamer: TemporalStreamer::new(32 * 1024, 8 * 1024, 12, llc_latency),
            btb_prefills: 0,
        }
    }

    /// BTB entries prefilled from predecoded blocks so far.
    pub fn btb_prefills(&self) -> u64 {
        self.btb_prefills
    }

    /// Predecodes `line` and inserts BTB entries for its direct branches.
    fn prefill_btb(&mut self, line: CacheLine, ctx: &mut MechContext<'_>) {
        for entry in frontend::predecode_line_iter(ctx.layout, line) {
            // Only direct branches carry their target in the cache block;
            // indirect branches and returns cannot be prefilled (§II-C).
            if entry.target.is_some() {
                ctx.btb.insert(entry);
                self.btb_prefills += 1;
            }
        }
    }
}

impl Default for Confluence {
    fn default() -> Self {
        Confluence::new()
    }
}

impl ControlFlowMechanism for Confluence {
    fn on_commit(&mut self, block: &DynamicBlock, ctx: &mut MechContext<'_>) {
        let geometry = ctx.layout.geometry();
        for line in geometry.lines_spanned(block.start(), block.instructions()) {
            self.streamer.record(line);
        }
    }

    fn on_demand_fetch(
        &mut self,
        line: CacheLine,
        _previous_line: Option<CacheLine>,
        missed: bool,
        ctx: &mut MechContext<'_>,
    ) {
        // Every block arriving at the L1-I is predecoded into the BTB,
        // whether it came from a prefetch or a demand fill.
        self.prefill_btb(line, ctx);
        if missed {
            self.streamer.stream_from(line, ctx.now);
        }
    }

    fn tick(&mut self, ctx: &mut MechContext<'_>) {
        let budget = ctx.config.prefetch_probes_per_cycle;
        // Issue the pending stream prefetches, predecoding each prefetched
        // block into the BTB as it goes out.
        for _ in 0..budget {
            match self.streamer.issue_one(ctx) {
                Some(line) => self.prefill_btb(line, ctx),
                None => break,
            }
        }
    }

    fn next_tick_event(&self) -> Option<u64> {
        self.streamer.next_pending_ready()
    }

    fn storage_overhead_bits(&self) -> u64 {
        // Same dedicated cost as SHIFT (the LLC tag-array extension for the
        // index table); the BTB prefill logic itself adds no metadata.
        240 * 1024 * 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use frontend::{NoPrefetch, Simulator};
    use sim_core::MicroarchConfig;
    use workloads::{CodeLayout, Trace, WorkloadProfile};

    fn run<M: ControlFlowMechanism>(mechanism: M) -> frontend::SimStats {
        let layout = CodeLayout::generate(&WorkloadProfile::tiny(61));
        let trace = Trace::generate_blocks(&layout, 25_000);
        Simulator::new(
            MicroarchConfig::hpca17(),
            &layout,
            &trace,
            Box::new(mechanism),
        )
        .run_with_warmup(2_000)
    }

    #[test]
    fn confluence_reduces_btb_miss_squashes_vs_shift() {
        let shift = run(crate::Shift::new());
        let confluence = run(Confluence::new());
        assert!(
            confluence.squashes.btb_miss < shift.squashes.btb_miss,
            "Confluence ({}) must prefill BTB misses that SHIFT ({}) suffers",
            confluence.squashes.btb_miss,
            shift.squashes.btb_miss
        );
    }

    #[test]
    fn confluence_outperforms_the_baseline() {
        let baseline = run(NoPrefetch::new());
        let confluence = run(Confluence::new());
        assert!(confluence.fetch_stall_cycles < baseline.fetch_stall_cycles);
        assert!(confluence.speedup_vs(&baseline) > 1.0);
    }

    #[test]
    fn bookkeeping() {
        let c = Confluence::new();
        assert_eq!(c.btb_prefills(), 0);
        assert_eq!(c.storage_overhead_bits(), 240 * 1024 * 8);
        let _ = Confluence::default();
    }
}
