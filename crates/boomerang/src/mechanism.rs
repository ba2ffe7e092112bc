//! The Boomerang control-flow-delivery mechanism (§IV of the paper).
//!
//! Boomerang = FDIP + BTB prefill, using only structures the core already
//! has:
//!
//! 1. **Instruction prefetching** is plain FDIP: the prefetch engine scans
//!    new FTQ entries and probes the L1-I for the lines they span.
//! 2. **BTB miss detection** comes for free from the basic-block BTB: a
//!    lookup that fails is a genuine miss.
//! 3. **BTB miss resolution**: the branch prediction unit halts, a *BTB miss
//!    probe* fetches the cache block containing the missing entry's start
//!    address (from the L1-I if present, otherwise from the LLC, prioritised
//!    over ordinary prefetch probes), a predecoder extracts the branches in
//!    the block, the entry terminating the missing basic block goes into the
//!    BTB and the remaining branches go into a 32-entry FIFO *BTB prefetch
//!    buffer*. If no branch follows the start address in the block, the probe
//!    moves to the next sequential block and repeats.
//! 4. **Throttled prefetch under a BTB miss** (§IV-C1): when the miss could
//!    not be filled from the L1-I, the next N sequential lines are prefetched
//!    so that a not-taken outcome does not lose prefetch opportunities; N = 2
//!    performs best (Figure 10).

use frontend::{BtbMissAction, ControlFlowMechanism, FtqEntry, MechContext, SquashCause};
use prefetchers::Fdip;
use sim_core::{Addr, DynamicBlock};

/// How many sequential cache lines Boomerang prefetches when a BTB miss
/// cannot be filled from the L1-I (§IV-C1, Figure 10).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ThrottlePolicy {
    /// Do not prefetch at all under a BTB miss.
    None,
    /// Prefetch the next `N` sequential lines.
    NextN(u64),
}

impl ThrottlePolicy {
    /// The paper's chosen configuration: next-2-blocks.
    pub const PAPER_DEFAULT: ThrottlePolicy = ThrottlePolicy::NextN(2);

    /// The policies swept by Figure 10.
    pub const FIGURE10: [ThrottlePolicy; 5] = [
        ThrottlePolicy::None,
        ThrottlePolicy::NextN(1),
        ThrottlePolicy::NextN(2),
        ThrottlePolicy::NextN(4),
        ThrottlePolicy::NextN(8),
    ];

    /// Number of lines prefetched under this policy.
    pub const fn degree(self) -> u64 {
        match self {
            ThrottlePolicy::None => 0,
            ThrottlePolicy::NextN(n) => n,
        }
    }

    /// Label used by Figure 10.
    pub fn label(self) -> String {
        match self {
            ThrottlePolicy::None => "None".to_string(),
            ThrottlePolicy::NextN(1) => "1 Block".to_string(),
            ThrottlePolicy::NextN(n) => format!("{n} Blocks"),
        }
    }
}

/// Maximum number of sequential cache blocks a single BTB miss probe walks
/// before giving up (step 3b of §IV-B repeats across blocks; branch-free runs
/// longer than this are practically nonexistent).
const MAX_PROBE_LINES: u64 = 8;

/// The Boomerang mechanism.
#[derive(Clone, Debug)]
pub struct Boomerang {
    prefetcher: Fdip,
    throttle: ThrottlePolicy,
    btb_miss_probes: u64,
    btb_prefills: u64,
    buffer_prefills: u64,
    throttled_prefetches: u64,
}

impl Boomerang {
    /// Creates Boomerang with the paper's default next-2-blocks throttle
    /// policy.
    pub fn new() -> Self {
        Self::with_throttle(ThrottlePolicy::PAPER_DEFAULT)
    }

    /// Creates Boomerang with an explicit throttle policy (Figure 10 sweep).
    pub fn with_throttle(throttle: ThrottlePolicy) -> Self {
        Boomerang {
            prefetcher: Fdip::new(),
            throttle,
            btb_miss_probes: 0,
            btb_prefills: 0,
            buffer_prefills: 0,
            throttled_prefetches: 0,
        }
    }

    /// The configured throttle policy.
    pub fn throttle(&self) -> ThrottlePolicy {
        self.throttle
    }

    /// BTB miss probes issued so far.
    pub fn btb_miss_probes(&self) -> u64 {
        self.btb_miss_probes
    }

    /// Missing BTB entries prefilled directly into the BTB.
    pub fn btb_prefills(&self) -> u64 {
        self.btb_prefills
    }

    /// Additional entries staged in the BTB prefetch buffer.
    pub fn buffer_prefills(&self) -> u64 {
        self.buffer_prefills
    }

    /// Sequential lines prefetched by the throttled next-N policy.
    pub fn throttled_prefetches(&self) -> u64 {
        self.throttled_prefetches
    }
}

impl Default for Boomerang {
    fn default() -> Self {
        Boomerang::new()
    }
}

impl ControlFlowMechanism for Boomerang {
    fn is_fetch_directed(&self) -> bool {
        true
    }

    fn on_ftq_push(&mut self, entry: &FtqEntry, ctx: &mut MechContext<'_>) {
        self.prefetcher.on_ftq_push(entry, ctx);
    }

    fn tick(&mut self, ctx: &mut MechContext<'_>) {
        self.prefetcher.tick(ctx);
    }

    fn next_tick_event(&self) -> Option<u64> {
        self.prefetcher.next_tick_event()
    }

    fn on_squash(&mut self, cause: SquashCause, ctx: &mut MechContext<'_>) {
        self.prefetcher.on_squash(cause, ctx);
    }

    fn on_commit(&mut self, _block: &DynamicBlock, _ctx: &mut MechContext<'_>) {}

    fn on_btb_miss(&mut self, fetch_addr: Addr, ctx: &mut MechContext<'_>) -> BtbMissAction {
        self.btb_miss_probes += 1;
        let geometry = ctx.layout.geometry();

        // The predecoder's result: the BTB entry that starts at `fetch_addr`
        // and terminates at the first branch at or after it.
        let resolving = ctx.predecode_block_at(fetch_addr);

        // Walk the cache blocks the probe has to fetch: from the block
        // containing the start address up to the block containing the
        // terminating branch (step 3b repeats over sequential blocks until a
        // branch is found). BTB miss probes are prioritised over ordinary
        // prefetch probes (§IV-C2), which the single-port model reflects by
        // issuing them immediately.
        let first_line = geometry.line_of(fetch_addr);
        let last_line = resolving
            .map(|e| geometry.line_of(e.branch_pc()))
            .unwrap_or(first_line);
        let lines_to_walk = last_line
            .0
            .saturating_sub(first_line.0)
            .min(MAX_PROBE_LINES);

        let was_in_l1 = ctx.hierarchy.present(first_line);
        let mut latency = 0;
        for i in 0..=lines_to_walk {
            let line = first_line.step(i);
            latency += ctx.hierarchy.btb_probe_fetch(line, ctx.now + latency);
            // Predecode every walked block: the entry resolving the miss goes
            // straight to the BTB, the other branches go to the BTB prefetch
            // buffer.
            for entry in frontend::predecode_line_iter(ctx.layout, line) {
                if entry.target.is_none() {
                    continue; // indirect targets cannot be predecoded
                }
                let resolves_miss = resolving
                    .map(|r| entry.branch_pc() == r.branch_pc())
                    .unwrap_or(false);
                if resolves_miss {
                    continue; // the resolving entry is inserted below
                }
                ctx.btb_prefetch_buffer.insert(entry);
                self.buffer_prefills += 1;
            }
        }

        if let Some(entry) = resolving {
            ctx.btb.insert(entry);
            self.btb_prefills += 1;
        }

        // Throttled next-N-block prefetch (§IV-C1): only when the miss was
        // not filled from the L1-I.
        if !was_in_l1 {
            for i in 1..=self.throttle.degree() {
                ctx.prefetch_line(last_line.step(i));
                self.throttled_prefetches += 1;
            }
        }

        BtbMissAction::StallUntil {
            ready_at: ctx.now + latency.max(1),
        }
    }

    fn storage_overhead_bits(&self) -> u64 {
        // §VI-D: a 32-entry FTQ (204 bytes) plus a 32-entry BTB prefetch
        // buffer (336 bytes) — 540 bytes in total.
        btb::storage::boomerang_additional_bytes(32, 32) * 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use frontend::{NoPrefetch, Simulator};
    use prefetchers::Confluence;
    use sim_core::MicroarchConfig;
    use workloads::{CodeLayout, Trace, WorkloadProfile};

    fn run<M: ControlFlowMechanism>(mechanism: M) -> frontend::SimStats {
        let layout = CodeLayout::generate(&WorkloadProfile::tiny(97));
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
    fn throttle_policy_labels_and_degrees() {
        assert_eq!(ThrottlePolicy::None.degree(), 0);
        assert_eq!(ThrottlePolicy::NextN(2).degree(), 2);
        assert_eq!(ThrottlePolicy::None.label(), "None");
        assert_eq!(ThrottlePolicy::NextN(1).label(), "1 Block");
        assert_eq!(ThrottlePolicy::NextN(4).label(), "4 Blocks");
        assert_eq!(ThrottlePolicy::FIGURE10.len(), 5);
        assert_eq!(ThrottlePolicy::PAPER_DEFAULT, ThrottlePolicy::NextN(2));
    }

    #[test]
    fn storage_overhead_is_540_bytes() {
        let b = Boomerang::new();
        assert_eq!(b.storage_overhead_bits() / 8, 540);
        assert!(b.is_fetch_directed());
        let _ = Boomerang::default();
    }

    #[test]
    fn boomerang_eliminates_most_btb_miss_squashes() {
        let baseline = run(NoPrefetch::new());
        let fdip = run(Fdip::new());
        let boomerang = run(Boomerang::new());
        assert!(baseline.squashes.btb_miss > 0);
        // The paper reports >85% of BTB-miss-induced squashes eliminated.
        assert!(
            (boomerang.squashes.btb_miss as f64) < 0.25 * (fdip.squashes.btb_miss as f64).max(1.0),
            "Boomerang {} vs FDIP {} BTB-miss squashes",
            boomerang.squashes.btb_miss,
            fdip.squashes.btb_miss
        );
    }

    #[test]
    fn boomerang_outperforms_fdip_and_the_baseline() {
        let baseline = run(NoPrefetch::new());
        let fdip = run(Fdip::new());
        let boomerang = run(Boomerang::new());
        assert!(boomerang.speedup_vs(&baseline) > 1.0);
        assert!(
            boomerang.cycles <= fdip.cycles,
            "Boomerang ({}) should not be slower than FDIP ({})",
            boomerang.cycles,
            fdip.cycles
        );
    }

    #[test]
    fn boomerang_matches_confluence_performance() {
        let confluence = run(Confluence::new());
        let boomerang = run(Boomerang::new());
        let ratio = boomerang.cycles as f64 / confluence.cycles as f64;
        assert!(
            (0.85..=1.15).contains(&ratio),
            "Boomerang should match Confluence within ~15% (cycle ratio {ratio:.3})"
        );
    }

    #[test]
    fn probes_and_prefills_are_counted() {
        let layout = CodeLayout::generate(&WorkloadProfile::tiny(97));
        let trace = Trace::generate_blocks(&layout, 10_000);
        let mut sim = Simulator::new(
            MicroarchConfig::hpca17(),
            &layout,
            &trace,
            Box::new(Boomerang::new()),
        );
        let stats = sim.run();
        // The tiny BTB must have missed at least once, so Boomerang probed.
        assert!(stats.btb_misses > 0);
    }
}
