//! The control-flow-delivery mechanism interface.
//!
//! Every scheme the paper compares — next-line, DIP, FDIP, PIF/SHIFT,
//! Confluence, Boomerang — plugs into the simulator through
//! [`ControlFlowMechanism`]. The simulator owns the shared front-end state
//! (BTB, BTB prefetch buffer, L1-I hierarchy, code layout) and exposes it to
//! the mechanism through [`MechContext`] at every hook.

use crate::ftq::{FtqEntry, SquashCause};
use btb::{BasicBlockBtb, BtbEntry, BtbPrefetchBuffer};
use cache::InstructionHierarchy;
use sim_core::{Addr, CacheLine, DynamicBlock, MicroarchConfig};
use workloads::{BlockId, CodeLayout};

/// What the branch prediction unit should do when it encounters a BTB miss.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum BtbMissAction {
    /// Keep feeding the FTQ along the sequential path, one instruction per
    /// cycle, until the next BTB hit (FDIP's policy, §V-A). The BPU charges
    /// one cycle per instruction of the missing block.
    ContinueSequential,
    /// Halt FTQ filling until the given cycle, by which time the mechanism
    /// has prefilled the missing entry (Boomerang's policy, §IV-B).
    StallUntil {
        /// Cycle at which the BTB miss is resolved and the BPU may retry.
        ready_at: u64,
    },
}

/// Shared front-end state handed to every mechanism hook.
pub struct MechContext<'a> {
    /// Current cycle.
    pub now: u64,
    /// Microarchitectural configuration.
    pub config: &'a MicroarchConfig,
    /// Static code layout (the predecoder's view of memory).
    pub layout: &'a CodeLayout,
    /// Instruction memory hierarchy (issue prefetch probes here).
    pub hierarchy: &'a mut InstructionHierarchy,
    /// The core's basic-block BTB.
    pub btb: &'a mut BasicBlockBtb,
    /// The BTB prefetch buffer (only Boomerang and Confluence write to it).
    pub btb_prefetch_buffer: &'a mut BtbPrefetchBuffer,
}

/// Predecodes the cache line in `layout`, yielding a BTB entry for every
/// branch it contains, in address order. Allocation-free: mechanisms that
/// predecode on the hot path (Confluence on every demand fetch, Boomerang on
/// every BTB miss probe) iterate this while mutating the rest of their
/// [`MechContext`].
pub fn predecode_line_iter(
    layout: &CodeLayout,
    line: CacheLine,
) -> impl Iterator<Item = BtbEntry> + '_ {
    layout.branches_in_line(line).map(move |id| {
        let b = layout.basic_block(BlockId(id));
        let branch = b.terminator.expect("layout blocks always end in a branch");
        BtbEntry::from_block(b.start, b.instructions, branch)
    })
}

impl MechContext<'_> {
    /// Issues an L1-I prefetch probe for `line` (§IV-A). Returns `true` if a
    /// fill was started.
    pub fn prefetch_line(&mut self, line: CacheLine) -> bool {
        self.hierarchy.prefetch_probe(line, self.now)
    }

    /// Predecodes the cache line containing `addr` and returns BTB entries
    /// for every *direct* branch it contains (indirect branches and returns
    /// carry no target in the instruction bytes, so no entry can be built for
    /// them — the same limitation real predecoders have).
    ///
    /// Hot paths should prefer the allocation-free [`predecode_line_iter`].
    pub fn predecode_line(&self, line: CacheLine) -> Vec<BtbEntry> {
        predecode_line_iter(self.layout, line).collect()
    }

    /// The first basic block whose terminating branch lies at or after
    /// `addr`, as a prefilled BTB entry — what Boomerang's predecoder derives
    /// while resolving a BTB miss for the block starting at `addr`.
    pub fn predecode_block_at(&self, addr: Addr) -> Option<BtbEntry> {
        let id = self.layout.next_branch_at_or_after(addr)?;
        let branch =
            (self.layout.basic_block(id).terminator).expect("layout blocks always end in a branch");
        // The missing BTB entry starts at `addr` and ends at the next branch.
        let size = (branch.pc.raw() - addr.raw()) / sim_core::INSTRUCTION_BYTES + 1;
        Some(BtbEntry {
            block_start: addr,
            block_size: size.clamp(1, sim_core::MAX_BASIC_BLOCK_INSTRUCTIONS),
            kind: branch.kind,
            target: branch.target,
        })
    }
}

/// A control-flow-delivery mechanism (instruction prefetcher and/or BTB
/// prefiller).
///
/// All hooks have default no-op implementations, so the no-prefetch baseline
/// is simply [`NoPrefetch`].
///
/// Every hook fires at its exact cycle, with `ctx.now` exact. The engine's
/// only obligation on a mechanism is a conservative
/// [`next_tick_event`](Self::next_tick_event), which the simulator's idle
/// skip relies on to jump over dead cycles.
pub trait ControlFlowMechanism {
    /// Called once per new FTQ entry (the prefetch engine's scan, §IV-A).
    fn on_ftq_push(&mut self, _entry: &FtqEntry, _ctx: &mut MechContext<'_>) {}

    /// Called for every cache line the fetch engine demand-fetches, before
    /// the access outcome is known. `missed` reports whether the access
    /// stalled (used by miss-triggered prefetchers such as DIP).
    fn on_demand_fetch(
        &mut self,
        _line: CacheLine,
        _previous_line: Option<CacheLine>,
        _missed: bool,
        _ctx: &mut MechContext<'_>,
    ) {
    }

    /// Called when a correct-path basic block commits (PIF and SHIFT build
    /// their temporal history from the retire stream).
    fn on_commit(&mut self, _block: &DynamicBlock, _ctx: &mut MechContext<'_>) {}

    /// Called when the BPU misses in the BTB for the block starting at
    /// `fetch_addr`; `taken_hint` is `None` (mechanisms must not peek at the
    /// oracle outcome).
    fn on_btb_miss(&mut self, _fetch_addr: Addr, _ctx: &mut MechContext<'_>) -> BtbMissAction {
        BtbMissAction::ContinueSequential
    }

    /// Called once per simulated cycle.
    fn tick(&mut self, _ctx: &mut MechContext<'_>) {}

    /// The earliest cycle at which [`ControlFlowMechanism::tick`] would do
    /// any work, given that no other hook runs first.
    ///
    /// * `None` — `tick` is a no-op until some other hook (`on_ftq_push`,
    ///   `on_demand_fetch`, `on_commit`, `on_btb_miss`, `on_squash`) mutates
    ///   the mechanism. This is the default for mechanisms with an empty
    ///   `tick`.
    /// * `Some(t)` — `tick` is a no-op at every cycle strictly before `t`
    ///   (mechanisms with queued work that becomes ready at `t`; `Some(0)`
    ///   means "work is ready right now").
    ///
    /// The simulator's idle skip uses this to bulk-advance over cycles where
    /// every unit is provably idle; an implementation that under-reports
    /// (claims idleness while `tick` would mutate state) breaks the
    /// bit-identical-statistics guarantee, so implementations must be
    /// conservative.
    fn next_tick_event(&self) -> Option<u64> {
        None
    }

    /// Called when the pipeline squashes.
    fn on_squash(&mut self, _cause: SquashCause, _ctx: &mut MechContext<'_>) {}

    /// Metadata storage this mechanism adds beyond the baseline core, in bits
    /// (§VI-D).
    fn storage_overhead_bits(&self) -> u64 {
        0
    }

    /// `true` if the mechanism scans the FTQ to generate prefetches
    /// (FDIP-family). Such mechanisms also benefit from the simulator's
    /// wrong-path sequential prefetch emulation while a squash is pending.
    fn is_fetch_directed(&self) -> bool {
        false
    }
}

/// The no-prefetch baseline: a conventional front end with no instruction
/// prefetcher and no BTB prefill.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoPrefetch;

impl NoPrefetch {
    /// Creates the baseline mechanism.
    pub const fn new() -> Self {
        NoPrefetch
    }
}

impl ControlFlowMechanism for NoPrefetch {}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::WorkloadProfile;

    #[test]
    fn no_prefetch_defaults() {
        let mut m = NoPrefetch::new();
        assert_eq!(m.storage_overhead_bits(), 0);
        assert!(!m.is_fetch_directed());

        let config = MicroarchConfig::hpca17();
        let layout = CodeLayout::generate(&WorkloadProfile::tiny(5));
        let mut hierarchy = InstructionHierarchy::new(&config);
        let mut btb = BasicBlockBtb::new(config.btb_entries, config.btb_ways);
        let mut buffer = BtbPrefetchBuffer::new(config.btb_prefetch_buffer_entries);
        let mut ctx = MechContext {
            now: 0,
            config: &config,
            layout: &layout,
            hierarchy: &mut hierarchy,
            btb: &mut btb,
            btb_prefetch_buffer: &mut buffer,
        };
        // Default hooks are no-ops and the default BTB-miss policy is FDIP's.
        assert_eq!(
            m.on_btb_miss(Addr::new(0x40_0000), &mut ctx),
            BtbMissAction::ContinueSequential
        );
        m.tick(&mut ctx);
        m.on_squash(SquashCause::BtbMiss, &mut ctx);
    }

    #[test]
    fn predecode_matches_layout() {
        let config = MicroarchConfig::hpca17();
        let layout = CodeLayout::generate(&WorkloadProfile::tiny(5));
        let mut hierarchy = InstructionHierarchy::new(&config);
        let mut btb = BasicBlockBtb::new(config.btb_entries, config.btb_ways);
        let mut buffer = BtbPrefetchBuffer::new(config.btb_prefetch_buffer_entries);
        let ctx = MechContext {
            now: 0,
            config: &config,
            layout: &layout,
            hierarchy: &mut hierarchy,
            btb: &mut btb,
            btb_prefetch_buffer: &mut buffer,
        };

        // Predecoding the line of a known block's branch must include an
        // entry whose branch PC matches.
        let sb = layout.block(BlockId(3));
        let line = layout.geometry().line_of(sb.branch_pc());
        let entries = ctx.predecode_line(line);
        assert!(entries.iter().any(|e| e.branch_pc() == sb.branch_pc()));

        // predecode_block_at from the block's start reconstructs the block.
        let e = ctx.predecode_block_at(sb.start()).unwrap();
        assert_eq!(e.block_start, sb.start());
        assert_eq!(e.block_size, sb.block.instructions);
        assert_eq!(e.kind, sb.terminator().kind);

        // From the middle of the block the entry is shorter but ends at the
        // same branch.
        if sb.block.instructions > 1 {
            let mid = sb.start().add_instructions(1);
            let e2 = ctx.predecode_block_at(mid).unwrap();
            assert_eq!(e2.block_start, mid);
            assert_eq!(e2.branch_pc(), sb.branch_pc());
        }
    }
}
