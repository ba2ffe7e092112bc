//! Dynamic control-flow trace generation.
//!
//! A [`TraceGenerator`] walks a [`CodeLayout`] the way the real workload's
//! threads walk their text segment: it starts at the dispatcher, follows
//! calls and returns through a bounded call stack, evaluates each conditional
//! branch's [`BranchBehavior`] with per-branch
//! state, and emits one [`DynamicBlock`] per executed basic block.
//!
//! The generator is deterministic for a given layout and seed, and the
//! resulting stream is *self-consistent*: consecutive records satisfy
//! `next.start() == prev.next_start()`, which the simulator relies on as its
//! oracle execution path.
//!
//! A [`Trace`] stores that path the way the layout already implies it: one
//! [`BlockId`] and one taken bit per executed block. Every other field of a
//! [`DynamicBlock`] — start, size, terminator, next pc — is read back through
//! the [`CodeLayout`] when [`Trace::block`] rebuilds the record.

use crate::layout::{BlockId, BranchBehavior, CodeLayout, ControlFlow};
use sim_core::rng::SimRng;
use sim_core::{Addr, BasicBlock, BranchOutcome, DynamicBlock};
use std::fmt;
use std::sync::OnceLock;

/// Streaming generator of the dynamic basic-block trace.
///
/// # Example
///
/// ```
/// use workloads::{CodeLayout, TraceGenerator, WorkloadProfile};
///
/// let profile = WorkloadProfile::tiny(42);
/// let layout = CodeLayout::generate(&profile);
/// let mut gen = TraceGenerator::new(&layout);
/// let trace: Vec<_> = gen.by_ref().take(1000).collect();
/// assert_eq!(trace.len(), 1000);
/// // The trace is a connected path through the code.
/// for pair in trace.windows(2) {
///     assert_eq!(pair[1].start(), pair[0].next_start());
/// }
/// ```
#[derive(Clone, Debug)]
pub struct TraceGenerator<'a> {
    layout: &'a CodeLayout,
    rng: SimRng,
    current: BlockId,
    call_stack: Vec<BlockId>,
    /// Per-static-block execution counts (loop positions, pattern phases),
    /// indexed by [`BlockId`]: a flat array instead of a hash map, since the
    /// lookup runs once per dynamic conditional branch.
    branch_executions: Box<[u32]>,
    instructions: u64,
    blocks_emitted: u64,
    elided_calls: u64,
    consecutive_jumps: u32,
    forced_redirects: u64,
    blocks_in_request: u32,
    blocks_in_activation: u32,
    exhausted_loops: u64,
}

/// Maximum number of consecutive unconditional jumps the generator follows
/// before treating the thread as stuck and redirecting it to the dispatcher
/// (the synthetic analogue of an OS re-schedule). Ordinary code never chains
/// this many unconditional jumps.
const MAX_CONSECUTIVE_JUMPS: u32 = 64;

/// Soft budget, in basic blocks, for a single "request": one trip from the
/// dispatcher into a service call tree and back. Once a request exceeds
/// this budget the generator stops re-entering backward loops and stops
/// descending into new callees, so control unwinds back to the dispatcher.
/// Randomly generated nested loops could otherwise multiply into dwell times
/// no real request-processing code exhibits, which would collapse the
/// instruction working set the workloads are meant to exercise.
const REQUEST_SOFT_BUDGET: u32 = 8_192;

/// Hard budget: if a request runs this long despite the soft unwinding, the
/// generator redirects to the dispatcher outright (the analogue of an OS
/// preemption at the end of a time slice).
const REQUEST_HARD_BUDGET: u32 = 4 * REQUEST_SOFT_BUDGET;

/// Soft cap on the number of basic blocks executed within a single function
/// activation (between call/return transfers). Beyond it, backward
/// conditional branches fall through, so randomly generated nested loops
/// cannot multiply into single-function dwell times that would collapse the
/// active instruction working set.
const ACTIVATION_SOFT_CAP: u32 = 256;

impl<'a> TraceGenerator<'a> {
    /// Creates a generator starting at the layout's dispatcher entry, seeded
    /// from the workload profile.
    pub fn new(layout: &'a CodeLayout) -> Self {
        Self::with_seed(layout, layout.profile().seed ^ 0x7261_6365_0000_0001)
    }

    /// Creates a generator with an explicit seed (useful for generating
    /// independent samples of the same workload).
    pub fn with_seed(layout: &'a CodeLayout, seed: u64) -> Self {
        TraceGenerator {
            layout,
            rng: SimRng::seeded(seed),
            current: layout.entry_block(),
            call_stack: Vec::with_capacity(layout.profile().max_call_depth + 1),
            branch_executions: vec![0; layout.blocks().len()].into_boxed_slice(),
            instructions: 0,
            blocks_emitted: 0,
            elided_calls: 0,
            consecutive_jumps: 0,
            forced_redirects: 0,
            blocks_in_request: 0,
            blocks_in_activation: 0,
            exhausted_loops: 0,
        }
    }

    /// Total instructions emitted so far.
    pub fn instructions(&self) -> u64 {
        self.instructions
    }

    /// Total basic blocks emitted so far.
    pub fn blocks_emitted(&self) -> u64 {
        self.blocks_emitted
    }

    /// Current call-stack depth.
    pub fn call_depth(&self) -> usize {
        self.call_stack.len()
    }

    /// Number of call sites elided because the call stack hit the profile's
    /// depth bound. Should stay a tiny fraction of all calls.
    pub fn elided_calls(&self) -> u64 {
        self.elided_calls
    }

    /// Number of times the generator redirected a stuck jump chain back to
    /// the dispatcher. Should be zero or near-zero for well-formed layouts.
    pub fn forced_redirects(&self) -> u64 {
        self.forced_redirects
    }

    /// Number of backward conditional branches forced to fall through because
    /// the current request exceeded its soft block budget.
    pub fn exhausted_loops(&self) -> u64 {
        self.exhausted_loops
    }

    /// `true` while the current request is over its soft budget and the
    /// generator is unwinding towards the dispatcher.
    fn over_soft_budget(&self) -> bool {
        self.blocks_in_request > REQUEST_SOFT_BUDGET
    }

    fn conditional_outcome(&mut self, id: BlockId, behavior: BranchBehavior) -> bool {
        let state = &mut self.branch_executions[id.0 as usize];
        let n = *state;
        *state = state.wrapping_add(1);
        match behavior {
            BranchBehavior::Biased { p_taken } | BranchBehavior::DataDependent { p_taken } => {
                self.rng.chance(p_taken)
            }
            BranchBehavior::Loop { trip_count } => (n % trip_count) != trip_count - 1,
            BranchBehavior::Pattern { period, bits } => {
                let pos = n % u32::from(period);
                (bits >> pos) & 1 == 1
            }
        }
    }

    /// Executes the current block: returns its id and whether its
    /// terminator was taken, and moves to the successor.
    fn advance(&mut self) -> (BlockId, bool) {
        let static_block = self.layout.block(self.current);
        let id = static_block.id;
        let flow = static_block.flow.clone();
        let max_depth = self.layout.profile().max_call_depth;

        self.blocks_in_request = self.blocks_in_request.saturating_add(1);
        self.blocks_in_activation = self.blocks_in_activation.saturating_add(1);
        let (taken, next) = match flow {
            ControlFlow::Conditional { taken, behavior } => {
                let mut is_taken = self.conditional_outcome(id, behavior);
                // Dwell valves: once a request or a single function
                // activation has run for an implausibly long time, stop
                // re-entering backward loops so control flows forward towards
                // a return.
                if is_taken
                    && (self.over_soft_budget() || self.blocks_in_activation > ACTIVATION_SOFT_CAP)
                    && self.layout.block(taken).start() <= static_block.branch_pc()
                {
                    is_taken = false;
                    self.exhausted_loops += 1;
                }
                if is_taken {
                    (true, taken)
                } else {
                    let ft = self
                        .layout
                        .fall_through(id)
                        .expect("conditional blocks always have a fall-through");
                    (false, ft)
                }
            }
            ControlFlow::Jump { target } => {
                self.consecutive_jumps += 1;
                (true, self.jump_or_redirect(target))
            }
            ControlFlow::IndirectJump { ref targets } => {
                self.consecutive_jumps += 1;
                let t = targets[self.rng.index(targets.len())];
                (true, self.jump_or_redirect(t))
            }
            ControlFlow::Call { callee } => self.do_call(id, callee, max_depth),
            ControlFlow::IndirectCall { ref callees } => {
                let callee = callees[self.rng.index(callees.len())];
                self.do_call(id, callee, max_depth)
            }
            ControlFlow::Return => {
                self.blocks_in_activation = 0;
                let next = self
                    .call_stack
                    .pop()
                    .unwrap_or_else(|| self.layout.entry_block());
                (true, next)
            }
        };
        if !matches!(
            self.layout.block(id).flow,
            ControlFlow::Jump { .. } | ControlFlow::IndirectJump { .. }
        ) {
            self.consecutive_jumps = 0;
        }

        // A new request starts whenever control is back at the dispatcher
        // level (empty call stack), or when the hard budget forces a
        // preemption-style redirect.
        let next = if self.blocks_in_request > REQUEST_HARD_BUDGET {
            self.forced_redirects += 1;
            self.call_stack.clear();
            self.layout.entry_block()
        } else {
            next
        };
        if self.call_stack.is_empty() || next == self.layout.entry_block() {
            self.blocks_in_request = 0;
        }

        self.instructions += static_block.block.instructions;
        self.blocks_emitted += 1;
        self.current = next;
        (id, taken)
    }

    /// Executes the current block and returns its dynamic record.
    fn step(&mut self) -> DynamicBlock {
        let (id, taken) = self.advance();
        let next_pc = self.layout.block(self.current).start();
        expand(self.layout.block(id).block, taken, next_pc)
    }

    /// Follows a jump target unless the generator has chained too many
    /// unconditional jumps, in which case it redirects to the dispatcher.
    fn jump_or_redirect(&mut self, target: BlockId) -> BlockId {
        if self.consecutive_jumps > MAX_CONSECUTIVE_JUMPS {
            self.consecutive_jumps = 0;
            self.forced_redirects += 1;
            self.call_stack.clear();
            self.layout.entry_block()
        } else {
            target
        }
    }

    fn do_call(
        &mut self,
        call_block: BlockId,
        callee: crate::layout::FunctionId,
        max_depth: usize,
    ) -> (bool, BlockId) {
        let return_to = self
            .layout
            .fall_through(call_block)
            .expect("call blocks always have a fall-through");
        if self.call_stack.len() >= max_depth || self.over_soft_budget() {
            // Depth bound reached, or the request is over budget and should
            // unwind: elide the call, as if the callee returned immediately.
            self.elided_calls += 1;
            return (false, return_to);
        }
        self.blocks_in_activation = 0;
        self.call_stack.push(return_to);
        let entry = self.layout.function(callee).entry;
        (true, entry)
    }
}

impl Iterator for TraceGenerator<'_> {
    type Item = DynamicBlock;

    fn next(&mut self) -> Option<Self::Item> {
        Some(self.step())
    }
}

/// The dynamic record of one executed block.
fn expand(block: BasicBlock, taken: bool, next_pc: Addr) -> DynamicBlock {
    DynamicBlock::new(block, BranchOutcome { taken, next_pc })
}

/// A generated trace: the oracle execution path handed to the simulator.
///
/// The path is stored as one [`BlockId`] per executed block plus a taken
/// bitset, the final block's successor pc and the instruction count —
/// about 4.1 bytes per block instead of a 64-byte [`DynamicBlock`]. The
/// trace keeps a handle on its [`CodeLayout`] (a pointer copy, see there),
/// and [`Trace::block`] rebuilds each record from it by value: the static
/// block, the stored taken bit, and the next block's start as `next_pc`.
///
/// The taken bit is stored, not derived: a block can be taken into its own
/// fall-through (mostly conditional branches, and some jumps, whose target
/// is the next block in layout order: 7–11% of a paper workload's dynamic
/// blocks), so "the successor is not the fall-through" does not recover it.
#[derive(Clone)]
pub struct Trace {
    layout: CodeLayout,
    ids: Box<[BlockId]>,
    /// Bit `i % 8` of byte `i / 8` is block `i`'s taken bit (the artifact
    /// codec's byte order); padding bits are zero.
    taken: Box<[u8]>,
    final_next_pc: Addr,
    instructions: u64,
    /// The expanded records, built on first call of [`Trace::blocks`].
    expanded: OnceLock<Box<[DynamicBlock]>>,
}

/// Append-only builder of a trace's id array and taken bitset.
struct TraceBuilder {
    ids: Vec<BlockId>,
    taken: Vec<u8>,
}

impl TraceBuilder {
    fn with_capacity(blocks: usize) -> Self {
        TraceBuilder {
            ids: Vec::with_capacity(blocks),
            taken: Vec::with_capacity(blocks.div_ceil(8)),
        }
    }

    fn push(&mut self, id: BlockId, taken: bool) {
        let i = self.ids.len();
        if i.is_multiple_of(8) {
            self.taken.push(0);
        }
        self.taken[i / 8] |= u8::from(taken) << (i % 8);
        self.ids.push(id);
    }

    fn finish(self, gen: &TraceGenerator<'_>) -> Trace {
        // An empty trace has no final block, so no successor: 0, as the
        // artifact codec stores it.
        let final_next_pc = if self.ids.is_empty() {
            Addr::new(0)
        } else {
            gen.layout.block(gen.current).start()
        };
        Trace {
            layout: gen.layout.clone(),
            ids: self.ids.into_boxed_slice(),
            taken: self.taken.into_boxed_slice(),
            final_next_pc,
            instructions: gen.instructions(),
            expanded: OnceLock::new(),
        }
    }
}

impl Trace {
    /// Generates a trace containing at least `min_instructions` instructions
    /// (and the block that crosses that boundary).
    pub fn generate(layout: &CodeLayout, min_instructions: u64) -> Self {
        let mut gen = TraceGenerator::new(layout);
        let mut out = TraceBuilder::with_capacity(0);
        while gen.instructions() < min_instructions {
            let (id, taken) = gen.advance();
            out.push(id, taken);
        }
        out.finish(&gen)
    }

    /// Generates a trace of exactly `num_blocks` basic blocks.
    pub fn generate_blocks(layout: &CodeLayout, num_blocks: usize) -> Self {
        let mut gen = TraceGenerator::new(layout);
        let mut out = TraceBuilder::with_capacity(num_blocks);
        for _ in 0..num_blocks {
            let (id, taken) = gen.advance();
            out.push(id, taken);
        }
        out.finish(&gen)
    }

    /// Reassembles a trace from its stored form (the artifact-cache decode
    /// path; see [`crate::codec`]). The caller has checked every id against
    /// `layout` and the instruction count against the ids; padding bits of
    /// `taken` are cleared here.
    pub(crate) fn from_stored(
        layout: &CodeLayout,
        ids: Box<[BlockId]>,
        mut taken: Box<[u8]>,
        final_next_pc: Addr,
        instructions: u64,
    ) -> Self {
        debug_assert_eq!(taken.len(), ids.len().div_ceil(8));
        if !ids.len().is_multiple_of(8) {
            if let Some(last) = taken.last_mut() {
                *last &= (1u8 << (ids.len() % 8)) - 1;
            }
        }
        Trace {
            layout: layout.clone(),
            ids,
            taken,
            final_next_pc,
            instructions,
            expanded: OnceLock::new(),
        }
    }

    /// The dynamic record of block `index`, rebuilt from the layout.
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.len()`.
    #[inline]
    pub fn block(&self, index: usize) -> DynamicBlock {
        let blocks = self.layout.blocks();
        let block = blocks[self.ids[index].0 as usize].block;
        let next_pc = match self.ids.get(index + 1) {
            Some(next) => blocks[next.0 as usize].block.start,
            None => self.final_next_pc,
        };
        // `index` is in range: the id lookup above checked it.
        let taken = self.taken[index / 8] >> (index % 8) & 1 == 1;
        expand(block, taken, next_pc)
    }

    /// The dynamic records in execution order, rebuilt one at a time.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = DynamicBlock> + '_ {
        (0..self.len()).map(move |i| self.block(i))
    }

    /// The executed block ids in execution order.
    pub(crate) fn ids(&self) -> &[BlockId] {
        &self.ids
    }

    /// The taken bitset: bit `i % 8` of byte `i / 8` is block `i`'s.
    pub(crate) fn taken_bits(&self) -> &[u8] {
        &self.taken
    }

    /// Start address of the block executed after the last one.
    pub(crate) fn final_next_pc(&self) -> Addr {
        self.final_next_pc
    }

    /// The layout the trace walks.
    pub fn layout(&self) -> &CodeLayout {
        &self.layout
    }

    /// The dynamic records as one slice, expanded to 64 bytes a block on
    /// first call and kept for the trace's lifetime.
    ///
    /// Only the slice-based benchmark replays and some tests use this; the
    /// simulator and the campaign paths read [`Trace::block`] through
    /// [`BlockSource`] and never expand a trace.
    pub fn blocks(&self) -> &[DynamicBlock] {
        self.expanded.get_or_init(|| self.iter().collect())
    }

    /// `true` once [`Trace::blocks`] has expanded this trace.
    pub fn is_expanded(&self) -> bool {
        self.expanded.get().is_some()
    }

    /// Total instruction count.
    pub fn instructions(&self) -> u64 {
        self.instructions
    }

    /// Number of dynamic basic blocks.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// `true` if the trace contains no blocks.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }
}

/// Traces are equal when they store the same path: ids, taken bits, final
/// successor and instruction count. The layouts are not compared.
impl PartialEq for Trace {
    fn eq(&self, other: &Self) -> bool {
        self.ids == other.ids
            && self.taken == other.taken
            && self.final_next_pc == other.final_next_pc
            && self.instructions == other.instructions
    }
}

impl fmt::Debug for Trace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Trace")
            .field("blocks", &self.len())
            .field("instructions", &self.instructions)
            .field("final_next_pc", &self.final_next_pc)
            .finish_non_exhaustive()
    }
}

/// Indexed read access to a dynamic block sequence: what the simulator
/// needs of its oracle path.
///
/// [`Trace`] is the implementation every run uses. The `[DynamicBlock]`
/// implementation serves callers that hold an expanded slice (the
/// benchmark's slice-based replays and some tests).
pub trait BlockSource {
    /// Number of dynamic blocks.
    fn len(&self) -> usize;

    /// `true` if there are no blocks.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The dynamic record of block `index`.
    fn block(&self, index: usize) -> DynamicBlock;

    /// Total instruction count of all blocks.
    fn instructions(&self) -> u64;
}

impl BlockSource for Trace {
    #[inline]
    fn len(&self) -> usize {
        self.ids.len()
    }

    #[inline]
    fn block(&self, index: usize) -> DynamicBlock {
        Trace::block(self, index)
    }

    fn instructions(&self) -> u64 {
        self.instructions
    }
}

impl BlockSource for [DynamicBlock] {
    #[inline]
    fn len(&self) -> usize {
        <[DynamicBlock]>::len(self)
    }

    #[inline]
    fn block(&self, index: usize) -> DynamicBlock {
        self[index]
    }

    fn instructions(&self) -> u64 {
        self.iter().map(DynamicBlock::instructions).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::{WorkloadKind, WorkloadProfile};
    use sim_core::BranchKind;

    fn tiny_layout() -> CodeLayout {
        CodeLayout::generate(&WorkloadProfile::tiny(21))
    }

    #[test]
    fn trace_is_deterministic() {
        let layout = tiny_layout();
        let a = Trace::generate_blocks(&layout, 5000);
        let b = Trace::generate_blocks(&layout, 5000);
        assert_eq!(a, b);
    }

    #[test]
    fn stored_trace_rebuilds_the_generator_sequence() {
        let layout = tiny_layout();
        let trace = Trace::generate_blocks(&layout, 20_000);
        let generated: Vec<DynamicBlock> = TraceGenerator::new(&layout).take(20_000).collect();
        assert_eq!(trace.len(), generated.len());
        let mut into_fall_through = 0;
        for (i, expected) in generated.iter().enumerate() {
            assert_eq!(trace.block(i), *expected, "block {i}");
            if expected.outcome.taken && expected.next_start() == expected.block.fall_through() {
                into_fall_through += 1;
            }
        }
        // The stored bit is what tells these apart from a fall-through.
        assert!(into_fall_through > 0);
        assert_eq!(
            trace.instructions(),
            generated
                .iter()
                .map(DynamicBlock::instructions)
                .sum::<u64>()
        );
        assert!(!trace.is_expanded());
        assert_eq!(trace.blocks(), &generated[..]);
        assert!(trace.is_expanded());
        // The instruction-budget constructor stores the same path.
        let budget = Trace::generate(&layout, trace.instructions());
        assert_eq!(budget, trace);
    }

    #[test]
    fn trace_is_a_connected_path() {
        let layout = tiny_layout();
        let trace = Trace::generate_blocks(&layout, 20_000);
        let blocks: Vec<_> = trace.iter().collect();
        for pair in blocks.windows(2) {
            assert_eq!(
                pair[1].start(),
                pair[0].next_start(),
                "consecutive dynamic blocks must be linked"
            );
        }
    }

    #[test]
    fn every_dynamic_block_exists_in_the_layout() {
        let layout = tiny_layout();
        let trace = Trace::generate_blocks(&layout, 10_000);
        for d in trace.iter() {
            let id = layout
                .block_at(d.start())
                .expect("dynamic block must exist statically");
            assert_eq!(layout.block(id).block, d.block);
        }
    }

    #[test]
    fn unconditional_branches_are_always_taken_in_the_trace() {
        let layout = tiny_layout();
        let trace = Trace::generate_blocks(&layout, 20_000);
        for d in trace.iter() {
            let kind = d.block.terminator.unwrap().kind;
            if kind.is_unconditional() && d.outcome.taken {
                continue;
            }
            if kind == BranchKind::Conditional {
                continue;
            }
            // The only allowed not-taken unconditional branches are elided
            // calls at the depth bound.
            assert!(
                kind.is_call() && !d.outcome.taken,
                "unexpected not-taken {kind} branch"
            );
        }
    }

    #[test]
    fn taken_conditionals_go_to_the_static_target() {
        let layout = tiny_layout();
        let trace = Trace::generate_blocks(&layout, 20_000);
        for d in trace.iter() {
            let term = d.block.terminator.unwrap();
            if term.kind == BranchKind::Conditional {
                if d.outcome.taken {
                    assert_eq!(Some(d.outcome.next_pc), term.target);
                } else {
                    assert_eq!(d.outcome.next_pc, d.block.fall_through());
                }
            }
        }
    }

    #[test]
    fn call_depth_stays_bounded_and_elisions_are_rare() {
        let layout = tiny_layout();
        let max_depth = layout.profile().max_call_depth;
        let mut gen = TraceGenerator::new(&layout);
        let mut calls = 0u64;
        for _ in 0..50_000 {
            let d = gen.step();
            assert!(gen.call_depth() <= max_depth);
            if d.block.terminator.unwrap().kind.is_call() {
                calls += 1;
            }
        }
        assert!(calls > 0);
        assert!(
            gen.elided_calls() * 10 < calls,
            "elided {} of {} calls",
            gen.elided_calls(),
            calls
        );
    }

    #[test]
    fn generate_by_instruction_budget() {
        let layout = tiny_layout();
        let trace = Trace::generate(&layout, 100_000);
        assert!(trace.instructions() >= 100_000);
        assert!(!trace.is_empty());
        assert_eq!(
            trace.instructions(),
            trace.iter().map(|b| b.instructions()).sum::<u64>()
        );
        let shorter = Trace::generate(&layout, 1);
        assert_eq!(shorter.len(), 1);
    }

    #[test]
    fn different_generator_seeds_produce_different_paths() {
        let layout = tiny_layout();
        let a: Vec<_> = TraceGenerator::with_seed(&layout, 1).take(2000).collect();
        let b: Vec<_> = TraceGenerator::with_seed(&layout, 2).take(2000).collect();
        assert_ne!(a, b);
    }

    #[test]
    fn trace_revisits_code_showing_temporal_reuse() {
        // Server workloads re-execute the same services over and over; the
        // trace must therefore revisit blocks, otherwise temporal-streaming
        // prefetchers (PIF/SHIFT) would have nothing to learn.
        let layout = tiny_layout();
        let trace = Trace::generate_blocks(&layout, 30_000);
        let distinct: std::collections::HashSet<_> = trace.iter().map(|b| b.start()).collect();
        assert!(distinct.len() < trace.len() / 2);
    }

    #[test]
    fn full_profile_trace_exercises_a_large_footprint() {
        let layout = CodeLayout::generate(&WorkloadKind::Nutch.profile());
        let trace = Trace::generate_blocks(&layout, 200_000);
        let geom = layout.geometry();
        let lines: std::collections::HashSet<_> =
            trace.iter().map(|b| geom.line_of(b.start())).collect();
        // The active footprint must far exceed the 512-line (32 KB) L1-I.
        assert!(
            lines.len() > 1200,
            "active footprint of {} lines is too small",
            lines.len()
        );
    }
}
