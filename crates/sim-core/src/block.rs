//! Basic blocks — the unit of prediction, fetch and trace generation.
//!
//! Following the paper (§IV-A, footnote 1), a *basic block* is a sequence of
//! straight-line instructions ending with a branch instruction. This is the
//! granularity at which the branch prediction unit operates, at which FTQ
//! entries are created, and at which the synthetic workload traces are
//! expressed.

use crate::addr::Addr;
use crate::branch::{BranchInfo, BranchOutcome};

/// Upper bound on the number of instructions in one basic block.
///
/// The basic-block BTB stores the block size in a 5-bit field (§VI-D of the
/// paper), so blocks are capped at 31 instructions; the workload generator
/// splits longer straight-line runs into multiple blocks, mirroring what a
/// real basic-block-oriented front end does.
pub const MAX_BASIC_BLOCK_INSTRUCTIONS: u64 = 31;

/// A static basic block: straight-line instructions terminated by a branch.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct BasicBlock {
    /// Address of the first instruction.
    pub start: Addr,
    /// Number of instructions in the block, including the terminating branch.
    pub instructions: u64,
    /// The terminating branch. `None` only for the synthetic "end of program"
    /// sentinel block.
    pub terminator: Option<BranchInfo>,
}

impl BasicBlock {
    /// Creates a block with a terminating branch.
    ///
    /// # Panics
    ///
    /// Panics if `instructions` is zero or exceeds
    /// [`MAX_BASIC_BLOCK_INSTRUCTIONS`], or if the terminator is not the last
    /// instruction of the block.
    pub fn new(start: Addr, instructions: u64, terminator: BranchInfo) -> Self {
        assert!(
            (1..=MAX_BASIC_BLOCK_INSTRUCTIONS).contains(&instructions),
            "basic block must have between 1 and {MAX_BASIC_BLOCK_INSTRUCTIONS} instructions, got {instructions}"
        );
        assert_eq!(
            terminator.pc,
            start.add_instructions(instructions - 1),
            "terminator must be the last instruction of the block"
        );
        BasicBlock {
            start,
            instructions,
            terminator: Some(terminator),
        }
    }

    /// Address of the last instruction (the branch, when present).
    pub fn last_instruction(&self) -> Addr {
        self.start
            .add_instructions(self.instructions.saturating_sub(1))
    }

    /// Address of the instruction immediately following the block.
    pub fn fall_through(&self) -> Addr {
        self.start.add_instructions(self.instructions)
    }

    /// Returns `true` if `pc` lies within the block.
    pub fn contains(&self, pc: Addr) -> bool {
        pc >= self.start && pc <= self.last_instruction()
    }
}

/// One dynamic execution of a basic block: the static block plus the outcome
/// of its terminating branch.
///
/// A workload trace is a sequence of `DynamicBlock`s; consecutive entries
/// satisfy `next.block.start == prev.outcome.next_pc`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct DynamicBlock {
    /// The static block that was executed.
    pub block: BasicBlock,
    /// What its terminating branch did.
    pub outcome: BranchOutcome,
}

impl DynamicBlock {
    /// Creates a dynamic block record.
    pub const fn new(block: BasicBlock, outcome: BranchOutcome) -> Self {
        DynamicBlock { block, outcome }
    }

    /// Start address of the executed block.
    pub const fn start(&self) -> Addr {
        self.block.start
    }

    /// Number of instructions executed (the whole block).
    pub const fn instructions(&self) -> u64 {
        self.block.instructions
    }

    /// Start address of the next block on the executed path.
    pub const fn next_start(&self) -> Addr {
        self.outcome.next_pc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::branch::BranchKind;

    fn sample_block() -> BasicBlock {
        let start = Addr::new(0x1000);
        let term = BranchInfo::direct(
            start.add_instructions(7),
            BranchKind::Conditional,
            Addr::new(0x2000),
        );
        BasicBlock::new(start, 8, term)
    }

    #[test]
    fn block_geometry() {
        let b = sample_block();
        assert_eq!(b.last_instruction(), Addr::new(0x1000 + 7 * 4));
        assert_eq!(b.fall_through(), Addr::new(0x1000 + 8 * 4));
        assert!(b.contains(Addr::new(0x1000)));
        assert!(b.contains(b.last_instruction()));
        assert!(!b.contains(b.fall_through()));
        assert!(!b.contains(Addr::new(0xfff)));
    }

    #[test]
    #[should_panic(expected = "terminator must be the last instruction")]
    fn misplaced_terminator_is_rejected() {
        let start = Addr::new(0x1000);
        let term = BranchInfo::direct(Addr::new(0x1000), BranchKind::DirectJump, Addr::new(0x2000));
        let _ = BasicBlock::new(start, 8, term);
    }

    #[test]
    #[should_panic(expected = "between 1 and")]
    fn oversized_block_is_rejected() {
        let start = Addr::new(0x1000);
        let term = BranchInfo::direct(
            start.add_instructions(63),
            BranchKind::DirectJump,
            Addr::new(0x2000),
        );
        let _ = BasicBlock::new(start, 64, term);
    }

    #[test]
    fn dynamic_block_links_to_next() {
        let b = sample_block();
        let taken = DynamicBlock::new(b, BranchOutcome::taken(Addr::new(0x2000)));
        assert_eq!(taken.next_start(), Addr::new(0x2000));
        assert_eq!(taken.instructions(), 8);
        assert_eq!(taken.start(), Addr::new(0x1000));

        let not_taken = DynamicBlock::new(b, BranchOutcome::not_taken(b.fall_through()));
        assert_eq!(not_taken.next_start(), b.fall_through());
    }
}
