//! Branch target buffer (BTB) organisations.
//!
//! Boomerang's key enabling structure is a *basic-block-oriented BTB*
//! (Yeh & Patt): entries are tagged by the starting address of a basic block
//! and describe the block's size and its terminating branch. Unlike a
//! conventional instruction-granular BTB — which cannot tell a non-branch
//! instruction apart from a missing entry — a BB-BTB lookup that fails is a
//! *genuine* BTB miss, which is what lets Boomerang detect and prefill misses.
//!
//! This crate provides:
//!
//! * [`BtbEntry`] — the contents of one entry,
//! * [`BasicBlockBtb`] — set-associative, basic-block-oriented BTB, the one
//!   organisation every mechanism's simulated core uses,
//! * [`BtbPrefetchBuffer`] — the small FIFO Boomerang uses to stage prefilled
//!   entries without polluting the BTB (§IV-B),
//! * [`storage`] — the §VI-D storage-cost model.
//!
//! # Example
//!
//! ```
//! use btb::{BasicBlockBtb, BtbEntry};
//! use sim_core::{Addr, BranchInfo, BranchKind};
//!
//! let mut btb = BasicBlockBtb::new(2048, 4);
//! let term = BranchInfo::direct(Addr::new(0x40101c), BranchKind::Call, Addr::new(0x600000));
//! btb.insert(BtbEntry::from_block(Addr::new(0x401000), 8, term));
//! assert!(btb.lookup(Addr::new(0x401000)).is_hit());
//! // A lookup of an unknown block start is a *genuine* miss.
//! assert!(!btb.lookup(Addr::new(0x402000)).is_hit());
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod basic_block;
pub mod prefetch_buffer;
pub mod storage;

pub use basic_block::BasicBlockBtb;
pub use prefetch_buffer::BtbPrefetchBuffer;

use sim_core::{Addr, BranchInfo, BranchKind};

/// The payload of a BTB entry: everything the branch prediction unit needs to
/// form the next fetch address once the entry's block is reached.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct BtbEntry {
    /// Start address of the basic block (the tag for a BB-BTB).
    pub block_start: Addr,
    /// Number of instructions in the block, including the branch.
    pub block_size: u64,
    /// Kind of the terminating branch.
    pub kind: BranchKind,
    /// Target of the terminating branch, when it is a direct branch. Indirect
    /// branches and returns store the last observed target (or `None` before
    /// the first observation).
    pub target: Option<Addr>,
}

impl BtbEntry {
    /// Builds an entry from a static block description.
    pub fn from_block(block_start: Addr, block_size: u64, terminator: BranchInfo) -> Self {
        BtbEntry {
            block_start,
            block_size,
            kind: terminator.kind,
            target: terminator.target,
        }
    }

    /// Address of the terminating branch instruction.
    pub fn branch_pc(&self) -> Addr {
        self.block_start
            .add_instructions(self.block_size.saturating_sub(1))
    }

    /// Fall-through address (the instruction after the block).
    pub fn fall_through(&self) -> Addr {
        self.block_start.add_instructions(self.block_size)
    }
}

/// Result of a BTB lookup.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum BtbLookup {
    /// The entry was found.
    Hit(BtbEntry),
    /// No entry for this address: with a basic-block BTB this is a genuine
    /// miss (the paper's trigger for a BTB miss probe).
    Miss,
}

impl BtbLookup {
    /// Returns the entry on a hit.
    pub fn entry(self) -> Option<BtbEntry> {
        match self {
            BtbLookup::Hit(e) => Some(e),
            BtbLookup::Miss => None,
        }
    }

    /// `true` on a hit.
    pub fn is_hit(self) -> bool {
        matches!(self, BtbLookup::Hit(_))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entry_geometry() {
        let term = BranchInfo::direct(
            Addr::new(0x101c),
            BranchKind::Conditional,
            Addr::new(0x2000),
        );
        let e = BtbEntry::from_block(Addr::new(0x1000), 8, term);
        assert_eq!(e.branch_pc(), Addr::new(0x101c));
        assert_eq!(e.fall_through(), Addr::new(0x1020));
        assert_eq!(e.target, Some(Addr::new(0x2000)));
        assert_eq!(e.kind, BranchKind::Conditional);
    }

    #[test]
    fn lookup_helpers() {
        let term = BranchInfo::indirect(Addr::new(0x1000), BranchKind::Return);
        let e = BtbEntry::from_block(Addr::new(0x1000), 1, term);
        assert!(BtbLookup::Hit(e).is_hit());
        assert_eq!(BtbLookup::Hit(e).entry(), Some(e));
        assert!(!BtbLookup::Miss.is_hit());
        assert_eq!(BtbLookup::Miss.entry(), None);
    }
}
