//! The abstract branch model.
//!
//! Boomerang's logic depends only on *branch kinds* (conditional vs.
//! unconditional, call/return vs. plain jump), targets and cache-block
//! geometry. This module defines those kinds together with
//! [`BranchInfo`], the static description of a branch embedded in a basic
//! block, and [`BranchOutcome`], one dynamic execution of it.

use crate::addr::Addr;
use std::fmt;

/// Classification of control-flow instructions.
///
/// The paper groups discontinuities into *conditional* and *unconditional*
/// (which includes calls and returns); [`BranchKind::is_unconditional`]
/// reflects that grouping.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum BranchKind {
    /// Conditional direct branch; needs the direction predictor.
    Conditional,
    /// Unconditional direct jump.
    DirectJump,
    /// Unconditional indirect jump (target from a register).
    IndirectJump,
    /// Direct function call; pushes a return address.
    Call,
    /// Indirect function call.
    IndirectCall,
    /// Function return; target comes from the return address stack.
    Return,
}

impl BranchKind {
    /// All branch kinds, in a stable order (useful for statistics tables).
    pub const ALL: [BranchKind; 6] = [
        BranchKind::Conditional,
        BranchKind::DirectJump,
        BranchKind::IndirectJump,
        BranchKind::Call,
        BranchKind::IndirectCall,
        BranchKind::Return,
    ];

    /// `true` for every kind except [`BranchKind::Conditional`].
    pub const fn is_unconditional(self) -> bool {
        !matches!(self, BranchKind::Conditional)
    }

    /// `true` if the branch is always taken when executed.
    pub const fn is_always_taken(self) -> bool {
        self.is_unconditional()
    }

    /// `true` for calls (direct or indirect).
    pub const fn is_call(self) -> bool {
        matches!(self, BranchKind::Call | BranchKind::IndirectCall)
    }

    /// `true` for returns.
    pub const fn is_return(self) -> bool {
        matches!(self, BranchKind::Return)
    }

    /// `true` if the target cannot be encoded in the instruction (indirect
    /// branches and returns); such targets cannot be recovered by predecoding
    /// a cache block, which matters for Confluence- and Boomerang-style BTB
    /// prefill.
    pub const fn target_is_indirect(self) -> bool {
        matches!(
            self,
            BranchKind::IndirectJump | BranchKind::IndirectCall | BranchKind::Return
        )
    }

    /// Short lowercase label used in reports.
    pub const fn label(self) -> &'static str {
        match self {
            BranchKind::Conditional => "conditional",
            BranchKind::DirectJump => "jump",
            BranchKind::IndirectJump => "indirect-jump",
            BranchKind::Call => "call",
            BranchKind::IndirectCall => "indirect-call",
            BranchKind::Return => "return",
        }
    }
}

impl fmt::Display for BranchKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Static description of the branch terminating a basic block.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct BranchInfo {
    /// Address of the branch instruction itself.
    pub pc: Addr,
    /// Kind of branch.
    pub kind: BranchKind,
    /// Statically encoded target, if the branch is direct.
    ///
    /// Indirect branches and returns have `None`: their target is only known
    /// dynamically, which is why a predecoder cannot prefill BTB entries for
    /// them.
    pub target: Option<Addr>,
}

impl BranchInfo {
    /// Creates a direct branch description.
    pub const fn direct(pc: Addr, kind: BranchKind, target: Addr) -> Self {
        BranchInfo {
            pc,
            kind,
            target: Some(target),
        }
    }

    /// Creates an indirect branch (or return) description.
    pub const fn indirect(pc: Addr, kind: BranchKind) -> Self {
        BranchInfo {
            pc,
            kind,
            target: None,
        }
    }

    /// The fall-through address (the instruction after the branch).
    pub const fn fall_through(&self) -> Addr {
        self.pc.add_instructions(1)
    }
}

/// One dynamic execution of a branch: whether it was taken and where it
/// actually went.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct BranchOutcome {
    /// Was the branch taken?
    pub taken: bool,
    /// The next instruction executed after the branch (target if taken,
    /// fall-through otherwise).
    pub next_pc: Addr,
}

impl BranchOutcome {
    /// A taken branch going to `target`.
    pub const fn taken(target: Addr) -> Self {
        BranchOutcome {
            taken: true,
            next_pc: target,
        }
    }

    /// A not-taken branch falling through to `fall_through`.
    pub const fn not_taken(fall_through: Addr) -> Self {
        BranchOutcome {
            taken: false,
            next_pc: fall_through,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_classification() {
        assert!(!BranchKind::Conditional.is_unconditional());
        assert!(BranchKind::DirectJump.is_unconditional());
        assert!(BranchKind::Call.is_call());
        assert!(BranchKind::IndirectCall.is_call());
        assert!(!BranchKind::Return.is_call());
        assert!(BranchKind::Return.is_return());
        assert!(BranchKind::Return.target_is_indirect());
        assert!(BranchKind::IndirectJump.target_is_indirect());
        assert!(!BranchKind::DirectJump.target_is_indirect());
    }

    #[test]
    fn every_unconditional_kind_is_always_taken() {
        for kind in BranchKind::ALL {
            assert_eq!(kind.is_always_taken(), kind.is_unconditional());
        }
    }

    #[test]
    fn labels_are_unique_and_lowercase() {
        let mut labels: Vec<_> = BranchKind::ALL.iter().map(|k| k.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), BranchKind::ALL.len());
        for l in labels {
            assert_eq!(l, l.to_lowercase());
        }
        assert_eq!(BranchKind::Conditional.to_string(), "conditional");
    }

    #[test]
    fn branch_info_construction() {
        let b = BranchInfo::direct(Addr::new(0x100), BranchKind::Conditional, Addr::new(0x200));
        assert_eq!(b.target, Some(Addr::new(0x200)));
        assert_eq!(b.fall_through(), Addr::new(0x104));

        let r = BranchInfo::indirect(Addr::new(0x300), BranchKind::Return);
        assert_eq!(r.target, None);
        assert_eq!(r.fall_through(), Addr::new(0x304));
    }

    #[test]
    fn outcome_constructors() {
        let t = BranchOutcome::taken(Addr::new(0x500));
        assert!(t.taken);
        assert_eq!(t.next_pc, Addr::new(0x500));
        let nt = BranchOutcome::not_taken(Addr::new(0x104));
        assert!(!nt.taken);
        assert_eq!(nt.next_pc, Addr::new(0x104));
    }
}
