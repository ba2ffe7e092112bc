//! Static dispatch over the evaluation's mechanism set.
//!
//! [`AnyMechanism`] is the closed enum of every concrete
//! [`ControlFlowMechanism`] the experiment harness can run, built by
//! [`Mechanism::build_any`](crate::Mechanism::build_any). The front-end
//! simulator is generic over its mechanism type
//! (`Simulator<'a, M: ControlFlowMechanism>`), and every run instantiates it
//! with `AnyMechanism`: each hook call on the hot path — `tick` and
//! `next_tick_event` every engine iteration,
//! `on_ftq_push`/`on_demand_fetch`/`on_commit` several times per block — is
//! one perfectly predicted match (the variant is constant for a whole run)
//! followed by a direct, inlinable call, so the many empty hooks cost
//! nothing.

use crate::mechanism::Boomerang;
use frontend::{
    BtbMissAction, ControlFlowMechanism, FtqEntry, MechContext, NoPrefetch, SquashCause,
};
use prefetchers::{Confluence, Dip, Fdip, NextLine, Pif, Shift};
use sim_core::{Addr, CacheLine, DynamicBlock};

/// One concrete mechanism of the evaluation, dispatched statically.
#[derive(Clone, Debug)]
pub enum AnyMechanism {
    /// No prefetching, no BTB prefill.
    Baseline(NoPrefetch),
    /// Next-2-line prefetcher.
    NextLine(NextLine),
    /// Discontinuity prefetcher + next-2-line.
    Dip(Dip),
    /// Fetch-directed instruction prefetching.
    Fdip(Fdip),
    /// Proactive instruction fetch.
    Pif(Pif),
    /// Shared history instruction fetch.
    Shift(Shift),
    /// Confluence (SHIFT + BTB prefill).
    Confluence(Confluence),
    /// Boomerang (any throttle policy).
    Boomerang(Boomerang),
}

/// Delegates one method body to the active variant.
macro_rules! dispatch {
    ($self:expr, $inner:ident => $body:expr) => {
        match $self {
            AnyMechanism::Baseline($inner) => $body,
            AnyMechanism::NextLine($inner) => $body,
            AnyMechanism::Dip($inner) => $body,
            AnyMechanism::Fdip($inner) => $body,
            AnyMechanism::Pif($inner) => $body,
            AnyMechanism::Shift($inner) => $body,
            AnyMechanism::Confluence($inner) => $body,
            AnyMechanism::Boomerang($inner) => $body,
        }
    };
}

impl ControlFlowMechanism for AnyMechanism {
    #[inline]
    fn on_ftq_push(&mut self, entry: &FtqEntry, ctx: &mut MechContext<'_>) {
        dispatch!(self, m => m.on_ftq_push(entry, ctx))
    }

    #[inline]
    fn on_demand_fetch(
        &mut self,
        line: CacheLine,
        previous_line: Option<CacheLine>,
        missed: bool,
        ctx: &mut MechContext<'_>,
    ) {
        dispatch!(self, m => m.on_demand_fetch(line, previous_line, missed, ctx))
    }

    #[inline]
    fn on_commit(&mut self, block: &DynamicBlock, ctx: &mut MechContext<'_>) {
        dispatch!(self, m => m.on_commit(block, ctx))
    }

    #[inline]
    fn on_btb_miss(&mut self, fetch_addr: Addr, ctx: &mut MechContext<'_>) -> BtbMissAction {
        dispatch!(self, m => m.on_btb_miss(fetch_addr, ctx))
    }

    #[inline]
    fn tick(&mut self, ctx: &mut MechContext<'_>) {
        dispatch!(self, m => m.tick(ctx))
    }

    #[inline]
    fn next_tick_event(&self) -> Option<u64> {
        dispatch!(self, m => m.next_tick_event())
    }

    #[inline]
    fn on_squash(&mut self, cause: SquashCause, ctx: &mut MechContext<'_>) {
        dispatch!(self, m => m.on_squash(cause, ctx))
    }

    fn storage_overhead_bits(&self) -> u64 {
        dispatch!(self, m => m.storage_overhead_bits())
    }

    #[inline]
    fn is_fetch_directed(&self) -> bool {
        dispatch!(self, m => m.is_fetch_directed())
    }
}
