//! Experiment harness: the API the examples and the benchmark binaries use to
//! regenerate the paper's tables and figures.
//!
//! The harness fixes the three ingredients of every experiment — a workload
//! ([`WorkloadData`]), a control-flow-delivery mechanism ([`Mechanism`]) and a
//! microarchitectural configuration — and runs the front-end simulator over
//! them. Matrices of such cells run in parallel through the `campaign`
//! crate.

use crate::dispatch::AnyMechanism;
use crate::mechanism::{Boomerang, ThrottlePolicy};
use branch_pred::PredictorKind;
use frontend::{ControlFlowMechanism, SimEngine, SimStats, Simulator};
use sim_core::MicroarchConfig;
use workloads::{CodeLayout, Trace, WorkloadKind};

/// Every control-flow-delivery mechanism of the evaluation, including
/// Boomerang itself.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Mechanism {
    /// No prefetching, no BTB prefill.
    Baseline,
    /// Next-2-line prefetcher.
    NextLine,
    /// Discontinuity prefetcher + next-2-line.
    Dip,
    /// Fetch-directed instruction prefetching.
    Fdip,
    /// Proactive instruction fetch.
    Pif,
    /// Shared history instruction fetch.
    Shift,
    /// Confluence (SHIFT + BTB prefill).
    Confluence,
    /// Boomerang with the given throttle policy.
    Boomerang(ThrottlePolicy),
}

impl Mechanism {
    /// The six mechanisms of Figures 7, 8 and 9, in presentation order.
    pub const FIGURE7: [Mechanism; 6] = [
        Mechanism::NextLine,
        Mechanism::Dip,
        Mechanism::Fdip,
        Mechanism::Shift,
        Mechanism::Confluence,
        Mechanism::Boomerang(ThrottlePolicy::PAPER_DEFAULT),
    ];

    /// The five mechanisms of Figure 11 (the crossbar study).
    pub const FIGURE11: [Mechanism; 5] = [
        Mechanism::NextLine,
        Mechanism::Fdip,
        Mechanism::Shift,
        Mechanism::Confluence,
        Mechanism::Boomerang(ThrottlePolicy::PAPER_DEFAULT),
    ];

    /// Builds the mechanism instance as the statically dispatched
    /// [`AnyMechanism`], so the simulator's per-block hook calls compile to
    /// direct calls (see [`crate::dispatch`]). This is the only place a
    /// mechanism's paper parameters are chosen.
    pub fn build_any(self) -> AnyMechanism {
        match self {
            Mechanism::Baseline => AnyMechanism::Baseline(frontend::NoPrefetch::new()),
            Mechanism::NextLine => AnyMechanism::NextLine(prefetchers::NextLine::new(2)),
            Mechanism::Dip => AnyMechanism::Dip(prefetchers::Dip::new(8 * 1024, 2)),
            Mechanism::Fdip => AnyMechanism::Fdip(prefetchers::Fdip::new()),
            Mechanism::Pif => AnyMechanism::Pif(prefetchers::Pif::new()),
            Mechanism::Shift => AnyMechanism::Shift(prefetchers::Shift::new()),
            Mechanism::Confluence => AnyMechanism::Confluence(prefetchers::Confluence::new()),
            Mechanism::Boomerang(policy) => {
                AnyMechanism::Boomerang(Boomerang::with_throttle(policy))
            }
        }
    }

    /// Display label as used in the figures.
    pub fn label(self) -> &'static str {
        match self {
            Mechanism::Baseline => "Baseline",
            Mechanism::NextLine => "Next Line",
            Mechanism::Dip => "DIP",
            Mechanism::Fdip => "FDIP",
            Mechanism::Pif => "PIF",
            Mechanism::Shift => "SHIFT",
            Mechanism::Confluence => "Confluence",
            Mechanism::Boomerang(_) => "Boomerang",
        }
    }

    /// Dedicated metadata storage of this mechanism in bytes (§VI-D).
    pub fn metadata_bytes(self) -> u64 {
        self.build_any().storage_overhead_bits() / 8
    }
}

/// Simulation length parameters for one experiment.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RunLength {
    /// Dynamic basic blocks simulated after warm-up.
    pub trace_blocks: usize,
    /// Dynamic basic blocks used to warm caches, BTB and predictors before
    /// statistics are collected.
    pub warmup_blocks: usize,
}

impl RunLength {
    /// The default used by the figure reproductions: roughly 0.8 M
    /// instructions of measurement after 0.15 M instructions of warm-up per
    /// workload (scaled-down SMARTS-style sampling).
    pub const fn paper_default() -> Self {
        RunLength {
            trace_blocks: 150_000,
            warmup_blocks: 25_000,
        }
    }

    /// A short run for unit tests and doc examples.
    pub const fn smoke_test() -> Self {
        RunLength {
            trace_blocks: 12_000,
            warmup_blocks: 2_000,
        }
    }
}

impl Default for RunLength {
    fn default() -> Self {
        RunLength::paper_default()
    }
}

/// A generated workload: its layout and a dynamic trace of the requested
/// length.
///
/// A workload point holds only what the simulator reads: its layout is a
/// handle on the simulation tables, without the control-flow tables that
/// only trace generation walks (see [`CodeLayout::without_control_flow`]).
pub struct WorkloadData {
    /// Which paper workload this is.
    pub kind: WorkloadKind,
    /// The static code layout's simulation tables.
    pub layout: CodeLayout,
    /// The dynamic trace (warm-up plus measurement blocks).
    pub trace: Trace,
    /// Precomputed back-end latency classes, one per trace instruction,
    /// packed four to a byte (see
    /// [`workloads::BackendProfile::latency_classes`]): generated once here
    /// or decoded from an artifact, and shared by every (mechanism, config,
    /// engine) run over this workload instead of re-drawn per instruction
    /// inside each run.
    latency_classes: Vec<u8>,
    length: RunLength,
}

impl WorkloadData {
    /// Generates the workload with the given run length.
    pub fn generate(kind: WorkloadKind, length: RunLength) -> Self {
        Self::generate_from_profile(&kind.profile(), length)
    }

    /// Generates a workload from an explicit profile (e.g. one with a
    /// re-derived seed or adjusted footprint), with the given run length.
    ///
    /// This is the entry point the campaign engine uses for its workload
    /// axis: custom `[[workload]]` spec entries resolve to profiles that
    /// share a `kind` with a paper preset but differ in footprint, service
    /// roots, branch mix, etc. — so [`WorkloadData::kind`] names the *base*
    /// workload, not a unique identity. Campaign code identifies workloads
    /// by axis index and label instead.
    pub fn generate_from_profile(profile: &workloads::WorkloadProfile, length: RunLength) -> Self {
        let layout = CodeLayout::generate(profile);
        let trace = Trace::generate_blocks(&layout, length.trace_blocks + length.warmup_blocks);
        Self::from_parts(layout, trace, length)
    }

    /// Reassembles a workload from a layout and trace, recomputing the
    /// latency classes from the layout's profile exactly as
    /// [`WorkloadData::generate_from_profile`] does. A load from the
    /// artifact cache, which stores the classes, uses
    /// [`WorkloadData::from_stored`] instead and makes no RNG pass.
    ///
    /// `length` must be the run length the trace was generated with.
    ///
    /// # Panics
    ///
    /// Panics if `trace` walks a different layout than `layout` (a clone of
    /// it shares its tables, see [`CodeLayout::shares_tables`]).
    pub fn from_parts(layout: CodeLayout, trace: Trace, length: RunLength) -> Self {
        let profile = layout.profile();
        let latency_classes = profile
            .backend
            .latency_classes(profile.seed, trace.instructions() as usize);
        Self::from_stored(layout, trace, latency_classes, length)
    }

    /// Reassembles a workload from a layout, trace and packed latency
    /// classes decoded from the artifact cache (see [`workloads::codec`]).
    /// The classes are taken as they are: the codec checks their length and
    /// padding, and the offline audit checks their values against the
    /// profile.
    ///
    /// Every constructor ends here, and the workload keeps no handle on
    /// `layout`'s control-flow tables: they are freed with the last handle
    /// the caller holds.
    ///
    /// `length` must be the run length the trace was generated with.
    ///
    /// # Panics
    ///
    /// Panics if `trace` walks a different layout than `layout`, or if
    /// `latency_classes` is not `trace.instructions().div_ceil(4)` bytes.
    pub fn from_stored(
        layout: CodeLayout,
        trace: Trace,
        latency_classes: Vec<u8>,
        length: RunLength,
    ) -> Self {
        assert!(
            trace.layout().shares_tables(&layout),
            "the trace walks a different layout"
        );
        assert_eq!(
            latency_classes.len() as u64,
            trace.instructions().div_ceil(4),
            "one packed latency class per trace instruction"
        );
        WorkloadData {
            kind: layout.profile().kind,
            layout: layout.without_control_flow(),
            trace,
            latency_classes,
            length,
        }
    }

    /// The packed back-end latency classes, one per trace instruction (see
    /// [`workloads::BackendProfile::latency_classes`]).
    pub fn latency_classes(&self) -> &[u8] {
        &self.latency_classes
    }

    /// Runs `mechanism` over this workload under `config` with the TAGE
    /// predictor.
    pub fn run(&self, mechanism: Mechanism, config: &MicroarchConfig) -> SimStats {
        self.run_with_predictor(mechanism, config, PredictorKind::Tage)
    }

    /// Runs `mechanism` with an explicit direction predictor (Figure 2).
    pub fn run_with_predictor(
        &self,
        mechanism: Mechanism,
        config: &MicroarchConfig,
        predictor: PredictorKind,
    ) -> SimStats {
        self.run_with_predictor_engine(mechanism, config, predictor, SimEngine::default())
    }

    /// Runs `mechanism` on an explicit simulation engine (the per-cycle
    /// reference is the differential-testing oracle of the idle-skip
    /// engine; both produce bit-identical stats).
    pub fn run_with_predictor_engine(
        &self,
        mechanism: Mechanism,
        config: &MicroarchConfig,
        predictor: PredictorKind,
        engine: SimEngine,
    ) -> SimStats {
        let mut sim = Simulator::with_predictor(
            config.clone(),
            &self.layout,
            &self.trace,
            Box::new(mechanism.build_any()),
            predictor,
        );
        sim.use_backend_latency_classes(&self.latency_classes);
        sim.run_with_warmup_engine(self.length.warmup_blocks, engine)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mechanism_catalog() {
        use frontend::NoPrefetch;
        use prefetchers::{Confluence, Dip, Fdip, NextLine, Pif, Shift};

        assert_eq!(Mechanism::FIGURE7.len(), 6);
        assert_eq!(Mechanism::FIGURE11.len(), 5);
        // Every variant, through the one constructor: the enum forwards the
        // concrete type's flags and storage cost, and carries the figure label.
        fn bits<M: ControlFlowMechanism>(m: M) -> u64 {
            m.storage_overhead_bits()
        }
        let boomerang = |policy| {
            (
                Mechanism::Boomerang(policy),
                "Boomerang",
                true,
                bits(Boomerang::with_throttle(policy)),
            )
        };
        let catalog = [
            (
                Mechanism::Baseline,
                "Baseline",
                false,
                bits(NoPrefetch::new()),
            ),
            (
                Mechanism::NextLine,
                "Next Line",
                false,
                bits(NextLine::new(2)),
            ),
            (Mechanism::Dip, "DIP", false, bits(Dip::new(8 * 1024, 2))),
            (Mechanism::Fdip, "FDIP", true, bits(Fdip::new())),
            (Mechanism::Pif, "PIF", false, bits(Pif::new())),
            (Mechanism::Shift, "SHIFT", false, bits(Shift::new())),
            (
                Mechanism::Confluence,
                "Confluence",
                false,
                bits(Confluence::new()),
            ),
            boomerang(ThrottlePolicy::PAPER_DEFAULT),
            boomerang(ThrottlePolicy::None),
            boomerang(ThrottlePolicy::NextN(4)),
        ];
        for (mechanism, label, fetch_directed, bits) in catalog {
            let built = mechanism.build_any();
            assert_eq!(mechanism.label(), label);
            assert_eq!(built.is_fetch_directed(), fetch_directed, "{mechanism:?}");
            assert_eq!(built.storage_overhead_bits(), bits, "{mechanism:?}");
            assert_eq!(mechanism.metadata_bytes(), bits / 8, "{mechanism:?}");
        }
        // The §VI-D headline: Boomerang needs ~540 bytes, Confluence ~240 KB.
        assert_eq!(
            Mechanism::Boomerang(ThrottlePolicy::PAPER_DEFAULT).metadata_bytes(),
            540
        );
        assert!(Mechanism::Confluence.metadata_bytes() >= 200 * 1024);
        assert_eq!(Mechanism::Baseline.metadata_bytes(), 0);
    }

    #[test]
    fn run_lengths() {
        let paper = RunLength::paper_default();
        let smoke = RunLength::smoke_test();
        assert!(paper.trace_blocks > smoke.trace_blocks);
        assert_eq!(RunLength::default(), paper);
    }

    /// A point keeps only the simulation tables, whichever constructor
    /// built it; a handle the caller kept still has the control-flow
    /// tables, over the same simulation tables.
    #[test]
    fn a_point_holds_no_control_flow_tables() {
        let run = RunLength {
            trace_blocks: 400,
            warmup_blocks: 100,
        };
        let profile = workloads::WorkloadProfile::tiny(3);
        let generated = WorkloadData::generate_from_profile(&profile, run);
        let layout = CodeLayout::generate(&profile);
        let trace = Trace::generate_blocks(&layout, 500);
        assert!(!trace.layout().has_control_flow());
        let assembled = WorkloadData::from_parts(layout.clone(), trace, run);
        for data in [&generated, &assembled] {
            assert!(!data.layout.has_control_flow());
            assert!(!data.trace.layout().has_control_flow());
            assert!(data.layout.basic_blocks().eq(layout.basic_blocks()));
        }
        assert!(layout.has_control_flow());
        assert!(assembled.layout.shares_tables(&layout));
        assert_eq!(generated.trace, assembled.trace);
    }
}
