//! The cycle-level decoupled front-end simulator.
//!
//! One [`Simulator`] instance runs one workload trace through one
//! control-flow-delivery mechanism under one microarchitectural
//! configuration, and produces the [`SimStats`] from which every figure of
//! the paper is derived.
//!
//! # Model
//!
//! The simulator is trace-driven and oracle-assisted: the branch prediction
//! unit walks the *actual* dynamic basic-block sequence, making a prediction
//! for every block's successor using the BTB, the direction predictor and the
//! return address stack. Correctly predicted blocks flow through the FTQ to
//! the fetch engine; a wrong prediction (or a BTB miss on a taken branch)
//! marks the block, and when its fetch completes the pipeline models the
//! wrong-path episode: the front end stops delivering useful work for the
//! branch-resolution latency, fetch-directed mechanisms keep issuing
//! wrong-path sequential prefetches, and the squash is charged to its cause
//! (BTB miss vs. direction/target misprediction — the two bars of Figure 7).
//!
//! The fetch engine consumes FTQ entries at the core's fetch width, accessing
//! the L1-I for every cache line it crosses; misses stall it for the fill
//! latency, and those correct-path stall cycles — classified by the
//! discontinuity type that reached the block (Figure 3) — are the paper's
//! coverage metric. A finite ROB with data stalls provides back-pressure so
//! that front-end improvements translate into realistic end-to-end speedups.

use crate::backend::BackEnd;
use crate::ftq::{Ftq, FtqEntry, Reached, SquashCause};
use crate::mechanism::{BtbMissAction, ControlFlowMechanism, MechContext};
use crate::stats::SimStats;
use branch_pred::{DirectionPredictor, PredictorKind, ReturnAddressStack};
use btb::{BasicBlockBtb, BtbEntry, BtbPrefetchBuffer};
use cache::{HitLevel, InstructionHierarchy};
use sim_core::{Addr, BranchKind, CacheLine, DynamicBlock, MicroarchConfig};
use workloads::{BlockSource, CodeLayout, Trace};

/// Maximum number of wrong-path sequential lines prefetched while a squash is
/// pending (the emulation of FDIP's wrong-path behaviour).
const WRONG_PATH_PREFETCH_LIMIT: u64 = 8;

/// Which execution engine drives a simulation run.
///
/// Both engines produce bit-identical [`SimStats`]; the reference stepper
/// exists as the differential-testing oracle of the idle skip.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum SimEngine {
    /// Bulk-advances over provably dead cycles (the default).
    #[default]
    EventHorizon,
    /// Executes every cycle with one [`Simulator::step`] call.
    PerCycleReference,
}

/// State of a pending wrong-path episode.
#[derive(Clone, Copy, Debug)]
struct WrongPath {
    resolve_at: u64,
    cause: SquashCause,
    next_prefetch_line: CacheLine,
    lines_prefetched: u64,
}

/// State of the block currently being fetched.
#[derive(Clone, Copy, Debug)]
struct FetchState {
    entry: FtqEntry,
    /// Instruction offset within the block.
    pos: u64,
    /// Cycle until which the fetch engine is stalled on an L1-I fill.
    busy_until: u64,
    /// Line already accessed (and therefore not to be re-accessed on resume).
    accessed_line: Option<CacheLine>,
}

/// The front-end simulator.
///
/// Generic over the mechanism's concrete type `M`. Hot paths call the
/// mechanism's hooks roughly ten times per simulated block, so they compile
/// to direct (inlinable) calls; with the experiment harness's enum of every
/// mechanism they are guarded by one predictable match, and the many empty
/// hooks cost nothing.
///
/// Also generic over the oracle path `T`: a stored [`Trace`] (every run of
/// the harness and the campaign), or an expanded `[DynamicBlock]` slice.
/// Either way each block is read by value through [`BlockSource::block`].
pub struct Simulator<'a, M: ControlFlowMechanism, T: BlockSource + ?Sized = Trace> {
    config: MicroarchConfig,
    layout: &'a CodeLayout,
    trace: &'a T,
    mechanism: Box<M>,

    hierarchy: InstructionHierarchy,
    btb: BasicBlockBtb,
    btb_prefetch_buffer: BtbPrefetchBuffer,
    predictor: Box<dyn DirectionPredictor>,
    ras: ReturnAddressStack,
    ftq: Ftq,
    backend: BackEnd<'a>,

    now: u64,
    stats: SimStats,
    /// Cycles actually executed by [`step`](Self::step) since cycle 0
    /// (diagnostic; see [`stepped_cycles`](Self::stepped_cycles)).
    stepped_cycles: u64,
    bpu_index: usize,
    committed_blocks: usize,
    bpu_busy_until: u64,
    bpu_stalled_until: u64,
    bpu_waiting_for_squash: bool,
    next_reached: Reached,
    wrong_path: Option<WrongPath>,
    fetch: Option<FetchState>,
    last_fetched_line: Option<CacheLine>,

    // Resumable-run bookkeeping (set by `begin_run`, used by
    // `advance_to_block`): lets a caller pause a run at block targets
    // without changing any state transition.
    warmup_blocks: usize,
    warmup_done: bool,
    max_cycles: u64,
}

impl<'a, M: ControlFlowMechanism, T: BlockSource + ?Sized> Simulator<'a, M, T> {
    /// Creates a simulator for `trace` (generated from `layout`) running the
    /// given mechanism with the TAGE predictor of Table I.
    pub fn new(
        config: MicroarchConfig,
        layout: &'a CodeLayout,
        trace: &'a T,
        mechanism: Box<M>,
    ) -> Self {
        Self::with_predictor(config, layout, trace, mechanism, PredictorKind::Tage)
    }

    /// Creates a simulator with an explicit direction-predictor choice
    /// (used by the Figure 2 ablation).
    pub fn with_predictor(
        config: MicroarchConfig,
        layout: &'a CodeLayout,
        trace: &'a T,
        mechanism: Box<M>,
        predictor: PredictorKind,
    ) -> Self {
        config.validate().expect("invalid configuration");
        let hierarchy = InstructionHierarchy::new(&config);
        let btb = BasicBlockBtb::new(config.btb_entries, config.btb_ways);
        let btb_prefetch_buffer = BtbPrefetchBuffer::new(config.btb_prefetch_buffer_entries);
        let predictor = predictor.build(config.predictor_budget_bytes);
        let ras = ReturnAddressStack::new(config.ras_entries as usize);
        let ftq = Ftq::new(config.ftq_entries);
        let backend = BackEnd::new(&config, layout.profile().backend, layout.profile().seed);
        Simulator {
            config,
            layout,
            trace,
            mechanism,
            hierarchy,
            btb,
            btb_prefetch_buffer,
            predictor,
            ras,
            ftq,
            backend,
            now: 0,
            stats: SimStats::default(),
            stepped_cycles: 0,
            bpu_index: 0,
            committed_blocks: 0,
            bpu_busy_until: 0,
            bpu_stalled_until: 0,
            bpu_waiting_for_squash: false,
            next_reached: Reached::Sequential,
            wrong_path: None,
            fetch: None,
            last_fetched_line: None,
            warmup_blocks: 0,
            warmup_done: true,
            max_cycles: u64::MAX,
        }
    }

    /// Installs a precomputed back-end latency-class stream (see
    /// [`workloads::BackendProfile::latency_classes`]) generated from this
    /// simulator's workload profile and seed. Purely an optimisation: the
    /// stream holds exactly the values the back end would draw online, so
    /// statistics are byte-identical with or without it. Call before
    /// running.
    pub fn use_backend_latency_classes(&mut self, classes: &'a [u8]) {
        self.backend.use_latency_classes(classes);
    }

    /// Runs the whole trace and returns the collected statistics.
    pub fn run(&mut self) -> SimStats {
        self.run_with_warmup(0)
    }

    /// Generous safety bound: no workload needs more than ~200 cycles per
    /// instruction even with a cold, prefetch-free front end.
    fn cycle_bound(&self) -> u64 {
        500 + 200 * self.trace.instructions()
    }

    /// Runs the whole trace, resetting statistics after the first
    /// `warmup_blocks` committed blocks so that cold-start effects (empty
    /// caches, empty BTB, untrained predictor) do not dominate the results.
    ///
    /// The engine is the per-cycle [`step`] plus an *idle-horizon skip*:
    /// whenever the current cycle is provably dead, it computes the next
    /// cycle at which any unit can do real work — wrong-path resolution, an
    /// L1-I fill completing, the BPU's busy/stall timers, the ROB head
    /// completing, a pending mechanism prefetch becoming ready — and
    /// bulk-advances over the dead cycles in between, incrementing the
    /// per-cycle stall counters in closed form. Every other cycle is
    /// stepped. The resulting [`SimStats`] are bit-identical to
    /// [`run_with_warmup_reference`](Self::run_with_warmup_reference), which
    /// steps every cycle and is kept as the differential-testing oracle.
    ///
    /// [`step`]: Self::step
    pub fn run_with_warmup(&mut self, warmup_blocks: usize) -> SimStats {
        self.begin_run(warmup_blocks);
        self.advance_to_block(usize::MAX);
        self.finish_run()
    }

    /// Arms a resumable run (see [`run_with_warmup`](Self::run_with_warmup)):
    /// records the warmup boundary and the cycle safety bound, then lets the
    /// caller drive the run in slices with
    /// [`advance_to_block`](Self::advance_to_block) and collect the result
    /// with [`finish_run`](Self::finish_run).
    ///
    /// The split lets a caller pause a run at block-count targets, e.g. to
    /// sample engine counters at the warmup boundary. Pausing is
    /// transition-invariant — every loop iteration of the engine is
    /// self-contained and commits at most one block — so any slicing of a
    /// run produces bit-identical statistics to an uninterrupted
    /// [`Self::run_with_warmup`] call.
    pub fn begin_run(&mut self, warmup_blocks: usize) {
        debug_assert_eq!(self.now, 0, "begin_run on an already-started simulator");
        self.warmup_blocks = warmup_blocks;
        self.warmup_done = warmup_blocks == 0;
        self.max_cycles = self.cycle_bound();
    }

    /// Advances an armed run (see [`begin_run`](Self::begin_run)) until at
    /// least `target_blocks` blocks have committed, the trace is exhausted,
    /// or the cycle safety bound trips. Returns `true` once the run is
    /// complete and [`finish_run`](Self::finish_run) may be called.
    pub fn advance_to_block(&mut self, target_blocks: usize) -> bool {
        let stop = target_blocks.min(self.trace.len());
        while self.committed_blocks < stop && self.now < self.max_cycles {
            if let Some(horizon) = self.idle_horizon() {
                // Dead cycles never commit a block, so a bulk advance can
                // never cross the warmup boundary.
                self.advance_idle(horizon.min(self.max_cycles));
            } else {
                self.step();
                self.check_warmup_boundary();
            }
        }
        self.is_finished()
    }

    /// Finalises an armed run and returns the collected statistics.
    pub fn finish_run(&mut self) -> SimStats {
        self.finalize_stats();
        self.stats
    }

    /// Number of trace blocks committed so far.
    pub fn committed_blocks(&self) -> usize {
        self.committed_blocks
    }

    fn is_finished(&self) -> bool {
        self.committed_blocks >= self.trace.len() || self.now >= self.max_cycles
    }

    #[inline]
    fn check_warmup_boundary(&mut self) {
        if !self.warmup_done && self.committed_blocks >= self.warmup_blocks {
            self.reset_stats();
            self.warmup_done = true;
        }
    }

    /// Runs with an explicit engine choice (the benchmark harness times both
    /// engines on identical work).
    pub fn run_with_warmup_engine(&mut self, warmup_blocks: usize, engine: SimEngine) -> SimStats {
        match engine {
            SimEngine::EventHorizon => self.run_with_warmup(warmup_blocks),
            SimEngine::PerCycleReference => self.run_with_warmup_reference(warmup_blocks),
        }
    }

    /// The per-cycle reference engine: [`run_with_warmup`] without the idle
    /// skip, one [`step`](Self::step) per cycle. Semantically the definition
    /// of the simulator, kept as the oracle the idle skip is differentially
    /// tested against.
    ///
    /// [`run_with_warmup`]: Self::run_with_warmup
    pub fn run_with_warmup_reference(&mut self, warmup_blocks: usize) -> SimStats {
        self.begin_run(warmup_blocks);
        while !self.is_finished() {
            self.step();
            self.check_warmup_boundary();
        }
        self.finish_run()
    }

    /// If the current cycle (and possibly a run of following cycles) is
    /// provably dead — no unit can change any state beyond stall counters and
    /// in-order retirement — returns the first cycle at which something can
    /// happen again. Returns `None` when the current cycle must be stepped.
    fn idle_horizon(&self) -> Option<u64> {
        let mut horizon = u64::MAX;

        // Checks are ordered to reject the common *active* cases with the
        // cheapest comparisons; the virtual mechanism call comes last, only
        // once every non-virtual check already found the cycle dead.

        // Fetch engine.
        match &self.fetch {
            Some(f) => {
                if self.now < f.busy_until {
                    // Stalled on an L1-I fill until `busy_until`.
                    horizon = f.busy_until;
                } else {
                    // Ready to fetch: only a full ROB keeps the cycle dead,
                    // and only until the ROB head completes. (`step` retires
                    // before fetching, so a head completing *at* a cycle
                    // unblocks that same cycle.)
                    if !self.backend.is_full() {
                        return None;
                    }
                    match self.backend.next_completion() {
                        Some(ready) if ready > self.now => horizon = ready,
                        _ => return None,
                    }
                }
            }
            None => {
                // An idle fetch engine pops the FTQ the same cycle the BPU
                // pushes, so an empty FTQ stays empty for the whole window.
                if !self.ftq.is_empty() {
                    return None;
                }
            }
        }

        // BPU: parked states (waiting for a squash, FTQ full, trace
        // exhausted — plus an in-flight wrong path, accounted below) only
        // end through events accounted elsewhere or through fetch activity,
        // which is never skipped; timer states end at the later of the two
        // busy/stall timers.
        if self.wrong_path.is_none() {
            if let Some(wake) = self.bpu_ready_at() {
                if wake <= self.now {
                    return None;
                }
                horizon = horizon.min(wake);
            }
        }

        // Wrong-path episode: the squash fires at `resolve_at`; until then,
        // fetch-directed mechanisms prefetch one wrong-path line per cycle
        // while their budget lasts.
        if let Some(wp) = self.wrong_path {
            if self.now >= wp.resolve_at {
                return None;
            }
            if self.mechanism.is_fetch_directed() && wp.lines_prefetched < WRONG_PATH_PREFETCH_LIMIT
            {
                return None;
            }
            horizon = horizon.min(wp.resolve_at);
        }

        // Mechanism tick: pending prefetch work wakes the mechanism.
        match self.mechanism.next_tick_event() {
            Some(t) if t <= self.now => return None,
            Some(t) => horizon = horizon.min(t),
            None => {}
        }

        (horizon > self.now).then_some(horizon)
    }

    /// The earliest cycle at which the BPU could produce, *ignoring any
    /// in-flight wrong path* (callers account for that separately, because
    /// only a squash — an event the engines never skip — ends it):
    ///
    /// * `None` — parked in a state only an external event can end: waiting
    ///   for a squash, FTQ full, or trace exhausted.
    /// * `Some(wake)` — free to produce from `wake` (the later of the
    ///   busy/stall timers; `wake <= now` means "can produce this cycle").
    ///
    /// This is the single definition of the BPU-readiness predicate shared
    /// by the per-cycle stepper ([`bpu_cycle`](Self::bpu_cycle)) and the
    /// idle horizon — it is correctness-critical that the two agree.
    fn bpu_ready_at(&self) -> Option<u64> {
        if self.bpu_waiting_for_squash || self.ftq.is_full() || self.bpu_index >= self.trace.len() {
            return None;
        }
        Some(self.bpu_busy_until.max(self.bpu_stalled_until))
    }

    /// Charges `span` fetch-stall cycles for the in-flight fetch `f`: the
    /// single definition of the stall-charge rule (the `Reached` category of
    /// the block's first instruction, `Sequential` past it) shared by the
    /// per-cycle stepper and the idle bulk-advance.
    fn charge_fetch_stall(stats: &mut SimStats, f: &FetchState, span: u64) {
        let category = if f.pos == 0 {
            f.entry.reached
        } else {
            Reached::Sequential
        };
        stats.fetch_stall_cycles += span;
        stats.miss_breakdown.add(category, span);
    }

    /// Bulk-advances `now` to `horizon` across a window of dead cycles,
    /// applying exactly the state changes the per-cycle loop would have:
    /// stall counters in closed form and in-order retirement.
    fn advance_idle(&mut self, horizon: u64) {
        debug_assert!(horizon > self.now);
        let span = horizon - self.now;
        match &self.fetch {
            Some(f) if self.now < f.busy_until => {
                debug_assert!(horizon <= f.busy_until);
                Self::charge_fetch_stall(&mut self.stats, f, span);
            }
            Some(_) => {
                // Dead with a ready fetch only ever means a full ROB.
                self.stats.rob_full_cycles += span;
            }
            None => {
                if self.wrong_path.is_some() {
                    self.stats.squash_stall_cycles += span;
                } else if self.committed_blocks < self.trace.len() {
                    self.stats.ftq_empty_cycles += span;
                }
            }
        }
        self.backend.retire_span(self.now, horizon);
        self.now = horizon;
        self.stats.cycles += span;
    }

    /// Executes one cycle.
    pub fn step(&mut self) {
        self.handle_wrong_path();
        self.backend.retire(self.now);
        self.bpu_cycle();
        self.mechanism_tick_at(self.now);
        self.fetch_cycle();
        self.now += 1;
        self.stats.cycles += 1;
        self.stepped_cycles += 1;
    }

    /// Cycles executed one-by-one (as opposed to bulk-skipped by the idle
    /// skip), counted from cycle 0 of the run. With no warmup,
    /// `stats().cycles - stepped_cycles()` is the number of dead cycles the
    /// engine jumped over. With a warmup it is not: `stats()` restarts at
    /// the warmup boundary while this counter does not, so subtract its
    /// value sampled at the boundary (pause the run there with
    /// [`advance_to_block`](Self::advance_to_block)) to get the post-warmup
    /// stepped cycles.
    pub fn stepped_cycles(&self) -> u64 {
        self.stepped_cycles
    }

    /// Always 0. The fill-stall trickle this counted is gone; the accessor
    /// remains only because the repository benchmark still reports it as
    /// `engine.trickled_cycles`, and it goes with that metric.
    pub fn trickled_cycles(&self) -> u64 {
        0
    }

    /// Always 0. The streaming fast-forward this counted is gone; the
    /// accessor remains only because the repository benchmark still reports
    /// it as `engine.streamed_cycles`, and it goes with that metric.
    pub fn bulk_fetched_cycles(&self) -> u64 {
        0
    }

    /// Statistics collected so far (finalised copies are returned by `run`).
    pub fn stats(&self) -> SimStats {
        self.stats
    }

    /// Warmup reset: every statistic (including the cycle counter used for
    /// IPC) restarts from zero, while `now` keeps running monotonically so
    /// in-flight fill timestamps in the memory hierarchy stay valid.
    ///
    /// The idle skip preserves these semantics because a reset can only
    /// trigger when a block commits, and dead-cycle bulk advances never
    /// commit, so they can never straddle the warmup boundary; the run loop
    /// checks the boundary after every `step`.
    fn reset_stats(&mut self) {
        self.stats = SimStats::default();
    }

    fn finalize_stats(&mut self) {
        let h = self.hierarchy.stats();
        self.stats.prefetch_buffer_hits = h.prefetch_buffer_hits;
        self.stats.prefetches_issued = h.prefetches_issued;
    }

    #[allow(clippy::too_many_arguments)]
    fn with_ctx<R>(
        config: &MicroarchConfig,
        layout: &'a CodeLayout,
        hierarchy: &mut InstructionHierarchy,
        btb: &mut BasicBlockBtb,
        btb_prefetch_buffer: &mut BtbPrefetchBuffer,
        now: u64,
        mechanism: &mut M,
        f: impl FnOnce(&mut M, &mut MechContext<'_>) -> R,
    ) -> R {
        let mut ctx = MechContext {
            now,
            config,
            layout,
            hierarchy,
            btb,
            btb_prefetch_buffer,
        };
        f(mechanism, &mut ctx)
    }

    fn mechanism_tick_at(&mut self, now: u64) {
        Self::with_ctx(
            &self.config,
            self.layout,
            &mut self.hierarchy,
            &mut self.btb,
            &mut self.btb_prefetch_buffer,
            now,
            self.mechanism.as_mut(),
            |m, ctx| m.tick(ctx),
        );
    }

    /// Handles a pending wrong-path episode: prefetches along the wrong path
    /// while the mispredicted branch resolves, then squashes.
    fn handle_wrong_path(&mut self) {
        let Some(mut wp) = self.wrong_path else {
            return;
        };
        if self.now >= wp.resolve_at {
            // Squash: flush the FTQ and any in-flight fetch, charge the
            // refill bubble, and resume the BPU on the correct path.
            self.ftq.clear();
            self.fetch = None;
            self.stats.squashes.record(wp.cause);
            self.bpu_waiting_for_squash = false;
            self.bpu_busy_until = self.now + self.config.squash_penalty;
            let cause = wp.cause;
            Self::with_ctx(
                &self.config,
                self.layout,
                &mut self.hierarchy,
                &mut self.btb,
                &mut self.btb_prefetch_buffer,
                self.now,
                self.mechanism.as_mut(),
                |m, ctx| m.on_squash(cause, ctx),
            );
            self.wrong_path = None;
            return;
        }
        // Wrong-path prefetching: fetch-directed mechanisms keep walking the
        // (wrong) sequential path, which sometimes prefetches blocks on the
        // eventually-correct path (§VI-B).
        if self.mechanism.is_fetch_directed() && wp.lines_prefetched < WRONG_PATH_PREFETCH_LIMIT {
            let line = wp.next_prefetch_line;
            self.hierarchy.prefetch_probe(line, self.now);
            wp.next_prefetch_line = line.next();
            wp.lines_prefetched += 1;
            self.wrong_path = Some(wp);
        }
    }

    /// One branch-prediction-unit cycle: predict one basic block and push it
    /// into the FTQ.
    fn bpu_cycle(&mut self) {
        if self.wrong_path.is_some() || self.bpu_ready_at().is_none_or(|wake| self.now < wake) {
            return;
        }
        let now = self.now;
        let block = self.trace.block(self.bpu_index);
        let start = block.start();
        let terminator = block
            .block
            .terminator
            .expect("trace blocks always carry a terminator");
        self.stats.btb_lookups += 1;

        // BTB lookup, with the BTB prefetch buffer probed in parallel.
        let mut lookup = self.btb.lookup(start).entry();
        if lookup.is_none() {
            if let Some(entry) = self.btb_prefetch_buffer.take(start) {
                self.btb.insert(entry);
                lookup = Some(entry);
            }
        }
        if lookup.is_none() && self.config.perfect.perfect_btb {
            let entry = BtbEntry::from_block(start, block.instructions(), terminator);
            self.btb.insert(entry);
            lookup = Some(entry);
        }

        let reached = self.next_reached;
        let (mispredicted, sequential_guess) = match lookup {
            Some(entry) => (self.predict_with_entry(&block, terminator, entry), false),
            None => {
                self.stats.btb_misses += 1;
                let action = Self::with_ctx(
                    &self.config,
                    self.layout,
                    &mut self.hierarchy,
                    &mut self.btb,
                    &mut self.btb_prefetch_buffer,
                    now,
                    self.mechanism.as_mut(),
                    |m, ctx| m.on_btb_miss(start, ctx),
                );
                match action {
                    BtbMissAction::StallUntil { ready_at } => {
                        // Boomerang: halt FTQ filling until the prefill lands,
                        // then retry the same block (which will now hit).
                        self.bpu_stalled_until = ready_at.max(now + 1);
                        return;
                    }
                    BtbMissAction::ContinueSequential => {
                        // FDIP: the BPU walks sequentially one instruction per
                        // cycle until the next BTB hit; charge that time.
                        self.bpu_busy_until = now + block.instructions();
                        let cause = block.outcome.taken.then_some(SquashCause::BtbMiss);
                        (cause, true)
                    }
                }
            }
        };

        let entry = FtqEntry {
            oracle_index: self.bpu_index,
            start,
            instructions: block.instructions(),
            reached,
            mispredicted,
            sequential_guess,
        };
        self.ftq.push(entry);
        Self::with_ctx(
            &self.config,
            self.layout,
            &mut self.hierarchy,
            &mut self.btb,
            &mut self.btb_prefetch_buffer,
            now,
            self.mechanism.as_mut(),
            |m, ctx| m.on_ftq_push(&entry, ctx),
        );

        // Maintain the speculative RAS along the (oracle) path.
        if terminator.kind.is_call() && block.outcome.taken {
            self.ras.push(block.block.fall_through());
        }

        self.next_reached = if !block.outcome.taken {
            Reached::Sequential
        } else if terminator.kind == BranchKind::Conditional {
            Reached::ConditionalTaken
        } else {
            Reached::UnconditionalTaken
        };
        self.bpu_index += 1;
        if mispredicted.is_some() {
            // The BPU is now on the wrong path; it stops producing useful
            // entries until the squash resolves.
            self.bpu_waiting_for_squash = true;
        }
    }

    /// Predicts the successor of `block` using a BTB entry; returns the
    /// squash cause if the prediction turns out wrong.
    fn predict_with_entry(
        &mut self,
        block: &DynamicBlock,
        terminator: sim_core::BranchInfo,
        entry: BtbEntry,
    ) -> Option<SquashCause> {
        let fall_through = block.block.fall_through();
        let actual_next = block.outcome.next_pc;
        let actual_taken = block.outcome.taken;
        let predicted_next: Addr = match terminator.kind {
            BranchKind::Conditional => {
                self.stats.conditional_predictions += 1;
                let predicted_taken = self.predictor.predict(terminator.pc);
                if predicted_taken != actual_taken {
                    self.stats.conditional_mispredictions += 1;
                }
                if predicted_taken {
                    entry.target.unwrap_or(fall_through)
                } else {
                    fall_through
                }
            }
            BranchKind::Return => self.ras.pop().unwrap_or(fall_through),
            BranchKind::DirectJump | BranchKind::Call => entry.target.unwrap_or(fall_through),
            BranchKind::IndirectJump | BranchKind::IndirectCall => {
                entry.target.unwrap_or(fall_through)
            }
        };
        (predicted_next != actual_next).then_some(SquashCause::Misprediction)
    }

    /// One fetch-engine cycle.
    fn fetch_cycle(&mut self) {
        // Acquire a block to fetch if idle. The in-flight state is mutated
        // in place: moving the ~80-byte `FetchState` out of and back into
        // the `Option` every cycle was measurable on the hot path.
        if self.fetch.is_none() {
            match self.ftq.pop() {
                Some(entry) => {
                    self.fetch = Some(FetchState {
                        entry,
                        pos: 0,
                        busy_until: self.now,
                        accessed_line: None,
                    });
                }
                None => {
                    if self.wrong_path.is_some() {
                        self.stats.squash_stall_cycles += 1;
                    } else if self.committed_blocks < self.trace.len() {
                        self.stats.ftq_empty_cycles += 1;
                    }
                    return;
                }
            }
        }

        let fetch = self.fetch.as_mut().expect("fetch state was just ensured");

        // Stalled on an L1-I fill?
        if self.now < fetch.busy_until {
            Self::charge_fetch_stall(&mut self.stats, fetch, 1);
            return;
        }

        // Back-pressure from the ROB.
        if self.backend.is_full() {
            self.stats.rob_full_cycles += 1;
            return;
        }

        let mut budget = self
            .config
            .fetch_width
            .min(self.backend.free_slots() as u64);
        let geometry = self.layout.geometry();
        while budget > 0 && fetch.pos < fetch.entry.instructions {
            let pc = fetch.entry.start.add_instructions(fetch.pos);
            let line = geometry.line_of(pc);
            if fetch.accessed_line != Some(line) {
                let outcome = self.hierarchy.demand_fetch(line, self.now);
                let missed = !matches!(outcome.level, HitLevel::L1 | HitLevel::PrefetchBuffer);
                let previous = self.last_fetched_line;
                Self::with_ctx(
                    &self.config,
                    self.layout,
                    &mut self.hierarchy,
                    &mut self.btb,
                    &mut self.btb_prefetch_buffer,
                    self.now,
                    self.mechanism.as_mut(),
                    |m, ctx| m.on_demand_fetch(line, previous, missed, ctx),
                );
                fetch.accessed_line = Some(line);
                self.last_fetched_line = Some(line);
                if missed {
                    fetch.busy_until = self.now + outcome.latency;
                    return;
                }
            }
            // Burst every instruction the current line can still supply:
            // one `push_instructions` call draws the same per-instruction
            // latencies as single pushes would, without per-instruction loop
            // and tag-check overhead.
            let chunk = budget
                .min(fetch.entry.instructions - fetch.pos)
                .min(geometry.instructions_left_in_line(pc));
            let accepted = self.backend.push_instructions(chunk, self.now);
            fetch.pos += accepted;
            budget -= accepted;
            if accepted < chunk {
                return;
            }
        }

        if fetch.pos >= fetch.entry.instructions {
            let entry = fetch.entry;
            self.fetch = None;
            self.commit_block(entry);
        }
    }

    /// Commits a fully fetched correct-path block: trains the predictor,
    /// fills the BTB, notifies the mechanism, and starts the wrong-path
    /// episode if the BPU mispredicted this block's successor.
    fn commit_block(&mut self, entry: FtqEntry) {
        let block = self.trace.block(entry.oracle_index);
        let terminator = block
            .block
            .terminator
            .expect("trace blocks always carry a terminator");
        self.stats.instructions += block.instructions();
        self.committed_blocks += 1;

        if terminator.kind == BranchKind::Conditional {
            self.predictor.update(terminator.pc, block.outcome.taken);
        }

        // Demand BTB fill at branch resolution: the entry reflects the actual
        // executed block, with indirect branches remembering their last
        // target.
        let mut btb_entry = BtbEntry::from_block(block.start(), block.instructions(), terminator);
        if btb_entry.target.is_none() && block.outcome.taken {
            btb_entry.target = Some(block.outcome.next_pc);
        }
        self.btb.insert(btb_entry);

        Self::with_ctx(
            &self.config,
            self.layout,
            &mut self.hierarchy,
            &mut self.btb,
            &mut self.btb_prefetch_buffer,
            self.now,
            self.mechanism.as_mut(),
            |m, ctx| m.on_commit(&block, ctx),
        );

        if let Some(cause) = entry.mispredicted {
            let wrong_start = block.block.fall_through();
            self.wrong_path = Some(WrongPath {
                resolve_at: self.now + self.config.branch_resolution_latency,
                cause,
                next_prefetch_line: self.layout.geometry().line_of(wrong_start),
                lines_prefetched: 0,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mechanism::NoPrefetch;
    use sim_core::PerfectComponents;
    use workloads::{Trace, WorkloadProfile};

    fn setup() -> (CodeLayout, Trace) {
        let layout = CodeLayout::generate(&WorkloadProfile::tiny(77));
        let trace = Trace::generate_blocks(&layout, 20_000);
        (layout, trace)
    }

    fn run(config: MicroarchConfig, layout: &CodeLayout, trace: &Trace) -> SimStats {
        let mut sim = Simulator::new(config, layout, trace, Box::new(NoPrefetch::new()));
        sim.run_with_warmup(2_000)
    }

    #[test]
    fn baseline_run_is_sane() {
        let (layout, trace) = setup();
        let stats = run(MicroarchConfig::hpca17(), &layout, &trace);
        assert!(
            stats.instructions > 50_000,
            "instructions {}",
            stats.instructions
        );
        assert!(
            stats.cycles > stats.instructions / 3,
            "cycles {}",
            stats.cycles
        );
        let ipc = stats.ipc();
        assert!(ipc > 0.1 && ipc <= 3.0, "implausible IPC {ipc}");
        assert!(
            stats.fetch_stall_cycles > 0,
            "a cold 32KB L1-I must stall sometimes"
        );
        assert!(stats.squashes.total() > 0);
        assert!(stats.btb_lookups > 0);
        assert!(stats.miss_breakdown.total() == stats.fetch_stall_cycles);
    }

    #[test]
    fn event_horizon_matches_per_cycle_reference() {
        let (layout, trace) = setup();
        for config in [
            MicroarchConfig::hpca17(),
            MicroarchConfig::hpca17().with_btb_entries(256),
            MicroarchConfig::hpca17().with_noc(sim_core::NocModel::Fixed(70)),
        ] {
            let fast = run(config.clone(), &layout, &trace);
            let slow = Simulator::new(config.clone(), &layout, &trace, Box::new(NoPrefetch::new()))
                .run_with_warmup_reference(2_000);
            assert_eq!(fast, slow);
            // An expanded slice is the same oracle path as the stored trace.
            let expanded =
                Simulator::new(config, &layout, trace.blocks(), Box::new(NoPrefetch::new()))
                    .run_with_warmup(2_000);
            assert_eq!(fast, expanded);
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let (layout, trace) = setup();
        let a = run(MicroarchConfig::hpca17(), &layout, &trace);
        let b = run(MicroarchConfig::hpca17(), &layout, &trace);
        assert_eq!(a, b);
    }

    #[test]
    fn perfect_l1i_removes_fetch_stalls_and_improves_performance() {
        let (layout, trace) = setup();
        let base = run(MicroarchConfig::hpca17(), &layout, &trace);
        let perfect = run(
            MicroarchConfig::hpca17().with_perfect(PerfectComponents::l1i()),
            &layout,
            &trace,
        );
        assert_eq!(perfect.fetch_stall_cycles, 0);
        assert!(perfect.cycles < base.cycles);
        assert!(perfect.speedup_vs(&base) > 1.0);
    }

    #[test]
    fn perfect_btb_eliminates_btb_miss_squashes() {
        let (layout, trace) = setup();
        let base = run(MicroarchConfig::hpca17(), &layout, &trace);
        let perfect = run(
            MicroarchConfig::hpca17().with_perfect(PerfectComponents::l1i_and_btb()),
            &layout,
            &trace,
        );
        assert!(
            base.squashes.btb_miss > 0,
            "baseline must suffer BTB-miss squashes"
        );
        assert_eq!(perfect.squashes.btb_miss, 0);
        assert!(perfect.cycles <= base.cycles);
    }

    #[test]
    fn bigger_btb_reduces_btb_miss_squashes() {
        let (layout, trace) = setup();
        let small = run(
            MicroarchConfig::hpca17().with_btb_entries(256),
            &layout,
            &trace,
        );
        let large = run(
            MicroarchConfig::hpca17().with_btb_entries(32 * 1024),
            &layout,
            &trace,
        );
        assert!(
            large.squashes.btb_miss < small.squashes.btb_miss,
            "32K-entry BTB ({}) must squash less than 256-entry ({})",
            large.squashes.btb_miss,
            small.squashes.btb_miss
        );
        assert!(large.cycles <= small.cycles);
    }

    #[test]
    fn higher_llc_latency_costs_cycles() {
        let (layout, trace) = setup();
        let fast = run(
            MicroarchConfig::hpca17().with_noc(sim_core::NocModel::Fixed(5)),
            &layout,
            &trace,
        );
        let slow = run(
            MicroarchConfig::hpca17().with_noc(sim_core::NocModel::Fixed(70)),
            &layout,
            &trace,
        );
        assert!(slow.cycles > fast.cycles);
        assert!(slow.fetch_stall_cycles > fast.fetch_stall_cycles);
    }

    #[test]
    fn stats_internal_consistency() {
        let (layout, trace) = setup();
        let stats = run(MicroarchConfig::hpca17(), &layout, &trace);
        assert!(stats.conditional_mispredictions <= stats.conditional_predictions);
        assert!(stats.btb_misses <= stats.btb_lookups);
        assert!(
            stats.squashes.total() * 5 < stats.instructions,
            "squash rate implausible"
        );
        // Misprediction rate with TAGE on these workloads should be modest.
        assert!(
            stats.misprediction_rate() < 0.2,
            "rate {}",
            stats.misprediction_rate()
        );
    }
}
