//! Temporal-streaming instruction prefetchers: PIF and SHIFT.
//!
//! Both record the sequence of cache lines the correct-path (retire) stream
//! touches and, on a demand miss, look the missing line up in that history
//! and replay the lines that followed it last time as prefetches.
//!
//! * **PIF** (Proactive Instruction Fetch) keeps the history *private* to the
//!   core: lookups are immediate, but the metadata (the paper quotes >200 KB
//!   per core) must be stored next to the core.
//! * **SHIFT** (Shared History Instruction Fetch) virtualises one shared
//!   history into the LLC: per-core storage drops, but every stream lookup
//!   first pays an LLC round trip before prefetches can issue, and the
//!   history competes with data for LLC capacity.
//!
//! The implementation uses a circular history buffer plus an index table
//! mapping a line to its most recent position in the history — the same
//! structure the papers describe, sized to the paper's quoted configurations
//! (32K-entry history, 8K-entry index).

use frontend::{ControlFlowMechanism, MechContext};
use sim_core::{CacheLine, DynamicBlock, FxHashMap, Latency, OrderQueue};
use std::collections::VecDeque;

/// Shared temporal-streaming machinery used by both PIF and SHIFT.
#[derive(Clone, Debug)]
pub struct TemporalStreamer {
    /// Circular history of committed instruction lines.
    history: VecDeque<CacheLine>,
    history_capacity: usize,
    /// Most recent position (monotonic sequence number) of each line.
    index: FxHashMap<CacheLine, u64>,
    /// Index insertion order as `(line, seq)` slots; a slot tombstones once
    /// the line is re-recorded with a newer seq. Replaces the former
    /// full-index `min_by_key` scan (O(index) per eviction) with an
    /// amortised O(1) pop of the oldest live slot — the victim is identical,
    /// because the oldest live slot is exactly the index's minimum seq.
    index_order: OrderQueue<CacheLine>,
    index_capacity: usize,
    /// Sequence number of the oldest element still in `history`.
    base_seq: u64,
    /// Lines waiting to be issued as prefetches (with their earliest issue
    /// cycle, to model SHIFT's LLC metadata access latency).
    pending: VecDeque<(u64, CacheLine)>,
    /// How many successor lines to replay per stream lookup.
    stream_depth: usize,
    /// Extra latency before a looked-up stream starts issuing (0 for PIF,
    /// an LLC round trip for SHIFT).
    lookup_latency: Latency,
    lookups: u64,
    replays: u64,
}

impl TemporalStreamer {
    /// Creates a streamer with the given history/index capacities.
    pub fn new(
        history_capacity: usize,
        index_capacity: usize,
        stream_depth: usize,
        lookup_latency: Latency,
    ) -> Self {
        assert!(history_capacity > 0 && index_capacity > 0 && stream_depth > 0);
        TemporalStreamer {
            history: VecDeque::with_capacity(history_capacity),
            history_capacity,
            index: FxHashMap::default(),
            index_order: OrderQueue::new(2 * index_capacity),
            index_capacity,
            base_seq: 0,
            pending: VecDeque::new(),
            stream_depth,
            lookup_latency,
            lookups: 0,
            replays: 0,
        }
    }

    /// Number of history entries currently held.
    pub fn history_len(&self) -> usize {
        self.history.len()
    }

    /// Stream lookups performed.
    pub fn lookups(&self) -> u64 {
        self.lookups
    }

    /// Lines replayed as prefetches.
    pub fn replays(&self) -> u64 {
        self.replays
    }

    /// Records a committed line in the history (consecutive duplicates are
    /// collapsed, as in the papers' spatial-region compaction).
    pub fn record(&mut self, line: CacheLine) {
        if self.history.back() == Some(&line) {
            return;
        }
        if self.history.len() == self.history_capacity {
            self.history.pop_front();
            self.base_seq += 1;
        }
        self.history.push_back(line);
        let seq = self.base_seq + self.history.len() as u64 - 1;
        if self.index.len() >= self.index_capacity && !self.index.contains_key(&line) {
            // Evict the oldest-seq entry to respect the index budget.
            let index = &self.index;
            if let Some(victim) = self
                .index_order
                .pop_oldest_live(|l, s| index.get(l) == Some(&s))
            {
                self.index.remove(&victim);
            }
        }
        let index = &self.index;
        self.index_order
            .maybe_compact(|l, s| index.get(l) == Some(&s));
        self.index.insert(line, seq);
        self.index_order.push(line, seq);
    }

    /// Looks up `line` and queues the lines that followed it in the recorded
    /// history as prefetch candidates, available `lookup_latency` cycles from
    /// `now`.
    pub fn stream_from(&mut self, line: CacheLine, now: u64) {
        self.lookups += 1;
        let Some(&seq) = self.index.get(&line) else {
            return;
        };
        if seq < self.base_seq {
            return; // The indexed position has already left the history.
        }
        let pos = (seq - self.base_seq) as usize;
        let ready = now + self.lookup_latency;
        for offset in 1..=self.stream_depth {
            if let Some(&next) = self.history.get(pos + offset) {
                self.pending.push_back((ready, next));
                self.replays += 1;
            }
        }
    }

    /// Issues up to `budget` pending prefetches that are ready at `now`.
    pub fn issue_pending(&mut self, budget: u64, ctx: &mut MechContext<'_>) {
        for _ in 0..budget {
            if self.issue_one(ctx).is_none() {
                break;
            }
        }
    }

    /// The cycle at which the oldest pending prefetch becomes ready, or
    /// `None` if nothing is pending. Issue order is FIFO, so nothing issues
    /// before the front entry's ready cycle.
    pub fn next_pending_ready(&self) -> Option<u64> {
        self.pending.front().map(|&(ready, _)| ready)
    }

    /// Issues at most one ready pending prefetch and returns the line it
    /// probed, or `None` if nothing was ready.
    pub fn issue_one(&mut self, ctx: &mut MechContext<'_>) -> Option<CacheLine> {
        match self.pending.front() {
            Some(&(ready, line)) if ready <= ctx.now => {
                ctx.prefetch_line(line);
                self.pending.pop_front();
                Some(line)
            }
            _ => None,
        }
    }

    /// Storage of the history + index metadata in bits (each history entry is
    /// a ~40-bit line address; each index entry a ~40-bit tag plus a pointer).
    pub fn storage_bits(&self) -> u64 {
        let history_bits = self.history_capacity as u64 * 40;
        let index_bits = self.index_capacity as u64 * (40 + 16);
        history_bits + index_bits
    }
}

/// Proactive Instruction Fetch: private temporal streaming (Ferdman et al.).
#[derive(Clone, Debug)]
pub struct Pif {
    streamer: TemporalStreamer,
}

impl Pif {
    /// Creates PIF with the paper's 32K-entry history and 8K-entry index.
    pub fn new() -> Self {
        Pif {
            streamer: TemporalStreamer::new(32 * 1024, 8 * 1024, 12, 0),
        }
    }

    /// Access to the underlying streamer (for tests and diagnostics).
    pub fn streamer(&self) -> &TemporalStreamer {
        &self.streamer
    }
}

impl Default for Pif {
    fn default() -> Self {
        Pif::new()
    }
}

impl ControlFlowMechanism for Pif {
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
        if missed {
            self.streamer.stream_from(line, ctx.now);
        }
    }

    fn tick(&mut self, ctx: &mut MechContext<'_>) {
        let budget = ctx.config.prefetch_probes_per_cycle;
        self.streamer.issue_pending(budget, ctx);
    }

    fn next_tick_event(&self) -> Option<u64> {
        self.streamer.next_pending_ready()
    }

    fn storage_overhead_bits(&self) -> u64 {
        self.streamer.storage_bits()
    }
}

/// Shared History Instruction Fetch: LLC-virtualised temporal streaming
/// (Kaynak et al.).
#[derive(Clone, Debug)]
pub struct Shift {
    streamer: TemporalStreamer,
    configured_lookup_latency: Latency,
}

impl Shift {
    /// Creates SHIFT with the paper's 32K-entry history and 8K-entry index,
    /// with stream lookups delayed by an LLC round trip (the history lives in
    /// the LLC).
    pub fn new() -> Self {
        let llc_latency = sim_core::MicroarchConfig::hpca17().llc_round_trip();
        Shift {
            streamer: TemporalStreamer::new(32 * 1024, 8 * 1024, 12, llc_latency),
            configured_lookup_latency: llc_latency,
        }
    }

    /// The extra latency each stream lookup pays to reach the LLC-resident
    /// metadata.
    pub fn lookup_latency(&self) -> Latency {
        self.configured_lookup_latency
    }

    /// Access to the underlying streamer (for tests and diagnostics).
    pub fn streamer(&self) -> &TemporalStreamer {
        &self.streamer
    }
}

impl Default for Shift {
    fn default() -> Self {
        Shift::new()
    }
}

impl ControlFlowMechanism for Shift {
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
        if missed {
            self.streamer.stream_from(line, ctx.now);
        }
    }

    fn tick(&mut self, ctx: &mut MechContext<'_>) {
        let budget = ctx.config.prefetch_probes_per_cycle;
        self.streamer.issue_pending(budget, ctx);
    }

    fn next_tick_event(&self) -> Option<u64> {
        self.streamer.next_pending_ready()
    }

    fn storage_overhead_bits(&self) -> u64 {
        // The history is virtualised into the LLC; the dedicated cost the
        // paper quotes is the LLC tag-array extension for the index table
        // (~240 KB for an 8 MB LLC).
        240 * 1024 * 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use frontend::{NoPrefetch, Simulator};
    use sim_core::MicroarchConfig;
    use workloads::{CodeLayout, Trace, WorkloadProfile};

    #[test]
    fn streamer_records_and_replays() {
        let mut s = TemporalStreamer::new(16, 16, 3, 0);
        for i in 0..8u64 {
            s.record(CacheLine(i));
        }
        assert_eq!(s.history_len(), 8);
        // Duplicate consecutive lines are collapsed.
        s.record(CacheLine(7));
        assert_eq!(s.history_len(), 8);
        s.stream_from(CacheLine(3), 0);
        assert_eq!(s.lookups(), 1);
        assert_eq!(s.replays(), 3);
        // Unknown lines replay nothing.
        s.stream_from(CacheLine(999), 0);
        assert_eq!(s.replays(), 3);
    }

    #[test]
    fn streamer_history_wraps_and_index_stays_valid() {
        let mut s = TemporalStreamer::new(4, 4, 2, 0);
        for i in 0..20u64 {
            s.record(CacheLine(i));
        }
        assert_eq!(s.history_len(), 4);
        // A line that has aged out of the history does not replay.
        s.stream_from(CacheLine(0), 0);
        assert_eq!(s.replays(), 0);
        // A recent line does.
        s.stream_from(CacheLine(17), 0);
        assert!(s.replays() > 0);
    }

    #[test]
    fn pif_and_shift_cover_stall_cycles() {
        // Temporal streamers can only cover *recurring* misses: the active
        // code footprint must comfortably exceed the 32 KB L1-I so that lines
        // recorded in the history are evicted and miss again after warmup.
        // The stock tiny profile (48 KB) barely overflows the L1-I — its
        // post-warmup misses are almost entirely compulsory, which PIF/SHIFT
        // cannot replay — so this test widens the footprint to 4x the L1-I
        // and runs long enough for the working set to wrap several times.
        let profile = WorkloadProfile::tiny(53).with_footprint_bytes(128 * 1024);
        let layout = CodeLayout::generate(&profile);
        let trace = Trace::generate_blocks(&layout, 40_000);
        let cfg = MicroarchConfig::hpca17();
        let baseline = Simulator::new(cfg.clone(), &layout, &trace, Box::new(NoPrefetch::new()))
            .run_with_warmup(8_000);
        let pif = Simulator::new(cfg.clone(), &layout, &trace, Box::new(Pif::new()))
            .run_with_warmup(8_000);
        let shift =
            Simulator::new(cfg, &layout, &trace, Box::new(Shift::new())).run_with_warmup(8_000);
        assert!(
            pif.fetch_stall_cycles < baseline.fetch_stall_cycles,
            "PIF must cover stalls ({} vs {})",
            pif.fetch_stall_cycles,
            baseline.fetch_stall_cycles
        );
        assert!(shift.fetch_stall_cycles < baseline.fetch_stall_cycles);
        // SHIFT's LLC-resident metadata makes it no better than PIF.
        assert!(shift.fetch_stall_cycles >= pif.fetch_stall_cycles * 9 / 10);
    }

    #[test]
    fn storage_costs_match_the_papers_quotes() {
        let pif = Pif::new();
        let pif_kb = pif.storage_overhead_bits() / 8 / 1024;
        assert!((180..=260).contains(&pif_kb), "PIF metadata {pif_kb} KB");
        let shift = Shift::new();
        assert_eq!(shift.storage_overhead_bits() / 8 / 1024, 240);
        assert!(shift.lookup_latency() > 0);
    }
}
