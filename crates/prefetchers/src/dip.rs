//! Discontinuity instruction prefetcher (DIP, Spracklen et al.).
//!
//! DIP records, in a *discontinuity prediction table*, pairs of cache lines
//! (`from`, `to`) where a demand miss on `to` followed a fetch from a
//! non-sequential `from` line. On later demand fetches of `from`, the
//! recorded discontinuity target is prefetched. Per §V-A the paper pairs an
//! 8K-entry table with a next-2-line prefetcher; this implementation does the
//! same.

use frontend::{ControlFlowMechanism, MechContext};
use sim_core::{CacheLine, FxHashMap};

/// Discontinuity prefetcher + next-N-line.
#[derive(Clone, Debug)]
pub struct Dip {
    table: FxHashMap<CacheLine, CacheLine>,
    insertion_order: Vec<CacheLine>,
    capacity: usize,
    next_line_degree: u64,
    last_line: Option<CacheLine>,
}

impl Dip {
    /// Creates a DIP with a `capacity`-entry discontinuity table and a
    /// next-`next_line_degree`-line sequential prefetcher.
    pub fn new(capacity: usize, next_line_degree: u64) -> Self {
        assert!(
            capacity > 0,
            "the discontinuity table needs at least one entry"
        );
        Dip {
            table: FxHashMap::default(),
            insertion_order: Vec::with_capacity(capacity),
            capacity,
            next_line_degree,
            last_line: None,
        }
    }

    /// Number of discontinuities currently recorded.
    pub fn table_len(&self) -> usize {
        self.table.len()
    }

    fn record(&mut self, from: CacheLine, to: CacheLine) {
        if let std::collections::hash_map::Entry::Occupied(mut e) = self.table.entry(from) {
            e.insert(to);
            return;
        }
        if self.table.len() >= self.capacity {
            // FIFO eviction of the oldest recorded discontinuity.
            let victim = self.insertion_order.remove(0);
            self.table.remove(&victim);
        }
        self.table.insert(from, to);
        self.insertion_order.push(from);
    }
}

impl ControlFlowMechanism for Dip {
    fn on_demand_fetch(
        &mut self,
        line: CacheLine,
        previous_line: Option<CacheLine>,
        missed: bool,
        ctx: &mut MechContext<'_>,
    ) {
        // Sequential component.
        for i in 1..=self.next_line_degree {
            ctx.prefetch_line(line.step(i));
        }
        // Discontinuity component: prefetch the recorded target of this line.
        if let Some(&target) = self.table.get(&line) {
            ctx.prefetch_line(target);
            ctx.prefetch_line(target.next());
        }
        // Train on misses that follow a non-sequential transition.
        if missed {
            if let Some(prev) = previous_line {
                let distance = line.distance(prev);
                if distance > self.next_line_degree {
                    self.record(prev, line);
                }
            }
        }
        self.last_line = previous_line;
    }

    fn storage_overhead_bits(&self) -> u64 {
        // Each entry: ~40-bit line tag + ~40-bit target line.
        self.capacity as u64 * 80
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use frontend::Simulator;
    use sim_core::MicroarchConfig;
    use workloads::{CodeLayout, Trace, WorkloadProfile};

    #[test]
    fn table_records_and_evicts_fifo() {
        let mut dip = Dip::new(2, 2);
        dip.record(CacheLine(1), CacheLine(100));
        dip.record(CacheLine(2), CacheLine(200));
        assert_eq!(dip.table_len(), 2);
        dip.record(CacheLine(3), CacheLine(300));
        assert_eq!(dip.table_len(), 2);
        assert!(
            !dip.table.contains_key(&CacheLine(1)),
            "oldest entry evicted"
        );
        // Re-recording an existing key updates in place without eviction.
        dip.record(CacheLine(2), CacheLine(999));
        assert_eq!(dip.table[&CacheLine(2)], CacheLine(999));
        assert_eq!(dip.table_len(), 2);
    }

    #[test]
    fn storage_matches_an_8k_entry_table() {
        let dip = Dip::new(8 * 1024, 2);
        let bytes = dip.storage_overhead_bits() / 8;
        assert!(bytes > 60 * 1024 && bytes < 100 * 1024, "{bytes} bytes");
    }

    #[test]
    fn dip_beats_the_no_prefetch_baseline() {
        let layout = CodeLayout::generate(&WorkloadProfile::tiny(29));
        let trace = Trace::generate_blocks(&layout, 15_000);
        let baseline = Simulator::new(
            MicroarchConfig::hpca17(),
            &layout,
            &trace,
            Box::new(frontend::NoPrefetch::new()),
        )
        .run_with_warmup(1_000);
        let dip = Simulator::new(
            MicroarchConfig::hpca17(),
            &layout,
            &trace,
            Box::new(Dip::new(8 * 1024, 2)),
        )
        .run_with_warmup(1_000);
        assert!(dip.fetch_stall_cycles < baseline.fetch_stall_cycles);
        assert!(dip.speedup_vs(&baseline) >= 1.0);
    }

    #[test]
    #[should_panic(expected = "at least one entry")]
    fn zero_capacity_rejected() {
        let _ = Dip::new(0, 2);
    }
}
