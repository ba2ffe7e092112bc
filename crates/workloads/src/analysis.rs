//! Workload characterisation helpers.
//!
//! These functions compute the workload-level statistics the paper uses to
//! motivate its design:
//!
//! * the distance, in cache blocks, between a taken conditional branch and
//!   its target (Figure 4) — the key reason branch-predictor-directed
//!   prefetching works even with an imperfect predictor;
//! * the size of the active branch and instruction working sets, which is
//!   what defeats practical BTBs and L1-I caches in the first place.

use crate::trace::Trace;
use sim_core::{BranchKind, LineGeometry};
use std::collections::HashSet;

/// Histogram of taken-conditional-branch target distances in cache blocks.
///
/// `buckets[d]` counts taken conditional branches whose target lies exactly
/// `d` cache blocks away from the branch instruction, for `d` in
/// `0..=max_distance`; branches further away land in the overflow bucket.
#[derive(Clone, Debug, PartialEq)]
pub struct BranchDistanceHistogram {
    buckets: Vec<u64>,
    overflow: u64,
    total: u64,
}

impl BranchDistanceHistogram {
    /// Measures the histogram over a dynamic trace.
    pub fn measure(trace: &Trace, geometry: LineGeometry, max_distance: u64) -> Self {
        let mut buckets = vec![0u64; (max_distance + 1) as usize];
        let mut overflow = 0u64;
        let mut total = 0u64;
        for d in trace.iter() {
            let term = match d.block.terminator {
                Some(t) => t,
                None => continue,
            };
            if term.kind != BranchKind::Conditional || !d.outcome.taken {
                continue;
            }
            let dist = geometry.line_distance(term.pc, d.outcome.next_pc);
            total += 1;
            if dist <= max_distance {
                buckets[dist as usize] += 1;
            } else {
                overflow += 1;
            }
        }
        BranchDistanceHistogram {
            buckets,
            overflow,
            total,
        }
    }

    /// Total taken conditional branches observed.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Fraction of taken conditional branches at exactly distance `d`.
    pub fn fraction_at(&self, d: u64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        self.buckets
            .get(d as usize)
            .map(|&c| c as f64 / self.total as f64)
            .unwrap_or(0.0)
    }

    /// Cumulative fraction of taken conditional branches within `d` cache
    /// blocks (the y-axis of Figure 4).
    pub fn cumulative_within(&self, d: u64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let upto: u64 = self.buckets.iter().take((d + 1) as usize).sum();
        upto as f64 / self.total as f64
    }

    /// The per-distance cumulative series for distances `0..=max`, as plotted
    /// in Figure 4.
    pub fn cumulative_series(&self) -> Vec<f64> {
        (0..self.buckets.len() as u64)
            .map(|d| self.cumulative_within(d))
            .collect()
    }
}

/// Aggregate working-set statistics of a trace.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WorkingSetStats {
    /// Distinct cache lines touched by instruction fetch.
    pub instruction_lines: usize,
    /// Distinct static branch PCs executed.
    pub branch_working_set: usize,
    /// Distinct static branch PCs that were taken at least once — the set a
    /// BTB actually needs to hold.
    pub taken_branch_working_set: usize,
    /// Distinct basic blocks executed.
    pub distinct_blocks: usize,
    /// Dynamic instruction count.
    pub instructions: u64,
}

impl WorkingSetStats {
    /// Measures the working sets of a trace.
    pub fn measure(trace: &Trace, geometry: LineGeometry) -> Self {
        let mut lines = HashSet::new();
        let mut branches = HashSet::new();
        let mut taken_branches = HashSet::new();
        let mut blocks = HashSet::new();
        for d in trace.iter() {
            blocks.insert(d.start());
            for line in geometry.lines_spanned(d.start(), d.instructions()) {
                lines.insert(line);
            }
            if let Some(term) = d.block.terminator {
                branches.insert(term.pc);
                if d.outcome.taken {
                    taken_branches.insert(term.pc);
                }
            }
        }
        WorkingSetStats {
            instruction_lines: lines.len(),
            branch_working_set: branches.len(),
            taken_branch_working_set: taken_branches.len(),
            distinct_blocks: blocks.len(),
            instructions: trace.instructions(),
        }
    }

    /// Active instruction footprint in bytes.
    pub fn footprint_bytes(&self, geometry: LineGeometry) -> u64 {
        self.instruction_lines as u64 * geometry.line_bytes()
    }
}

/// Dynamic branch mix of a trace: how often each branch kind executes and how
/// often it is taken.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BranchMix {
    /// Executed conditional branches.
    pub conditional: u64,
    /// Taken conditional branches.
    pub conditional_taken: u64,
    /// Executed unconditional branches (jumps, calls, returns, indirect).
    pub unconditional: u64,
    /// Total dynamic instructions.
    pub instructions: u64,
}

impl BranchMix {
    /// Measures the dynamic branch mix of a trace.
    pub fn measure(trace: &Trace) -> Self {
        let mut mix = BranchMix {
            instructions: trace.instructions(),
            ..BranchMix::default()
        };
        for d in trace.iter() {
            let term = match d.block.terminator {
                Some(t) => t,
                None => continue,
            };
            if term.kind == BranchKind::Conditional {
                mix.conditional += 1;
                if d.outcome.taken {
                    mix.conditional_taken += 1;
                }
            } else {
                mix.unconditional += 1;
            }
        }
        mix
    }

    /// Dynamic conditional branches per kilo-instruction.
    pub fn conditional_per_kilo_instruction(&self) -> f64 {
        if self.instructions == 0 {
            return 0.0;
        }
        self.conditional as f64 * 1000.0 / self.instructions as f64
    }

    /// Fraction of executed conditional branches that were taken.
    pub fn conditional_taken_rate(&self) -> f64 {
        if self.conditional == 0 {
            return 0.0;
        }
        self.conditional_taken as f64 / self.conditional as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::CodeLayout;
    use crate::profile::WorkloadProfile;

    fn sample() -> (CodeLayout, Trace) {
        let layout = CodeLayout::generate(&WorkloadProfile::tiny(33));
        let trace = Trace::generate_blocks(&layout, 60_000);
        (layout, trace)
    }

    #[test]
    fn distance_histogram_matches_figure4_shape() {
        let (layout, trace) = sample();
        let hist = BranchDistanceHistogram::measure(&trace, layout.geometry(), 8);
        assert!(hist.total() > 1000);
        // Figure 4: ~92 % of taken conditional branches land within 4 blocks.
        let within4 = hist.cumulative_within(4);
        assert!(
            within4 > 0.85,
            "only {:.1}% of taken conditionals within 4 blocks",
            within4 * 100.0
        );
        // ...but not all of them: there must be a far tail.
        let within8 = hist.cumulative_within(8);
        assert!(within8 < 1.0, "the far-target tail is missing");
        // The cumulative series is monotone.
        let series = hist.cumulative_series();
        assert_eq!(series.len(), 9);
        for pair in series.windows(2) {
            assert!(pair[1] >= pair[0]);
        }
        // Fractions at individual distances sum to the cumulative value.
        let sum: f64 = (0..=4).map(|d| hist.fraction_at(d)).sum();
        assert!((sum - within4).abs() < 1e-9);
    }

    #[test]
    fn empty_trace_yields_zero_statistics() {
        let layout = CodeLayout::generate(&WorkloadProfile::tiny(3));
        let empty = Trace::generate_blocks(&layout, 0);
        let hist = BranchDistanceHistogram::measure(&empty, layout.geometry(), 8);
        assert_eq!(hist.total(), 0);
        assert_eq!(hist.cumulative_within(4), 0.0);
        assert_eq!(hist.fraction_at(0), 0.0);
        let mix = BranchMix::measure(&empty);
        assert_eq!(mix.conditional_per_kilo_instruction(), 0.0);
        assert_eq!(mix.conditional_taken_rate(), 0.0);
    }

    #[test]
    fn working_set_exceeds_l1i_and_small_btb() {
        let (layout, trace) = sample();
        let ws = WorkingSetStats::measure(&trace, layout.geometry());
        assert!(ws.instructions > 100_000);
        assert!(ws.distinct_blocks > 400);
        assert!(ws.branch_working_set >= ws.taken_branch_working_set);
        assert!(ws.footprint_bytes(layout.geometry()) >= ws.instruction_lines as u64 * 64);
    }

    #[test]
    fn branch_mix_is_consistent() {
        let (_, trace) = sample();
        let mix = BranchMix::measure(&trace);
        assert_eq!(
            mix.conditional + mix.unconditional,
            trace.len() as u64,
            "every block ends in exactly one branch"
        );
        assert!(mix.conditional_taken <= mix.conditional);
        assert!(mix.conditional_per_kilo_instruction() > 50.0);
        let rate = mix.conditional_taken_rate();
        assert!((0.2..=0.9).contains(&rate), "taken rate {rate}");
    }
}
