//! Simulation metrics: exactly the quantities the paper's figures report.

use crate::ftq::{Reached, SquashCause};

/// Front-end stall cycles broken down by the discontinuity class of the
/// missing block (Figure 3's categories).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MissBreakdown {
    /// Stall cycles on blocks reached sequentially.
    pub sequential: u64,
    /// Stall cycles on blocks reached through a taken conditional branch.
    pub conditional: u64,
    /// Stall cycles on blocks reached through an unconditional branch.
    pub unconditional: u64,
}

impl MissBreakdown {
    /// Adds `cycles` to the category for `reached`.
    pub fn add(&mut self, reached: Reached, cycles: u64) {
        match reached {
            Reached::Sequential => self.sequential += cycles,
            Reached::ConditionalTaken => self.conditional += cycles,
            Reached::UnconditionalTaken => self.unconditional += cycles,
        }
    }

    /// Total stall cycles across the three categories.
    pub fn total(&self) -> u64 {
        self.sequential + self.conditional + self.unconditional
    }

    /// The three categories as fractions of the total.
    pub fn fractions(&self) -> [f64; 3] {
        let total = self.total();
        if total == 0 {
            return [0.0; 3];
        }
        [
            self.sequential as f64 / total as f64,
            self.conditional as f64 / total as f64,
            self.unconditional as f64 / total as f64,
        ]
    }
}

/// Pipeline squash counts split by cause (Figure 7's categories).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SquashStats {
    /// Squashes caused by BTB misses on eventually-taken branches.
    pub btb_miss: u64,
    /// Squashes caused by direction or target mispredictions.
    pub misprediction: u64,
}

impl SquashStats {
    /// Records one squash.
    pub fn record(&mut self, cause: SquashCause) {
        match cause {
            SquashCause::BtbMiss => self.btb_miss += 1,
            SquashCause::Misprediction => self.misprediction += 1,
        }
    }

    /// Total squashes.
    pub fn total(&self) -> u64 {
        self.btb_miss + self.misprediction
    }

    /// Squashes per kilo-instruction.
    pub fn per_kilo_instruction(&self, instructions: u64) -> SquashRates {
        let scale = |n: u64| {
            if instructions == 0 {
                0.0
            } else {
                n as f64 * 1000.0 / instructions as f64
            }
        };
        SquashRates {
            btb_miss: scale(self.btb_miss),
            misprediction: scale(self.misprediction),
        }
    }
}

/// Squashes per kilo-instruction, by cause.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SquashRates {
    /// BTB-miss-induced squashes per kilo-instruction.
    pub btb_miss: f64,
    /// Misprediction-induced squashes per kilo-instruction.
    pub misprediction: f64,
}

impl SquashRates {
    /// Total squashes per kilo-instruction.
    pub fn total(&self) -> f64 {
        self.btb_miss + self.misprediction
    }
}

/// Full set of metrics produced by one simulation run.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SimStats {
    /// Correct-path instructions fetched and retired.
    pub instructions: u64,
    /// Total cycles simulated.
    pub cycles: u64,
    /// Correct-path cycles the fetch engine stalled waiting for an L1-I fill.
    pub fetch_stall_cycles: u64,
    /// Breakdown of those stall cycles by discontinuity class.
    pub miss_breakdown: MissBreakdown,
    /// Cycles the fetch engine idled because of a pipeline squash (resolution
    /// latency plus refill bubbles).
    pub squash_stall_cycles: u64,
    /// Cycles the fetch engine idled because the FTQ was empty for another
    /// reason (e.g. the BPU stalled resolving a BTB miss in Boomerang).
    pub ftq_empty_cycles: u64,
    /// Cycles fetch was blocked because the ROB was full (back-end bound).
    pub rob_full_cycles: u64,
    /// Pipeline squashes by cause.
    pub squashes: SquashStats,
    /// BTB lookups made by the branch prediction unit.
    pub btb_lookups: u64,
    /// BTB misses observed by the branch prediction unit.
    pub btb_misses: u64,
    /// Demand fetches that hit in the L1-I prefetch buffer.
    pub prefetch_buffer_hits: u64,
    /// Prefetch probes issued to the memory hierarchy.
    pub prefetches_issued: u64,
    /// Conditional branches whose direction was predicted.
    pub conditional_predictions: u64,
    /// Conditional branches whose direction was mispredicted.
    pub conditional_mispredictions: u64,
}

impl SimStats {
    /// Instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.instructions as f64 / self.cycles as f64
        }
    }

    /// Squashes per kilo-instruction by cause.
    pub fn squashes_per_kilo(&self) -> SquashRates {
        self.squashes.per_kilo_instruction(self.instructions)
    }

    /// Conditional direction misprediction rate.
    pub fn misprediction_rate(&self) -> f64 {
        if self.conditional_predictions == 0 {
            0.0
        } else {
            self.conditional_mispredictions as f64 / self.conditional_predictions as f64
        }
    }

    /// BTB miss rate seen by the branch prediction unit.
    pub fn btb_miss_rate(&self) -> f64 {
        if self.btb_lookups == 0 {
            0.0
        } else {
            self.btb_misses as f64 / self.btb_lookups as f64
        }
    }

    /// Front-end stall-cycle coverage relative to a baseline run (Figures 2,
    /// 5, 8): the fraction of the baseline's fetch stall cycles this run
    /// eliminated.
    pub fn stall_coverage_vs(&self, baseline: &SimStats) -> f64 {
        sim_core::stats::coverage(baseline.fetch_stall_cycles, self.fetch_stall_cycles)
    }

    /// Speedup relative to a baseline run with the same instruction count
    /// (Figures 1, 9, 10, 11).
    pub fn speedup_vs(&self, baseline: &SimStats) -> f64 {
        sim_core::stats::speedup(baseline.cycles, self.cycles)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn miss_breakdown_accounting() {
        let mut b = MissBreakdown::default();
        b.add(Reached::Sequential, 50);
        b.add(Reached::ConditionalTaken, 30);
        b.add(Reached::UnconditionalTaken, 20);
        assert_eq!(b.total(), 100);
        let f = b.fractions();
        assert!((f[0] - 0.5).abs() < 1e-12);
        assert!((f[1] - 0.3).abs() < 1e-12);
        assert!((f[2] - 0.2).abs() < 1e-12);
        assert_eq!(MissBreakdown::default().fractions(), [0.0; 3]);
    }

    #[test]
    fn squash_rates() {
        let mut s = SquashStats::default();
        for _ in 0..6 {
            s.record(SquashCause::BtbMiss);
        }
        for _ in 0..4 {
            s.record(SquashCause::Misprediction);
        }
        assert_eq!(s.total(), 10);
        let rates = s.per_kilo_instruction(2000);
        assert!((rates.btb_miss - 3.0).abs() < 1e-12);
        assert!((rates.misprediction - 2.0).abs() < 1e-12);
        assert!((rates.total() - 5.0).abs() < 1e-12);
        assert_eq!(s.per_kilo_instruction(0).total(), 0.0);
    }

    #[test]
    fn derived_metrics() {
        let baseline = SimStats {
            instructions: 1000,
            cycles: 2000,
            fetch_stall_cycles: 800,
            ..SimStats::default()
        };
        let improved = SimStats {
            instructions: 1000,
            cycles: 1000,
            fetch_stall_cycles: 200,
            ..SimStats::default()
        };
        assert!((baseline.ipc() - 0.5).abs() < 1e-12);
        assert!((improved.stall_coverage_vs(&baseline) - 0.75).abs() < 1e-12);
        assert!((improved.speedup_vs(&baseline) - 2.0).abs() < 1e-12);
        assert_eq!(SimStats::default().ipc(), 0.0);
        assert_eq!(SimStats::default().misprediction_rate(), 0.0);
        assert_eq!(SimStats::default().btb_miss_rate(), 0.0);
    }
}
