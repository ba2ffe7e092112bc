//! A simplified out-of-order back end.
//!
//! The paper's contribution is entirely in the front end; the back end only
//! matters because its data stalls and finite ROB determine how much of the
//! front-end improvement turns into end-to-end speedup (Figures 1 and 9
//! saturate between 1.1x and 1.7x). This model captures exactly that:
//! instructions enter a finite ROB with a completion time drawn from the
//! workload's [`BackendProfile`], retire in order
//! at the core's retire width, and exert back-pressure on fetch when the ROB
//! fills.

use sim_core::rng::SimRng;
use sim_core::{Latency, MicroarchConfig};
use workloads::BackendProfile;

/// A fixed ring buffer of in-order completion times: the retire loop runs
/// every simulated cycle, so the ROB avoids `VecDeque`'s growable-capacity
/// indexing in favour of a power-of-two ring sized once at construction.
#[derive(Clone, Debug)]
struct Rob {
    slots: Box<[u64]>,
    mask: usize,
    head: usize,
    len: usize,
}

impl Rob {
    fn with_capacity(capacity: usize) -> Self {
        let size = capacity.next_power_of_two().max(1);
        Rob {
            slots: vec![0; size].into_boxed_slice(),
            mask: size - 1,
            head: 0,
            len: 0,
        }
    }

    fn front(&self) -> Option<u64> {
        (self.len > 0).then(|| self.slots[self.head])
    }

    fn push_back(&mut self, ready_at: u64) {
        self.slots[(self.head + self.len) & self.mask] = ready_at;
        self.len += 1;
    }

    fn pop_front(&mut self) {
        debug_assert!(self.len > 0);
        self.head = (self.head + 1) & self.mask;
        self.len -= 1;
    }
}

/// The simplified back end: a ROB of completion times with in-order retire.
#[derive(Clone, Debug)]
pub struct BackEnd<'a> {
    rob: Rob,
    capacity: usize,
    retire_width: u64,
    profile: BackendProfile,
    /// Precomputed per-instruction latency classes, packed four to a byte
    /// (see [`BackendProfile::latency_classes`]), shared by every run over
    /// the same workload. `None` falls back to drawing the identical cascade
    /// online from `rng`.
    latency_classes: Option<&'a [u8]>,
    class_cursor: usize,
    /// Class → latency map, indexed by `workloads::latency_class`.
    class_latencies: [Latency; 4],
    /// Integer Bernoulli thresholds precomputed from the profile's
    /// `load_fraction` / `llc_miss_rate` / `l1d_miss_rate`, so the
    /// per-instruction latency draw of [`exec_latency`](Self::exec_latency)
    /// is one raw draw and one compare per decision instead of a float
    /// conversion, clamp and compare — while consuming the *same* RNG stream
    /// (same number and order of `next_u64` calls) as the original
    /// `chance()` cascade, which keeps reports byte-identical.
    load_threshold: u64,
    llc_miss_threshold: u64,
    l1d_miss_threshold: u64,
    llc_latency: Latency,
    memory_latency: Latency,
    rng: SimRng,
    retired: u64,
}

impl<'a> BackEnd<'a> {
    /// Creates the back end for `config` and `profile`, seeded for
    /// reproducible data-stall patterns.
    pub fn new(config: &MicroarchConfig, profile: BackendProfile, seed: u64) -> Self {
        let llc_latency = config.llc_round_trip();
        let memory_latency = config.memory_latency();
        BackEnd {
            rob: Rob::with_capacity(config.rob_entries as usize),
            capacity: config.rob_entries as usize,
            retire_width: config.fetch_width,
            profile,
            latency_classes: None,
            class_cursor: 0,
            class_latencies: [
                profile.base_latency,
                memory_latency,
                llc_latency,
                profile.base_latency + 2,
            ],
            load_threshold: SimRng::chance_threshold(profile.load_fraction),
            llc_miss_threshold: SimRng::chance_threshold(profile.llc_miss_rate),
            l1d_miss_threshold: SimRng::chance_threshold(profile.l1d_miss_rate),
            llc_latency,
            memory_latency,
            rng: SimRng::seeded(seed ^ workloads::LATENCY_SEED_SALT),
            retired: 0,
        }
    }

    /// Switches the latency source to a precomputed class stream, packed
    /// four classes to a byte (see [`BackendProfile::latency_classes`],
    /// generated from the same `(profile, seed)` this back end was built
    /// with). Must be installed before the first instruction is accepted;
    /// every simulator run over a generated workload shares one stream
    /// instead of re-drawing the cascade per instruction.
    pub fn use_latency_classes(&mut self, classes: &'a [u8]) {
        debug_assert_eq!(self.retired, 0);
        debug_assert_eq!(self.rob.len, 0);
        self.latency_classes = Some(classes);
        self.class_cursor = 0;
    }

    /// Number of free ROB slots.
    pub fn free_slots(&self) -> usize {
        self.capacity - self.rob.len
    }

    /// `true` when no more instructions can be accepted.
    pub fn is_full(&self) -> bool {
        self.rob.len >= self.capacity
    }

    /// Occupancy in instructions.
    pub fn occupancy(&self) -> usize {
        self.rob.len
    }

    /// Instructions retired so far.
    pub fn retired(&self) -> u64 {
        self.retired
    }

    /// Execution latency of the next instruction, drawn from the workload's
    /// data-stall distribution.
    ///
    /// Each branch is one raw draw against a precomputed threshold,
    /// draw-for-draw equivalent to the original
    /// `chance(load_fraction)` / `chance(llc_miss_rate)` /
    /// `chance(l1d_miss_rate)` cascade (see
    /// [`SimRng::chance_threshold`]); the common non-memory path is a single
    /// compare-and-return.
    #[inline]
    fn exec_latency(&mut self) -> Latency {
        if self.rng.unit_bits() >= self.load_threshold {
            return self.profile.base_latency; // not a load: the common path
        }
        if self.rng.unit_bits() < self.llc_miss_threshold {
            return self.memory_latency;
        }
        if self.rng.unit_bits() < self.l1d_miss_threshold {
            return self.llc_latency;
        }
        self.profile.base_latency + 2 // L1-D hit
    }

    /// Accepts up to `count` fetched instructions at cycle `now`, limited by
    /// free ROB space. Returns how many were accepted.
    pub fn push_instructions(&mut self, count: u64, now: u64) -> u64 {
        let accepted = count.min(self.free_slots() as u64);
        if let Some(classes) = self.latency_classes {
            // Precomputed stream: a shift, a mask and one table-indexed load
            // per instruction in place of the Bernoulli cascade
            // (byte-identical values).
            let first = self.class_cursor;
            self.class_cursor += accepted as usize;
            for k in first..self.class_cursor {
                let class = workloads::latency_class::get(classes, k);
                self.rob
                    .push_back(now + self.class_latencies[class as usize]);
            }
        } else {
            for _ in 0..accepted {
                let latency = self.exec_latency();
                self.rob.push_back(now + latency);
            }
        }
        accepted
    }

    /// Completion time of the oldest in-flight instruction, if any. In-order
    /// retire means nothing leaves the ROB before this cycle.
    pub fn next_completion(&self) -> Option<u64> {
        self.rob.front()
    }

    /// Retires exactly as `for t in from..to { self.retire(t) }` would, but
    /// in O(instructions retired) instead of O(cycles): cycles where the ROB
    /// head has not completed retire nothing and are jumped over.
    pub fn retire_span(&mut self, from: u64, to: u64) {
        let mut cycle = from;
        while cycle < to {
            match self.rob.front() {
                Some(ready) if ready > cycle => {
                    if ready >= to {
                        break;
                    }
                    cycle = ready;
                }
                Some(_) => {}
                None => break,
            }
            let mut n = 0;
            while n < self.retire_width {
                match self.rob.front() {
                    Some(ready) if ready <= cycle => {
                        self.rob.pop_front();
                        n += 1;
                    }
                    _ => break,
                }
            }
            self.retired += n;
            cycle += 1;
        }
    }

    /// Retires completed instructions in order, up to the retire width.
    /// Returns how many retired this cycle.
    pub fn retire(&mut self, now: u64) -> u64 {
        let mut n = 0;
        while n < self.retire_width {
            match self.rob.front() {
                Some(ready) if ready <= now => {
                    self.rob.pop_front();
                    n += 1;
                }
                _ => break,
            }
        }
        self.retired += n;
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::WorkloadKind;

    fn backend() -> BackEnd<'static> {
        let cfg = MicroarchConfig::hpca17();
        BackEnd::new(&cfg, WorkloadKind::Nutch.profile().backend, 7)
    }

    #[test]
    fn rob_capacity_limits_acceptance() {
        let mut be = backend();
        assert_eq!(be.free_slots(), 128);
        let accepted = be.push_instructions(200, 0);
        assert_eq!(accepted, 128);
        assert!(be.is_full());
        assert_eq!(be.push_instructions(10, 0), 0);
    }

    #[test]
    fn in_order_retire_respects_width_and_latency() {
        let mut be = backend();
        be.push_instructions(10, 0);
        // Nothing retires at cycle 0 (latency >= 1).
        assert_eq!(be.retire(0), 0);
        // Eventually everything retires, at most 3 per cycle.
        let mut total = 0;
        for cycle in 1..10_000 {
            let r = be.retire(cycle);
            assert!(r <= 3);
            total += r;
            if total == 10 {
                break;
            }
        }
        assert_eq!(total, 10);
        assert_eq!(be.retired(), 10);
        assert_eq!(be.occupancy(), 0);
    }

    #[test]
    fn data_stalls_make_some_instructions_slow() {
        let mut be = backend();
        // Push many instructions; with Nutch's profile some must take the
        // LLC/memory path, so draining takes longer than count/width.
        be.push_instructions(128, 0);
        let mut cycles = 0;
        let mut retired = 0;
        while retired < 128 && cycles < 100_000 {
            cycles += 1;
            retired += be.retire(cycles);
        }
        assert_eq!(retired, 128);
        assert!(
            cycles > 128 / 3,
            "draining must take at least occupancy/width cycles, took {cycles}"
        );
    }

    #[test]
    fn retire_span_matches_per_cycle_retire() {
        let cfg = MicroarchConfig::hpca17();
        let profile = WorkloadKind::Oracle.profile().backend;
        let mut bulk = BackEnd::new(&cfg, profile, 9);
        let mut stepped = BackEnd::new(&cfg, profile, 9);
        bulk.push_instructions(100, 0);
        stepped.push_instructions(100, 0);
        let windows = [(0u64, 7u64), (7, 8), (8, 40), (40, 41), (41, 1000)];
        for &(from, to) in &windows {
            for t in from..to {
                stepped.retire(t);
            }
            bulk.retire_span(from, to);
            assert_eq!(bulk.occupancy(), stepped.occupancy(), "window {from}..{to}");
            assert_eq!(bulk.retired(), stepped.retired(), "window {from}..{to}");
            assert_eq!(bulk.next_completion(), stepped.next_completion());
        }
        assert_eq!(bulk.occupancy(), 0);
    }

    #[test]
    fn threshold_latency_draw_matches_the_chance_cascade() {
        // The integer-threshold exec_latency must be draw-for-draw identical
        // to the original `chance()` cascade: same latency outcomes from the
        // same number and order of underlying `next_u64` calls, for every
        // paper profile. Both RNGs must also end in the same stream position,
        // which the final range_u64 comparison witnesses.
        let cfg = MicroarchConfig::hpca17();
        for kind in workloads::WorkloadKind::ALL {
            let profile = kind.profile().backend;
            let mut be = BackEnd::new(&cfg, profile, 1234);
            let mut oracle = sim_core::rng::SimRng::seeded(1234 ^ 0xbac_bac_bac);
            let oracle_latency = |rng: &mut sim_core::rng::SimRng| -> Latency {
                if rng.chance(profile.load_fraction) {
                    if rng.chance(profile.llc_miss_rate) {
                        return cfg.memory_latency();
                    }
                    if rng.chance(profile.l1d_miss_rate) {
                        return cfg.llc_round_trip();
                    }
                    return profile.base_latency + 2;
                }
                profile.base_latency
            };
            for i in 0..20_000 {
                assert_eq!(
                    be.exec_latency(),
                    oracle_latency(&mut oracle),
                    "draw {i} diverged for {kind:?}"
                );
            }
            assert_eq!(
                be.rng.range_u64(0, u64::MAX),
                oracle.range_u64(0, u64::MAX),
                "stream positions diverged for {kind:?}"
            );
        }
    }

    #[test]
    fn latency_class_stream_matches_online_draws() {
        // A back end fed the precomputed class stream must accept and retire
        // instructions exactly like one drawing the cascade online.
        let cfg = MicroarchConfig::hpca17();
        for kind in workloads::WorkloadKind::ALL {
            let profile = kind.profile();
            // Slack beyond the 50K pushed below: the stream must simply be
            // at least as long as the number of accepted instructions.
            let classes = profile.backend.latency_classes(profile.seed, 50_100);
            assert_eq!(classes.len(), 50_100 / 4, "four classes to a byte");
            let mut streamed = BackEnd::new(&cfg, profile.backend, profile.seed);
            streamed.use_latency_classes(&classes);
            let mut online = BackEnd::new(&cfg, profile.backend, profile.seed);
            let mut now = 0;
            let mut pushed = 0u64;
            while pushed < 50_000 {
                let a = streamed.push_instructions(7, now);
                let b = online.push_instructions(7, now);
                assert_eq!(a, b);
                pushed += a;
                now += 2;
                streamed.retire(now);
                online.retire(now);
                assert_eq!(streamed.next_completion(), online.next_completion());
                assert_eq!(streamed.retired(), online.retired(), "{kind:?} at {now}");
            }
        }
    }

    #[test]
    fn deterministic_for_a_seed() {
        let cfg = MicroarchConfig::hpca17();
        let profile = WorkloadKind::Db2.profile().backend;
        let mut a = BackEnd::new(&cfg, profile, 42);
        let mut b = BackEnd::new(&cfg, profile, 42);
        a.push_instructions(64, 0);
        b.push_instructions(64, 0);
        for cycle in 0..500 {
            assert_eq!(a.retire(cycle), b.retire(cycle));
        }
    }
}
