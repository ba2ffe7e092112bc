//! Differential tests for the simulation engine.
//!
//! The per-cycle stepper (`run_with_warmup_reference`) is the semantic
//! definition of the simulator; the engine (`run_with_warmup`) is the same
//! stepper plus an idle skip that bulk-advances over provably dead cycles,
//! and must produce **bit-identical** `SimStats`. These tests drive both over
//! randomized tiny workload profiles for every mechanism of the evaluation
//! and assert exact equality — any divergence means the idle-horizon
//! computation claimed a cycle was dead when it was not. A third run slices
//! the same engine into pauses with `begin_run` / `advance_to_block` /
//! `finish_run` and must equal the uninterrupted run.

use boomerang::{Mechanism, ThrottlePolicy};
use branch_pred::PredictorKind;
use frontend::Simulator;
use sim_core::rng::SimRng;
use sim_core::{MicroarchConfig, NocModel};
use workloads::{CodeLayout, Trace, WorkloadProfile};

/// Every mechanism the campaign engine can run, including both Boomerang
/// throttle extremes.
fn all_mechanisms() -> Vec<Mechanism> {
    vec![
        Mechanism::Baseline,
        Mechanism::NextLine,
        Mechanism::Dip,
        Mechanism::Fdip,
        Mechanism::Pif,
        Mechanism::Shift,
        Mechanism::Confluence,
        Mechanism::Boomerang(ThrottlePolicy::PAPER_DEFAULT),
        Mechanism::Boomerang(ThrottlePolicy::None),
    ]
}

/// SplitMix64: a self-contained, deterministic source of slice targets.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Block targets a resumable run pauses at: the start, either side of the
/// warmup boundary, a few SplitMix-drawn points, and one past the trace end.
fn slice_targets(blocks: usize, warmup: usize, seed: u64) -> Vec<usize> {
    let mut state = seed;
    let mut targets = vec![0, warmup.saturating_sub(1), warmup, warmup + 1, blocks + 1];
    targets.extend((0..4).map(|_| (splitmix64(&mut state) % blocks as u64) as usize));
    targets.sort_unstable();
    targets
}

fn assert_engines_agree(
    profile: &WorkloadProfile,
    config: &MicroarchConfig,
    blocks: usize,
    warmup: usize,
    predictor: PredictorKind,
) {
    let layout = CodeLayout::generate(profile);
    let trace = Trace::generate_blocks(&layout, blocks);
    let simulator = |mechanism: Mechanism| {
        Simulator::with_predictor(
            config.clone(),
            &layout,
            &trace,
            Box::new(mechanism.build_any()),
            predictor,
        )
    };
    let targets = slice_targets(trace.len(), warmup, profile.seed);
    for mechanism in all_mechanisms() {
        let fast = simulator(mechanism).run_with_warmup(warmup);
        let reference = simulator(mechanism).run_with_warmup_reference(warmup);
        assert_eq!(
            fast, reference,
            "idle skip diverged from per-cycle reference: mechanism {:?}, seed {}, footprint {}",
            mechanism, profile.seed, profile.footprint_bytes,
        );

        let mut sliced = simulator(mechanism);
        sliced.begin_run(warmup);
        for &target in &targets {
            let done = sliced.advance_to_block(target);
            assert_eq!(
                done,
                target >= trace.len(),
                "{mechanism:?}: completion flag at target {target}"
            );
        }
        assert_eq!(
            sliced.finish_run(),
            fast,
            "sliced run diverged from uninterrupted run: mechanism {:?}, seed {}, targets {:?}",
            mechanism,
            profile.seed,
            targets,
        );
    }
}

#[test]
fn engines_agree_on_the_paper_configuration() {
    assert_engines_agree(
        &WorkloadProfile::tiny(53),
        &MicroarchConfig::hpca17(),
        4_000,
        500,
        PredictorKind::Tage,
    );
}

#[test]
fn engines_agree_under_btb_pressure_and_slow_llc() {
    // A tiny BTB maximises Boomerang stalls and FDIP sequential walks; a
    // slow NoC stretches every fill latency, widening the dead windows the
    // idle skip jumps.
    assert_engines_agree(
        &WorkloadProfile::tiny(7).with_footprint_bytes(128 * 1024),
        &MicroarchConfig::hpca17()
            .with_btb_entries(256)
            .with_noc(NocModel::Fixed(70)),
        4_000,
        500,
        PredictorKind::Tage,
    );
}

#[test]
fn engines_agree_over_randomized_profiles() {
    // Fuzz over randomized tiny profiles: footprint, service roots, call
    // depth, seed, warmup and config all vary, deterministically derived
    // from a fixed RNG seed.
    let mut rng = SimRng::seeded(0x000d_1ffe_7e57);
    for _ in 0..6 {
        let mut profile = WorkloadProfile::tiny(rng.range_u64(0, 1 << 20));
        profile.footprint_bytes = 32 * 1024 + 16 * 1024 * rng.range_u64(0, 8);
        profile.service_roots = 4 + rng.index(24);
        profile.max_call_depth = 4 + rng.index(12);
        let config = MicroarchConfig::hpca17()
            .with_btb_entries(256 << rng.range_u64(0, 4))
            .with_noc(NocModel::Fixed(5 + rng.range_u64(0, 60)));
        let blocks = 1_500 + rng.index(2_000);
        let warmup = rng.index(800);
        assert_engines_agree(&profile, &config, blocks, warmup, PredictorKind::Tage);
    }
}

#[test]
fn engines_agree_without_warmup_and_with_bimodal_predictor() {
    assert_engines_agree(
        &WorkloadProfile::tiny(911),
        &MicroarchConfig::hpca17(),
        2_500,
        0,
        PredictorKind::Bimodal,
    );
}

/// Deep-NoC fill-stall sweep: a small, slow-filling L1-I path keeps the
/// fetch engine stalled on fills while the BPU fills the FTQ, so the idle
/// skip and the stepper alternate inside long stall windows.
#[test]
fn engines_agree_under_long_fill_stalls() {
    let mut rng = SimRng::seeded(0x0071_c51e_0b47);
    for _ in 0..4 {
        let mut profile = WorkloadProfile::tiny(rng.range_u64(0, 1 << 20));
        profile.footprint_bytes = 96 * 1024 + 32 * 1024 * rng.range_u64(0, 6);
        profile.hot_callee_fraction = 0.05 + 0.2 * rng.unit();
        // Deep memory: long fill stalls.
        let config = MicroarchConfig::hpca17()
            .with_noc(NocModel::Fixed(30 + rng.range_u64(0, 60)))
            .with_btb_entries(512 << rng.range_u64(0, 3));
        let blocks = 2_000 + rng.index(2_000);
        assert_engines_agree(&profile, &config, blocks, 400, PredictorKind::Tage);
    }
}

/// Wide-fetch, shallow-ROB, data-stall sweep: L1-I-resident code with long
/// straight-line blocks drained at a high fetch width into a ROB from
/// paper-default down to shallow, under slow data-stall profiles — so fetch
/// spends long spans blocked on a full ROB, which the idle skip jumps to the
/// ROB head's completion.
#[test]
fn engines_agree_under_rob_back_pressure() {
    let mut rng = SimRng::seeded(0x00b1_0c60_fa57);
    for _ in 0..5 {
        let mut profile = WorkloadProfile::tiny(rng.range_u64(0, 1 << 20));
        // L1-I-resident (stall-light) code with long straight-line blocks.
        profile.footprint_bytes = 16 * 1024 + 16 * 1024 * rng.range_u64(0, 2);
        // Few enough roots that 16 KB gives each its 1 KB subtree.
        profile.service_roots = 12;
        profile.mean_block_instructions = 8.0 + 6.0 * rng.unit();
        profile.mean_function_blocks = 10.0 + 6.0 * rng.unit();
        // Back-end pressure sweep: from frequent long data stalls to nearly
        // stall-free streaming.
        profile.backend.load_fraction = 0.1 + 0.3 * rng.unit();
        profile.backend.llc_miss_rate = 0.02 * rng.unit();
        profile.backend.l1d_miss_rate = 0.3 * rng.unit();
        let mut config = MicroarchConfig::hpca17();
        // Wide fetch + a ROB from paper-default down to shallow.
        config.fetch_width = 3 + rng.range_u64(0, 6);
        config.rob_entries = [16, 32, 64, 128][rng.index(4)];
        config.validate().expect("sweep must stay valid");
        let blocks = 2_000 + rng.index(2_000);
        let warmup = rng.index(600);
        assert_engines_agree(&profile, &config, blocks, warmup, PredictorKind::Tage);
    }
}
