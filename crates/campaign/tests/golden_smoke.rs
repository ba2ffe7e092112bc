//! Golden test pinning the `boomerang-sim run --preset figure9 --smoke` JSON
//! report byte-for-byte, the smoke report digest and totals of every preset,
//! plus the engine-parity check on smoke-length campaigns.
//!
//! The committed golden file was produced by the *seed* per-cycle
//! simulator, so this test is the standing proof of the acceptance
//! contract: the engine's idle skip and the allocation-free memory
//! hierarchy must not change a single byte of the campaign report, for any
//! worker count. If an intentional modelling change ever breaks this,
//! regenerate the file with
//! `boomerang-sim run --preset figure9 --smoke --quiet --out <dir>` and
//! say so loudly in the PR.

use campaign::{
    assemble_report, fnv1a64, generate_workloads, presets, run_campaign, to_json, EngineOptions,
    PRESETS,
};
use frontend::SimEngine;
use sim_core::pool;
use workloads::TraceGenerator;

const GOLDEN: &str = include_str!("golden/figure9-smoke.json");

/// One row per preset, in [`PRESETS`] order: the FNV-1a-64 digest of its
/// smoke-length JSON report and the report's total simulated cycles and
/// instructions. The figure9 and interpreter-dispatch rows equal the smoke
/// entries of the frozen `BENCH_PR8.json`.
const SMOKE_PINS: [(&str, &str, u64, u64); 6] = [
    ("figure7", "fnv1a64:223258ac75f03a26", 5_864_782, 3_274_383),
    ("figure9", "fnv1a64:12d5c5644373b35b", 5_864_782, 3_274_383),
    ("figure11", "fnv1a64:3edb9958525e6008", 4_997_063, 2_806_614),
    (
        "llc-sweep",
        "fnv1a64:650cef5bf39c1527",
        3_736_938,
        1_790_568,
    ),
    (
        "footprint-sweep",
        "fnv1a64:14cc78df0380b0d4",
        1_534_917,
        1_457_721,
    ),
    (
        "interpreter-dispatch",
        "fnv1a64:2d6485970a8c6aa6",
        2_668_338,
        919_456,
    ),
];

fn smoke_options(jobs: usize) -> EngineOptions {
    EngineOptions {
        jobs,
        smoke: true,
        ..EngineOptions::default()
    }
}

fn smoke_report(preset: &str, jobs: usize) -> String {
    let spec = presets::find(preset).expect("preset exists");
    let report = run_campaign(&spec, &smoke_options(jobs)).expect("smoke campaign runs");
    to_json(&report)
}

/// The same smoke campaign with every row simulated by the per-cycle
/// reference engine instead of the idle-skip engine `run_campaign` uses.
fn reference_smoke_report(preset: &str) -> String {
    let spec = presets::find(preset).expect("preset exists");
    let generated = generate_workloads(&spec, &smoke_options(2)).expect("workloads generate");
    let configs: Vec<_> = spec.configs.iter().map(|c| c.build()).collect();
    let stats = pool::run_indexed(2, generated.jobs(), |_, job| {
        generated
            .data_for(job.workload, job.seed)
            .expect("every job's point is generated")
            .run_with_predictor_engine(
                job.mechanism,
                &configs[job.config],
                spec.predictor,
                SimEngine::PerCycleReference,
            )
    });
    let report = assemble_report(
        &spec,
        generated.jobs(),
        generated.effective_run(),
        true,
        stats,
    );
    to_json(&report)
}

#[test]
fn figure9_smoke_report_bytes_are_pinned() {
    assert_eq!(
        smoke_report("figure9", 2),
        GOLDEN,
        "figure9 --smoke JSON drifted from the committed golden bytes"
    );
}

#[test]
fn every_preset_smoke_report_is_pinned() {
    let pinned: Vec<&str> = SMOKE_PINS.iter().map(|pin| pin.0).collect();
    let names: Vec<&str> = PRESETS.iter().map(|preset| preset.name).collect();
    assert_eq!(pinned, names, "every preset needs one pinned smoke row");

    let mut drift = Vec::new();
    for (preset, digest, cycles, instructions) in SMOKE_PINS {
        let spec = presets::find(preset).expect("preset exists");
        let report = run_campaign(&spec, &smoke_options(2)).expect("smoke campaign runs");
        let fresh = (
            format!("fnv1a64:{:016x}", fnv1a64(to_json(&report).as_bytes())),
            report.rows.iter().map(|r| r.stats.cycles).sum::<u64>(),
            report
                .rows
                .iter()
                .map(|r| r.stats.instructions)
                .sum::<u64>(),
        );
        if fresh != (digest.to_string(), cycles, instructions) {
            drift.push(format!(
                "{preset}: pinned {digest} {cycles}/{instructions} cycles/instructions, \
                 fresh {} {}/{}",
                fresh.0, fresh.1, fresh.2
            ));
        }
    }
    assert!(
        drift.is_empty(),
        "smoke reports drifted:\n{}",
        drift.join("\n")
    );
}

#[test]
fn report_bytes_do_not_depend_on_worker_count() {
    assert_eq!(smoke_report("figure9", 1), GOLDEN);
    assert_eq!(smoke_report("figure9", 5), GOLDEN);
}

#[test]
fn reference_engine_renders_the_same_bytes() {
    assert_eq!(reference_smoke_report("figure9"), GOLDEN);
    assert_eq!(
        reference_smoke_report("interpreter-dispatch"),
        smoke_report("interpreter-dispatch", 2),
        "interpreter-dispatch --smoke: the per-cycle reference and the idle-skip engine disagree"
    );
}

/// Every preset's smoke points: the stored trace (block ids plus taken bits)
/// rebuilds exactly the records the generator emits, including blocks taken
/// into their own fall-through, whose taken bit no successor id can recover.
#[test]
fn stored_traces_rebuild_the_generated_blocks_for_every_preset() {
    let mut into_fall_through = 0;
    for preset in PRESETS {
        let spec = preset.spec();
        let generated = generate_workloads(&spec, &smoke_options(2)).expect("workloads generate");
        let mut points: Vec<(usize, u64)> = generated
            .jobs()
            .iter()
            .map(|job| (job.workload, job.seed))
            .collect();
        points.sort_unstable();
        points.dedup();
        for (workload, seed) in points {
            let data = generated.data_for(workload, seed).expect("generated point");
            let trace = &data.trace;
            let mut fresh = TraceGenerator::new(&data.layout);
            for i in 0..trace.len() {
                let expected = fresh.next().expect("the generator never ends");
                assert_eq!(
                    trace.block(i),
                    expected,
                    "{}: point ({workload}, {seed}) block {i}",
                    preset.name
                );
                if expected.outcome.taken && expected.next_start() == expected.block.fall_through()
                {
                    into_fall_through += 1;
                }
            }
            assert_eq!(
                trace.instructions(),
                fresh.instructions(),
                "{}",
                preset.name
            );
        }
    }
    assert!(into_fall_through > 0);
}
