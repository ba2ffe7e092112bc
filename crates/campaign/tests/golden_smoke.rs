//! Golden test pinning the `boomerang-sim run --preset figure9 --smoke` JSON
//! report byte-for-byte, plus the engine-parity check on smoke-length
//! campaigns.
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
    assemble_report, generate_workloads, presets, run_campaign, to_json, EngineOptions,
};
use frontend::SimEngine;
use sim_core::pool;

const GOLDEN: &str = include_str!("golden/figure9-smoke.json");

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
