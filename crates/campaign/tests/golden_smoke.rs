//! Golden test pinning the `boomerang-sim run --preset figure9 --smoke` JSON
//! report byte-for-byte.
//!
//! The committed golden file was produced by the *seed* (pre-event-horizon)
//! per-cycle simulator, so this test is the standing proof of the
//! acceptance contract: the optimized engine and allocation-free memory
//! hierarchy must not change a single byte of the campaign report, for any
//! worker count. If an intentional modelling change ever breaks this,
//! regenerate the file with
//! `boomerang-sim run --preset figure9 --smoke --quiet --out <dir>` and
//! say so loudly in the PR.

use campaign::{presets, run_campaign, to_json, EngineOptions};
use frontend::SimEngine;

const GOLDEN: &str = include_str!("golden/figure9-smoke.json");

fn smoke_report(jobs: usize, engine: SimEngine) -> String {
    let spec = presets::find("figure9").expect("figure9 preset exists");
    let report = run_campaign(
        &spec,
        &EngineOptions {
            jobs,
            smoke: true,
            engine,
            ..EngineOptions::default()
        },
    )
    .expect("smoke campaign runs");
    to_json(&report)
}

#[test]
fn figure9_smoke_report_bytes_are_pinned() {
    assert_eq!(
        smoke_report(2, SimEngine::EventHorizon),
        GOLDEN,
        "figure9 --smoke JSON drifted from the committed golden bytes"
    );
}

#[test]
fn report_bytes_do_not_depend_on_worker_count() {
    assert_eq!(smoke_report(1, SimEngine::EventHorizon), GOLDEN);
    assert_eq!(smoke_report(5, SimEngine::EventHorizon), GOLDEN);
}

#[test]
fn reference_engine_renders_the_same_bytes() {
    assert_eq!(smoke_report(2, SimEngine::PerCycleReference), GOLDEN);
}
