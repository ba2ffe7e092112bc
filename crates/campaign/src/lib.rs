//! Declarative experiment campaigns for the Boomerang reproduction.
//!
//! The crates below this one can simulate any single (workload, mechanism,
//! configuration) cell; this crate is the layer that runs *matrices* of them
//! at scale. A campaign is described declaratively — a TOML [`spec`] naming
//! the workloads, mechanisms, configuration points, seeds and run length to
//! sweep — then:
//!
//! 1. [`expand()`] turns the spec into a canonical job list (adding the
//!    no-prefetch baseline reference each group needs for speedups),
//! 2. [`engine`] runs the jobs on a work-stealing thread pool
//!    ([`sim_core::pool`]) with deterministic per-job seeds, and
//! 3. [`sink`] renders the aggregated results as JSON, CSV and a human
//!    table — byte-identical output for a given spec regardless of the
//!    worker count.
//!
//! The `boomerang-sim` binary in this crate is the command-line front door:
//! `boomerang-sim run spec.toml`, `boomerang-sim run --preset figure9`,
//! `boomerang-sim list-presets`. Its `run` and `serve` commands execute a
//! campaign through one journaled path, the lease broker of [`serve`]
//! ([`serve::run_local`] for `run`). The paper's figure matrices ship as
//! embedded [`presets`]. Spec hashes, row and frame checksums and artifact
//! payload checks all use one digest, [`fnv1a64`], defined in
//! [`checkpoint`].
//!
//! # Example
//!
//! ```
//! use campaign::{run_campaign, CampaignSpec, EngineOptions};
//!
//! let spec = CampaignSpec::from_toml_str(r#"
//! name = "quick"
//! workloads = ["nutch"]
//! mechanisms = ["fdip", "boomerang"]
//!
//! [run]
//! trace_blocks = 2000
//! warmup_blocks = 400
//! "#).unwrap();
//!
//! let report = run_campaign(&spec, &EngineOptions::default()).unwrap();
//! // One implicit baseline + the two requested mechanisms.
//! assert_eq!(report.rows.len(), 3);
//! assert!(report.rows.iter().all(|r| r.speedup() > 0.0));
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod artifact;
pub mod checkpoint;
pub mod cli;
pub mod engine;
pub mod expand;
pub mod fault;
pub mod json;
pub mod presets;
pub mod proto;
pub mod serve;
pub mod sink;
pub mod spec;
pub mod supervise;
pub mod toml;
pub mod verify;
pub mod worker;

pub use artifact::{artifact_key, ArtifactCache, ARTIFACT_FORMAT, ARTIFACT_MAGIC};
pub use checkpoint::{fnv1a64, spec_hash, CheckpointError, Journal, JournalReplay, JOURNAL_FORMAT};
pub use engine::{
    assemble_partial_report, assemble_report, derive_seed, generate_workloads, run_campaign,
    CampaignReport, EngineOptions, GeneratedWorkloads, GenerationSummary, PartialReport,
    PartialRow, RowResult,
};
pub use expand::{expand, Job};
pub use fault::{FaultKind, FaultPlan, FaultSpec, FAULT_ENV, FAULT_EXIT_CODE, FAULT_LIFE_ENV};
pub use presets::{Preset, PRESETS};
pub use proto::{Message, MAX_PAYLOAD, PROTO_MAGIC, PROTO_VERSION};
pub use sink::{
    to_csv, to_csv_partial, to_json, to_json_partial, to_table, write_partial_reports,
    write_reports, ReportPaths, StreamingSink,
};
pub use spec::{
    mechanism_token, parse_mechanism, parse_predictor, parse_workload, CampaignSpec, ConfigPoint,
    SpecError, WorkloadPoint, MAX_WORKLOAD_POINTS,
};
pub use supervise::{
    supervise_with_stop, ShardOutcome, ShardReport, SuperviseOptions, SupervisedRun,
};
pub use verify::{verify_dir, CheckResult, VerifyOptions, VerifyReport};
pub use worker::{run_worker, WorkerOptions, WorkerSummary};
