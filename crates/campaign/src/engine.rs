//! The sweep engine: expand, generate, execute, aggregate.
//!
//! [`run_campaign`] turns a [`CampaignSpec`] into a [`CampaignReport`] in
//! three deterministic phases:
//!
//! 1. **Workload generation** — the distinct (workload, seed) pairs of the
//!    job list are generated once each, in parallel on the
//!    [`sim_core::pool`] work-stealing pool, and shared by every job that
//!    uses them.
//! 2. **Job execution** — every job (one simulator run) is a pool task;
//!    the work-stealing deques re-balance the heavily skewed job costs
//!    (an OLTP workload at paper length costs ~10x a smoke-length web
//!    workload).
//! 3. **Aggregation** — results are joined with their group's no-prefetch
//!    baseline in canonical job order, so the report is a pure function of
//!    the spec: `--jobs 1` and `--jobs 64` produce byte-identical output.
//!
//! This is the in-memory library path: nothing is journaled. The
//! `boomerang-sim run` and `serve` commands execute campaigns through the
//! lease broker instead ([`crate::serve`]), which journals every row and
//! shares two pieces with this module: `load_point`'s per-point recipe,
//! which its workers use to obtain each workload, and [`assemble_report`],
//! which its collect step uses to turn the journal into the same report
//! bytes.

use crate::artifact::{artifact_key, ArtifactCache};
use crate::expand::{expand, Job};
use crate::spec::{CampaignSpec, SpecError};
use boomerang::{Mechanism, RunLength, WorkloadData};
use frontend::SimStats;
use sim_core::pool;
use std::collections::HashMap;

/// Execution options orthogonal to the spec.
#[derive(Clone, Debug, Default)]
pub struct EngineOptions {
    /// Worker threads; 0 means [`pool::default_workers`].
    pub jobs: usize,
    /// Replace the spec's run length with [`RunLength::smoke_test`] (CI and
    /// quick sanity runs).
    pub smoke: bool,
    /// Directory of the content-addressed workload artifact cache (see
    /// [`crate::artifact`]). `None` generates everything in-process, every
    /// time.
    pub artifact_cache: Option<std::path::PathBuf>,
}

/// Derives the effective workload-profile seed for a seed offset.
///
/// Offset 0 keeps the workload's paper seed so campaign results line up with
/// the figure reproductions; any other offset mixes the paper seed with a
/// SplitMix64-scrambled offset, giving an independent but fully deterministic
/// layout + trace sample of the same workload.
pub fn derive_seed(base: u64, offset: u64) -> u64 {
    if offset == 0 {
        return base;
    }
    base ^ sim_core::rng::mix64(offset.wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

/// One finished cell: its job description plus measured and baseline stats.
#[derive(Clone, Debug)]
pub struct RowResult {
    /// The job this row reports.
    pub job: Job,
    /// Label of the job's config point.
    pub config_label: String,
    /// Label of the job's workload-axis point (the paper name for presets,
    /// the spec's `[[workload]]` label — with any list-expansion suffix —
    /// for custom profiles).
    pub workload_label: String,
    /// Simulation statistics of the job itself.
    pub stats: SimStats,
    /// Statistics of the group's no-prefetch baseline run (equal to `stats`
    /// for baseline rows).
    pub baseline: SimStats,
}

impl RowResult {
    /// Speedup over the group baseline.
    pub fn speedup(&self) -> f64 {
        self.stats.speedup_vs(&self.baseline)
    }

    /// Front-end stall-cycle coverage over the group baseline.
    pub fn coverage(&self) -> f64 {
        self.stats.stall_coverage_vs(&self.baseline)
    }
}

/// The aggregated outcome of a campaign run.
#[derive(Clone, Debug)]
pub struct CampaignReport {
    /// The spec that produced the report.
    pub spec: CampaignSpec,
    /// The run length actually simulated (differs from the spec under
    /// `--smoke`).
    pub effective_run: RunLength,
    /// Whether the run was a smoke run.
    pub smoke: bool,
    /// One row per job, in canonical job order.
    pub rows: Vec<RowResult>,
}

/// How a generation phase obtained its workloads: generated in-process or
/// loaded from the artifact cache, plus any warnings about rejected cache
/// files.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct GenerationSummary {
    /// Workload points generated in-process.
    pub generated: usize,
    /// Workload points loaded from the artifact cache.
    pub cache_hits: usize,
    /// Human-readable warnings (corrupt artifacts rejected and regenerated,
    /// failed stores). Never fatal.
    pub warnings: Vec<String>,
}

/// The output of the campaign's generation phase: the expanded job list plus
/// every distinct (workload axis point, seed) generated once, which
/// [`run_campaign`] then simulates. Callers that drive the simulation
/// themselves (per-row timing, alternative engines) read the jobs and each
/// point's data through the accessors.
pub struct GeneratedWorkloads {
    jobs: Vec<Job>,
    keys: Vec<(usize, u64)>,
    data: Vec<WorkloadData>,
    run: RunLength,
    summary: GenerationSummary,
}

impl GeneratedWorkloads {
    /// The expanded jobs, in canonical order.
    pub fn jobs(&self) -> &[Job] {
        &self.jobs
    }

    /// The run length the workloads were generated for.
    pub fn effective_run(&self) -> RunLength {
        self.run
    }

    /// How the generation phase obtained its workloads (cache hits vs.
    /// in-process generation).
    pub fn generation(&self) -> &GenerationSummary {
        &self.summary
    }

    /// The generated data of one distinct (workload axis point, seed) pair,
    /// if the campaign uses it.
    pub fn data_for(&self, workload: usize, seed: u64) -> Option<&WorkloadData> {
        self.keys
            .iter()
            .position(|&k| k == (workload, seed))
            .map(|at| &self.data[at])
    }
}

/// The campaign's generation phase: expands the spec and generates each
/// distinct (workload axis point, seed) once, in parallel on the pool.
/// Keyed by the axis *index*, not the workload kind: two custom
/// `[[workload]]` points may share a base kind while describing different
/// profiles, and a kind-keyed cache would silently hand one point the
/// other's generated code.
///
/// # Errors
///
/// Returns a [`SpecError`] if the spec expands to nothing (empty axes are
/// already rejected at parse time, so this indicates a hand-constructed
/// spec).
pub fn generate_workloads(
    spec: &CampaignSpec,
    options: &EngineOptions,
) -> Result<GeneratedWorkloads, SpecError> {
    let jobs = expand(spec);
    if jobs.is_empty() {
        return Err(SpecError::Invalid("campaign expands to zero jobs".into()));
    }
    let workers = if options.jobs == 0 {
        pool::default_workers()
    } else {
        options.jobs
    };
    let run = if options.smoke {
        RunLength::smoke_test()
    } else {
        spec.run
    };
    let mut keys: Vec<(usize, u64)> = jobs.iter().map(|j| (j.workload, j.seed)).collect();
    keys.sort_unstable();
    keys.dedup();
    let cache = match &options.artifact_cache {
        Some(dir) => Some(ArtifactCache::open(dir).map_err(|e| {
            SpecError::Invalid(format!("cannot open artifact cache {}: {e}", dir.display()))
        })?),
        None => None,
    };
    let results = pool::run_indexed(workers, &keys, |_, &(workload, seed)| {
        load_point(spec, workload, seed, run, cache.as_ref())
    });
    let mut data = Vec::with_capacity(results.len());
    let mut summary = GenerationSummary::default();
    for (d, hit, warnings) in results {
        if hit {
            summary.cache_hits += 1;
        } else {
            summary.generated += 1;
        }
        summary.warnings.extend(warnings);
        data.push(d);
    }
    Ok(GeneratedWorkloads {
        jobs,
        keys,
        data,
        run,
        summary,
    })
}

/// Obtains one workload point — axis index `workload` at seed offset
/// `seed` — generating it in-process, or through `cache` when given: a
/// valid artifact is loaded, anything else is regenerated and stored back.
/// Returns the data, whether it was a cache hit, and human-readable
/// warnings about rejected or unstorable artifacts (never fatal).
pub(crate) fn load_point(
    spec: &CampaignSpec,
    workload: usize,
    seed: u64,
    run: RunLength,
    cache: Option<&ArtifactCache>,
) -> (WorkloadData, bool, Vec<String>) {
    let profile = &spec.workloads[workload].profile;
    let effective = derive_seed(profile.seed, seed);
    let profile = profile.clone().with_seed(effective);
    let Some(cache) = cache else {
        let data = WorkloadData::generate_from_profile(&profile, run);
        return (data, false, Vec::new());
    };
    let mut warnings = Vec::new();
    match cache.load(&profile, run) {
        Ok(Some(data)) => return (data, true, warnings),
        Ok(None) => {}
        Err(e) => warnings.push(format!(
            "rejected {}: {e}; regenerating",
            cache.path_for(artifact_key(&profile, run)).display()
        )),
    }
    let data = WorkloadData::generate_from_profile(&profile, run);
    if let Err(e) = cache.store(&profile, run, &data) {
        warnings.push(format!(
            "cannot store {}: {e}",
            cache.path_for(artifact_key(&profile, run)).display()
        ));
    }
    (data, false, warnings)
}

/// Runs a campaign to completion: generates its workloads (see
/// [`generate_workloads`]), then simulates every job as one pool task, so
/// the work-stealing deques balance skewed row costs, and aggregates the
/// rows with [`assemble_report`].
///
/// # Errors
///
/// Returns a [`SpecError`] if the spec expands to nothing (empty axes are
/// already rejected at parse time, so this indicates a hand-constructed
/// spec).
pub fn run_campaign(
    spec: &CampaignSpec,
    options: &EngineOptions,
) -> Result<CampaignReport, SpecError> {
    let generated = generate_workloads(spec, options)?;
    let workers = if options.jobs == 0 {
        pool::default_workers()
    } else {
        options.jobs
    };
    let configs: Vec<_> = spec.configs.iter().map(|c| c.build()).collect();
    let stats = pool::run_indexed(workers, &generated.jobs, |_, job| {
        let data = generated
            .data_for(job.workload, job.seed)
            .expect("every job's point was generated");
        data.run_with_predictor(job.mechanism, &configs[job.config], spec.predictor)
    });
    Ok(assemble_report(
        spec,
        &generated.jobs,
        generated.run,
        options.smoke,
        stats,
    ))
}

/// The campaign's aggregation phase: joins each job's statistics with its
/// group's no-prefetch baseline, in canonical job order, producing the
/// report. A pure function of `(spec, jobs, stats)` — which is what makes
/// checkpoint-resumed, distributed and streamed campaigns byte-identical to
/// one-shot runs. It deliberately does *not* need the generated workloads:
/// the broker's collect step assembles the report from the journal without
/// generating anything.
///
/// # Panics
///
/// Panics if `stats` does not hold one entry per expanded job.
pub fn assemble_report(
    spec: &CampaignSpec,
    jobs: &[Job],
    run: RunLength,
    smoke: bool,
    stats: Vec<SimStats>,
) -> CampaignReport {
    assert_eq!(
        stats.len(),
        jobs.len(),
        "assemble_report needs statistics for every job"
    );
    let stats: Vec<Option<SimStats>> = stats.into_iter().map(Some).collect();
    let partial = assemble_partial_report(spec, jobs, run, smoke, &stats, Vec::new());
    let rows = partial
        .rows
        .into_iter()
        .map(|row| match row {
            PartialRow::Present(row) => row,
            _ => unreachable!("every group has a baseline job by construction"),
        })
        .collect();
    CampaignReport {
        spec: partial.spec,
        effective_run: run,
        smoke,
        rows,
    }
}

/// One row of a degraded report: present with its baseline, present without
/// it, or never checkpointed.
#[derive(Clone, Debug)]
pub enum PartialRow {
    /// The job and its group baseline both checkpointed — a full row.
    Present(RowResult),
    /// The job checkpointed but its group's baseline row did not, so the
    /// derived metrics (speedup, coverage) cannot be computed.
    NoBaseline {
        /// The job this row reports.
        job: Job,
        /// Label of the job's config point.
        config_label: String,
        /// Label of the job's workload-axis point.
        workload_label: String,
        /// The job's own statistics (absolute counters are still valid).
        stats: SimStats,
    },
    /// The job never checkpointed (every worker exhausted its retries first).
    Missing {
        /// The job this row stands in for.
        job: Job,
        /// Label of the job's config point.
        config_label: String,
        /// Label of the job's workload-axis point.
        workload_label: String,
    },
}

impl PartialRow {
    /// The row's status token as rendered in the JSON/CSV `status` column.
    pub fn status(&self) -> &'static str {
        match self {
            PartialRow::Present(_) => "ok",
            PartialRow::NoBaseline { .. } => "no-baseline",
            PartialRow::Missing { .. } => "missing",
        }
    }
}

/// A campaign report assembled from incomplete statistics — the graceful-
/// degradation output of `--allow-partial`. Every canonical job appears
/// exactly once, explicitly marked, so a reader can see precisely which
/// cells are trustworthy and which were never checkpointed.
#[derive(Clone, Debug)]
pub struct PartialReport {
    /// The spec that produced the report.
    pub spec: CampaignSpec,
    /// The run length actually simulated.
    pub effective_run: RunLength,
    /// Whether the run was a smoke run.
    pub smoke: bool,
    /// One row per job, in canonical job order.
    pub rows: Vec<PartialRow>,
    /// Why the report is partial (one note per supervision failure).
    pub degraded: Vec<String>,
}

impl PartialReport {
    /// Number of jobs with no checkpointed statistics.
    pub fn missing(&self) -> usize {
        self.rows
            .iter()
            .filter(|r| matches!(r, PartialRow::Missing { .. }))
            .count()
    }
}

/// The graceful-degradation counterpart of [`assemble_report`]: accepts a
/// statistics slot per job with holes (`None`) where no row was checkpointed, and
/// classifies every row instead of panicking. Present rows join their group
/// baseline exactly as the full path does — a partial report's `ok` rows
/// carry the same numbers the complete report would.
pub fn assemble_partial_report(
    spec: &CampaignSpec,
    jobs: &[Job],
    run: RunLength,
    smoke: bool,
    stats: &[Option<SimStats>],
    degraded: Vec<String>,
) -> PartialReport {
    assert_eq!(
        stats.len(),
        jobs.len(),
        "assemble_partial_report needs a statistics slot for every job"
    );
    let mut baselines: HashMap<(usize, usize, u64), SimStats> = HashMap::new();
    for (job, s) in jobs.iter().zip(stats) {
        if job.mechanism == Mechanism::Baseline {
            if let Some(s) = s {
                baselines.insert((job.config, job.workload, job.seed), *s);
            }
        }
    }
    let rows = jobs
        .iter()
        .zip(stats)
        .map(|(job, s)| {
            let config_label = spec.configs[job.config].label.clone();
            let workload_label = spec.workloads[job.workload].label.clone();
            match s {
                None => PartialRow::Missing {
                    job: *job,
                    config_label,
                    workload_label,
                },
                Some(s) => match baselines.get(&(job.config, job.workload, job.seed)) {
                    Some(&baseline) => PartialRow::Present(RowResult {
                        job: *job,
                        config_label,
                        workload_label,
                        stats: *s,
                        baseline,
                    }),
                    None => PartialRow::NoBaseline {
                        job: *job,
                        config_label,
                        workload_label,
                        stats: *s,
                    },
                },
            }
        })
        .collect();
    PartialReport {
        spec: spec.clone(),
        effective_run: run,
        smoke,
        rows,
        degraded,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use testkit::temp_dir;

    #[test]
    fn derive_seed_is_stable_and_offset_sensitive() {
        assert_eq!(derive_seed(42, 0), 42);
        assert_eq!(derive_seed(42, 3), derive_seed(42, 3));
        assert_ne!(derive_seed(42, 1), derive_seed(42, 2));
        assert_ne!(derive_seed(42, 1), 42);
        // Distinct bases stay distinct under the same offset.
        assert_ne!(derive_seed(1, 5), derive_seed(2, 5));
    }

    #[test]
    fn smoke_campaign_produces_joined_rows() {
        let spec = CampaignSpec::from_toml_str(
            "name = \"t\"\nworkloads = [\"nutch\"]\nmechanisms = [\"fdip\", \"boomerang\"]\n\n[run]\ntrace_blocks = 3000\nwarmup_blocks = 500\n",
        )
        .unwrap();
        let report = run_campaign(
            &spec,
            &EngineOptions {
                jobs: 2,
                ..EngineOptions::default()
            },
        )
        .unwrap();
        assert_eq!(report.rows.len(), 3); // baseline + 2 mechanisms
        let base = &report.rows[0];
        assert!(base.job.implicit_baseline);
        assert_eq!(base.stats, base.baseline);
        assert!((base.speedup() - 1.0).abs() < 1e-12);
        for row in &report.rows {
            assert!(row.stats.instructions > 0);
            assert_eq!(row.baseline, base.stats);
        }
    }

    /// Rows read the stored trace block by block: neither generation, an
    /// artifact store and load, nor simulating every row expands a trace
    /// into 64-byte records.
    #[test]
    fn rows_run_on_the_stored_trace_without_expanding_it() {
        let spec = CampaignSpec::from_toml_str(
            "name = \"t\"\nworkloads = [\"nutch\"]\nmechanisms = [\"fdip\", \"boomerang\"]\n\n[run]\ntrace_blocks = 1500\nwarmup_blocks = 300\n",
        )
        .unwrap();
        let cache = temp_dir("engine-expand");
        let options = EngineOptions {
            jobs: 2,
            artifact_cache: Some(cache.clone()),
            ..EngineOptions::default()
        };
        let configs: Vec<_> = spec.configs.iter().map(|c| c.build()).collect();
        // The first pass generates and stores the point, the second loads it.
        for cache_hits in [0, 1] {
            let generated = generate_workloads(&spec, &options).unwrap();
            assert_eq!(generated.generation().cache_hits, cache_hits);
            for job in generated.jobs() {
                let data = generated.data_for(job.workload, job.seed).unwrap();
                data.run_with_predictor(job.mechanism, &configs[job.config], spec.predictor);
                assert!(!data.trace.is_expanded(), "{job:?}");
            }
        }
        std::fs::remove_dir_all(&cache).unwrap();
    }

    /// Two workload tables that differ only in their description are two
    /// artifacts: the key covers the description the load compares, so a
    /// second run over one cache hits both.
    #[test]
    fn tables_differing_only_in_description_both_hit_the_cache() {
        let spec = CampaignSpec::from_toml_str(
            "name = \"t\"\nmechanisms = [\"fdip\"]\n\n[run]\ntrace_blocks = 1500\nwarmup_blocks = 300\n\n\
             [[workload]]\nlabel = \"a\"\nbase = \"nutch\"\ndescription = \"first\"\n\n\
             [[workload]]\nlabel = \"b\"\nbase = \"nutch\"\ndescription = \"second\"\n",
        )
        .unwrap();
        let cache = temp_dir("engine-described");
        let options = EngineOptions {
            jobs: 1,
            artifact_cache: Some(cache.clone()),
            ..EngineOptions::default()
        };
        for (hits, generated) in [(0, 2), (2, 0)] {
            let summary = generate_workloads(&spec, &options).unwrap().summary;
            assert_eq!(
                (summary.cache_hits, summary.generated),
                (hits, generated),
                "{:?}",
                summary.warnings
            );
            assert!(summary.warnings.is_empty(), "{:?}", summary.warnings);
        }
        std::fs::remove_dir_all(&cache).unwrap();
    }

    /// The artifact key does not cover the format, so a file of an older
    /// format sits at the point's key: it is rejected as `header.format`,
    /// the point is regenerated, and the file is rewritten in the current
    /// format.
    #[test]
    fn an_older_format_artifact_at_the_key_is_regenerated_and_rewritten() {
        use crate::artifact::{artifact_key, payload_fnv, ARTIFACT_FORMAT, ARTIFACT_MAGIC};
        let spec = CampaignSpec::from_toml_str(
            "name = \"t\"\nworkloads = [\"nutch\"]\nmechanisms = [\"fdip\"]\n\n[run]\ntrace_blocks = 1500\nwarmup_blocks = 300\n",
        )
        .unwrap();
        let dir = temp_dir("engine-format");
        let cache = ArtifactCache::open(&dir).unwrap();
        let base = &spec.workloads[0].profile;
        let profile = base.clone().with_seed(derive_seed(base.seed, 0));
        let key = artifact_key(&profile, spec.run);
        let fresh = WorkloadData::generate_from_profile(&profile, spec.run);
        assert_eq!(ARTIFACT_FORMAT, 5);
        // Format 1 checksummed its payload byte-wise, formats 2 to 4 a
        // word at a time as format 5 does. The format-2 file holds the
        // layout and trace, the format-3 and format-4 files a whole
        // format-5 payload: the header alone must reject a stale file,
        // however its payload would decode.
        let mut format_2 = Vec::new();
        workloads::codec::encode_layout(&fresh.layout, &mut format_2);
        workloads::codec::encode_trace(&fresh.layout, &fresh.trace, &mut format_2).unwrap();
        let mut current = Vec::new();
        let classes = fresh.latency_classes();
        workloads::codec::encode_workload(&fresh.layout, &fresh.trace, classes, &mut current)
            .unwrap();
        let stale_files = [
            (1u32, b"format 1 stored a tagged row per block".to_vec()),
            (2, format_2),
            (3, current.clone()),
            (4, current.clone()),
        ];
        for (format, payload) in stale_files {
            let checksum = match format {
                1 => crate::checkpoint::fnv1a64(&payload),
                _ => payload_fnv(&payload),
            };
            let mut stale = ARTIFACT_MAGIC.to_vec();
            stale.extend_from_slice(&format.to_le_bytes());
            stale.extend_from_slice(&key.to_le_bytes());
            stale.extend_from_slice(&(payload.len() as u64).to_le_bytes());
            stale.extend_from_slice(&checksum.to_le_bytes());
            stale.extend_from_slice(&payload);
            let path = cache.path_for(key);
            std::fs::write(&path, &stale).unwrap();

            let options = EngineOptions {
                jobs: 1,
                artifact_cache: Some(dir.clone()),
                ..EngineOptions::default()
            };
            let generated = generate_workloads(&spec, &options).unwrap();
            let summary = generated.generation();
            assert_eq!(
                (summary.cache_hits, summary.generated),
                (0, 1),
                "format {format}"
            );
            assert!(
                summary.warnings.len() == 1
                    && summary.warnings[0].contains("`header.format`")
                    && summary.warnings[0].contains(&format!("format version {format},")),
                "{:?}",
                summary.warnings
            );
            let rewritten = std::fs::read(&path).unwrap();
            assert_eq!(rewritten[4..8], ARTIFACT_FORMAT.to_le_bytes());
            assert!(rewritten[32..] == current[..], "format {format}");
            let (layout, trace, classes) =
                workloads::codec::decode_workload(&rewritten[32..]).unwrap();
            assert!(layout.basic_blocks().eq(fresh.layout.basic_blocks()));
            assert!(layout.functions().eq(fresh.layout.functions()));
            assert_eq!(trace, fresh.trace);
            assert_eq!(classes, fresh.latency_classes());
            let served = generated.data_for(0, 0).unwrap();
            assert!(!served.layout.has_control_flow());
            assert_eq!(served.trace, fresh.trace);
            assert_eq!(served.latency_classes(), fresh.latency_classes());
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn partial_assembly_classifies_every_hole() {
        let spec = CampaignSpec::from_toml_str(
            "name = \"t\"\nworkloads = [\"nutch\", \"zeus\"]\nmechanisms = [\"fdip\"]\n\n[run]\ntrace_blocks = 2000\nwarmup_blocks = 400\n",
        )
        .unwrap();
        let report = run_campaign(&spec, &EngineOptions::default()).unwrap();
        // 4 jobs: (nutch, zeus) x (baseline, fdip). Drop zeus's baseline
        // (index 2) and nutch's fdip (index 1).
        let mut stats: Vec<Option<SimStats>> = report.rows.iter().map(|r| Some(r.stats)).collect();
        stats[1] = None;
        stats[2] = None;
        let jobs: Vec<Job> = report.rows.iter().map(|r| r.job).collect();
        let partial = assemble_partial_report(
            &spec,
            &jobs,
            report.effective_run,
            report.smoke,
            &stats,
            vec!["shard 1 failed".into()],
        );
        let statuses: Vec<&str> = partial.rows.iter().map(PartialRow::status).collect();
        assert_eq!(statuses, ["ok", "missing", "missing", "no-baseline"]);
        assert_eq!(partial.missing(), 2);
        // The surviving full row carries the same numbers as the complete
        // report's.
        let PartialRow::Present(row) = &partial.rows[0] else {
            panic!("row 0 should be present");
        };
        assert_eq!(row.stats, report.rows[0].stats);
        assert_eq!(row.baseline, report.rows[0].baseline);
    }

    #[test]
    fn same_kind_custom_workloads_do_not_share_generated_code() {
        // Regression: the generation cache used to be keyed (WorkloadKind,
        // seed), so two axis points with the same base kind collided and one
        // silently simulated the other's layout. Keyed by axis index, the
        // two footprints below must produce different baselines.
        let spec = CampaignSpec::from_toml_str(
            "name = \"t\"\nmechanisms = [\"fdip\"]\n\n[run]\ntrace_blocks = 3000\nwarmup_blocks = 500\n\n[[workload]]\nlabel = \"small\"\nbase = \"nutch\"\nfootprint_bytes = 131072\n\n[[workload]]\nlabel = \"large\"\nbase = \"nutch\"\nfootprint_bytes = 1048576\n",
        )
        .unwrap();
        let report = run_campaign(&spec, &EngineOptions::default()).unwrap();
        assert_eq!(report.rows.len(), 4); // 2 workloads x (baseline + fdip)
        let baseline_cycles: Vec<u64> = report
            .rows
            .iter()
            .filter(|r| r.job.implicit_baseline)
            .map(|r| r.stats.cycles)
            .collect();
        assert_eq!(baseline_cycles.len(), 2);
        assert_ne!(
            baseline_cycles[0], baseline_cycles[1],
            "same-kind workload points must simulate their own layouts"
        );
        let labels: Vec<&str> = report
            .rows
            .iter()
            .map(|r| r.workload_label.as_str())
            .collect();
        assert_eq!(labels, vec!["small", "small", "large", "large"]);
    }
}
