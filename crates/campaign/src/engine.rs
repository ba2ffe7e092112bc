//! The sweep engine: expand, shard, execute, aggregate.
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
    let mut z = offset.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    base ^ (z ^ (z >> 31))
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
/// every distinct (workload axis point, seed) generated once. Reusable
/// across multiple [`run_generated`] calls, so the bench harness can time
/// generation and simulation separately and re-simulate without
/// regenerating.
pub struct GeneratedWorkloads {
    jobs: Vec<Job>,
    keys: Vec<(usize, u64)>,
    data: Vec<WorkloadData>,
    run: RunLength,
    smoke: bool,
    summary: GenerationSummary,
}

impl GeneratedWorkloads {
    /// Number of jobs the campaign expands to.
    pub fn job_count(&self) -> usize {
        self.jobs.len()
    }

    /// Number of distinct generated (workload, seed) points.
    pub fn workload_count(&self) -> usize {
        self.data.len()
    }

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
        smoke: options.smoke,
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

/// Runs a campaign to completion.
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
    Ok(run_generated(spec, options, &generated))
}

/// The campaign's simulation + aggregation phases over already-generated
/// workloads (see [`generate_workloads`]). Pure with respect to `generated`:
/// re-running produces the identical report. The report's run length and
/// smoke flag come from `generated` (the options that produced the
/// workloads), so a caller passing different `options.smoke` cannot create
/// a self-inconsistent report; `options` only supplies the worker count and
/// engine choice here.
pub fn run_generated(
    spec: &CampaignSpec,
    options: &EngineOptions,
    generated: &GeneratedWorkloads,
) -> CampaignReport {
    let outcome = run_generated_partial(
        spec,
        options,
        generated,
        &HashMap::new(),
        RunPlan::default(),
        None,
    );
    let stats: Vec<SimStats> = outcome
        .stats
        .into_iter()
        .map(|s| s.expect("an unrestricted plan executes every job"))
        .collect();
    assemble_report(spec, &generated.jobs, generated.run, generated.smoke, stats)
}

/// Which subset of the expanded jobs one execution pass covers.
///
/// The default plan covers everything; `limit` caps how many *missing* jobs
/// the pass executes, which is how a resumable interruption is produced
/// deterministically (in tests and in CI).
#[derive(Clone, Copy, Debug, Default)]
pub struct RunPlan {
    /// Execute at most this many missing jobs, in canonical order.
    pub limit: Option<usize>,
}

/// The per-job statistics known after a (possibly partial) execution pass:
/// one slot per job in canonical order, `None` where the plan did not cover
/// the job and no prior result was supplied.
pub struct RunOutcome {
    /// Per-job statistics, indexed by canonical job index.
    pub stats: Vec<Option<SimStats>>,
    /// Jobs actually executed by this pass (excludes replayed results).
    pub executed: usize,
}

impl RunOutcome {
    /// Number of jobs with known statistics.
    pub fn completed(&self) -> usize {
        self.stats.iter().filter(|s| s.is_some()).count()
    }

    /// `true` when every job has statistics and a report can be assembled.
    pub fn is_complete(&self) -> bool {
        self.stats.iter().all(Option::is_some)
    }
}

/// The per-row completion hook of [`run_generated_partial`]: invoked from
/// the pool workers as each job finishes, in completion order.
pub type RowObserver<'a> = dyn Fn(&Job, &SimStats) + Sync + 'a;

/// The campaign's simulation phase over a subset of the jobs.
///
/// `done` supplies results replayed from a checkpoint journal (keyed by
/// canonical job index); those jobs are not re-executed. Every other job is
/// one pool task, so the work-stealing deques balance skewed row costs.
/// `on_row` — if given — is invoked from the pool workers as each job
/// completes, in completion order; this is the hook the streaming sinks and
/// the checkpoint journal hang off. Per-job statistics are deterministic, so
/// the final merged report is byte-identical no matter how the work was
/// split across passes, processes or worker counts.
pub fn run_generated_partial(
    spec: &CampaignSpec,
    options: &EngineOptions,
    generated: &GeneratedWorkloads,
    done: &HashMap<usize, SimStats>,
    plan: RunPlan,
    on_row: Option<&RowObserver<'_>>,
) -> RunOutcome {
    let workers = if options.jobs == 0 {
        pool::default_workers()
    } else {
        options.jobs
    };
    let jobs = &generated.jobs;
    let data_by_key: HashMap<(usize, u64), &WorkloadData> = generated
        .keys
        .iter()
        .copied()
        .zip(generated.data.iter())
        .collect();

    let mut pending: Vec<usize> = (0..jobs.len()).filter(|i| !done.contains_key(i)).collect();
    if let Some(limit) = plan.limit {
        pending.truncate(limit);
    }

    let configs: Vec<_> = spec.configs.iter().map(|c| c.build()).collect();
    let results: Vec<SimStats> = pool::run_indexed(workers, &pending, |_, &i| {
        let job = &jobs[i];
        let data = data_by_key[&(job.workload, job.seed)];
        let stats = data.run_with_predictor(job.mechanism, &configs[job.config], spec.predictor);
        if let Some(on_row) = on_row {
            on_row(job, &stats);
        }
        stats
    });

    let mut stats: Vec<Option<SimStats>> = vec![None; jobs.len()];
    for (&i, s) in done {
        stats[i] = Some(*s);
    }
    for (&i, s) in pending.iter().zip(results) {
        stats[i] = Some(s);
    }
    RunOutcome {
        stats,
        executed: pending.len(),
    }
}

/// The campaign's aggregation phase: joins each job's statistics with its
/// group's no-prefetch baseline, in canonical job order, producing the
/// report. A pure function of `(spec, jobs, stats)` — which is what makes
/// checkpoint-resumed, distributed and streamed campaigns byte-identical to
/// one-shot runs. It deliberately does *not* need the generated workloads:
/// a merge over fully-checkpointed journals (the `serve` collector path)
/// can assemble the report without generating anything.
///
/// # Panics
///
/// Panics if `stats` does not hold one entry per expanded job (callers
/// check [`RunOutcome::is_complete`] first).
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
    let mut baselines: HashMap<(usize, usize, u64), SimStats> = HashMap::new();
    for (job, s) in jobs.iter().zip(&stats) {
        if job.mechanism == Mechanism::Baseline {
            baselines.insert((job.config, job.workload, job.seed), *s);
        }
    }
    let rows = jobs
        .iter()
        .zip(&stats)
        .map(|(job, s)| {
            let baseline = *baselines
                .get(&(job.config, job.workload, job.seed))
                .expect("every group has a baseline job by construction");
            RowResult {
                job: *job,
                config_label: spec.configs[job.config].label.clone(),
                workload_label: spec.workloads[job.workload].label.clone(),
                stats: *s,
                baseline,
            }
        })
        .collect();

    CampaignReport {
        spec: spec.clone(),
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
