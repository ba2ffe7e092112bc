//! The `boomerang-sim bench` harness: the repo's committed performance
//! trajectory.
//!
//! A bench run times one or more campaign presets over the work-stealing
//! pool and emits a machine-readable JSON report (`BENCH_*.json` at the repo
//! root) that later perf PRs extend into a trajectory.
//!
//! Every report entry separates two kinds of fields:
//!
//! * **`deterministic`** — a pure function of the preset: an FNV-1a digest
//!   of the campaign's JSON report plus total simulated cycles and
//!   instructions. CI re-runs the smoke entries and fails if these drift
//!   from the committed baseline, which pins stats parity forever.
//! * **`timing`** — wall-clock measurements, machine-dependent by nature and
//!   never compared byte-for-byte. Since `bench_format` 2 the phases are
//!   timed separately: `generation_ms` covers one *cold* workload-generation
//!   pass (spec expansion + layout/trace/latency-stream generation), and
//!   the `simulation_ms` samples cover the simulate + aggregate phases over
//!   those generated workloads. Since `bench_format` 3 a
//!   `generation_warm_ms` sample rides along: the same generation pass
//!   served entirely from a warm content-addressed artifact cache
//!   ([`crate::artifact`]), committed evidence of what the cache buys.
//!   `bench_format` 5 drops the lane A/B fields `bench_format` 4 added
//!   (`lanes`, `group_rows`, `group_lane_ms`, `group_row_ms`,
//!   `group_lane_vs_row`) along with the lane-batched schedule they timed.
//!   `bench_format` 6 times the one simulation engine only: the per-engine
//!   `engines` array and the reference engine's timing and speedup are
//!   gone, `simulation_ms` and `best_simulation_ms` sit directly in
//!   `timing`, and `event_horizon_mcycles_per_s` is now `mcycles_per_s`.
//!   The headline `best_ms` is
//!   `generation_ms + min(simulation_ms)` — the cold-equivalent campaign
//!   wall time, directly comparable to the single `wall_ms` of
//!   `bench_format` 1 entries, per the ROADMAP note that at least one
//!   generation-cold measurement must anchor every trajectory point.
//!
//! Engine parity (the idle skip against the per-cycle reference) is not a
//! bench concern: the engine-differential suite and the golden report tests
//! enforce it under `cargo test`.

use crate::engine::{generate_workloads, run_generated, EngineOptions};
use crate::json::Json;
use crate::presets;
use crate::sink::to_json;
use sim_core::pool;
use std::fmt::Write as _;
use std::time::Instant;

/// What to benchmark and how hard.
#[derive(Clone, Debug)]
pub struct BenchOptions {
    /// Preset names to benchmark.
    pub presets: Vec<String>,
    /// Worker threads; 0 means all cores.
    pub jobs: usize,
    /// Benchmark only smoke-length entries (CI mode).
    pub smoke_only: bool,
    /// Benchmark only full-length entries.
    pub full_only: bool,
    /// Timed simulation iterations; the best (minimum) wall time is the
    /// headline number.
    pub iterations: usize,
}

impl Default for BenchOptions {
    fn default() -> Self {
        BenchOptions {
            presets: vec!["figure9".to_string()],
            jobs: 0,
            smoke_only: false,
            full_only: false,
            iterations: 3,
        }
    }
}

/// One benchmarked (preset, run-length) entry.
#[derive(Clone, Debug)]
pub struct BenchEntry {
    /// Preset name.
    pub preset: String,
    /// Whether the entry ran at smoke length.
    pub smoke: bool,
    /// Worker threads used.
    pub workers: usize,
    /// Jobs in the expanded campaign.
    pub campaign_jobs: usize,
    /// Total simulated cycles across all campaign rows (deterministic).
    pub cycles_total: u64,
    /// Total simulated instructions across all rows (deterministic).
    pub instructions_total: u64,
    /// FNV-1a-64 digest of the campaign's JSON report (deterministic).
    pub report_digest: String,
    /// Wall time of the entry's single cold workload-generation pass, in
    /// milliseconds.
    pub generation_ms: f64,
    /// Wall time of a workload-generation pass served entirely from a warm
    /// content-addressed artifact cache, in milliseconds (`bench_format` 3).
    pub generation_warm_ms: f64,
    /// One simulation-phase wall-time sample per iteration, in milliseconds
    /// (workload generation excluded — it is timed once per entry as
    /// [`generation_ms`](Self::generation_ms)).
    pub simulation_ms: Vec<f64>,
}

impl BenchEntry {
    /// Best (minimum) simulation wall time in milliseconds: on a shared box
    /// the minimum is the least-perturbed measurement of the true cost.
    pub fn best_simulation_ms(&self) -> f64 {
        self.simulation_ms
            .iter()
            .copied()
            .fold(f64::INFINITY, f64::min)
    }

    /// The headline number: cold generation plus the best simulation, i.e.
    /// the best wall time a cold full campaign run takes. Directly
    /// comparable to `bench_format` 1's whole-campaign `best_ms`.
    pub fn best_ms(&self) -> f64 {
        self.generation_ms + self.best_simulation_ms()
    }

    /// Simulated megacycles per wall-clock second over the cold-equivalent
    /// campaign wall time.
    pub fn mcycles_per_second(&self) -> f64 {
        self.cycles_total as f64 / 1e6 / (self.best_ms() / 1e3)
    }
}

/// A full bench run.
#[derive(Clone, Debug)]
pub struct BenchReport {
    /// One entry per (preset, run length).
    pub entries: Vec<BenchEntry>,
}

/// FNV-1a 64-bit digest (deterministic, dependency-free).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Runs the bench matrix.
///
/// # Errors
///
/// Returns a message on unknown presets and on campaign failures.
pub fn run_bench(options: &BenchOptions) -> Result<BenchReport, String> {
    if options.iterations == 0 {
        return Err("--iterations must be at least 1".into());
    }
    if options.smoke_only && options.full_only {
        return Err("give either --smoke or --full, not both".into());
    }
    let workers = if options.jobs == 0 {
        pool::default_workers()
    } else {
        options.jobs
    };
    let mut entries = Vec::new();
    for name in &options.presets {
        let spec = presets::find(name).map_err(|e| e.to_string())?;
        let mut lengths: Vec<bool> = vec![false, true]; // full, then smoke
        if options.smoke_only {
            lengths = vec![true];
        } else if options.full_only {
            lengths = vec![false];
        }
        for smoke in lengths {
            // One *cold* generation pass per entry, timed separately; every
            // simulation iteration below reuses it. The ROADMAP's
            // trajectory-comparability note is honoured by `best_ms`, which
            // always re-includes this cold generation time.
            let gen_opts = EngineOptions {
                jobs: options.jobs,
                smoke,
                artifact_cache: None,
            };
            let gen_started = Instant::now();
            let generated = generate_workloads(&spec, &gen_opts).map_err(|e| e.to_string())?;
            let generation_ms = gen_started.elapsed().as_secs_f64() * 1e3;

            // Warm-cache generation (bench_format 3): populate a scratch
            // artifact cache untimed, then time a pass that decodes every
            // workload from it. The cold/warm pair is the committed evidence
            // of what the content-addressed cache buys.
            let cache_dir =
                std::env::temp_dir().join(format!("boomerang-bench-cache-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&cache_dir);
            let warm_opts = EngineOptions {
                artifact_cache: Some(cache_dir.clone()),
                ..gen_opts.clone()
            };
            generate_workloads(&spec, &warm_opts).map_err(|e| e.to_string())?;
            let warm_started = Instant::now();
            let warm = generate_workloads(&spec, &warm_opts).map_err(|e| e.to_string())?;
            let generation_warm_ms = warm_started.elapsed().as_secs_f64() * 1e3;
            let _ = std::fs::remove_dir_all(&cache_dir);
            if warm.generation().cache_hits != warm.workload_count() {
                return Err(format!(
                    "artifact cache missed on preset `{name}`: {} hits for {} workloads",
                    warm.generation().cache_hits,
                    warm.workload_count()
                ));
            }

            let mut simulation_ms = Vec::new();
            let mut campaign_report = None;
            for _ in 0..options.iterations {
                let started = Instant::now();
                campaign_report = Some(run_generated(&spec, &gen_opts, &generated));
                simulation_ms.push(started.elapsed().as_secs_f64() * 1e3);
            }

            // Deterministic fields come from the last iteration's report.
            let report = campaign_report.expect("at least one iteration ran");
            let rendered = to_json(&report);
            let cycles_total = report.rows.iter().map(|r| r.stats.cycles).sum();
            let instructions_total = report.rows.iter().map(|r| r.stats.instructions).sum();

            entries.push(BenchEntry {
                preset: name.clone(),
                smoke,
                workers,
                campaign_jobs: report.rows.len(),
                cycles_total,
                instructions_total,
                report_digest: format!("fnv1a64:{:016x}", fnv1a64(rendered.as_bytes())),
                generation_ms,
                generation_warm_ms,
                simulation_ms,
            });
        }
    }
    Ok(BenchReport { entries })
}

/// Renders the bench report as JSON.
pub fn bench_to_json(report: &BenchReport) -> String {
    let entries: Vec<Json> = report
        .entries
        .iter()
        .map(|entry| {
            let timing = Json::object()
                .field("iterations", entry.simulation_ms.len())
                .field("generation_ms", round_ms(entry.generation_ms))
                .field("generation_warm_ms", round_ms(entry.generation_warm_ms))
                .field(
                    "simulation_ms",
                    entry
                        .simulation_ms
                        .iter()
                        .map(|&ms| Json::Float(round_ms(ms)))
                        .collect::<Vec<Json>>(),
                )
                .field("best_simulation_ms", round_ms(entry.best_simulation_ms()))
                // Cold generation + best simulation: the number comparable
                // to bench_format 1's whole-campaign best wall time.
                .field("best_ms", round_ms(entry.best_ms()))
                .field("mcycles_per_s", entry.mcycles_per_second());
            Json::object()
                .field("preset", entry.preset.as_str())
                .field("smoke", entry.smoke)
                .field("workers", entry.workers)
                .field("campaign_jobs", entry.campaign_jobs)
                .field(
                    "deterministic",
                    Json::object()
                        .field("report_digest", entry.report_digest.as_str())
                        .field("cycles_total", entry.cycles_total)
                        .field("instructions_total", entry.instructions_total),
                )
                .field("timing", timing)
        })
        .collect();
    Json::object()
        .field("bench", "boomerang-sim bench")
        .field("bench_format", 6u64)
        .field("entries", entries)
        .pretty()
}

fn round_ms(ms: f64) -> f64 {
    (ms * 1000.0).round() / 1000.0
}

/// Renders a short human-readable summary table.
pub fn bench_to_table(report: &BenchReport) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<20} {:>6} {:>6} {:>8} {:>8} {:>10} {:>10} {:>12}",
        "preset", "smoke", "jobs", "gen ms", "warm ms", "sim ms", "best ms", "Mcycles/s"
    );
    for entry in &report.entries {
        let _ = writeln!(
            out,
            "{:<20} {:>6} {:>6} {:>8.1} {:>8.1} {:>10.1} {:>10.1} {:>12.1}",
            entry.preset,
            entry.smoke,
            entry.campaign_jobs,
            entry.generation_ms,
            entry.generation_warm_ms,
            entry.best_simulation_ms(),
            entry.best_ms(),
            entry.mcycles_per_second(),
        );
    }
    out
}

/// The deterministic triple of one committed bench entry.
#[derive(Clone, Debug, PartialEq, Eq)]
struct CommittedEntry {
    preset: String,
    smoke: bool,
    report_digest: String,
    cycles_total: u64,
    instructions_total: u64,
}

/// Extracts the deterministic fields of each entry from a committed bench
/// JSON file. The file is our own deterministic writer's output, so a
/// line-oriented scan is exact.
fn extract_committed(text: &str) -> Vec<CommittedEntry> {
    let mut entries = Vec::new();
    let chunks: Vec<&str> = text.split("\"preset\": \"").skip(1).collect();
    for chunk in chunks {
        let Some(preset) = chunk.split('"').next() else {
            continue;
        };
        let field = |key: &str| -> Option<&str> {
            let tail = &chunk[chunk.find(key)? + key.len()..];
            Some(tail.split([',', '\n', '"']).next().unwrap_or("").trim())
        };
        let string_field = |key: &str| -> Option<&str> {
            let tail = &chunk[chunk.find(key)? + key.len()..];
            tail.split('"').next()
        };
        let (Some(smoke), Some(digest), Some(cycles), Some(instructions)) = (
            field("\"smoke\": ").and_then(|v| v.parse::<bool>().ok()),
            string_field("\"report_digest\": \""),
            field("\"cycles_total\": ").and_then(|v| v.parse::<u64>().ok()),
            field("\"instructions_total\": ").and_then(|v| v.parse::<u64>().ok()),
        ) else {
            continue;
        };
        entries.push(CommittedEntry {
            preset: preset.to_string(),
            smoke,
            report_digest: digest.to_string(),
            cycles_total: cycles,
            instructions_total: instructions,
        });
    }
    entries
}

/// Verifies a fresh bench run against a committed baseline file: every entry
/// the fresh run produced must exist in the baseline with identical
/// deterministic fields.
///
/// # Errors
///
/// Returns one message per drifted or missing entry.
pub fn check_against(committed: &str, fresh: &BenchReport) -> Result<(), String> {
    let baseline = extract_committed(committed);
    let mut problems = Vec::new();
    for entry in &fresh.entries {
        let found = baseline
            .iter()
            .find(|c| c.preset == entry.preset && c.smoke == entry.smoke);
        match found {
            None => problems.push(format!(
                "baseline has no entry for preset `{}` (smoke: {})",
                entry.preset, entry.smoke
            )),
            Some(committed) => {
                if committed.report_digest != entry.report_digest
                    || committed.cycles_total != entry.cycles_total
                    || committed.instructions_total != entry.instructions_total
                {
                    problems.push(format!(
                        "deterministic drift on preset `{}` (smoke: {}): committed \
                         {}/{} cycles/instructions digest {}, fresh {}/{} digest {}",
                        entry.preset,
                        entry.smoke,
                        committed.cycles_total,
                        committed.instructions_total,
                        committed.report_digest,
                        entry.cycles_total,
                        entry.instructions_total,
                        entry.report_digest,
                    ));
                }
            }
        }
    }
    if problems.is_empty() {
        Ok(())
    } else {
        Err(problems.join("\n"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_bench() -> BenchReport {
        run_bench(&BenchOptions {
            presets: vec!["llc-sweep".into()],
            jobs: 2,
            smoke_only: true,
            iterations: 1,
            ..BenchOptions::default()
        })
        .expect("bench must run")
    }

    #[test]
    fn best_ms_is_cold_generation_plus_the_best_simulation_sample() {
        // The headline takes the minimum simulation sample, not the mean and
        // not the first or last one.
        let entry = BenchEntry {
            preset: "p".into(),
            smoke: true,
            workers: 1,
            campaign_jobs: 1,
            cycles_total: 1,
            instructions_total: 1,
            report_digest: "fnv1a64:0".into(),
            generation_ms: 5.0,
            generation_warm_ms: 1.0,
            simulation_ms: vec![10.0, 8.0, 12.0],
        };
        assert_eq!(entry.best_simulation_ms(), 8.0);
        assert_eq!(entry.best_ms(), 13.0);
    }

    #[test]
    fn fnv_digest_is_the_reference_constant() {
        // Standard FNV-1a test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn bench_runs_and_round_trips_through_check() {
        let report = tiny_bench();
        assert_eq!(report.entries.len(), 1);
        let entry = &report.entries[0];
        assert!(entry.smoke);
        assert!(entry.cycles_total > 0);
        assert!(entry.instructions_total > 0);
        assert!(entry.report_digest.starts_with("fnv1a64:"));

        let json = bench_to_json(&report);
        assert!(json.contains("\"preset\": \"llc-sweep\""));
        // The committed form of this very report must pass the drift check.
        check_against(&json, &report).expect("self-check must pass");

        // A tampered digest must fail it.
        let tampered = json.replace("fnv1a64:", "fnv1a64:ff");
        assert!(check_against(&tampered, &report).is_err());

        // A missing entry must fail it.
        assert!(check_against("{}", &report).is_err());
    }

    #[test]
    fn table_renders_every_entry() {
        let report = tiny_bench();
        let table = bench_to_table(&report);
        assert!(table.contains("llc-sweep"));
        assert!(table.contains("best ms"));
    }
}
