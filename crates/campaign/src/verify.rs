//! `boomerang-sim verify`: an offline audit of a campaign directory.
//!
//! The campaign stack's invariant is that a merged report is a
//! byte-identical pure function of its spec. Everything that defends that
//! invariant at runtime — journal `row_fnv` checksums, frame trailers,
//! broker-side re-verification — leaves artifacts on disk that can be
//! re-checked *after the fact*, with no broker and no workers. This module
//! is that auditor: point it at an output directory and it re-validates
//! every layer it can reach, prints one row per check, and reports failure
//! if any single bit has drifted.
//!
//! The checks, in order:
//!
//! | check          | needs          | what it proves                                   |
//! |----------------|----------------|--------------------------------------------------|
//! | `journal-rows` | nothing        | headers parse, rows parse, every `row_fnv` holds |
//! | `spec-hash`    | `--spec`       | the spec's journals belong to it at this run length |
//! | `completeness` | `--spec`       | every job of the expansion has a checkpointed row|
//! | `report-bytes` | `--spec`       | `<name>.json`/`.csv` equal an `assemble_report` replay byte-for-byte |
//! | `artifacts`    | `--artifact-cache` | every `wl-*.wla` header and payload checksum holds, its payload decodes and its latency classes are the ones its profile draws |
//! | `recompute`    | `--spec`, `--recompute N` | N sampled rows re-simulated from scratch reproduce their journaled stats |
//!
//! Checks whose inputs are absent are *skipped* (reported, but not
//! failures): a journal's internal checksums are verifiable with nothing
//! but the file, while replaying the report needs the spec TOML. Without a
//! spec, `journal-rows` scans every campaign's journals in the directory;
//! with one, every check reads only the spec's campaign, so one directory
//! may hold several campaigns (as `run --out` allows). The
//! `recompute` sample is deterministic — seeded by the spec hash, like the
//! broker's online sampled re-verification — so repeated audits of the
//! same directory exercise the same rows.

use crate::artifact::{check_classes, check_header};
use crate::checkpoint::{
    fnv1a64, journal_files, scan_journal, spec_hash, stats_to_array, JournalReplay,
};
use crate::engine::{assemble_report, load_point};
use crate::expand::{expand, Job};
use crate::sink::{to_csv, to_json};
use crate::spec::{mechanism_token, CampaignSpec};
use boomerang::RunLength;
use std::path::{Path, PathBuf};
use workloads::codec;

/// What to audit and how deep.
#[derive(Clone, Debug, Default)]
pub struct VerifyOptions {
    /// The campaign output directory (journals + reports).
    pub dir: PathBuf,
    /// The campaign spec TOML. Without it only the self-contained checks
    /// run (journal shape and row checksums).
    pub spec: Option<PathBuf>,
    /// The campaign was run at smoke length (`--smoke` on the original
    /// run); affects the spec hash and the recompute run length.
    pub smoke: bool,
    /// Re-simulate this many sampled rows from scratch and compare their
    /// stats to the journal (0 disables the most expensive check).
    pub recompute: usize,
    /// Audit every artifact in this workload cache directory.
    pub artifact_cache: Option<PathBuf>,
}

/// One audit check's outcome: `passed` is `None` when the check was
/// skipped for want of inputs.
#[derive(Clone, Debug)]
pub struct CheckResult {
    /// The check's stable name (the table's first column).
    pub name: &'static str,
    /// `Some(true)` pass, `Some(false)` fail, `None` skipped.
    pub passed: Option<bool>,
    /// Human-readable evidence: counts on success, the first offending
    /// file/line/field on failure.
    pub detail: String,
}

/// The full audit outcome.
#[derive(Clone, Debug, Default)]
pub struct VerifyReport {
    /// Every check that ran or was skipped, in execution order.
    pub checks: Vec<CheckResult>,
}

impl VerifyReport {
    /// True when no check failed (skipped checks do not fail the audit).
    pub fn passed(&self) -> bool {
        self.checks.iter().all(|c| c.passed != Some(false))
    }

    /// Renders the per-check table plus a PASS/FAIL summary line.
    pub fn render(&self) -> String {
        let width = self
            .checks
            .iter()
            .map(|c| c.name.len())
            .max()
            .unwrap_or(0)
            .max("check".len());
        let mut out = format!("{:width$}  {:7}  detail\n", "check", "status");
        for check in &self.checks {
            let status = match check.passed {
                Some(true) => "ok",
                Some(false) => "FAIL",
                None => "skipped",
            };
            out.push_str(&format!(
                "{:width$}  {:7}  {}\n",
                check.name, status, check.detail
            ));
        }
        let failed = self
            .checks
            .iter()
            .filter(|c| c.passed == Some(false))
            .count();
        let skipped = self.checks.iter().filter(|c| c.passed.is_none()).count();
        out.push_str(&format!(
            "verify: {} ({} checks, {failed} failed, {skipped} skipped)",
            if self.passed() { "PASS" } else { "FAIL" },
            self.checks.len(),
        ));
        out
    }
}

/// Runs every applicable check against `options.dir`, reading only the
/// spec's campaign when a spec is given, and returns the per-check table.
/// Never panics on damaged input — damage is what the failing check
/// reports.
pub fn verify_dir(options: &VerifyOptions) -> VerifyReport {
    let mut report = VerifyReport::default();
    let spec = options
        .spec
        .as_deref()
        .map(|path| load_spec(path, options.smoke));
    let campaign = match &spec {
        Some(Ok((spec, _))) => Some(spec.name.as_str()),
        _ => None,
    };
    check_journal_rows(&options.dir, campaign, &mut report);
    match &spec {
        Some(Ok((spec, run))) => {
            let replay = check_replay(options, spec, *run, &mut report);
            check_report_bytes(options, spec, *run, replay.as_ref(), &mut report);
            check_recompute(options, spec, *run, replay.as_ref(), &mut report);
        }
        Some(Err(detail)) => {
            report.checks.push(CheckResult {
                name: "spec-hash",
                passed: Some(false),
                detail: detail.clone(),
            });
        }
        None => {
            for name in ["spec-hash", "completeness", "report-bytes", "recompute"] {
                report.checks.push(CheckResult {
                    name,
                    passed: None,
                    detail: "needs --spec".to_string(),
                });
            }
        }
    }
    check_artifacts(options, &mut report);
    report
}

/// The self-contained scan: every journal of `campaign` (of every campaign
/// when `None`) parses and every row checksum holds.
fn check_journal_rows(dir: &Path, campaign: Option<&str>, report: &mut VerifyReport) {
    let mut fail = |detail: String| {
        report.checks.push(CheckResult {
            name: "journal-rows",
            passed: Some(false),
            detail,
        })
    };
    let paths = match journal_files(dir, campaign) {
        Ok(paths) if paths.is_empty() => {
            let whose = campaign.map(|c| format!("`{c}` ")).unwrap_or_default();
            return fail(format!("no {whose}journal files in {}", dir.display()));
        }
        Ok(paths) => paths,
        Err(e) => return fail(format!("cannot scan {}: {e}", dir.display())),
    };
    let mut checked = 0;
    for path in &paths {
        match scan_journal(path) {
            Ok(scan) => checked += scan.rows.len(),
            Err(e) => return fail(e.to_string()),
        }
    }
    report.checks.push(CheckResult {
        name: "journal-rows",
        passed: Some(true),
        detail: format!(
            "{checked} row checksums verified across {} file(s)",
            paths.len()
        ),
    });
}

/// Parses the spec at `path` into the spec plus its effective run length;
/// a spec that cannot be read or parsed is the failure's detail.
fn load_spec(path: &Path, smoke: bool) -> Result<(CampaignSpec, RunLength), String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let spec = CampaignSpec::from_toml_str(&text)
        .map_err(|e| format!("invalid spec {}: {e}", path.display()))?;
    let run = if smoke {
        RunLength::smoke_test()
    } else {
        spec.run
    };
    Ok((spec, run))
}

/// Replays the spec's journals through the loader `resume` uses, under the
/// spec's own hash. Two checks come out of it: `spec-hash` (every header
/// names this campaign, hash and job count) and `completeness` (every job
/// of the canonical expansion has a checksum-valid row).
fn check_replay(
    options: &VerifyOptions,
    spec: &CampaignSpec,
    run: RunLength,
    report: &mut VerifyReport,
) -> Option<(Vec<Job>, JournalReplay)> {
    let jobs = expand(spec);
    let hash = spec_hash(spec, run, options.smoke);
    let mut push = |name, passed, detail| {
        report.checks.push(CheckResult {
            name,
            passed,
            detail,
        })
    };
    let replay = match JournalReplay::load(&options.dir, &spec.name, &hash, &jobs) {
        Ok(replay) if replay.files.is_empty() => {
            let detail = format!("no `{}` journal to compare against", spec.name);
            push("spec-hash", Some(false), detail);
            push("completeness", None, "no journals to replay".to_string());
            return None;
        }
        Ok(replay) => replay,
        // A header names a different campaign, hash or job count.
        Err(e) if e.line <= 1 => {
            push("spec-hash", Some(false), e.to_string());
            let detail = "needs journals written for this spec".to_string();
            push("completeness", None, detail);
            return None;
        }
        Err(e) => {
            let detail = "the replay stopped at a row, see completeness".to_string();
            push("spec-hash", None, detail);
            push("completeness", Some(false), e.to_string());
            return None;
        }
    };
    let files = replay.files.len();
    push(
        "spec-hash",
        Some(true),
        format!("{hash} matches {files} journal header(s)"),
    );
    if replay.completed() != jobs.len() {
        let detail = format!(
            "only {} of {} jobs have checkpointed rows",
            replay.completed(),
            jobs.len()
        );
        push("completeness", Some(false), detail);
        return None;
    }
    let detail = format!("all {} jobs have checkpointed rows", jobs.len());
    push("completeness", Some(true), detail);
    Some((jobs, replay))
}

/// The reports on disk must equal an `assemble_report` replay of the
/// journal, byte for byte — the same invariant the golden tests pin.
fn check_report_bytes(
    options: &VerifyOptions,
    spec: &CampaignSpec,
    run: RunLength,
    replay: Option<&(Vec<Job>, JournalReplay)>,
    report: &mut VerifyReport,
) {
    let Some((jobs, replay)) = replay else {
        report.checks.push(CheckResult {
            name: "report-bytes",
            passed: None,
            detail: "needs a complete journal replay".to_string(),
        });
        return;
    };
    let stats: Vec<frontend::SimStats> = (0..jobs.len()).map(|i| replay.rows[&i]).collect();
    let assembled = assemble_report(spec, jobs, run, options.smoke, stats);
    for (suffix, rendered) in [("json", to_json(&assembled)), ("csv", to_csv(&assembled))] {
        let path = options.dir.join(format!("{}.{suffix}", spec.name));
        match std::fs::read(&path) {
            Ok(disk) if disk == rendered.as_bytes() => {}
            Ok(disk) => {
                report.checks.push(CheckResult {
                    name: "report-bytes",
                    passed: Some(false),
                    detail: format!(
                        "{} differs from the journal replay ({} bytes on disk, {} replayed)",
                        path.display(),
                        disk.len(),
                        rendered.len()
                    ),
                });
                return;
            }
            Err(e) => {
                report.checks.push(CheckResult {
                    name: "report-bytes",
                    passed: Some(false),
                    detail: format!("cannot read {}: {e}", path.display()),
                });
                return;
            }
        }
    }
    report.checks.push(CheckResult {
        name: "report-bytes",
        passed: Some(true),
        detail: format!(
            "{}.json and {}.csv equal the journal replay byte-for-byte",
            spec.name, spec.name
        ),
    });
}

/// Re-simulates a deterministic sample of rows from scratch — workload
/// generation included, once per sampled (workload, seed) point — and
/// compares the stats to the journal. The most expensive check, and the
/// only one that can catch a journal whose rows are internally consistent
/// but *wrong* (a miscomputing worker whose session escaped online
/// verification).
fn check_recompute(
    options: &VerifyOptions,
    spec: &CampaignSpec,
    run: RunLength,
    replay: Option<&(Vec<Job>, JournalReplay)>,
    report: &mut VerifyReport,
) {
    if options.recompute == 0 {
        report.checks.push(CheckResult {
            name: "recompute",
            passed: None,
            detail: "needs --recompute N".to_string(),
        });
        return;
    }
    let Some((jobs, replay)) = replay else {
        report.checks.push(CheckResult {
            name: "recompute",
            passed: None,
            detail: "needs a complete journal replay".to_string(),
        });
        return;
    };
    let sample = sample_rows(
        &spec_hash(spec, run, options.smoke),
        jobs.len(),
        options.recompute,
    );
    let configs: Vec<_> = spec.configs.iter().map(|c| c.build()).collect();
    let points = group_by_point(&sample, jobs);
    // Each point is generated once, its sampled rows run, and it is dropped
    // before the next. Rows ascend within a point, so each point's first
    // mismatch is its smallest, and the smallest of those is the first
    // failing row in sample order.
    let failed = points
        .iter()
        .filter_map(|((workload, seed), rows)| {
            let (data, _, _) = load_point(spec, *workload, *seed, run, None);
            rows.iter().copied().find(|&index| {
                let job = &jobs[index];
                let fresh =
                    data.run_with_predictor(job.mechanism, &configs[job.config], spec.predictor);
                stats_to_array(&fresh) != stats_to_array(&replay.rows[&index])
            })
        })
        .min();
    if let Some(index) = failed {
        let job = &jobs[index];
        report.checks.push(CheckResult {
            name: "recompute",
            passed: Some(false),
            detail: format!(
                "job {index} ({}, seed {}) re-simulated from scratch contradicts the \
                 journaled row",
                mechanism_token(job.mechanism),
                job.seed
            ),
        });
        return;
    }
    report.checks.push(CheckResult {
        name: "recompute",
        passed: Some(true),
        detail: format!(
            "{} over {} (of {} rows) re-simulated from scratch, all reproduce their \
             journaled stats",
            counted(sample.len(), "row"),
            counted(points.len(), "point"),
            jobs.len()
        ),
    });
}

/// `n` and `noun`, plural unless `n` is 1.
fn counted(n: usize, noun: &str) -> String {
    format!("{n} {noun}{}", if n == 1 { "" } else { "s" })
}

/// The sampled row indices grouped by their (workload, seed) point, rows in
/// sample order within a point.
fn group_by_point(sample: &[usize], jobs: &[Job]) -> Vec<((usize, u64), Vec<usize>)> {
    let mut points: Vec<((usize, u64), Vec<usize>)> = Vec::new();
    for &index in sample {
        let key = (jobs[index].workload, jobs[index].seed);
        match points.iter_mut().find(|(k, _)| *k == key) {
            Some((_, rows)) => rows.push(index),
            None => points.push((key, vec![index])),
        }
    }
    points
}

/// A deterministic sample of `want` distinct row indices out of `total`,
/// seeded by the spec hash (a splitmix-style walk — repeat audits check the
/// same rows, and the sample is independent of directory contents).
fn sample_rows(hash: &str, total: usize, want: usize) -> Vec<usize> {
    let mut candidates: Vec<usize> = (0..total).collect();
    let mut state = fnv1a64(hash.as_bytes());
    let mut picked = Vec::new();
    while picked.len() < want && !candidates.is_empty() {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let at = (state >> 16) as usize % candidates.len();
        picked.push(candidates.swap_remove(at));
    }
    picked.sort_unstable();
    picked
}

/// Every `wl-*.wla` in the cache: header fields and payload checksum must
/// hold against the content address the filename claims, the payload must
/// decode, and its latency classes must be the ones its profile draws.
fn check_artifacts(options: &VerifyOptions, report: &mut VerifyReport) {
    let Some(cache) = &options.artifact_cache else {
        report.checks.push(CheckResult {
            name: "artifacts",
            passed: None,
            detail: "needs --artifact-cache".to_string(),
        });
        return;
    };
    let entries = match std::fs::read_dir(cache) {
        Ok(entries) => entries,
        Err(e) => {
            report.checks.push(CheckResult {
                name: "artifacts",
                passed: Some(false),
                detail: format!("cannot scan {}: {e}", cache.display()),
            });
            return;
        }
    };
    let mut paths: Vec<PathBuf> = entries
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("wl-") && n.ends_with(".wla"))
        })
        .collect();
    paths.sort();
    for path in &paths {
        let name = path
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or_default();
        let Some(key) = name
            .strip_prefix("wl-")
            .and_then(|rest| rest.strip_suffix(".wla"))
            .and_then(|hex| u64::from_str_radix(hex, 16).ok())
        else {
            report.checks.push(CheckResult {
                name: "artifacts",
                passed: Some(false),
                detail: format!("{} has no parseable content address", path.display()),
            });
            return;
        };
        let bytes = match std::fs::read(path) {
            Ok(bytes) => bytes,
            Err(e) => {
                report.checks.push(CheckResult {
                    name: "artifacts",
                    passed: Some(false),
                    detail: format!("cannot read {}: {e}", path.display()),
                });
                return;
            }
        };
        let decoded = check_header(&bytes, key)
            .and_then(codec::decode_workload)
            .and_then(|(layout, trace, classes)| check_classes(&layout, &trace, &classes));
        if let Err(e) = decoded {
            report.checks.push(CheckResult {
                name: "artifacts",
                passed: Some(false),
                detail: format!("{}: {e}", path.display()),
            });
            return;
        }
    }
    report.checks.push(CheckResult {
        name: "artifacts",
        passed: Some(true),
        detail: format!("{} artifact(s) verified and decoded", paths.len()),
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::Journal;
    use crate::engine::{run_campaign, EngineOptions};
    use crate::sink::write_reports;
    use testkit::temp_dir;

    const SPEC: &str = r#"
name = "vtest"
workloads = ["nutch"]
mechanisms = ["fdip", "boomerang"]

[run]
trace_blocks = 2000
warmup_blocks = 400
"#;

    /// A complete, internally consistent campaign directory: journal from a
    /// real run plus the matching reports, exactly what `run --out` leaves.
    fn golden_dir(tag: &str) -> (PathBuf, PathBuf) {
        let dir = temp_dir(tag);
        let spec_path = write_campaign(&dir, SPEC);
        (dir, spec_path)
    }

    /// Runs the campaign `spec_text` into `dir` the way `run --out` does
    /// (journal plus reports) and returns the path of its spec file.
    fn write_campaign(dir: &Path, spec_text: &str) -> PathBuf {
        let spec = CampaignSpec::from_toml_str(spec_text).unwrap();
        let report = run_campaign(&spec, &EngineOptions::default()).unwrap();
        let jobs = expand(&spec);
        let hash = spec_hash(&spec, spec.run, false);
        let journal = Journal::create(dir, &spec.name, &hash, jobs.len(), None).unwrap();
        for (job, row) in jobs.iter().zip(&report.rows) {
            journal.record(job, &row.stats).unwrap();
        }
        write_reports(&report, dir).unwrap();
        let spec_path = dir.join(format!("{}-spec.toml", spec.name));
        std::fs::write(&spec_path, spec_text).unwrap();
        spec_path
    }

    #[test]
    fn golden_directory_passes_every_check() {
        let (dir, spec_path) = golden_dir("golden");
        let report = verify_dir(&VerifyOptions {
            dir: dir.clone(),
            spec: Some(spec_path),
            smoke: false,
            recompute: 2,
            artifact_cache: None,
        });
        assert!(report.passed(), "{}", report.render());
        let rendered = report.render();
        assert!(rendered.contains("verify: PASS"), "{rendered}");
        // Every spec-dependent check actually ran.
        for name in [
            "journal-rows",
            "spec-hash",
            "completeness",
            "report-bytes",
            "recompute",
        ] {
            assert!(
                report
                    .checks
                    .iter()
                    .any(|c| c.name == name && c.passed == Some(true)),
                "{name} did not pass:\n{rendered}"
            );
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn recompute_generates_each_sampled_point_once() {
        let dir = temp_dir("points");
        let spec_path = write_campaign(
            &dir,
            "name = \"vtest-points\"\nworkloads = [\"nutch\", \"zeus\"]\n\
             mechanisms = [\"fdip\", \"boomerang\"]\n\n\
             [run]\ntrace_blocks = 1500\nwarmup_blocks = 300\n",
        );
        let recompute = |n| {
            let report = verify_dir(&VerifyOptions {
                dir: dir.clone(),
                spec: Some(spec_path.clone()),
                recompute: n,
                ..VerifyOptions::default()
            });
            assert!(report.passed(), "{}", report.render());
            let check = report.checks.iter().find(|c| c.name == "recompute");
            check.expect("recompute ran").detail.clone()
        };
        // Three rows per point (baseline, fdip, boomerang): every row of
        // both points is two generations, not six.
        let all = recompute(6);
        assert!(all.starts_with("6 rows over 2 points (of 6 rows)"), "{all}");
        let one = recompute(1);
        assert!(one.starts_with("1 row over 1 point (of 6 rows)"), "{one}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn recompute_reports_the_first_contradicted_row_in_sample_order() {
        let dir = temp_dir("contradicted");
        let text = "name = \"vtest-bad\"\nworkloads = [\"nutch\", \"zeus\"]\n\
                    mechanisms = [\"fdip\", \"boomerang\"]\n\n\
                    [run]\ntrace_blocks = 1500\nwarmup_blocks = 300\n";
        let spec = CampaignSpec::from_toml_str(text).unwrap();
        let rows = run_campaign(&spec, &EngineOptions::default()).unwrap().rows;
        let jobs = expand(&spec);
        // Two wrong rows with valid checksums, one in each point.
        let (early, late) = (1, jobs.len() - 1);
        assert_ne!(jobs[early].workload, jobs[late].workload);
        let hash = spec_hash(&spec, spec.run, false);
        let journal = Journal::create(&dir, &spec.name, &hash, jobs.len(), None).unwrap();
        for (index, (job, row)) in jobs.iter().zip(&rows).enumerate() {
            let mut stats = row.stats;
            if index == early || index == late {
                stats.cycles += 1;
            }
            journal.record(job, &stats).unwrap();
        }
        let spec_path = dir.join("vtest-bad-spec.toml");
        std::fs::write(&spec_path, text).unwrap();
        let report = verify_dir(&VerifyOptions {
            dir: dir.clone(),
            spec: Some(spec_path),
            recompute: jobs.len(),
            ..VerifyOptions::default()
        });
        let check = report.checks.iter().find(|c| c.name == "recompute");
        let check = check.expect("recompute ran");
        assert_eq!(check.passed, Some(false), "{}", report.render());
        assert!(
            check.detail.starts_with(&format!("job {early} ")),
            "{}",
            check.detail
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn each_campaign_of_a_shared_directory_passes_under_its_own_spec() {
        let (dir, first) = golden_dir("shared");
        let second = write_campaign(
            &dir,
            "name = \"vtest-zeus\"\nworkloads = [\"zeus\"]\nmechanisms = [\"shift\"]\n\n\
             [run]\ntrace_blocks = 2000\nwarmup_blocks = 400\n",
        );
        for spec in [first, second] {
            let report = verify_dir(&VerifyOptions {
                dir: dir.clone(),
                spec: Some(spec),
                recompute: 1,
                ..VerifyOptions::default()
            });
            assert!(report.passed(), "{}", report.render());
            assert!(
                report
                    .checks
                    .iter()
                    .all(|c| c.passed == Some(true) || c.name == "artifacts"),
                "{}",
                report.render()
            );
        }
        // Without a spec, every campaign's journal is scanned.
        let report = verify_dir(&VerifyOptions {
            dir: dir.clone(),
            ..VerifyOptions::default()
        });
        assert!(
            report.render().contains("across 2 file(s)"),
            "{}",
            report.render()
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn another_specs_journal_fails_the_spec_hash() {
        let (dir, spec_path) = golden_dir("wrong-spec");
        // Same campaign name, different axes: a different spec hash.
        let other = dir.join("other.toml");
        std::fs::write(
            &other,
            std::fs::read_to_string(&spec_path)
                .unwrap()
                .replace("\"boomerang\"", "\"shift\""),
        )
        .unwrap();
        let report = verify_dir(&VerifyOptions {
            dir: dir.clone(),
            spec: Some(other),
            ..VerifyOptions::default()
        });
        let failed: Vec<&str> = report
            .checks
            .iter()
            .filter(|c| c.passed == Some(false))
            .map(|c| c.name)
            .collect();
        assert_eq!(failed, ["spec-hash"], "{}", report.render());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn bit_flipped_journal_row_fails_the_audit() {
        let (dir, spec_path) = golden_dir("flip");
        let journal = dir.join("vtest.journal.jsonl");
        let mut bytes = std::fs::read(&journal).unwrap();
        // Change the last digit of a stat value in an interior row (the
        // second line): the line still parses, so only its `row_fnv` can
        // tell.
        let second_line = bytes.iter().position(|&b| b == b'\n').unwrap() + 1;
        let key = b"\"instructions\":";
        let start = bytes[second_line..]
            .windows(key.len())
            .position(|w| w == key)
            .unwrap()
            + second_line
            + key.len();
        let target = start
            + bytes[start..]
                .iter()
                .position(|b| !b.is_ascii_digit())
                .unwrap()
            - 1;
        bytes[target] = if bytes[target] == b'9' {
            b'0'
        } else {
            bytes[target] + 1
        };
        std::fs::write(&journal, bytes).unwrap();

        let report = verify_dir(&VerifyOptions {
            dir: dir.clone(),
            spec: Some(spec_path),
            ..VerifyOptions::default()
        });
        let rows = report
            .checks
            .iter()
            .find(|c| c.name == "journal-rows")
            .unwrap();
        assert_eq!(rows.passed, Some(false), "{}", report.render());
        assert!(
            rows.detail.contains("row_fnv"),
            "failure does not name the checksum: {}",
            rows.detail
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn bit_flipped_report_fails_the_audit() {
        let (dir, spec_path) = golden_dir("report-flip");
        let json = dir.join("vtest.json");
        let mut bytes = std::fs::read(&json).unwrap();
        let target = bytes.iter().position(|b| b.is_ascii_digit()).unwrap();
        bytes[target] = if bytes[target] == b'9' {
            b'0'
        } else {
            bytes[target] + 1
        };
        std::fs::write(&json, bytes).unwrap();

        let report = verify_dir(&VerifyOptions {
            dir: dir.clone(),
            spec: Some(spec_path),
            ..VerifyOptions::default()
        });
        assert!(!report.passed(), "{}", report.render());
        assert!(
            report
                .checks
                .iter()
                .any(|c| c.name == "report-bytes" && c.passed == Some(false)),
            "{}",
            report.render()
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn specless_audit_checks_row_checksums_only() {
        let (dir, _) = golden_dir("specless");
        let report = verify_dir(&VerifyOptions {
            dir: dir.clone(),
            ..VerifyOptions::default()
        });
        assert!(report.passed(), "{}", report.render());
        assert!(
            report
                .checks
                .iter()
                .any(|c| c.name == "journal-rows" && c.passed == Some(true)),
            "{}",
            report.render()
        );
        assert!(
            report
                .checks
                .iter()
                .any(|c| c.name == "report-bytes" && c.passed.is_none()),
            "{}",
            report.render()
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_artifact_fails_the_audit() {
        use crate::artifact::ArtifactCache;
        let dir = temp_dir("artifacts");
        let cache_dir = dir.join("cache");
        let spec = CampaignSpec::from_toml_str(SPEC).unwrap();
        let profile = spec.workloads[0].profile.clone();
        let data = boomerang::WorkloadData::generate_from_profile(&profile, spec.run);
        let cache = ArtifactCache::open(&cache_dir).unwrap();
        cache.store(&profile, spec.run, &data).unwrap();

        let clean = verify_dir(&VerifyOptions {
            dir: dir.clone(),
            artifact_cache: Some(cache_dir.clone()),
            ..VerifyOptions::default()
        });
        assert!(
            clean
                .checks
                .iter()
                .any(|c| c.name == "artifacts" && c.passed == Some(true)),
            "{}",
            clean.render()
        );

        // Flip the final payload byte of the stored artifact.
        let artifact = std::fs::read_dir(&cache_dir)
            .unwrap()
            .filter_map(|e| e.ok().map(|e| e.path()))
            .find(|p| p.extension().is_some_and(|e| e == "wla"))
            .unwrap();
        let mut bytes = std::fs::read(&artifact).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        std::fs::write(&artifact, bytes).unwrap();

        let damaged = verify_dir(&VerifyOptions {
            dir: dir.clone(),
            artifact_cache: Some(cache_dir),
            ..VerifyOptions::default()
        });
        assert!(
            damaged
                .checks
                .iter()
                .any(|c| c.name == "artifacts" && c.passed == Some(false)),
            "{}",
            damaged.render()
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A payload whose checksum holds but whose bytes do not decode fails
    /// the audit, naming the payload field.
    #[test]
    fn undecodable_artifact_with_a_valid_checksum_fails_the_audit() {
        use crate::artifact::ArtifactCache;
        let dir = temp_dir("undecodable");
        let cache_dir = dir.join("cache");
        let spec = CampaignSpec::from_toml_str(SPEC).unwrap();
        let profile = spec.workloads[0].profile.clone();
        let data = boomerang::WorkloadData::generate_from_profile(&profile, spec.run);
        ArtifactCache::open(&cache_dir)
            .unwrap()
            .store(&profile, spec.run, &data)
            .unwrap();
        let artifact = std::fs::read_dir(&cache_dir)
            .unwrap()
            .filter_map(|e| e.ok().map(|e| e.path()))
            .find(|p| p.extension().is_some_and(|e| e == "wla"))
            .unwrap();
        let mut bytes = std::fs::read(&artifact).unwrap();

        // The first block's kind byte follows the 32-byte header, the
        // profile (197 fixed bytes plus its description), the line size,
        // the function-size and hot-flag columns, the block-size column and
        // the kind column's length. The dispatcher's first block is a call.
        let (functions, blocks) = (data.layout.functions().len(), data.layout.num_blocks());
        let at = 32
            + 197
            + profile.description.len()
            + 8
            + (8 + 4 * functions)
            + (8 + functions)
            + (8 + blocks)
            + 8;
        assert_eq!(bytes[at], 3, "the call kind");
        bytes[at] = 0xee;
        let fnv = crate::artifact::payload_fnv(&bytes[32..]);
        bytes[24..32].copy_from_slice(&fnv.to_le_bytes());
        std::fs::write(&artifact, bytes).unwrap();

        let report = verify_dir(&VerifyOptions {
            dir: dir.clone(),
            artifact_cache: Some(cache_dir),
            ..VerifyOptions::default()
        });
        let check = report
            .checks
            .iter()
            .find(|c| c.name == "artifacts")
            .unwrap();
        assert_eq!(check.passed, Some(false), "{}", report.render());
        assert!(check.detail.contains("`block.kind`"), "{}", check.detail);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Latency classes that decode but are not the ones the stored profile
    /// draws — forged under a valid checksum — fail the audit, naming the
    /// class column and the first instruction that differs.
    #[test]
    fn forged_latency_classes_with_a_valid_checksum_fail_the_audit() {
        use crate::artifact::ArtifactCache;
        let dir = temp_dir("classes");
        let cache_dir = dir.join("cache");
        let spec = CampaignSpec::from_toml_str(SPEC).unwrap();
        let profile = spec.workloads[0].profile.clone();
        let data = boomerang::WorkloadData::generate_from_profile(&profile, spec.run);
        ArtifactCache::open(&cache_dir)
            .unwrap()
            .store(&profile, spec.run, &data)
            .unwrap();
        let artifact = std::fs::read_dir(&cache_dir)
            .unwrap()
            .filter_map(|e| e.ok().map(|e| e.path()))
            .find(|p| p.extension().is_some_and(|e| e == "wla"))
            .unwrap();
        let mut bytes = std::fs::read(&artifact).unwrap();

        // The class column closes the payload; flip the low bit of its
        // first byte, instruction 0's class.
        let at = bytes.len() - data.latency_classes().len();
        bytes[at] ^= 1;
        let fnv = crate::artifact::payload_fnv(&bytes[32..]);
        bytes[24..32].copy_from_slice(&fnv.to_le_bytes());
        std::fs::write(&artifact, bytes).unwrap();

        let report = verify_dir(&VerifyOptions {
            dir: dir.clone(),
            artifact_cache: Some(cache_dir),
            ..VerifyOptions::default()
        });
        let check = report
            .checks
            .iter()
            .find(|c| c.name == "artifacts")
            .unwrap();
        assert_eq!(check.passed, Some(false), "{}", report.render());
        assert!(
            check.detail.contains("`payload.classes`"),
            "{}",
            check.detail
        );
        assert!(check.detail.contains("instruction 0 "), "{}", check.detail);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn row_sample_is_deterministic_and_distinct() {
        let a = sample_rows("fnv1a64:00c0ffee", 45, 8);
        let b = sample_rows("fnv1a64:00c0ffee", 45, 8);
        assert_eq!(a, b);
        assert_eq!(a.len(), 8);
        let mut dedup = a.clone();
        dedup.dedup();
        assert_eq!(dedup, a, "sampled indices must be distinct");
        assert!(a.iter().all(|&i| i < 45));
        // Want more than exists → everything, once.
        assert_eq!(sample_rows("x", 3, 10).len(), 3);
    }
}
