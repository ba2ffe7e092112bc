//! End-to-end tests of the campaign service layer: checkpointed
//! interruption + resume through the binary, the content-addressed artifact
//! cache across processes, the spec-hash directory guard, and the
//! spool-directory serve mode.
//!
//! The invariant under test everywhere: reports are a pure function of the
//! spec. However a campaign is cut up — killed and resumed, spread over
//! worker processes, replayed from journals — the merged JSON and CSV bytes
//! must equal an uninterrupted run's.

use campaign::{fnv1a64, run_campaign, to_csv, to_json, CampaignSpec, EngineOptions};
use std::path::{Path, PathBuf};
use std::process::Command;

const GOLDEN: &str = include_str!("golden/figure9-smoke.json");
const BIN: &str = env!("CARGO_BIN_EXE_boomerang-sim");
const FAULT_EXIT: i32 = campaign::FAULT_EXIT_CODE;

const MINI_SPEC: &str = "name = \"service-mini\"
workloads = [\"nutch\", \"zeus\"]
mechanisms = [\"fdip\", \"boomerang\"]
seeds = [0, 1]

[run]
trace_blocks = 2000
warmup_blocks = 400
";

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("boomerang-service-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Rows in campaign `name`'s journal in `dir` (the header line excluded).
fn journal_rows(dir: &Path, name: &str) -> usize {
    let path = dir.join(format!("{name}.journal.jsonl"));
    std::fs::read_to_string(path).map_or(0, |text| text.lines().count().saturating_sub(1))
}

/// Runs campaign `name` (the spec given by `spec_args`) through the binary
/// under repeated kills: every life runs `--resume` with an injected
/// `worker-exit` after `chunk` more rows, so it exits 113 with exactly
/// `chunk` more rows journaled, until a life finishes the campaign and
/// writes the report. Returns the rendered (JSON, CSV) bytes.
fn run_interrupted(
    spec_args: &[&str],
    name: &str,
    jobs: usize,
    chunk: usize,
    dir: &Path,
) -> (String, String) {
    let plan = format!("worker-exit:after-rows={chunk}");
    let jobs = jobs.to_string();
    for lives in 1.. {
        assert!(lives < 100, "resume loop did not converge");
        let before = journal_rows(dir, name);
        let output = Command::new(BIN)
            .arg("run")
            .args(spec_args)
            .args([
                "--jobs",
                &jobs,
                "--quiet",
                "--resume",
                "--fault-inject",
                &plan,
            ])
            .arg("--out")
            .arg(dir)
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&output.stderr);
        if output.status.success() {
            break;
        }
        assert_eq!(output.status.code(), Some(FAULT_EXIT), "{stderr}");
        assert_eq!(
            journal_rows(dir, name),
            before + chunk,
            "an interrupted life must journal exactly {chunk} rows: {stderr}"
        );
    }
    let read = |ext: &str| std::fs::read_to_string(dir.join(format!("{name}.{ext}"))).unwrap();
    (read("json"), read("csv"))
}

#[test]
fn killed_and_resumed_campaigns_render_identical_bytes_for_any_worker_count() {
    let spec = CampaignSpec::from_toml_str(MINI_SPEC).unwrap();
    let reference = run_campaign(&spec, &EngineOptions::default()).unwrap();
    let (ref_json, ref_csv) = (to_json(&reference), to_csv(&reference));
    let spec_file = temp_dir("kill-spec").join("mini.toml");
    std::fs::write(&spec_file, MINI_SPEC).unwrap();

    for jobs in [1usize, 2, 5] {
        let dir = temp_dir(&format!("kill-{jobs}"));
        // Chunk of 3: the 12-job campaign dies four times, then a fifth
        // life finds every row journaled and writes the report.
        let (json, csv) = run_interrupted(
            &[spec_file.to_str().unwrap()],
            "service-mini",
            jobs,
            3,
            &dir,
        );
        assert_eq!(json, ref_json, "JSON drifted at --jobs {jobs}");
        assert_eq!(csv, ref_csv, "CSV drifted at --jobs {jobs}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
    std::fs::remove_dir_all(spec_file.parent().unwrap()).unwrap();
}

#[test]
fn figure9_smoke_golden_bytes_survive_kill_and_resume() {
    let dir = temp_dir("golden-resume");
    let (json, _) = run_interrupted(&["--preset", "figure9", "--smoke"], "figure9", 3, 10, &dir);
    assert_eq!(
        json, GOLDEN,
        "figure9 --smoke bytes drifted through the checkpoint/resume path"
    );
    // The smoke digest golden_smoke.rs's preset table pins, reproduced
    // through the interrupted path (CI pins the full-length digest
    // fnv1a64:64a84925f89018ba the same way).
    assert_eq!(
        format!("fnv1a64:{:016x}", fnv1a64(json.as_bytes())),
        "fnv1a64:12d5c5644373b35b"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn binary_interrupts_and_resumes_to_identical_reports() {
    let spec_file = temp_dir("bin-kill").join("mini.toml");
    std::fs::write(&spec_file, MINI_SPEC).unwrap();
    let oneshot = temp_dir("bin-kill-oneshot");
    let resumed = temp_dir("bin-kill-resumed");

    let status = Command::new(BIN)
        .args([
            "run",
            spec_file.to_str().unwrap(),
            "--jobs",
            "2",
            "--quiet",
            "--out",
        ])
        .arg(&oneshot)
        .status()
        .unwrap();
    assert!(status.success());

    // Two interrupted lives of 5 rows each, then a resume that finishes the
    // campaign. Each life exits 113 with exactly 5 more rows journaled: the
    // process counts each row once, at its journal append.
    for life in 1..=2 {
        let status = Command::new(BIN)
            .args([
                "run",
                spec_file.to_str().unwrap(),
                "--jobs",
                "2",
                "--quiet",
                "--resume",
                "--fault-inject",
                "worker-exit:after-rows=5",
                "--out",
            ])
            .arg(&resumed)
            .status()
            .unwrap();
        assert_eq!(status.code(), Some(FAULT_EXIT));
        assert_eq!(journal_rows(&resumed, "service-mini"), 5 * life);
        assert!(!resumed.join("service-mini.json").exists());
    }
    let status = Command::new(BIN)
        .args([
            "resume",
            spec_file.to_str().unwrap(),
            "--jobs",
            "3",
            "--quiet",
            "--out",
        ])
        .arg(&resumed)
        .status()
        .unwrap();
    assert!(status.success());

    for name in ["service-mini.json", "service-mini.csv"] {
        let a = std::fs::read(oneshot.join(name)).unwrap();
        let b = std::fs::read(resumed.join(name)).unwrap();
        assert_eq!(a, b, "{name} differs between one-shot and resumed runs");
    }
    // The streamed rows cover the whole campaign (order-insensitive check).
    let stream = std::fs::read_to_string(resumed.join("service-mini.rows.csv")).unwrap();
    let report = std::fs::read_to_string(resumed.join("service-mini.csv")).unwrap();
    let mut streamed: Vec<&str> = stream.lines().collect();
    let mut canonical: Vec<&str> = report.lines().collect();
    streamed.sort_unstable();
    canonical.sort_unstable();
    assert_eq!(streamed, canonical);

    for dir in [spec_file.parent().unwrap().to_path_buf(), oneshot, resumed] {
        std::fs::remove_dir_all(dir).unwrap();
    }
}

#[test]
fn artifact_cache_is_warm_across_processes() {
    let spec_file = temp_dir("bin-cache").join("mini.toml");
    std::fs::write(&spec_file, MINI_SPEC).unwrap();
    let cache = temp_dir("bin-cache-store");
    let out_a = temp_dir("bin-cache-a");
    let out_b = temp_dir("bin-cache-b");

    let run_with = |out: &Path| {
        let output = Command::new(BIN)
            .args([
                "run",
                spec_file.to_str().unwrap(),
                "--jobs",
                "2",
                "--artifact-cache",
            ])
            .arg(&cache)
            .arg("--out")
            .arg(out)
            .output()
            .unwrap();
        assert!(output.status.success());
        String::from_utf8_lossy(&output.stderr).into_owned()
    };

    let cold = run_with(&out_a);
    assert!(
        cold.contains("0 cache hits, 4 generated"),
        "first run must generate everything: {cold}"
    );
    let warm = run_with(&out_b);
    assert!(
        warm.contains("4 cache hits, 0 generated"),
        "second run must be served entirely from the cache: {warm}"
    );
    assert_eq!(
        std::fs::read(out_a.join("service-mini.json")).unwrap(),
        std::fs::read(out_b.join("service-mini.json")).unwrap(),
        "cached workloads must reproduce identical reports"
    );

    for dir in [
        spec_file.parent().unwrap().to_path_buf(),
        cache,
        out_a,
        out_b,
    ] {
        std::fs::remove_dir_all(dir).unwrap();
    }
}

#[test]
fn mismatching_spec_directory_is_refused_without_force() {
    let spec_file = temp_dir("bin-guard").join("mini.toml");
    std::fs::write(&spec_file, MINI_SPEC).unwrap();
    let out = temp_dir("bin-guard-out");

    // Seed the directory with a *smoke* run of the same spec.
    let status = Command::new(BIN)
        .args([
            "run",
            spec_file.to_str().unwrap(),
            "--smoke",
            "--jobs",
            "2",
            "--quiet",
            "--out",
        ])
        .arg(&out)
        .status()
        .unwrap();
    assert!(status.success());

    // Full-length run into the same dir: different spec hash, clear error.
    let output = Command::new(BIN)
        .args([
            "run",
            spec_file.to_str().unwrap(),
            "--jobs",
            "2",
            "--quiet",
            "--out",
        ])
        .arg(&out)
        .output()
        .unwrap();
    assert!(!output.status.success());
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.contains("does not match") && stderr.contains("--force"),
        "guard must name the mismatch and the override: {stderr}"
    );

    // --force clears the old campaign and succeeds.
    let status = Command::new(BIN)
        .args([
            "run",
            spec_file.to_str().unwrap(),
            "--jobs",
            "2",
            "--quiet",
            "--force",
            "--out",
        ])
        .arg(&out)
        .status()
        .unwrap();
    assert!(status.success());

    for dir in [spec_file.parent().unwrap().to_path_buf(), out] {
        std::fs::remove_dir_all(dir).unwrap();
    }
}

#[test]
fn forced_then_interrupted_run_leaves_no_stale_report() {
    let spec_file = temp_dir("bin-force").join("mini.toml");
    std::fs::write(&spec_file, MINI_SPEC).unwrap();
    let out = temp_dir("bin-force-out");
    let run = |extra: &[&str]| {
        Command::new(BIN)
            .args(["run", spec_file.to_str().unwrap(), "--jobs", "2", "--quiet"])
            .args(extra)
            .arg("--out")
            .arg(&out)
            .status()
            .unwrap()
    };

    // A complete smoke campaign, then a forced full-length one cut after
    // 5 rows: the old smoke reports must go with the old journal.
    assert!(run(&["--smoke"]).success());
    assert!(out.join("service-mini.json").exists());
    let status = run(&["--force", "--fault-inject", "worker-exit:after-rows=5"]);
    assert_eq!(status.code(), Some(FAULT_EXIT));
    assert_eq!(journal_rows(&out, "service-mini"), 5);
    for name in ["service-mini.json", "service-mini.csv"] {
        assert!(
            !out.join(name).exists(),
            "{name} of the previous campaign survived --force"
        );
    }

    for dir in [spec_file.parent().unwrap().to_path_buf(), out] {
        std::fs::remove_dir_all(dir).unwrap();
    }
}

#[test]
fn serve_processes_a_spool_and_matches_oneshot_bytes() {
    let spool = temp_dir("serve-spool");
    let out = temp_dir("serve-out");
    let oneshot = temp_dir("serve-oneshot");
    std::fs::write(spool.join("mini.toml"), MINI_SPEC).unwrap();

    let status = Command::new(BIN)
        // No --jobs: --workers alone sets serve's parallelism.
        .args(["serve", "--once", "--workers", "3", "--quiet", "--spool"])
        .arg(&spool)
        .arg("--out")
        .arg(&out)
        .status()
        .unwrap();
    assert!(status.success());
    assert!(spool.join("mini.toml.done").exists());

    let spec_file = spool.join("mini.toml.done");
    let copied = spool.join("oneshot.toml");
    std::fs::copy(&spec_file, &copied).unwrap();
    let status = Command::new(BIN)
        .args([
            "run",
            copied.to_str().unwrap(),
            "--jobs",
            "2",
            "--quiet",
            "--out",
        ])
        .arg(&oneshot)
        .status()
        .unwrap();
    assert!(status.success());

    assert_eq!(
        std::fs::read(out.join("mini").join("service-mini.json")).unwrap(),
        std::fs::read(oneshot.join("service-mini.json")).unwrap(),
        "serve's merged report must equal a one-shot run's bytes"
    );
    assert_eq!(
        std::fs::read(out.join("mini").join("service-mini.csv")).unwrap(),
        std::fs::read(oneshot.join("service-mini.csv")).unwrap()
    );
    // Three local workers, one broker-written journal.
    let journals: Vec<String> = std::fs::read_dir(out.join("mini"))
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .filter(|n| n.contains(".journal"))
        .collect();
    assert_eq!(journals, ["service-mini.journal.jsonl"]);

    for dir in [spool, out, oneshot] {
        std::fs::remove_dir_all(dir).unwrap();
    }
}

#[test]
fn serve_without_listen_reverifies_every_row_when_asked() {
    // The work queue runs on a private loopback port even without --listen,
    // so sampled re-verification works for the local fleet alone: with two
    // workers every row is re-run by the session that did not produce it.
    let spool = temp_dir("verify-spool");
    let out = temp_dir("verify-out");
    let oneshot = temp_dir("verify-oneshot");
    std::fs::write(spool.join("mini.toml"), MINI_SPEC).unwrap();

    let output = Command::new(BIN)
        .args([
            "serve",
            "--once",
            "--workers",
            "2",
            "--verify-fraction",
            "1",
        ])
        .args(["--quiet", "--spool"])
        .arg(&spool)
        .arg("--out")
        .arg(&out)
        .output()
        .unwrap();
    let log = String::from_utf8_lossy(&output.stderr).into_owned();
    assert!(output.status.success(), "{log}");
    assert!(spool.join("mini.toml.done").exists(), "{log}");
    let summary = log
        .lines()
        .find(|l| l.contains("integrity summary"))
        .unwrap_or_else(|| panic!("no integrity summary in: {log}"));
    assert!(
        summary.contains("12 rows journaled") && summary.contains("12 rows re-verified"),
        "every row must be re-verified: {summary}"
    );
    assert!(
        summary.contains("0 verification mismatches") && summary.contains("0 sessions quarantined"),
        "an honest fleet must come out clean: {summary}"
    );

    let status = Command::new(BIN)
        .arg("run")
        .arg(spool.join("mini.toml.done"))
        .args(["--jobs", "2", "--quiet", "--out"])
        .arg(&oneshot)
        .status()
        .unwrap();
    assert!(status.success());
    assert_eq!(
        std::fs::read(out.join("mini").join("service-mini.json")).unwrap(),
        std::fs::read(oneshot.join("service-mini.json")).unwrap(),
        "re-verified rows must merge to a one-shot run's bytes"
    );
    for dir in [spool, out, oneshot] {
        std::fs::remove_dir_all(dir).unwrap();
    }
}
