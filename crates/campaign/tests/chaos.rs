//! Chaos suite: deterministic fault injection driving the supervised
//! campaign service (its broker and local worker fleet) through its crash
//! paths.
//!
//! Crashes are armed by a `--fault-inject` plan in *spawned*
//! `boomerang-sim` processes (the fault runtime is process-global, so
//! in-process arming would leak between tests); damage at rest — flipped
//! and truncated artifact and journal bytes — is done to the files on disk
//! between runs. Every test then asserts the service-level contract:
//!
//! - worker crashes and hangs are retried, a journal tail torn by a
//!   broker that died mid-append is truncated by the next service, and the
//!   recovered submission renders **byte-identical** reports to an
//!   undisturbed run,
//! - exhausted retries fail loudly (`.failed` + `.error`) or — under
//!   `--allow-partial` — degrade to an explicit partial report (exit 4,
//!   `.partial`, holes marked per row),
//! - torn report writes never publish a half-written file,
//! - damaged artifact-cache entries are rejected, warned about and
//!   regenerated, never trusted, and a rotted journal row is refused by
//!   `verify` and `--resume`,
//! - a failing spool scan skips one scan, not the serve loop.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

const BIN: &str = env!("CARGO_BIN_EXE_boomerang-sim");

/// Exit codes under test (see `EXIT CODES` in the binary's usage text).
const PARTIAL_EXIT: i32 = 4;
const FAULT_EXIT: i32 = campaign::FAULT_EXIT_CODE;

const MINI_SPEC: &str = "name = \"chaos-mini\"
workloads = [\"nutch\", \"zeus\"]
mechanisms = [\"fdip\", \"boomerang\"]
seeds = [0, 1]

[run]
trace_blocks = 2000
warmup_blocks = 400
";

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("boomerang-chaos-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn run_bin(args: &[&str]) -> Output {
    Command::new(BIN).args(args).output().unwrap()
}

fn stderr_of(output: &Output) -> String {
    String::from_utf8_lossy(&output.stderr).into_owned()
}

/// An undisturbed one-shot run of [`MINI_SPEC`]; returns the canonical
/// (JSON, CSV) report bytes every recovery test must reproduce exactly.
fn clean_reference(tag: &str) -> (Vec<u8>, Vec<u8>) {
    let dir = temp_dir(&format!("{tag}-ref"));
    let spec = dir.join("mini.toml");
    std::fs::write(&spec, MINI_SPEC).unwrap();
    let output = run_bin(&[
        "run",
        spec.to_str().unwrap(),
        "--jobs",
        "2",
        "--quiet",
        "--out",
        dir.to_str().unwrap(),
    ]);
    assert!(output.status.success(), "{}", stderr_of(&output));
    let json = std::fs::read(dir.join("chaos-mini.json")).unwrap();
    let csv = std::fs::read(dir.join("chaos-mini.csv")).unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
    (json, csv)
}

/// Serves a single [`MINI_SPEC`] submission once with the given extra flags
/// and returns (process output, spool dir, out dir).
fn serve_mini(tag: &str, extra: &[&str]) -> (Output, PathBuf, PathBuf) {
    let spool = temp_dir(&format!("{tag}-spool"));
    let out = temp_dir(&format!("{tag}-out"));
    std::fs::write(spool.join("mini.toml"), MINI_SPEC).unwrap();
    let mut args = vec![
        "serve",
        "--once",
        "--workers",
        "2",
        "--quiet",
        "--backoff-ms",
        "10",
        "--spool",
        spool.to_str().unwrap(),
        "--out",
        out.to_str().unwrap(),
    ];
    args.extend_from_slice(extra);
    let output = Command::new(BIN).args(&args).output().unwrap();
    (output, spool, out)
}

fn assert_matches_reference(tag: &str, out: &Path) {
    let (ref_json, ref_csv) = clean_reference(tag);
    assert_eq!(
        std::fs::read(out.join("mini").join("chaos-mini.json")).unwrap(),
        ref_json,
        "recovered JSON drifted from the undisturbed run"
    );
    assert_eq!(
        std::fs::read(out.join("mini").join("chaos-mini.csv")).unwrap(),
        ref_csv,
        "recovered CSV drifted from the undisturbed run"
    );
}

#[test]
fn crashed_worker_is_restarted_and_bytes_match_a_clean_run() {
    // Both local workers crash after their second row (first life only), so
    // at least one crash fires however the queue splits between them.
    let (output, spool, out) = serve_mini(
        "exit",
        &[
            "--fault-inject",
            "worker-exit:shard=0:after-rows=2,worker-exit:shard=1:after-rows=2",
        ],
    );
    let stderr = stderr_of(&output);
    assert!(output.status.success(), "{stderr}");
    assert!(spool.join("mini.toml.done").exists(), "{stderr}");
    assert!(
        stderr.contains(&format!("exit status: {FAULT_EXIT}")) && stderr.contains("retrying"),
        "supervisor must log the injected crash and the retry: {stderr}"
    );
    assert_matches_reference("exit", &out);
    for dir in [spool, out] {
        std::fs::remove_dir_all(dir).unwrap();
    }
}

#[test]
fn torn_journal_tail_is_truncated_on_resume_and_bytes_match() {
    // The broker is the sole journal writer, and an unfiltered row fault
    // arms its appends: it dies right after its second, leaving the
    // submission in the spool.
    let (output, spool, out) = serve_mini("torn", &["--fault-inject", "worker-exit:after-rows=2"]);
    let stderr = stderr_of(&output);
    assert_eq!(output.status.code(), Some(FAULT_EXIT), "{stderr}");
    assert!(spool.join("mini.toml").exists(), "{stderr}");
    // Cut the second row line in half: the signature of a kill mid-`write`.
    let journal = out.join("mini").join("chaos-mini.journal.jsonl");
    let text = std::fs::read_to_string(&journal).unwrap();
    assert_eq!(text.lines().count(), 3, "header and two rows: {stderr}");
    let last_line = text.trim_end().rfind('\n').unwrap() + 1;
    std::fs::write(&journal, &text[..(last_line + text.len()) / 2]).unwrap();
    assert!(
        !std::fs::read(&journal).unwrap().ends_with(b"\n"),
        "the broker's journal must end torn"
    );

    // A second service over the same spool resumes the one durable row,
    // truncates the torn tail and finishes the campaign.
    let output = run_bin(&[
        "serve",
        "--once",
        "--workers",
        "2",
        "--quiet",
        "--backoff-ms",
        "10",
        "--spool",
        spool.to_str().unwrap(),
        "--out",
        out.to_str().unwrap(),
    ]);
    let stderr = stderr_of(&output);
    assert!(output.status.success(), "{stderr}");
    assert!(spool.join("mini.toml.done").exists(), "{stderr}");
    assert!(
        stderr.contains("resuming") && stderr.contains("1 of 12"),
        "the second service must resume the one durable row: {stderr}"
    );
    assert!(
        std::fs::read(&journal).unwrap().ends_with(b"\n"),
        "the resumed journal still ends torn"
    );
    assert_matches_reference("torn", &out);
    for dir in [spool, out] {
        std::fs::remove_dir_all(dir).unwrap();
    }
}

#[test]
fn hung_worker_is_killed_retried_and_bytes_match() {
    // Worker 0 wedges on its first lease (no heartbeats, no frames) while
    // worker 1 drains the rest of the queue and then keeps polling for work.
    // The lease timeout (60 s by default) is far away, so only per-worker
    // hang detection can free the wedged row.
    let (output, spool, out) = serve_mini(
        "hang",
        &[
            "--fault-inject",
            "heartbeat-stall:shard=0:after-rows=1",
            "--worker-timeout-secs",
            "3",
        ],
    );
    let stderr = stderr_of(&output);
    assert!(output.status.success(), "{stderr}");
    assert!(spool.join("mini.toml.done").exists(), "{stderr}");
    assert!(
        stderr.contains("hung"),
        "supervisor must label the stalled shard as hung: {stderr}"
    );
    assert!(
        stderr.contains("shard 0 hung") && !stderr.contains("shard 1 hung"),
        "only the wedged worker may be killed as hung: {stderr}"
    );
    assert_matches_reference("hang", &out);
    for dir in [spool, out] {
        std::fs::remove_dir_all(dir).unwrap();
    }
}

#[test]
fn exhausted_retries_fail_the_submission_loudly() {
    // Every life of both local workers crashes after one row: 2 lives each
    // (--max-retries 1) checkpoint 4 of 12 rows before the fleet is spent.
    let (output, spool, _out) = serve_mini(
        "exhaust",
        &[
            "--fault-inject",
            "worker-exit:shard=0:after-rows=1:lives=all,\
             worker-exit:shard=1:after-rows=1:lives=all",
            "--max-retries",
            "1",
        ],
    );
    let stderr = stderr_of(&output);
    assert_eq!(output.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.contains(&format!("exit status: {FAULT_EXIT}")),
        "the injected crashes must fire: {stderr}"
    );
    assert!(spool.join("mini.toml.failed").exists(), "{stderr}");
    let note = std::fs::read_to_string(spool.join("mini.toml.error")).unwrap();
    assert!(
        note.contains("shard 0") && note.contains("attempt"),
        "the .error note must name the dead shard and the attempts: {note}"
    );
    std::fs::remove_dir_all(spool).unwrap();
}

#[test]
fn allow_partial_degrades_to_an_explicit_holes_marked_report() {
    // Persistent crashes on both local workers: worker 0 dies after every
    // first row, worker 1 after every second. Three lives each
    // (--max-retries 2) checkpoint exactly 3 + 6 of the 12 rows before the
    // budget runs out, leaving 3 holes.
    let (output, spool, out) = serve_mini(
        "partial",
        &[
            "--fault-inject",
            "worker-exit:shard=0:after-rows=1:lives=all,\
             worker-exit:shard=1:after-rows=2:lives=all",
            "--max-retries",
            "2",
            "--allow-partial",
        ],
    );
    let stderr = stderr_of(&output);
    assert_eq!(output.status.code(), Some(PARTIAL_EXIT), "{stderr}");
    assert!(spool.join("mini.toml.partial").exists(), "{stderr}");
    assert!(stderr.contains("PARTIAL"), "{stderr}");

    let json = std::fs::read_to_string(out.join("mini").join("chaos-mini.json")).unwrap();
    assert!(json.contains("\"partial\""), "{json}");
    assert!(json.contains("\"missing\""), "{json}");
    assert!(
        json.contains("worker shard 0 failed"),
        "the degradation cause must be recorded in the report: {json}"
    );

    let csv = std::fs::read_to_string(out.join("mini").join("chaos-mini.csv")).unwrap();
    let lines: Vec<&str> = csv.lines().collect();
    assert_eq!(lines.len(), 13, "header + 12 rows, holes included:\n{csv}");
    let commas = lines[0].matches(',').count();
    for line in &lines {
        assert_eq!(
            line.matches(',').count(),
            commas,
            "ragged partial CSV row: {line}"
        );
    }
    let missing = lines.iter().filter(|l| l.ends_with(",missing")).count();
    assert_eq!(
        missing, 3,
        "9 checkpointed rows leave 3 of 12 missing:\n{csv}"
    );

    for dir in [spool, out] {
        std::fs::remove_dir_all(dir).unwrap();
    }
}

#[test]
fn torn_report_write_publishes_nothing_and_resume_completes() {
    let dir = temp_dir("report-torn");
    let spec = dir.join("mini.toml");
    std::fs::write(&spec, MINI_SPEC).unwrap();
    let args = |fault: bool| {
        let mut v = vec![
            "run".to_string(),
            spec.to_str().unwrap().to_string(),
            "--jobs".to_string(),
            "2".to_string(),
            "--quiet".to_string(),
            "--out".to_string(),
            dir.to_str().unwrap().to_string(),
        ];
        if fault {
            v.extend(["--fault-inject".to_string(), "report-torn".to_string()]);
        } else {
            v.push("--resume".to_string());
        }
        v
    };

    let output = Command::new(BIN).args(args(true)).output().unwrap();
    assert_eq!(
        output.status.code(),
        Some(FAULT_EXIT),
        "{}",
        stderr_of(&output)
    );
    assert!(
        !dir.join("chaos-mini.json").exists(),
        "a report file must never exist half-written"
    );

    let output = Command::new(BIN).args(args(false)).output().unwrap();
    assert!(output.status.success(), "{}", stderr_of(&output));
    let (ref_json, _) = clean_reference("report-torn");
    assert_eq!(
        std::fs::read(dir.join("chaos-mini.json")).unwrap(),
        ref_json
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Runs [`MINI_SPEC`] with `--artifact-cache cache` into `out`, with
/// optional extra flags; returns the process output.
fn run_cached(spec: &Path, cache: &Path, out: &Path, extra: &[&str]) -> Output {
    let mut args = vec![
        "run",
        spec.to_str().unwrap(),
        "--jobs",
        "2",
        "--artifact-cache",
        cache.to_str().unwrap(),
        "--out",
        out.to_str().unwrap(),
    ];
    args.extend_from_slice(extra);
    Command::new(BIN).args(&args).output().unwrap()
}

/// Runs the mini spec once against an empty `cache` (rendering into
/// `base/a`) and returns the 4 stored artifact files, sorted.
fn fill_cache(spec: &Path, cache: &Path, base: &Path) -> Vec<PathBuf> {
    let output = run_cached(spec, cache, &base.join("a"), &[]);
    assert!(output.status.success(), "{}", stderr_of(&output));
    let mut files: Vec<PathBuf> = std::fs::read_dir(cache)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == "wla"))
        .collect();
    files.sort();
    assert_eq!(files.len(), 4);
    files
}

/// Reruns against the damaged `cache` into `base/out`: the process must
/// reject exactly the damaged artifacts, warn, regenerate them (`counts`)
/// — and still render the bytes of the clean run in `base/a`.
fn assert_rerun_regenerates(spec: &Path, cache: &Path, base: &Path, out: &str, counts: &str) {
    let output = run_cached(spec, cache, &base.join(out), &[]);
    let stderr = stderr_of(&output);
    assert!(output.status.success(), "{stderr}");
    assert!(
        stderr.contains("rejected") && stderr.contains("regenerating"),
        "cache damage must be warned about, not trusted or fatal: {stderr}"
    );
    assert!(stderr.contains(counts), "{stderr}");
    assert_eq!(
        std::fs::read(base.join("a").join("chaos-mini.json")).unwrap(),
        std::fs::read(base.join(out).join("chaos-mini.json")).unwrap(),
        "a regenerated artifact must reproduce identical reports"
    );
}

/// A payload byte flipped on disk under a header checksummed over the true
/// bytes — only the next run's load can notice — is rejected with a
/// warning and regenerated, and the report comes out byte-identical.
#[test]
fn corrupted_artifact_store_is_rejected_and_regenerated_next_run() {
    let base = temp_dir("art-corrupt");
    let spec = base.join("mini.toml");
    std::fs::write(&spec, MINI_SPEC).unwrap();
    let cache = base.join("cache");
    std::fs::create_dir_all(&cache).unwrap();
    let files = fill_cache(&spec, &cache, &base);

    let mut bytes = std::fs::read(&files[1]).unwrap();
    *bytes.last_mut().unwrap() ^= 0x01;
    std::fs::write(&files[1], &bytes).unwrap();
    assert_rerun_regenerates(&spec, &cache, &base, "b", "3 cache hits, 1 generated");
    std::fs::remove_dir_all(&base).unwrap();
}

/// Cache files truncated below their header or mid-payload are each
/// rejected with a warning and regenerated, never trusted or fatal.
#[test]
fn truncated_cache_file_warns_and_regenerates() {
    let base = temp_dir("art-trunc");
    let spec = base.join("mini.toml");
    std::fs::write(&spec, MINI_SPEC).unwrap();
    let cache = base.join("cache");
    std::fs::create_dir_all(&cache).unwrap();
    let files = fill_cache(&spec, &cache, &base);

    std::fs::write(&files[0], b"wl").unwrap();
    let bytes = std::fs::read(&files[1]).unwrap();
    std::fs::write(&files[1], &bytes[..bytes.len() / 2]).unwrap();
    assert_rerun_regenerates(&spec, &cache, &base, "b", "2 cache hits, 2 generated");
    std::fs::remove_dir_all(&base).unwrap();
}

/// A serve worker that meets a damaged artifact warns about it — even
/// under `--quiet`, as `run` does — regenerates the point, and the reports
/// come out byte-identical to a clean run.
#[test]
fn serve_worker_warns_about_a_damaged_artifact_and_regenerates() {
    let base = temp_dir("serve-art-flip");
    let spec = base.join("mini.toml");
    std::fs::write(&spec, MINI_SPEC).unwrap();
    let cache = base.join("cache");
    std::fs::create_dir_all(&cache).unwrap();
    let output = run_cached(&spec, &cache, &base.join("warm"), &["--quiet"]);
    assert!(output.status.success(), "{}", stderr_of(&output));

    // Flip the last payload byte of one stored artifact.
    let mut files: Vec<PathBuf> = std::fs::read_dir(&cache)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == "wla"))
        .collect();
    files.sort();
    assert_eq!(files.len(), 4);
    let mut bytes = std::fs::read(&files[0]).unwrap();
    *bytes.last_mut().unwrap() ^= 0x40;
    std::fs::write(&files[0], &bytes).unwrap();

    let (output, spool, out) = serve_mini(
        "serve-art-flip",
        &["--artifact-cache", cache.to_str().unwrap()],
    );
    let stderr = stderr_of(&output);
    assert!(output.status.success(), "{stderr}");
    assert!(
        stderr.contains("header.payload_fnv") && stderr.contains("regenerating"),
        "a worker must name the rejected artifact field: {stderr}"
    );
    assert_matches_reference("serve-art-flip", &out);
    for dir in [base, spool, out] {
        std::fs::remove_dir_all(dir).unwrap();
    }
}

#[test]
fn concurrent_cache_writers_leave_a_fully_loadable_cache() {
    let base = temp_dir("art-race");
    let spec = base.join("mini.toml");
    std::fs::write(&spec, MINI_SPEC).unwrap();
    let cache = base.join("cache");
    std::fs::create_dir_all(&cache).unwrap();

    // Two cold runs race to populate the same cache (tmp + rename stores).
    let spawn = |out: &Path| {
        Command::new(BIN)
            .args([
                "run",
                spec.to_str().unwrap(),
                "--jobs",
                "2",
                "--quiet",
                "--artifact-cache",
            ])
            .arg(&cache)
            .arg("--out")
            .arg(out)
            .spawn()
            .unwrap()
    };
    let mut a = spawn(&base.join("a"));
    let mut b = spawn(&base.join("b"));
    assert!(a.wait().unwrap().success());
    assert!(b.wait().unwrap().success());

    // A third run must be served entirely from the survivors.
    let output = run_cached(&spec, &cache, &base.join("c"), &[]);
    let stderr = stderr_of(&output);
    assert!(output.status.success(), "{stderr}");
    assert!(stderr.contains("4 cache hits, 0 generated"), "{stderr}");
    assert_eq!(
        std::fs::read(base.join("a").join("chaos-mini.json")).unwrap(),
        std::fs::read(base.join("c").join("chaos-mini.json")).unwrap()
    );
    std::fs::remove_dir_all(&base).unwrap();
}

/// Flips the last ASCII digit of line `line` (1-based) of `path` — a stat
/// value, so the line still parses but no longer matches its `row_fnv`.
fn flip_last_digit_of_line(path: &Path, line: usize) {
    let text = std::fs::read_to_string(path).unwrap();
    let mut lines: Vec<String> = text.lines().map(String::from).collect();
    let mut row = std::mem::take(&mut lines[line - 1]).into_bytes();
    let digit = row
        .iter_mut()
        .rev()
        .find(|b| b.is_ascii_digit())
        .expect("a row line ends in a stat value");
    *digit = if *digit == b'9' { b'0' } else { *digit + 1 };
    lines[line - 1] = String::from_utf8(row).unwrap();
    std::fs::write(path, lines.join("\n") + "\n").unwrap();
}

/// Journal bitrot: one stat digit of a journaled row flips on disk, after
/// the row's `row_fnv` was computed — the writer cannot notice. Every
/// consumer of the journal must reject the damaged row: `verify` fails the
/// audit, and `--resume` refuses the journal naming the file, line and
/// checksums and publishes no report (its replay is the same
/// `JournalReplay::load` a run's collect step assembles the report with).
/// `--force` starts over and reproduces the reference bytes, after which
/// the audit passes again.
#[test]
fn journal_bitrot_is_caught_by_verify_and_resume_and_force_recovers() {
    let dir = temp_dir("bitrot");
    let spec = dir.join("mini.toml");
    std::fs::write(&spec, MINI_SPEC).unwrap();
    let out = dir.join("out");
    let run = |extra: &[&str]| {
        let mut args = vec![
            "run",
            spec.to_str().unwrap(),
            "--jobs",
            "1",
            "--quiet",
            "--out",
            out.to_str().unwrap(),
        ];
        args.extend_from_slice(extra);
        run_bin(&args)
    };

    // Stop the run with two rows journaled, then rot row 2 (line 3, after
    // the header and row 1).
    let output = run(&["--fault-inject", "worker-exit:after-rows=2"]);
    assert_eq!(
        output.status.code(),
        Some(FAULT_EXIT),
        "{}",
        stderr_of(&output)
    );
    let journal = out.join("chaos-mini.journal.jsonl");
    assert_eq!(
        std::fs::read_to_string(&journal).unwrap().lines().count(),
        3
    );
    flip_last_digit_of_line(&journal, 3);

    // The offline audit catches the damage and names it.
    let audit = run_bin(&[
        "verify",
        out.to_str().unwrap(),
        "--spec",
        spec.to_str().unwrap(),
    ]);
    let table = String::from_utf8_lossy(&audit.stdout).into_owned();
    assert_eq!(audit.status.code(), Some(1), "{table}");
    assert!(
        table.contains("row_fnv") && table.contains("journal-rows  FAIL"),
        "the audit must fail on the damaged row: {table}"
    );

    // Resume refuses the damaged journal rather than trusting it.
    let resumed = run(&["--resume"]);
    let stderr = stderr_of(&resumed);
    assert_eq!(resumed.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.contains("row_fnv") && stderr.contains(".journal.jsonl:3"),
        "the replay error must name the file, line and checksum: {stderr}"
    );
    assert!(
        !out.join("chaos-mini.json").exists(),
        "no report may be published from a damaged journal"
    );

    // --force starts over; the rerun is byte-identical and audits clean.
    let forced = run(&["--force"]);
    assert!(forced.status.success(), "{}", stderr_of(&forced));
    let (ref_json, ref_csv) = {
        // The reference runs with the same --jobs for identical bytes.
        let ref_dir = temp_dir("bitrot-ref");
        let ref_spec = ref_dir.join("mini.toml");
        std::fs::write(&ref_spec, MINI_SPEC).unwrap();
        let output = run_bin(&[
            "run",
            ref_spec.to_str().unwrap(),
            "--jobs",
            "1",
            "--quiet",
            "--out",
            ref_dir.to_str().unwrap(),
        ]);
        assert!(output.status.success(), "{}", stderr_of(&output));
        let json = std::fs::read(ref_dir.join("chaos-mini.json")).unwrap();
        let csv = std::fs::read(ref_dir.join("chaos-mini.csv")).unwrap();
        std::fs::remove_dir_all(&ref_dir).unwrap();
        (json, csv)
    };
    assert_eq!(
        std::fs::read(out.join("chaos-mini.json")).unwrap(),
        ref_json,
        "a forced rerun must reproduce the reference bytes"
    );
    assert_eq!(std::fs::read(out.join("chaos-mini.csv")).unwrap(), ref_csv);
    let audit = run_bin(&[
        "verify",
        out.to_str().unwrap(),
        "--spec",
        spec.to_str().unwrap(),
        "--recompute",
        "2",
    ]);
    assert!(
        audit.status.success(),
        "{}",
        String::from_utf8_lossy(&audit.stdout)
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The audit CLI end-to-end: a clean campaign directory passes with exit 0;
/// flipping a single byte anywhere (here: the CSV report) fails it with
/// exit 1 and a named check.
#[test]
fn verify_passes_a_golden_dir_and_fails_any_single_bit_flip() {
    let dir = temp_dir("verify-cli");
    let spec = dir.join("mini.toml");
    std::fs::write(&spec, MINI_SPEC).unwrap();
    let out = dir.join("out");
    let output = run_bin(&[
        "run",
        spec.to_str().unwrap(),
        "--jobs",
        "2",
        "--quiet",
        "--out",
        out.to_str().unwrap(),
    ]);
    assert!(output.status.success(), "{}", stderr_of(&output));

    let audit = run_bin(&[
        "verify",
        out.to_str().unwrap(),
        "--spec",
        spec.to_str().unwrap(),
        "--recompute",
        "1",
    ]);
    let table = String::from_utf8_lossy(&audit.stdout).into_owned();
    assert!(audit.status.success(), "{table}");
    assert!(table.contains("verify: PASS"), "{table}");

    let csv = out.join("chaos-mini.csv");
    let mut bytes = std::fs::read(&csv).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x01;
    std::fs::write(&csv, bytes).unwrap();

    let audit = run_bin(&[
        "verify",
        out.to_str().unwrap(),
        "--spec",
        spec.to_str().unwrap(),
    ]);
    let table = String::from_utf8_lossy(&audit.stdout).into_owned();
    assert_eq!(audit.status.code(), Some(1), "{table}");
    assert!(
        table.contains("report-bytes  FAIL") && table.contains("verify: FAIL"),
        "{table}"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn failed_spool_scan_skips_one_scan_not_the_serve_loop() {
    let spool = temp_dir("scanfail-spool");
    let out = temp_dir("scanfail-out");
    std::fs::write(spool.join("mini.toml"), MINI_SPEC).unwrap();

    // Scan 1 fails by injection; scan 2 finds and processes the submission;
    // scan 3 (the --max-scans bound) finds an empty spool and exits cleanly.
    let output = run_bin(&[
        "serve",
        "--workers",
        "2",
        "--quiet",
        "--max-scans",
        "3",
        "--poll-ms",
        "50",
        "--fault-inject",
        "spool-scan-error:nth=1",
        "--spool",
        spool.to_str().unwrap(),
        "--out",
        out.to_str().unwrap(),
    ]);
    let stderr = stderr_of(&output);
    assert!(output.status.success(), "{stderr}");
    assert!(
        stderr.contains("spool scan failed"),
        "the skipped scan must be logged: {stderr}"
    );
    assert!(spool.join("mini.toml.done").exists(), "{stderr}");
    assert!(out.join("mini").join("chaos-mini.json").exists());
    for dir in [spool, out] {
        std::fs::remove_dir_all(dir).unwrap();
    }
}
