//! `boomerang-sim` — the command-line front door to the Boomerang simulator.
//!
//! ```text
//! boomerang-sim run <spec.toml> [--jobs N] [--smoke] [--out DIR] [--quiet]
//! boomerang-sim run --preset <name> [...]
//! boomerang-sim resume <spec.toml> [--out DIR] [...]
//! boomerang-sim serve --spool DIR [--out DIR] [--workers N] [--once]
//! boomerang-sim serve --spool DIR --listen ADDR [--workers N] [...]
//! boomerang-sim worker --connect ADDR [--worker-index N] [...]
//! boomerang-sim verify DIR [--spec FILE] [--recompute N] [...]
//! boomerang-sim bench [--preset <name>]... [--smoke] [--check FILE]
//! boomerang-sim list-presets
//! ```

use boomerang::RunLength;
use campaign::checkpoint::{spec_hash, Journal, JournalReplay};
use campaign::serve::{serve, ServeOptions, SubmissionStatus};
use campaign::supervise::install_interrupt_handler;
use campaign::{
    assemble_report, fault, presets, run_generated_partial, run_worker, verify_dir, BenchOptions,
    CampaignSpec, EngineOptions, FaultPlan, Job, RunPlan, StreamingSink, VerifyOptions,
    WorkerOptions,
};
use frontend::SimStats;
use std::collections::HashMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

/// Exit code of a serve run that finished with at least one partial
/// (degraded) submission and no failures. Documented in the README's
/// failure model; distinct from 1 (failure) so operators can tell "usable
/// but damaged" from "unusable".
const PARTIAL_EXIT_CODE: u8 = 4;

/// Exit code of a serve run stopped by the `--max-quarantined` integrity
/// bound: more worker sessions were quarantined for corrupt results than the
/// operator allowed. Distinct from 1 (failure) and 4 (partial) — this one
/// means "the fleet is corrupting results", which wants a different
/// response (replace hardware, not retry) than an ordinary failed run.
const QUARANTINE_EXIT_CODE: u8 = 5;

const USAGE: &str =
    "boomerang-sim — declarative experiment campaigns for the Boomerang reproduction

USAGE:
    boomerang-sim run <spec.toml> [OPTIONS]
    boomerang-sim run --preset <name> [OPTIONS]
    boomerang-sim resume <spec.toml | --preset <name>> [OPTIONS]
    boomerang-sim serve --spool <DIR> [SERVE OPTIONS]
    boomerang-sim worker --connect <ADDR> [WORKER OPTIONS]
    boomerang-sim verify <DIR> [VERIFY OPTIONS]
    boomerang-sim bench [BENCH OPTIONS]
    boomerang-sim list-presets

OPTIONS:
    --preset <name>        Run an embedded preset instead of a spec file
    --jobs <N>             Worker threads (default: all cores)
    --smoke                Replace the spec's run length with a short smoke run
    --out <DIR>            Campaign directory: reports, row streams and the
                           checkpoint journal (default: campaign-out)
    --artifact-cache <DIR> Content-addressed workload artifact cache; repeat
                           campaigns over the same workload points skip
                           generation entirely
    --resume               Continue from the directory's checkpoint journal
                           instead of refusing to touch an existing campaign
    --force                Clear an existing campaign (even a mismatching one)
                           and start over
    --max-rows <N>         Checkpoint at most N new rows, then exit with a
                           resume hint (deterministic interruption)
    --fault-inject <PLAN>  Arm deterministic fault points (testing; see the
                           README's failure model for the plan syntax)
    --quiet                Suppress the progress banner and result table
    -h, --help             Show this help

SERVE OPTIONS (every submission is leased row by row from a work queue):
    --spool <DIR>          Directory watched for *.toml spec submissions;
                           processed files become *.done / *.partial /
                           *.failed
    --out <DIR>            Root of per-submission output dirs (default:
                           serve-out)
    --workers <N>          Local worker processes per submission, each
                           running one row at a time, connected to the work
                           queue over loopback (default: one per core;
                           0 = remote workers only, needs --listen)
    --jobs <N>             Deprecated and ignored (warns): each worker
                           process runs one row at a time, so --workers
                           sets the parallelism
    --smoke                Run every submission at smoke length
    --artifact-cache <DIR> Shared workload artifact cache for all workers
    --once                 Process the submissions present now, then exit
    --poll-ms <MS>         Spool poll interval (default: 500)
    --max-retries <N>      Restarts per crashed/hung local worker
                           (default: 2)
    --worker-timeout-secs <S>
                           Kill a local worker that sends no lease request
                           or row for S seconds; counts as a retry
                           (default: 300)
    --backoff-ms <MS>      Base restart backoff, doubling per retry
                           (default: 250)
    --allow-partial        When every local worker exhausts its retries
                           with rows outstanding, write a degraded report
                           (missing rows marked) instead of failing; exit
                           code 4 marks a partial run
    --settle-ms <MS>       Skip submissions modified within the last MS
                           (still being written; default: 0 = off)
    --max-scans <N>        Stop after N spool scans (testing; default:
                           0 = unlimited)
    --fault-inject <PLAN>  Arm deterministic fault points in the service and
                           its workers (testing)
    --listen <ADDR>        Expose the work queue on ADDR (e.g. 0.0.0.0:7000)
                           so `worker --connect` clients can join the local
                           fleet (default: a private ephemeral loopback port)
    --listen-addr-file <FILE>
                           Write the bound work-queue address to FILE once
                           listening (for `--listen 127.0.0.1:0`)
    --lease-timeout-secs <S>
                           Revoke a lease with no heartbeat or row progress
                           for S seconds; the job is requeued with
                           exponential backoff on re-lease (default: 60)
    --steal-lock-after-secs <S>
                           Steal the spool lock when its mtime is older than
                           S seconds, even if the owner looks alive (escape
                           hatch for platforms without procfs liveness; a
                           live serve refreshes the lock every scan)
    --verify-fraction <F>  Re-lease a deterministic fraction F (0.0-1.0) of
                           completed rows to a *different* worker session and
                           compare the stats; a mismatch quarantines the
                           producing session and requeues its unverified rows
                           (default: 0 = off; needs at least two workers)
    --max-quarantined <N>  Fail a submission (exit code 5) once more than N
                           worker sessions have been quarantined for corrupt
                           results (default: unbounded)

WORKER OPTIONS:
    --connect <ADDR>       Broker address (host:port) to lease jobs from
    --worker-index <N>     This worker's index, quoted in its handshake and
                           addressable by `shard=` fault filters (default: 0)
    --heartbeat-ms <MS>    Lease heartbeat interval (default: 2000)
    --reconnect-ms <MS>    Base reconnect backoff after losing the broker,
                           doubling per consecutive failure (default: 250)
    --reconnect-cap-ms <MS>
                           Reconnect backoff ceiling (default: 10000)
    --reconnect-tries <N>  Consecutive failed reconnects before giving up
                           (default: 6)
    --artifact-cache <DIR> Content-addressed workload artifact cache
    --fault-inject <PLAN>  Arm deterministic fault points (testing)
    --quiet                Suppress per-row progress logs

VERIFY OPTIONS (offline audit of a campaign directory):
    --spec <FILE>          The campaign's spec TOML; unlocks the replay
                           checks (spec hash, completeness, report bytes,
                           recompute) on top of the self-contained journal
                           row-checksum scan
    --smoke                The campaign ran at smoke length
    --recompute <N>        Re-simulate N sampled rows from scratch and
                           compare their stats to the journal (the sample is
                           deterministic per spec; default: 0 = off)
    --artifact-cache <DIR> Also audit every artifact header and payload
                           checksum in this workload cache

EXIT CODES:
    0  success        1  failure (bad args, failed submission, I/O error,
                         a verify audit that found damage)
    4  serve completed with at least one partial submission and no failures
    5  serve stopped by --max-quarantined: the worker fleet is corrupting
       results faster than the operator allowed
    (a worker exits 0 on a clean broker-driven shutdown, 1 on a terminal
    error: spec hash skew or an exhausted reconnect budget)

BENCH OPTIONS (see README \"Performance\"):
    --preset <name>   Benchmark this preset (repeatable; default: figure9)
    --jobs <N>        Worker threads (default: all cores)
    --smoke           Benchmark only smoke-length entries (the CI mode)
    --full            Benchmark only full-length entries
    --iterations <K>  Timed simulation iterations (default: 3)
    --out <FILE>      Bench report path (default: bench-out/bench.json; pass
                      BENCH_PR<n>.json explicitly to (re)write a committed
                      trajectory baseline)
    --check <FILE>    Fail if deterministic fields drift from this baseline
    --quiet           Suppress the summary table
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(code) => code,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &[String]) -> Result<ExitCode, String> {
    match args.first().map(String::as_str) {
        None | Some("-h") | Some("--help") => {
            print!("{USAGE}");
            Ok(ExitCode::SUCCESS)
        }
        Some("list-presets") => {
            // Each (workload, seed) group shares one generated trace across
            // its `rows/grp` rows.
            println!(
                "{:<20} {:>5} {:>10} {:>7} {:>9}  description",
                "preset", "jobs", "workloads", "groups", "rows/grp"
            );
            for preset in presets::PRESETS {
                let spec = preset.spec();
                let jobs = campaign::expand(&spec).len();
                let groups = spec.workloads.len() * spec.seeds.len();
                println!(
                    "{:<20} {:>5} {:>10} {:>7} {:>9}  {}",
                    preset.name,
                    jobs,
                    spec.workloads.len(),
                    groups,
                    jobs / groups.max(1),
                    preset.description
                );
                if let Some(labels) = custom_axis_labels(&spec) {
                    println!(
                        "{:<20} {:>5} {:>10} {:>7} {:>9}  workload axis: {labels}",
                        "", "", "", "", ""
                    );
                }
            }
            Ok(ExitCode::SUCCESS)
        }
        Some("run") => run_command(&args[1..], false),
        Some("resume") => run_command(&args[1..], true),
        Some("serve") => serve_command(&args[1..]),
        Some("worker") => worker_command(&args[1..]),
        Some("verify") => verify_command(&args[1..]),
        Some("bench") => bench_command(&args[1..]),
        Some(other) => Err(format!("unknown command `{other}`\n\n{USAGE}")),
    }
}

/// The joined workload-axis labels of a spec whose axis goes beyond the
/// paper presets (custom profile families are the part worth surfacing);
/// `None` for plain preset axes.
fn custom_axis_labels(spec: &CampaignSpec) -> Option<String> {
    spec.workloads.iter().any(|w| !w.is_preset()).then(|| {
        spec.workloads
            .iter()
            .map(|w| w.label.as_str())
            .collect::<Vec<_>>()
            .join(", ")
    })
}

fn bench_command(args: &[String]) -> Result<ExitCode, String> {
    let mut options = BenchOptions {
        presets: Vec::new(),
        ..BenchOptions::default()
    };
    // Deliberately NOT the committed BENCH_PR<n>.json baseline: casual bench
    // runs must not silently rewrite the repo's perf trajectory.
    let mut out = PathBuf::from("bench-out/bench.json");
    let mut check: Option<PathBuf> = None;
    let mut quiet = false;

    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--preset" => {
                let name = it.next().ok_or("--preset needs a name")?;
                options.presets.push(name.clone());
            }
            "--jobs" => {
                let n = it.next().ok_or("--jobs needs a count")?;
                options.jobs = n
                    .parse::<usize>()
                    .map_err(|_| format!("bad --jobs value `{n}`"))?;
                if options.jobs == 0 {
                    return Err("--jobs must be at least 1".into());
                }
            }
            "--smoke" => options.smoke_only = true,
            "--full" => options.full_only = true,
            "--iterations" => {
                let n = it.next().ok_or("--iterations needs a count")?;
                // Zero is rejected by `run_bench`, which owns the check.
                options.iterations = n
                    .parse::<usize>()
                    .map_err(|_| format!("bad --iterations value `{n}`"))?;
            }
            "--out" => {
                let path = it.next().ok_or("--out needs a file path")?;
                out = PathBuf::from(path);
            }
            "--check" => {
                let path = it.next().ok_or("--check needs a file path")?;
                check = Some(PathBuf::from(path));
            }
            "--quiet" => quiet = true,
            "-h" | "--help" => {
                print!("{USAGE}");
                return Ok(ExitCode::SUCCESS);
            }
            other => {
                return Err(format!("unknown bench option `{other}`\n\n{USAGE}"));
            }
        }
    }
    if options.presets.is_empty() {
        options.presets = BenchOptions::default().presets;
    }

    let report = campaign::run_bench(&options)?;
    let json = campaign::bench_to_json(&report);
    if let Some(parent) = out.parent().filter(|p| !p.as_os_str().is_empty()) {
        std::fs::create_dir_all(parent)
            .map_err(|e| format!("cannot create {}: {e}", parent.display()))?;
    }
    std::fs::write(&out, &json).map_err(|e| format!("cannot write {}: {e}", out.display()))?;
    if !quiet {
        print!("{}", campaign::bench_to_table(&report));
        eprintln!("\nwrote {}", out.display());
    }
    if let Some(baseline_path) = check {
        let baseline = std::fs::read_to_string(&baseline_path)
            .map_err(|e| format!("cannot read {}: {e}", baseline_path.display()))?;
        campaign::check_against(&baseline, &report)
            .map_err(|e| format!("bench drift against {}:\n{e}", baseline_path.display()))?;
        if !quiet {
            eprintln!(
                "deterministic fields match the committed baseline {}",
                baseline_path.display()
            );
        }
    }
    Ok(ExitCode::SUCCESS)
}

fn serve_command(args: &[String]) -> Result<ExitCode, String> {
    let mut options = ServeOptions {
        binary: std::env::current_exe()
            .map_err(|e| format!("cannot locate the simulator binary: {e}"))?,
        out: PathBuf::from("serve-out"),
        ..ServeOptions::default()
    };
    let mut quiet = false;
    let mut fault_plan: Option<String> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--spool" => {
                let dir = it.next().ok_or("--spool needs a directory")?;
                options.spool = PathBuf::from(dir);
            }
            "--out" => {
                let dir = it.next().ok_or("--out needs a directory")?;
                options.out = PathBuf::from(dir);
            }
            "--workers" => {
                let n = it.next().ok_or("--workers needs a count")?;
                // 0 is legal only with --listen (remote workers do all the
                // work); validated once the flags are all in.
                options.workers = n
                    .parse::<usize>()
                    .map_err(|_| format!("bad --workers value `{n}`"))?;
            }
            "--jobs" => {
                // Deprecated: every worker process runs one leased row at a
                // time, so there is nothing to size. Still parsed so older
                // command lines keep working, but never silently.
                let n = it.next().ok_or("--jobs needs a count")?;
                n.parse::<usize>()
                    .map_err(|_| format!("bad --jobs value `{n}`"))?;
                eprintln!(
                    "serve: warning: --jobs is deprecated and ignored; each worker \
                     process runs one row at a time, so use --workers to set the \
                     parallelism"
                );
            }
            "--smoke" => options.smoke = true,
            "--artifact-cache" => {
                let dir = it.next().ok_or("--artifact-cache needs a directory")?;
                options.artifact_cache = Some(PathBuf::from(dir));
            }
            "--once" => options.once = true,
            "--poll-ms" => {
                let ms = it.next().ok_or("--poll-ms needs a value")?;
                options.poll_ms = ms
                    .parse::<u64>()
                    .map_err(|_| format!("bad --poll-ms value `{ms}`"))?;
            }
            "--max-retries" => {
                let n = it.next().ok_or("--max-retries needs a count")?;
                options.supervise.max_retries = n
                    .parse::<u32>()
                    .map_err(|_| format!("bad --max-retries value `{n}`"))?;
            }
            "--worker-timeout-secs" => {
                let s = it.next().ok_or("--worker-timeout-secs needs a value")?;
                let secs = s
                    .parse::<f64>()
                    .ok()
                    .filter(|&s| s > 0.0)
                    .ok_or_else(|| format!("bad --worker-timeout-secs value `{s}`"))?;
                options.supervise.worker_timeout = Duration::from_secs_f64(secs);
            }
            "--backoff-ms" => {
                let ms = it.next().ok_or("--backoff-ms needs a value")?;
                options.supervise.backoff_base = Duration::from_millis(
                    ms.parse::<u64>()
                        .map_err(|_| format!("bad --backoff-ms value `{ms}`"))?,
                );
            }
            "--allow-partial" => options.allow_partial = true,
            "--settle-ms" => {
                let ms = it.next().ok_or("--settle-ms needs a value")?;
                options.settle_ms = ms
                    .parse::<u64>()
                    .map_err(|_| format!("bad --settle-ms value `{ms}`"))?;
            }
            "--max-scans" => {
                let n = it.next().ok_or("--max-scans needs a count")?;
                options.max_scans = n
                    .parse::<u64>()
                    .map_err(|_| format!("bad --max-scans value `{n}`"))?;
            }
            "--fault-inject" => {
                let plan = it.next().ok_or("--fault-inject needs a plan")?;
                fault_plan = Some(plan.clone());
            }
            "--listen" => {
                let addr = it.next().ok_or("--listen needs an address")?;
                options.listen = Some(addr.clone());
            }
            "--listen-addr-file" => {
                let path = it.next().ok_or("--listen-addr-file needs a file path")?;
                options.listen_addr_file = Some(PathBuf::from(path));
            }
            "--lease-timeout-secs" => {
                let s = it.next().ok_or("--lease-timeout-secs needs a value")?;
                let secs = s
                    .parse::<f64>()
                    .ok()
                    .filter(|&s| s > 0.0)
                    .ok_or_else(|| format!("bad --lease-timeout-secs value `{s}`"))?;
                options.lease_timeout = Duration::from_secs_f64(secs);
            }
            "--steal-lock-after-secs" => {
                let s = it.next().ok_or("--steal-lock-after-secs needs a value")?;
                let secs = s
                    .parse::<f64>()
                    .ok()
                    .filter(|&s| s > 0.0)
                    .ok_or_else(|| format!("bad --steal-lock-after-secs value `{s}`"))?;
                options.steal_lock_after = Some(Duration::from_secs_f64(secs));
            }
            "--verify-fraction" => {
                let f = it.next().ok_or("--verify-fraction needs a value")?;
                options.verify_fraction = f
                    .parse::<f64>()
                    .ok()
                    .filter(|&f| (0.0..=1.0).contains(&f))
                    .ok_or_else(|| format!("bad --verify-fraction value `{f}` (want 0.0-1.0)"))?;
            }
            "--max-quarantined" => {
                let n = it.next().ok_or("--max-quarantined needs a count")?;
                options.max_quarantined = Some(
                    n.parse::<usize>()
                        .map_err(|_| format!("bad --max-quarantined value `{n}`"))?,
                );
            }
            "--quiet" => quiet = true,
            "-h" | "--help" => {
                print!("{USAGE}");
                return Ok(ExitCode::SUCCESS);
            }
            other => return Err(format!("unknown serve option `{other}`\n\n{USAGE}")),
        }
    }
    if options.spool.as_os_str().is_empty() {
        return Err("serve needs --spool <DIR>".into());
    }
    if options.workers == 0 && options.listen.is_none() {
        return Err(
            "--workers 0 needs --listen (no local fleet and no remote worker can connect)".into(),
        );
    }
    if let Some(plan) = &fault_plan {
        fault::install(Some(plan))?;
        // The workers inherit the plan through the environment — in its
        // canonical `Display` form, round-tripped through `parse`, so the
        // forwarded value is normalized (defaults dropped, one spelling) no
        // matter how the flag was written. The supervisor stamps each
        // spawn's life number next to it.
        std::env::set_var(fault::FAULT_ENV, FaultPlan::parse(plan)?.to_string());
    } else {
        fault::install(None)?;
    }
    install_interrupt_handler();
    if !quiet {
        eprintln!(
            "serving spool {} into {} ({} local worker processes{}{})",
            options.spool.display(),
            options.out.display(),
            options.workers,
            if options.listen.is_some() {
                ", remote workers welcome"
            } else {
                ""
            },
            if options.once { ", once" } else { "" },
        );
    }
    let outcomes = serve(&options, &mut |outcome| match &outcome.result {
        Ok(SubmissionStatus::Done(dir)) => {
            if !quiet {
                eprintln!(
                    "serve: {} (campaign `{}`) -> {}",
                    outcome.submission.display(),
                    outcome.campaign,
                    dir.display()
                );
            }
        }
        Ok(SubmissionStatus::Partial { dir, missing }) => eprintln!(
            "serve: {} (campaign `{}`) -> {} PARTIAL ({missing} rows missing)",
            outcome.submission.display(),
            outcome.campaign,
            dir.display()
        ),
        Err(reason) => eprintln!("serve: {} FAILED: {reason}", outcome.submission.display()),
    })
    .map_err(|e| format!("serve loop: {e}"))?;
    // The quarantine bound outranks plain failure: exit 5 tells the
    // operator the fleet is corrupting results, which a retry won't fix.
    let quarantined = outcomes.iter().filter(|o| o.quarantine_exceeded).count();
    if quarantined > 0 {
        eprintln!(
            "serve: {quarantined} of {} submissions exceeded the quarantine bound",
            outcomes.len()
        );
        return Ok(ExitCode::from(QUARANTINE_EXIT_CODE));
    }
    let failed = outcomes.iter().filter(|o| o.result.is_err()).count();
    if failed > 0 {
        return Err(format!("{failed} of {} submissions failed", outcomes.len()));
    }
    let partial = outcomes
        .iter()
        .filter(|o| matches!(o.result, Ok(SubmissionStatus::Partial { .. })))
        .count();
    if partial > 0 {
        eprintln!(
            "serve: {partial} of {} submissions completed partially",
            outcomes.len()
        );
        return Ok(ExitCode::from(PARTIAL_EXIT_CODE));
    }
    Ok(ExitCode::SUCCESS)
}

fn worker_command(args: &[String]) -> Result<ExitCode, String> {
    let mut options = WorkerOptions::default();
    let mut fault_plan: Option<String> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--connect" => {
                let addr = it.next().ok_or("--connect needs an address")?;
                options.connect = addr.clone();
            }
            "--worker-index" => {
                let n = it.next().ok_or("--worker-index needs a value")?;
                options.worker_index = n
                    .parse::<usize>()
                    .map_err(|_| format!("bad --worker-index value `{n}`"))?;
            }
            "--heartbeat-ms" => {
                let ms = it.next().ok_or("--heartbeat-ms needs a value")?;
                let ms = ms
                    .parse::<u64>()
                    .ok()
                    .filter(|&ms| ms > 0)
                    .ok_or_else(|| format!("bad --heartbeat-ms value `{ms}`"))?;
                options.heartbeat = Duration::from_millis(ms);
            }
            "--reconnect-ms" => {
                let ms = it.next().ok_or("--reconnect-ms needs a value")?;
                options.reconnect_base = Duration::from_millis(
                    ms.parse::<u64>()
                        .map_err(|_| format!("bad --reconnect-ms value `{ms}`"))?,
                );
            }
            "--reconnect-cap-ms" => {
                let ms = it.next().ok_or("--reconnect-cap-ms needs a value")?;
                options.reconnect_cap = Duration::from_millis(
                    ms.parse::<u64>()
                        .map_err(|_| format!("bad --reconnect-cap-ms value `{ms}`"))?,
                );
            }
            "--reconnect-tries" => {
                let n = it.next().ok_or("--reconnect-tries needs a count")?;
                options.reconnect_tries = n
                    .parse::<u32>()
                    .map_err(|_| format!("bad --reconnect-tries value `{n}`"))?;
            }
            "--artifact-cache" => {
                let dir = it.next().ok_or("--artifact-cache needs a directory")?;
                options.artifact_cache = Some(PathBuf::from(dir));
            }
            "--fault-inject" => {
                let plan = it.next().ok_or("--fault-inject needs a plan")?;
                fault_plan = Some(plan.clone());
            }
            "--quiet" => options.quiet = true,
            "-h" | "--help" => {
                print!("{USAGE}");
                return Ok(ExitCode::SUCCESS);
            }
            other => return Err(format!("unknown worker option `{other}`\n\n{USAGE}")),
        }
    }
    if options.connect.is_empty() {
        return Err("worker needs --connect <ADDR>".into());
    }
    // Explicit flag or the plan a spawning serve forwarded through the
    // environment; `run_worker` registers the worker index as this
    // process's shard for `shard=` filters.
    fault::install(fault_plan.as_deref())?;
    let summary = run_worker(&options).map_err(|e| format!("worker: {e}"))?;
    if !options.quiet {
        eprintln!(
            "worker {}: {} rows over {} leases, {} reconnects, {} points ({} cache hits, {} \
             generated); {}",
            options.worker_index,
            summary.rows,
            summary.leases,
            summary.reconnects,
            summary.points(),
            summary.cache_hits,
            summary.generated,
            summary.shutdown_reason
        );
    }
    Ok(ExitCode::SUCCESS)
}

fn verify_command(args: &[String]) -> Result<ExitCode, String> {
    let mut options = VerifyOptions::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--spec" => {
                let path = it.next().ok_or("--spec needs a file")?;
                options.spec = Some(PathBuf::from(path));
            }
            "--smoke" => options.smoke = true,
            "--recompute" => {
                let n = it.next().ok_or("--recompute needs a count")?;
                options.recompute = n
                    .parse::<usize>()
                    .map_err(|_| format!("bad --recompute value `{n}`"))?;
            }
            "--artifact-cache" => {
                let dir = it.next().ok_or("--artifact-cache needs a directory")?;
                options.artifact_cache = Some(PathBuf::from(dir));
            }
            "-h" | "--help" => {
                print!("{USAGE}");
                return Ok(ExitCode::SUCCESS);
            }
            other if other.starts_with('-') => {
                return Err(format!("unknown verify option `{other}`\n\n{USAGE}"));
            }
            dir => {
                if !options.dir.as_os_str().is_empty() {
                    return Err(format!("verify takes one directory, got `{dir}` too"));
                }
                options.dir = PathBuf::from(dir);
            }
        }
    }
    if options.dir.as_os_str().is_empty() {
        return Err(format!("verify needs a campaign directory\n\n{USAGE}"));
    }
    let report = verify_dir(&options);
    println!("{}", report.render());
    if report.passed() {
        Ok(ExitCode::SUCCESS)
    } else {
        Ok(ExitCode::FAILURE)
    }
}

fn run_command(args: &[String], command_resume: bool) -> Result<ExitCode, String> {
    let mut spec_path: Option<PathBuf> = None;
    let mut preset: Option<String> = None;
    let mut jobs: usize = 0;
    let mut smoke = false;
    let mut out_dir = PathBuf::from("campaign-out");
    let mut quiet = false;
    let mut resume = command_resume;
    let mut force = false;
    let mut max_rows: Option<usize> = None;
    let mut artifact_cache: Option<PathBuf> = None;
    let mut fault_plan: Option<String> = None;

    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--preset" => {
                let name = it.next().ok_or("--preset needs a name")?;
                preset = Some(name.clone());
            }
            "--jobs" => {
                let n = it.next().ok_or("--jobs needs a count")?;
                jobs = n
                    .parse::<usize>()
                    .map_err(|_| format!("bad --jobs value `{n}`"))?;
                if jobs == 0 {
                    return Err("--jobs must be at least 1".into());
                }
            }
            "--smoke" => smoke = true,
            "--out" => {
                let dir = it.next().ok_or("--out needs a directory")?;
                out_dir = PathBuf::from(dir);
            }
            "--resume" => resume = true,
            "--force" => force = true,
            "--max-rows" => {
                let n = it.next().ok_or("--max-rows needs a count")?;
                max_rows = Some(
                    n.parse::<usize>()
                        .map_err(|_| format!("bad --max-rows value `{n}`"))?,
                );
            }
            "--artifact-cache" => {
                let dir = it.next().ok_or("--artifact-cache needs a directory")?;
                artifact_cache = Some(PathBuf::from(dir));
            }
            "--fault-inject" => {
                let plan = it.next().ok_or("--fault-inject needs a plan")?;
                fault_plan = Some(plan.clone());
            }
            "--quiet" => quiet = true,
            "-h" | "--help" => {
                print!("{USAGE}");
                return Ok(ExitCode::SUCCESS);
            }
            other if other.starts_with('-') => {
                return Err(format!("unknown option `{other}`\n\n{USAGE}"));
            }
            path => {
                if spec_path.is_some() {
                    return Err("more than one spec file given".into());
                }
                spec_path = Some(PathBuf::from(path));
            }
        }
    }

    let spec = match (&spec_path, &preset) {
        (Some(_), Some(_)) => {
            return Err("give either a spec file or --preset, not both".into());
        }
        (None, None) => {
            return Err(format!("nothing to run\n\n{USAGE}"));
        }
        (None, Some(name)) => presets::find(name).map_err(|e| e.to_string())?,
        (Some(path), None) => {
            let text = std::fs::read_to_string(path)
                .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
            CampaignSpec::from_toml_str(&text).map_err(|e| format!("{}: {e}", path.display()))?
        }
    };

    // Arm the fault plan (explicit flag or inherited environment) before any
    // fault point can run. A `run` process registers as worker 0, so
    // `shard=0` filters address it.
    fault::install(fault_plan.as_deref())?;
    fault::set_worker_shard(0);

    let run = if smoke {
        RunLength::smoke_test()
    } else {
        spec.run
    };
    let hash = spec_hash(&spec, run, smoke);
    let jobs_list = campaign::expand(&spec);
    if jobs_list.is_empty() {
        return Err("campaign expands to zero jobs".into());
    }

    // Satellite 1: an output directory already holding a campaign is never
    // silently mixed with a different spec. `--force` starts over, `--resume`
    // continues a matching one.
    match JournalReplay::existing_hash(&out_dir, &spec.name) {
        Ok(None) => {}
        Ok(Some(existing)) if existing == hash => {
            if !resume && !force {
                return Err(format!(
                    "{} already holds a checkpointed campaign `{}` for this spec; \
                     pass --resume to continue it or --force to start over",
                    out_dir.display(),
                    spec.name
                ));
            }
        }
        Ok(Some(existing)) => {
            if !force {
                return Err(format!(
                    "{} already holds campaign `{}` with spec hash {existing}, which does \
                     not match this spec's {hash} (different spec, run length or smoke \
                     setting); pass --force to clear it and start over",
                    out_dir.display(),
                    spec.name
                ));
            }
        }
        Err(e) => {
            if !force {
                return Err(format!(
                    "cannot read the existing campaign journal ({e}); pass --force to \
                     clear it and start over"
                ));
            }
        }
    }
    if force {
        Journal::remove_all(&out_dir, &spec.name)
            .map_err(|e| format!("cannot clear {}: {e}", out_dir.display()))?;
        resume = false;
    }

    // Replay whatever is already checkpointed (including the per-shard
    // journals of directories written by older sharded workers).
    let done: HashMap<usize, SimStats> = if resume {
        let replay = JournalReplay::load(&out_dir, &spec.name, &hash, &jobs_list)
            .map_err(|e| e.to_string())?;
        replay.rows
    } else {
        HashMap::new()
    };

    let plan = RunPlan { limit: max_rows };
    let pending = (jobs_list.len() - done.len()).min(max_rows.unwrap_or(usize::MAX));

    if !quiet {
        let workers = if jobs == 0 {
            sim_core::pool::default_workers()
        } else {
            jobs
        };
        eprintln!(
            "campaign `{}`: {} jobs ({} configs x {} workloads x {} seeds, {} mechanisms + baselines) on {} workers{}",
            spec.name,
            jobs_list.len(),
            spec.configs.len(),
            spec.workloads.len(),
            spec.seeds.len(),
            spec.mechanisms.len(),
            workers,
            if smoke { " [smoke]" } else { "" },
        );
        if let Some(labels) = custom_axis_labels(&spec) {
            eprintln!("workload axis: {labels}");
        }
        if !done.is_empty() {
            eprintln!(
                "resuming: {} of {} rows replayed from the checkpoint journal",
                done.len(),
                jobs_list.len()
            );
        }
    }

    let options = EngineOptions {
        jobs,
        smoke,
        artifact_cache,
    };

    let journal = if resume && Journal::path_for(&out_dir, &spec.name, None).exists() {
        Journal::append(&out_dir, &spec.name, None)
    } else {
        Journal::create(&out_dir, &spec.name, &hash, jobs_list.len(), None)
    }
    .map_err(|e| format!("cannot open the checkpoint journal: {e}"))?;
    let stream = StreamingSink::create(&spec, &out_dir)
        .map_err(|e| format!("cannot open the row streams: {e}"))?;
    // Replayed rows stream first, in canonical order (baselines lead their
    // groups, so nothing is left buffered).
    let mut replayed: Vec<usize> = done.keys().copied().collect();
    replayed.sort_unstable();
    for i in replayed {
        stream
            .record(&jobs_list[i], &done[&i])
            .map_err(|e| format!("cannot stream a replayed row: {e}"))?;
    }

    // Simulate the missing rows, checkpointing and streaming each as it
    // completes.
    let mut stats_by_index: HashMap<usize, SimStats> = done;
    if pending > 0 {
        let generated = campaign::generate_workloads(&spec, &options).map_err(|e| e.to_string())?;
        let generation = generated.generation();
        for warning in &generation.warnings {
            eprintln!("warning: {warning}");
        }
        if !quiet {
            eprintln!(
                "workload artifacts: {} cache hits, {} generated{}",
                generation.cache_hits,
                generation.generated,
                options
                    .artifact_cache
                    .as_deref()
                    .map(|d| format!(" ({})", d.display()))
                    .unwrap_or_default(),
            );
        }
        // A row the journal cannot hold is a row the campaign cannot claim:
        // a checkpoint write failure (ENOSPC, a yanked disk) must fail the
        // run, not degrade into a journal that silently resumes short. The
        // observer runs on pool workers, so the first failure is captured
        // here and surfaced once the pass drains.
        let checkpoint_error: std::sync::Mutex<Option<String>> = std::sync::Mutex::new(None);
        let on_row = |job: &Job, stats: &SimStats| {
            if let Err(e) = journal.record(job, stats) {
                let mut slot = checkpoint_error.lock().unwrap();
                if slot.is_none() {
                    *slot = Some(format!("checkpoint write failed: {e}"));
                }
            }
            if let Err(e) = stream.record(job, stats) {
                eprintln!("warning: row stream write failed: {e}");
            }
        };
        let outcome = run_generated_partial(
            &spec,
            &options,
            &generated,
            &stats_by_index,
            plan,
            Some(&on_row),
        );
        if let Some(e) = checkpoint_error.lock().unwrap().take() {
            return Err(e);
        }
        for (i, s) in outcome.stats.into_iter().enumerate() {
            if let Some(s) = s {
                stats_by_index.insert(i, s);
            }
        }
    } else if !quiet {
        eprintln!("workload artifacts: nothing to generate (all rows checkpointed)");
    }

    // Complete? Assemble the canonical report; identical bytes to an
    // uninterrupted run. Otherwise say exactly how to continue.
    if stats_by_index.len() == jobs_list.len() {
        let stats: Vec<SimStats> = (0..jobs_list.len()).map(|i| stats_by_index[&i]).collect();
        let report = assemble_report(&spec, &jobs_list, run, smoke, stats);
        let paths = campaign::write_reports(&report, &out_dir)
            .map_err(|e| format!("cannot write reports to {}: {e}", out_dir.display()))?;
        if !quiet {
            print!("{}", campaign::to_table(&report));
            eprintln!(
                "\nwrote {} and {}",
                paths.json.display(),
                paths.csv.display()
            );
        }
    } else {
        eprintln!(
            "checkpointed {} of {} rows in {}; continue with `boomerang-sim resume {} --out {}`",
            stats_by_index.len(),
            jobs_list.len(),
            out_dir.display(),
            spec_path
                .as_deref()
                .map(|p| p.display().to_string())
                .unwrap_or_else(|| format!("--preset {}", preset.as_deref().unwrap_or(&spec.name))),
            out_dir.display()
        );
    }
    Ok(ExitCode::SUCCESS)
}
