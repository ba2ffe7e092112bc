//! `boomerang-sim` — the command-line front door to the Boomerang simulator.
//!
//! `boomerang-sim --help` lists the subcommands (`run`, `resume`, `serve`,
//! `worker`, `verify`, `list-presets`) and their options, which are parsed
//! and documented from the flag tables of [`campaign::cli`].

use boomerang::RunLength;
use campaign::checkpoint::{spec_hash, Journal, JournalReplay};
use campaign::cli::{self, Args, Command};
use campaign::serve::{
    run_local, serve, ServeOptions, ServeOutcome, SubmissionStatus, MIN_LEASE_TIMEOUT,
};
use campaign::supervise::install_interrupt_handler;
use campaign::{
    fault, presets, run_worker, verify_dir, CampaignSpec, FaultPlan, VerifyOptions, WorkerOptions,
};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

/// Exit code of a serve run with at least one partial (degraded) submission
/// and no failures: "usable but damaged", not "unusable" (1).
const PARTIAL_EXIT_CODE: u8 = 4;

/// Exit code of a serve run stopped by its quarantine bound: the fleet is
/// corrupting results, which wants hardware replaced, not a retry.
const QUARANTINE_EXIT_CODE: u8 = 5;

/// The `--help` text: the synopsis, each subcommand's option table and the
/// exit codes.
fn usage() -> String {
    let (preset, spool) = (cli::PRESET.usage(), cli::SPOOL.usage());
    format!(
        "boomerang-sim — declarative experiment campaigns for the Boomerang reproduction

USAGE:
    boomerang-sim run <spec.toml> [OPTIONS]
    boomerang-sim run {preset} [OPTIONS]
    boomerang-sim resume <spec.toml | {preset}> [OPTIONS]
    boomerang-sim serve {spool} [SERVE OPTIONS]
    boomerang-sim worker {} [WORKER OPTIONS]
    boomerang-sim verify <DIR> [VERIFY OPTIONS]
    boomerang-sim list-presets
    boomerang-sim [<command>] -h | --help
{}
EXIT CODES:
    0  success        1  failure (bad args, failed submission, I/O error,
                         a verify audit that found damage)
    4  serve completed with at least one partial submission and no failures
    5  serve stopped by its quarantine bound: the worker fleet is corrupting
       results faster than the operator allowed
    (a worker exits 0 on a clean broker-driven shutdown, 1 on a terminal
    error: spec hash skew or an exhausted reconnect budget)
",
        cli::CONNECT.usage(),
        cli::help()
    )
}

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

type Handler = fn(&Args<'_>) -> Result<ExitCode, String>;

fn run(args: &[String]) -> Result<ExitCode, String> {
    let Some((name, rest)) = args.split_first() else {
        return help();
    };
    let (table, handler): (&Command, Handler) = match name.as_str() {
        "-h" | "--help" => return help(),
        "list-presets" => return list_presets(),
        "run" => (&cli::RUN, |args| run_command(run_options(args, false)?)),
        "resume" => (&cli::RUN, |args| run_command(run_options(args, true)?)),
        "serve" => (&cli::SERVE, serve_command),
        "worker" => (&cli::WORKER, worker_command),
        "verify" => (&cli::VERIFY, verify_command),
        other => return Err(format!("unknown command `{other}` (see --help)")),
    };
    match cli::parse(table, rest)? {
        Some(args) => handler(&args),
        None => help(),
    }
}

fn help() -> Result<ExitCode, String> {
    print!("{}", usage());
    Ok(ExitCode::SUCCESS)
}

fn list_presets() -> Result<ExitCode, String> {
    // Each (workload, seed) group shares one generated trace across its
    // `rows/grp` rows.
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

/// The serve options `args` select, all but the binary to spawn.
fn serve_options(args: &Args<'_>) -> Result<ServeOptions, String> {
    use cli::*;
    let mut o = ServeOptions::default();
    let spool = args.path(&SPOOL);
    o.spool = spool.ok_or_else(|| format!("serve needs {}", SPOOL.usage()))?;
    o.out = args.path(&OUT).unwrap_or_else(|| "serve-out".into());
    o.workers = args.count(&WORKERS)?.unwrap_or(o.workers);
    o.smoke = args.switch(&SMOKE);
    o.artifact_cache = args.path(&ARTIFACT_CACHE);
    o.once = args.switch(&ONCE);
    o.poll_ms = args.count(&POLL_MS)?.unwrap_or(o.poll_ms);
    let s = &mut o.supervise;
    s.max_retries = args.count(&MAX_RETRIES)?.unwrap_or(s.max_retries);
    s.worker_timeout = args
        .seconds(&WORKER_TIMEOUT_SECS, Duration::ZERO)?
        .unwrap_or(s.worker_timeout);
    s.backoff_base = args.millis(&BACKOFF_MS)?.unwrap_or(s.backoff_base);
    o.allow_partial = args.switch(&ALLOW_PARTIAL);
    o.settle_ms = args.count(&SETTLE_MS)?.unwrap_or(o.settle_ms);
    o.max_scans = args.count(&MAX_SCANS)?.unwrap_or(o.max_scans);
    o.listen = args.text(&LISTEN);
    o.listen_addr_file = args.path(&LISTEN_ADDR_FILE);
    o.lease_timeout = args
        .seconds(&LEASE_TIMEOUT_SECS, MIN_LEASE_TIMEOUT)?
        .unwrap_or(o.lease_timeout);
    o.verify_fraction = args
        .fraction(&VERIFY_FRACTION)?
        .unwrap_or(o.verify_fraction);
    o.max_quarantined = args.count(&MAX_QUARANTINED)?;
    // Every worker process runs one leased row at a time, so there is
    // nothing for --jobs to size. Older command lines still parse, but
    // never silently.
    if args.count::<usize>(&JOBS)?.is_some() {
        eprintln!(
            "serve: warning: {} is deprecated and ignored; each worker process runs one row \
             at a time, so use {} to set the parallelism",
            JOBS.name, WORKERS.name
        );
    }
    if o.workers == 0 && o.listen.is_none() {
        return Err(format!(
            "{} 0 needs {} (no local fleet and no remote worker can connect)",
            WORKERS.name, LISTEN.name
        ));
    }
    Ok(o)
}

fn serve_command(args: &Args<'_>) -> Result<ExitCode, String> {
    let options = ServeOptions {
        binary: std::env::current_exe()
            .map_err(|e| format!("cannot locate the simulator binary: {e}"))?,
        ..serve_options(args)?
    };
    let quiet = args.switch(&cli::QUIET);
    let fault_plan = args.text(&cli::FAULT_INJECT);
    fault::install(fault_plan.as_deref())?;
    if let Some(plan) = &fault_plan {
        // The workers inherit the plan through the environment — in its
        // canonical `Display` form, round-tripped through `parse`, so the
        // forwarded value is normalized (defaults dropped, one spelling) no
        // matter how the flag was written. The supervisor stamps each
        // spawn's life number next to it.
        std::env::set_var(fault::FAULT_ENV, FaultPlan::parse(plan)?.to_string());
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
    let count = |pick: fn(&ServeOutcome) -> bool| outcomes.iter().filter(|o| pick(o)).count();
    let of = outcomes.len();
    let quarantined = count(|o| o.quarantine_exceeded);
    if quarantined > 0 {
        eprintln!("serve: {quarantined} of {of} submissions exceeded the quarantine bound");
        return Ok(ExitCode::from(QUARANTINE_EXIT_CODE));
    }
    let failed = count(|o| o.result.is_err());
    if failed > 0 {
        return Err(format!("{failed} of {of} submissions failed"));
    }
    let partial = count(|o| matches!(o.result, Ok(SubmissionStatus::Partial { .. })));
    if partial > 0 {
        eprintln!("serve: {partial} of {of} submissions completed partially");
        return Ok(ExitCode::from(PARTIAL_EXIT_CODE));
    }
    Ok(ExitCode::SUCCESS)
}

/// The worker options `args` select.
fn worker_options(args: &Args<'_>) -> Result<WorkerOptions, String> {
    use cli::*;
    let mut o = WorkerOptions::default();
    let connect = args.text(&CONNECT);
    o.connect = connect.ok_or_else(|| format!("worker needs {}", CONNECT.usage()))?;
    o.worker_index = args.count(&WORKER_INDEX)?.unwrap_or(o.worker_index);
    o.reconnect_base = args.millis(&RECONNECT_MS)?.unwrap_or(o.reconnect_base);
    o.reconnect_cap = args.millis(&RECONNECT_CAP_MS)?.unwrap_or(o.reconnect_cap);
    o.reconnect_tries = args.count(&RECONNECT_TRIES)?.unwrap_or(o.reconnect_tries);
    o.artifact_cache = args.path(&ARTIFACT_CACHE);
    o.quiet = args.switch(&QUIET);
    Ok(o)
}

fn worker_command(args: &Args<'_>) -> Result<ExitCode, String> {
    let options = worker_options(args)?;
    // Explicit flag or the plan a spawning serve forwarded through the
    // environment; `run_worker` registers the worker index as this
    // process's shard for `shard=` filters.
    fault::install(args.text(&cli::FAULT_INJECT).as_deref())?;
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

/// The verify options `args` select.
fn verify_options(args: &Args<'_>) -> Result<VerifyOptions, String> {
    Ok(VerifyOptions {
        dir: PathBuf::from(args.positional.ok_or("verify needs a campaign directory")?),
        spec: args.path(&cli::SPEC),
        smoke: args.switch(&cli::SMOKE),
        recompute: args.count(&cli::RECOMPUTE)?.unwrap_or(0),
        artifact_cache: args.path(&cli::ARTIFACT_CACHE),
    })
}

fn verify_command(args: &Args<'_>) -> Result<ExitCode, String> {
    let report = verify_dir(&verify_options(args)?);
    println!("{}", report.render());
    Ok(if report.passed() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// What `run` or `resume` was asked to do. `jobs` 0 means one worker thread
/// per core.
#[derive(Debug, PartialEq)]
struct RunOptions {
    spec_path: Option<PathBuf>,
    preset: Option<String>,
    jobs: usize,
    smoke: bool,
    out: PathBuf,
    quiet: bool,
    resume: bool,
    force: bool,
    artifact_cache: Option<PathBuf>,
    fault_plan: Option<String>,
}

fn run_options(args: &Args<'_>, resume: bool) -> Result<RunOptions, String> {
    use cli::*;
    Ok(RunOptions {
        spec_path: args.positional.map(PathBuf::from),
        preset: args.text(&PRESET),
        jobs: match args.count(&JOBS)? {
            Some(0) => return Err(format!("{} must be at least 1", JOBS.name)),
            jobs => jobs.unwrap_or(0),
        },
        smoke: args.switch(&SMOKE),
        out: args.path(&OUT).unwrap_or_else(|| "campaign-out".into()),
        quiet: args.switch(&QUIET),
        resume: resume || args.switch(&RESUME),
        force: args.switch(&FORCE),
        artifact_cache: args.path(&ARTIFACT_CACHE),
        fault_plan: args.text(&FAULT_INJECT),
    })
}

fn run_command(o: RunOptions) -> Result<ExitCode, String> {
    let spec = match (&o.spec_path, &o.preset) {
        (Some(_), Some(_)) => {
            let both = format!("give either a spec file or {}, not both", cli::PRESET.name);
            return Err(both);
        }
        (None, None) => return Err("nothing to run (see --help)".into()),
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
    fault::install(o.fault_plan.as_deref())?;
    fault::set_worker_shard(0);

    let run = if o.smoke {
        RunLength::smoke_test()
    } else {
        spec.run
    };
    let hash = spec_hash(&spec, run, o.smoke);
    let job_count = campaign::expand(&spec).len();
    if job_count == 0 {
        return Err("campaign expands to zero jobs".into());
    }

    // An output directory already holding a campaign is never silently
    // mixed with a different spec: forcing starts over, resuming continues
    // a matching one.
    let out_dir = &o.out;
    let (dir, name) = (out_dir.display(), &spec.name);
    let (resume, force) = (cli::RESUME.name, cli::FORCE.name);
    let conflict = match JournalReplay::existing_hash(out_dir, name) {
        Ok(None) => None,
        Ok(Some(existing)) if existing == hash => (!o.resume).then(|| {
            format!(
                "{dir} already holds a checkpointed campaign `{name}` for this spec; pass \
                 {resume} to continue it or {force} to start over"
            )
        }),
        Ok(Some(existing)) => Some(format!(
            "{dir} already holds campaign `{name}` with spec hash {existing}, which does not \
             match this spec's {hash} (different spec, run length or smoke setting); pass \
             {force} to clear it and start over"
        )),
        Err(e) => Some(format!(
            "cannot read the existing campaign journal ({e}); pass {force} to clear it and \
             start over"
        )),
    };
    if let Some(message) = conflict.filter(|_| !o.force) {
        return Err(message);
    }
    if o.force {
        // Starting over clears the old campaign's reports with its journal,
        // so a forced run that is then interrupted never leaves a stale
        // complete report beside its own partial journal.
        Journal::remove_all(out_dir, name).map_err(|e| format!("cannot clear {dir}: {e}"))?;
        for ext in ["json", "csv"] {
            let report = out_dir.join(format!("{name}.{ext}"));
            match std::fs::remove_file(&report) {
                Err(e) if e.kind() != std::io::ErrorKind::NotFound => {
                    return Err(format!("cannot clear {}: {e}", report.display()));
                }
                _ => {}
            }
        }
    }

    if !o.quiet {
        let workers = if o.jobs == 0 {
            sim_core::pool::default_workers()
        } else {
            o.jobs
        };
        eprintln!(
            "campaign `{}`: {} jobs ({} configs x {} workloads x {} seeds, {} mechanisms + baselines) on {} workers{}",
            spec.name,
            job_count,
            spec.configs.len(),
            spec.workloads.len(),
            spec.seeds.len(),
            spec.mechanisms.len(),
            workers,
            if o.smoke { " [smoke]" } else { "" },
        );
        if let Some(labels) = custom_axis_labels(&spec) {
            eprintln!("workload axis: {labels}");
        }
    }

    // The campaign runs through the broker `serve` uses: journaled, resumed
    // from the journal and assembled from it, driven by worker threads.
    let report = run_local(&spec, out_dir, o.smoke, o.jobs, o.artifact_cache, o.quiet)?;
    if !o.quiet {
        print!("{}", campaign::to_table(&report));
        let written = |ext: &str| out_dir.join(format!("{}.{ext}", spec.name));
        eprintln!(
            "\nwrote {} and {}",
            written("json").display(),
            written("csv").display()
        );
    }
    Ok(ExitCode::SUCCESS)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(line: &str) -> Vec<String> {
        line.split_whitespace().map(String::from).collect()
    }

    fn serve_line(line: &str) -> ServeOptions {
        let args = argv(line);
        serve_options(&cli::parse(&cli::SERVE, &args).unwrap().unwrap()).unwrap()
    }

    fn same<T: std::fmt::Debug>(parsed: T, expected: T) {
        assert_eq!(format!("{parsed:?}"), format!("{expected:?}"));
    }

    /// The two command lines perfbench drives (perfbench/src/workload.rs).
    #[test]
    fn perfbench_command_lines_parse_to_the_same_options() {
        let args = argv("specs/figure9.toml --jobs 2 --quiet --out bench-out");
        let run = run_options(&cli::parse(&cli::RUN, &args).unwrap().unwrap(), false);
        let expected = RunOptions {
            spec_path: Some("specs/figure9.toml".into()),
            preset: None,
            jobs: 2,
            smoke: false,
            out: "bench-out".into(),
            quiet: true,
            resume: false,
            force: false,
            artifact_cache: None,
            fault_plan: None,
        };
        assert_eq!(run, Ok(expected));
        same(
            serve_line(
                "--spool sp --out so --once --listen 127.0.0.1:0 --workers 2 --jobs 1 --smoke \
                 --quiet --artifact-cache cache",
            ),
            ServeOptions {
                spool: "sp".into(),
                out: "so".into(),
                once: true,
                listen: Some("127.0.0.1:0".into()),
                workers: 2,
                smoke: true,
                artifact_cache: Some("cache".into()),
                ..ServeOptions::default()
            },
        );
    }

    /// CI's serve command lines (.github/workflows/ci.yml).
    #[test]
    fn ci_serve_command_lines_parse_to_the_same_options() {
        let base = |spool: &str, out: &str| ServeOptions {
            spool: spool.into(),
            out: out.into(),
            once: true,
            smoke: true,
            workers: 2,
            ..ServeOptions::default()
        };
        same(
            serve_line(
                "--once --listen 127.0.0.1:0 --workers 2 --smoke --quiet --artifact-cache \
                 wl-cache --spool cache-spool --out cache-serve",
            ),
            ServeOptions {
                listen: Some("127.0.0.1:0".into()),
                artifact_cache: Some("wl-cache".into()),
                ..base("cache-spool", "cache-serve")
            },
        );
        let mut chaos = base("chaos-spool", "chaos-out");
        chaos.supervise.backoff_base = Duration::from_millis(25);
        same(
            serve_line(
                "--once --smoke --workers 2 --quiet --backoff-ms 25 --fault-inject \
                 worker-exit:shard=0:after-rows=1 --spool chaos-spool --out chaos-out",
            ),
            chaos,
        );
        same(
            serve_line(
                "--once --smoke --quiet --workers 2 --listen 127.0.0.1:0 --listen-addr-file \
                 netchaos-addr --lease-timeout-secs 2 --fault-inject \
                 heartbeat-stall:shard=1:after-rows=3 --spool netchaos-spool --out netchaos-out",
            ),
            ServeOptions {
                listen: Some("127.0.0.1:0".into()),
                listen_addr_file: Some("netchaos-addr".into()),
                lease_timeout: Duration::from_secs(2),
                ..base("netchaos-spool", "netchaos-out")
            },
        );
        same(
            serve_line(
                "--once --smoke --quiet --workers 2 --listen 127.0.0.1:0 --listen-addr-file \
                 integrity-addr --lease-timeout-secs 2 --verify-fraction 0.25 --spool \
                 integrity-spool --out integrity-out",
            ),
            ServeOptions {
                listen: Some("127.0.0.1:0".into()),
                listen_addr_file: Some("integrity-addr".into()),
                lease_timeout: Duration::from_secs(2),
                verify_fraction: 0.25,
                ..base("integrity-spool", "integrity-out")
            },
        );
    }

    #[test]
    fn run_verify_and_worker_lines_parse_to_the_same_options() {
        let args = argv("--preset figure9 --smoke --jobs 4 --quiet --out resume-out");
        let resume = run_options(&cli::parse(&cli::RUN, &args).unwrap().unwrap(), true);
        let resume = resume.unwrap();
        assert!(resume.resume && resume.smoke && resume.quiet && !resume.force);
        assert_eq!(
            (resume.preset.as_deref(), resume.jobs),
            (Some("figure9"), 4)
        );
        let args = argv("--jobs 0");
        let zero = run_options(&cli::parse(&cli::RUN, &args).unwrap().unwrap(), false);
        assert_eq!(zero, Err("--jobs must be at least 1".into()));

        let args = argv("smoke-out --spec specs/figure9.toml --smoke --recompute 6");
        let verify = verify_options(&cli::parse(&cli::VERIFY, &args).unwrap().unwrap());
        same(
            verify.unwrap(),
            VerifyOptions {
                dir: "smoke-out".into(),
                spec: Some("specs/figure9.toml".into()),
                smoke: true,
                recompute: 6,
                artifact_cache: None,
            },
        );

        // The line serve's dispatch spawns its local workers with.
        let args = argv("--connect 127.0.0.1:7000 --worker-index 3 --quiet --artifact-cache c");
        let worker = worker_options(&cli::parse(&cli::WORKER, &args).unwrap().unwrap());
        same(
            worker.unwrap(),
            WorkerOptions {
                connect: "127.0.0.1:7000".into(),
                worker_index: 3,
                quiet: true,
                artifact_cache: Some("c".into()),
                ..WorkerOptions::default()
            },
        );
    }

    /// The process tests append overrides to a shared serve line.
    #[test]
    fn a_repeated_flag_keeps_its_last_value() {
        let o = serve_line(
            "--spool s --lease-timeout-secs 2 --workers 0 --listen a --lease-timeout-secs 20",
        );
        assert_eq!(o.lease_timeout, Duration::from_secs(20));
    }

    /// A lease timeout under four heartbeats at the broker's 50 ms floor
    /// is a bad value.
    #[test]
    fn a_lease_timeout_below_the_heartbeat_floor_is_a_bad_value() {
        let serve = |secs: &str| {
            let args = argv(&format!("--spool s --lease-timeout-secs {secs}"));
            serve_options(&cli::parse(&cli::SERVE, &args).unwrap().unwrap())
        };
        for short in ["0.1", "0.05", "0.199"] {
            let want = "want a finite number of seconds of at least 0.2";
            let bad = format!("bad --lease-timeout-secs value `{short}` ({want})");
            assert_eq!(serve(short).unwrap_err(), bad);
        }
        let floor = serve("0.2").unwrap().lease_timeout;
        assert_eq!(floor, Duration::from_millis(200));
    }

    #[test]
    fn required_flags_and_the_remote_only_fleet_are_checked() {
        let args = argv("--out o");
        let serve = serve_options(&cli::parse(&cli::SERVE, &args).unwrap().unwrap());
        assert_eq!(serve.unwrap_err(), "serve needs --spool <DIR>");
        let args = argv("--spool s --workers 0");
        let serve = serve_options(&cli::parse(&cli::SERVE, &args).unwrap().unwrap());
        assert!(serve.unwrap_err().starts_with("--workers 0 needs --listen"));
        let worker = worker_options(&cli::parse(&cli::WORKER, &[]).unwrap().unwrap());
        assert_eq!(worker.unwrap_err(), "worker needs --connect <ADDR>");
    }
}
