//! `perfbench` — the repository benchmark.
//!
//! ```text
//! perfbench --workload <figure9|dispatch-stall|serve-loopback>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. It builds `boomerang-sim` from source,
//! runs the workload's campaign, checks the results and prints every metric,
//! ending with one JSON line. See `README.md` beside this package.

mod e2e;
mod layers;
mod metrics;
mod proc;
mod stats;
mod trace;
mod workload;

use metrics::{layer_catalogue, END_TO_END};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use workload::{Campaign, Workload};

/// Simulation threads or worker connections the benchmark drives at most.
const MAX_THREADS: usize = 2;

/// Where the benchmark keeps its scratch files, under the repository root.
const WORK_ROOT: &str = ".perfbench";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("perfbench: {message}");
            ExitCode::FAILURE
        }
    }
}

fn run() -> Result<(), String> {
    let args = parse_args(std::env::args().skip(1))?;
    let bin = build_simulator()?;
    let threads = std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(MAX_THREADS);
    let work =
        Path::new(WORK_ROOT).join(format!("{}-{}", args.workload.name(), std::process::id()));
    std::fs::create_dir_all(&work).map_err(|e| format!("cannot create {}: {e}", work.display()))?;
    println!(
        "perfbench {} seed {} for {} s, {} threads, trace {}",
        args.workload.name(),
        args.seed,
        args.seconds,
        threads,
        u8::from(args.trace)
    );
    let measured = Campaign::prepare(args.workload, args.seed, threads, &work).and_then(|c| {
        if args.trace {
            layers::run(&c, &bin, &work, args.seed, args.seconds)
        } else {
            e2e::run(&c, &bin, &work, args.seed, args.seconds)
        }
    });
    let cleanup = std::fs::remove_dir_all(&work);
    let outcome = measured?;
    cleanup.map_err(|e| format!("cannot remove {}: {e}", work.display()))?;
    let line = if args.trace {
        outcome.json_line(&layer_catalogue())?
    } else {
        outcome.json_line(&END_TO_END)?
    };
    println!("{line}");
    Ok(())
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 0, 10.0, false);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| {
                    format!(
                        "unknown workload `{value}` (one of {})",
                        metrics::WORKLOADS.join(", ")
                    )
                })?);
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad --seed `{value}`"))?,
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("bad --seconds `{value}`"))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace `{value}` (0 or 1)")),
                }
            }
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// Builds `boomerang-sim` with the workspace's release profile, the way a
/// user builds it, and returns its path.
fn build_simulator() -> Result<PathBuf, String> {
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from(".bench_build"), PathBuf::from);
    let status = Command::new("cargo")
        .args(["build", "--release", "--offline", "--locked", "--quiet"])
        .args(["-p", "campaign", "--bin", "boomerang-sim"])
        .env("CARGO_TARGET_DIR", &target)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building boomerang-sim failed ({status})"));
    }
    Ok(target.join("release").join("boomerang-sim"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_the_command_line() {
        let a = args(&[
            "--workload",
            "dispatch-stall",
            "--seed",
            "7",
            "--seconds",
            "12",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(a.workload, Workload::DispatchStall);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 12.0, true));
        assert!(args(&["--workload", "nope"]).is_err());
        assert!(args(&["--seed", "1"]).is_err());
        assert!(args(&["--workload", "figure9", "--trace", "2"]).is_err());
        assert!(args(&["--workload", "figure9", "--seconds", "0"]).is_err());
    }
}
