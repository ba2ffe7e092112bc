//! Untraced runs: whole campaigns through the `boomerang-sim` binary, timed
//! from the outside, plus the generation phase timed in-process.

use crate::metrics::{Outcome, Values};
use crate::proc::run_measured;
use crate::stats::{describe, median};
use crate::workload::Campaign;
use boomerang::frontend::SimStats;
use campaign::{fnv1a64, generate_workloads, verify_dir, JournalReplay, VerifyOptions};
use std::collections::HashMap;
use std::fs::File;
use std::path::Path;
use std::process::Stdio;
use std::time::{Duration, Instant};

/// Campaign repeats every untraced run makes, however short `--seconds`.
const MIN_REPS: usize = 3;

/// No repeat starts once a run has used this much time, so a run always
/// ends well inside its three minutes.
const RUN_BUDGET: Duration = Duration::from_secs(120);

/// A single campaign command that takes longer than this has hung.
const CAMPAIGN_TIMEOUT: Duration = Duration::from_secs(60);

/// Times the campaign's generation phase once, in-process.
pub fn time_generation(c: &Campaign) -> Result<f64, String> {
    let options = c.engine_options();
    let start = Instant::now();
    let generated = generate_workloads(&c.spec, &options).map_err(|e| e.to_string())?;
    let seconds = start.elapsed().as_secs_f64();
    let summary = generated.generation();
    if let Some(warning) = summary.warnings.first() {
        return Err(format!("generation warned: {warning}"));
    }
    if c.cache.is_some() && summary.generated > 0 {
        return Err(format!(
            "the artifact cache was cold: {} points generated",
            summary.generated
        ));
    }
    drop(generated);
    Ok(seconds)
}

/// Fills the artifact cache, untimed, so later generation phases decode.
pub fn prewarm(c: &Campaign) -> Result<(), String> {
    if c.cache.is_some() {
        generate_workloads(&c.spec, &c.engine_options()).map_err(|e| e.to_string())?;
    }
    Ok(())
}

/// One measured campaign command.
pub struct Rep {
    pub wall_s: f64,
    pub setup_s: f64,
    pub peak_rss_mb: f64,
}

/// Runs the campaign command once into `work/rep-<n>` with `jobs`
/// simulation threads, checks the result and removes the directory again.
pub fn run_rep(
    c: &Campaign,
    bin: &Path,
    work: &Path,
    n: usize,
    jobs: usize,
    check: &mut Checker<'_>,
) -> Result<Rep, String> {
    let setup_s = time_generation(c)?;
    let dir = work.join(format!("rep-{n}"));
    let (mut cmd, campaign_dir) = c.command(bin, &dir, jobs)?;
    let log_path = work.join("campaign.log");
    let log = File::create(&log_path)
        .map_err(|e| format!("cannot create {}: {e}", log_path.display()))?;
    cmd.stdin(Stdio::null()).stdout(Stdio::null()).stderr(log);
    let finished = run_measured(&mut cmd, CAMPAIGN_TIMEOUT)?;
    if finished.success {
        check.check_dir(&campaign_dir);
    } else {
        let log = std::fs::read_to_string(&log_path).unwrap_or_default();
        let tail: Vec<&str> = log.lines().rev().take(5).collect();
        check.fail_all(format!(
            "campaign command failed{}: {}",
            if finished.timed_out {
                " (timed out)"
            } else {
                ""
            },
            tail.into_iter().rev().collect::<Vec<_>>().join(" | ")
        ));
    }
    std::fs::remove_dir_all(&dir).map_err(|e| format!("cannot remove {}: {e}", dir.display()))?;
    Ok(Rep {
        wall_s: finished.wall_s,
        setup_s,
        peak_rss_mb: finished.peak_rss_kb as f64 / 1024.0,
    })
}

/// Checks every campaign directory a run produces: the offline audit, row
/// completeness, and agreement of rows and report bytes across repeats.
pub struct Checker<'a> {
    campaign: &'a Campaign,
    reference: Option<(String, HashMap<usize, SimStats>)>,
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
}

impl<'a> Checker<'a> {
    pub fn new(campaign: &'a Campaign) -> Self {
        Checker {
            campaign,
            reference: None,
            attempted: 0,
            failed: 0,
            problems: Vec::new(),
        }
    }

    /// Counts every row of one campaign attempt as failed.
    pub fn fail_all(&mut self, problem: String) {
        let rows = self.campaign.jobs.len() as u64;
        self.attempted += rows;
        self.failed += rows;
        self.problems.push(problem);
    }

    /// Audits one finished campaign directory.
    pub fn check_dir(&mut self, dir: &Path) {
        let c = self.campaign;
        let audit = verify_dir(&VerifyOptions {
            dir: dir.to_path_buf(),
            spec: Some(c.spec_path.clone()),
            smoke: c.smoke,
            ..VerifyOptions::default()
        });
        if !audit.passed() {
            return self.fail_all(format!("verify failed: {}", audit.render()));
        }
        let rows = match JournalReplay::load(dir, &c.spec.name, &c.hash, &c.jobs) {
            Ok(replay) => replay.rows,
            Err(e) => return self.fail_all(format!("journal replay failed: {e}")),
        };
        let digest = match std::fs::read(c.report_path(dir)) {
            Ok(bytes) => format!("fnv1a64:{:016x}", fnv1a64(&bytes)),
            Err(e) => return self.fail_all(format!("cannot read the report: {e}")),
        };
        self.check_rows(rows, digest);
    }

    /// Compares one attempt's rows and report digest with the first
    /// attempt's.
    pub fn check_rows(&mut self, rows: HashMap<usize, SimStats>, digest: String) {
        let jobs = self.campaign.jobs.len();
        self.attempted += jobs as u64;
        let missing = (0..jobs).filter(|i| !rows.contains_key(i)).count();
        let differing = match &self.reference {
            None => 0,
            Some((first_digest, first)) => {
                if *first_digest != digest {
                    self.problems.push(format!(
                        "report digest {digest} differs from the first repeat's {first_digest}"
                    ));
                }
                (0..jobs)
                    .filter(|i| rows.get(i).is_some_and(|s| first.get(i) != Some(s)))
                    .count()
            }
        };
        if missing + differing > 0 {
            self.problems.push(format!(
                "{missing} rows missing, {differing} rows differ from the first repeat"
            ));
        }
        self.failed += (missing + differing) as u64;
        if self.reference.is_none() {
            self.reference = Some((digest, rows));
        }
    }

    /// The first attempt's report digest.
    pub fn digest(&self) -> Option<&str> {
        self.reference.as_ref().map(|(d, _)| d.as_str())
    }

    /// The first attempt's rows.
    pub fn rows(&self) -> Option<&HashMap<usize, SimStats>> {
        self.reference.as_ref().map(|(_, r)| r)
    }

    /// Checks the first digest against the pinned one, if the seed has a pin,
    /// and prints both.
    pub fn check_pin(&mut self, seed: u64) {
        let workload = self.campaign.workload;
        let digest = self.digest().unwrap_or("none").to_string();
        match workload.pinned_digest(seed) {
            Some(pin) => {
                let verdict = if digest == pin { "match" } else { "MISMATCH" };
                println!("report digest {digest} (pinned {pin}: {verdict})");
                if digest != pin {
                    self.problems
                        .push(format!("report digest {digest} is not the pinned {pin}"));
                }
            }
            None => println!("report digest {digest} (no pin for seed {seed})"),
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty() && self.reference.is_some()
    }
}

/// Post-warmup simulated instructions summed over `rows`.
pub fn instructions(rows: &HashMap<usize, SimStats>) -> u64 {
    rows.values().map(|s| s.instructions).sum()
}

/// An untraced run: campaign repeats filling `seconds`, medians reported.
pub fn run(
    c: &Campaign,
    bin: &Path,
    work: &Path,
    seed: u64,
    seconds: f64,
) -> Result<Outcome, String> {
    prewarm(c)?;
    let mut check = Checker::new(c);
    let start = Instant::now();
    // Memory comes from one repeat with a single simulation thread per
    // process: with two, a repeat's peak depends on which groups the
    // scheduler happens to overlap, and it scattered by a third between
    // runs.
    let memory = run_rep(c, bin, work, 0, 1, &mut check)?;
    let mut reps = Vec::new();
    loop {
        reps.push(run_rep(
            c,
            bin,
            work,
            reps.len() + 1,
            c.threads,
            &mut check,
        )?);
        // Stop when another repeat would overrun `seconds`.
        let next_end = start.elapsed().mul_f64(1.0 + 1.0 / (reps.len() + 1) as f64);
        let enough = reps.len() >= MIN_REPS && next_end.as_secs_f64() > seconds;
        if enough || next_end > RUN_BUDGET {
            break;
        }
    }
    check.check_pin(seed);

    let walls: Vec<f64> = reps.iter().map(|r| r.wall_s).collect();
    let setups: Vec<f64> = reps.iter().map(|r| r.setup_s).collect();
    let wall_s = median(&walls);
    let setup_s = median(&setups);
    let instructions = check.rows().map_or(0, instructions);
    let mut values = Values::default();
    values.set("wall_s", wall_s);
    values.set("setup_s", setup_s);
    values.set(
        "sim_minst_per_s",
        instructions as f64 / 1e6 / (wall_s - setup_s),
    );
    values.set("peak_rss_mb", memory.peak_rss_mb);
    values.set(
        "ok_row_frac",
        1.0 - check.failed as f64 / check.attempted.max(1) as f64,
    );
    for (name, samples) in [("wall_s", &walls), ("setup_s", &setups)] {
        let listed: Vec<String> = samples.iter().map(|v| format!("{v:.4}")).collect();
        println!(
            "{name}: median {:.4}, {}: {}",
            median(samples),
            describe(samples),
            listed.join(" ")
        );
    }
    println!(
        "peak_rss_mb: {:.4} from one single-threaded repeat",
        memory.peak_rss_mb
    );
    println!(
        "sim_minst_per_s: {instructions} post-warmup instructions over median wall minus median setup"
    );
    for problem in &check.problems {
        println!("problem: {problem}");
    }
    Ok(Outcome {
        correct: check.correct(),
        attempted: check.attempted,
        failed: check.failed,
        values,
    })
}
