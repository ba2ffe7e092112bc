//! Worker-fleet supervision: restart-with-backoff, hang detection, and
//! orphan-free shutdown for the local campaign workers of `serve`.
//!
//! [`supervise_with_stop`] runs a poll loop (`try_wait`) over a fleet of
//! worker slots — the *shards* of the log lines and reports, numbered like
//! the workers' `--worker-index`. A slot whose child exits nonzero is
//! respawned after an exponential backoff, up to `max_retries` restarts; a
//! slot whose progress probe stops moving for `worker_timeout` is killed and
//! the kill counts as a retry. The probe is read per child process (by pid),
//! so one wedged worker is caught even while its siblings keep working.
//! Because the broker journals every row and re-leases whatever a dead
//! worker held, a restarted worker only picks up unfinished jobs, and the
//! merged report stays byte-identical to an uninterrupted run's.
//!
//! Every spawn carries the worker's **life number** (1-based) in
//! [`FAULT_LIFE_ENV`], so a deterministic fault plan
//! ([`crate::fault`]) can arm a fault for the first life only — the retry
//! then recovers — or for every life (`lives=all`) to model a persistent
//! failure that exhausts the budget.
//!
//! The fleet is dropped-safe: `Fleet`'s `Drop` kills any still-running
//! children, so a supervisor panic, an early `?`, or a Ctrl-C (see
//! [`install_interrupt_handler`]) never strands orphan workers behind the
//! service.

use crate::fault::FAULT_LIFE_ENV;
use std::process::{Child, Command};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Retry, timeout and pacing policy for one supervised fleet.
#[derive(Clone, Debug)]
pub struct SuperviseOptions {
    /// Restarts allowed per worker slot after its first life (so a slot runs
    /// at most `max_retries + 1` times).
    pub max_retries: u32,
    /// Kill a worker whose progress probe has not moved for this long. The
    /// kill consumes a retry.
    pub worker_timeout: Duration,
    /// Backoff before the first restart; doubles per subsequent restart of
    /// the same slot.
    pub backoff_base: Duration,
    /// Upper bound on the doubled backoff.
    pub backoff_cap: Duration,
    /// Poll interval between `try_wait` sweeps.
    pub poll: Duration,
}

impl Default for SuperviseOptions {
    fn default() -> Self {
        SuperviseOptions {
            max_retries: 2,
            worker_timeout: Duration::from_secs(300),
            backoff_base: Duration::from_millis(250),
            backoff_cap: Duration::from_secs(10),
            poll: Duration::from_millis(25),
        }
    }
}

/// Why a shard slot reached its terminal state.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ShardOutcome {
    /// The worker exited successfully (possibly after restarts).
    Completed,
    /// Every life failed; the retry budget is spent.
    Exhausted {
        /// Lives used (first run + restarts).
        attempts: u32,
        /// The last life's failure, e.g. `exited with exit status: 113` or
        /// `hung (no progress for 2s)`.
        last_failure: String,
    },
    /// The worker binary could not be spawned at all — an environment
    /// problem retries cannot fix.
    SpawnFailed(String),
    /// The supervisor was interrupted (Ctrl-C) before this shard finished;
    /// its worker was killed, its checkpointed rows remain.
    Interrupted,
}

/// One shard's terminal report.
#[derive(Clone, Debug)]
pub struct ShardReport {
    /// The shard index in the canonical expansion.
    pub shard: usize,
    /// Lives used (1 = no restarts).
    pub lives: u32,
    /// How many of those lives ended in a hang kill.
    pub hangs: u32,
    /// The terminal state.
    pub outcome: ShardOutcome,
}

/// The supervisor's verdict on a whole fleet.
#[derive(Clone, Debug)]
pub struct SupervisedRun {
    /// One report per shard, in shard order.
    pub shards: Vec<ShardReport>,
}

impl SupervisedRun {
    /// `true` when every shard completed.
    pub fn all_complete(&self) -> bool {
        self.shards
            .iter()
            .all(|s| s.outcome == ShardOutcome::Completed)
    }

    /// `true` when any shard was cut short by an interrupt.
    pub fn interrupted(&self) -> bool {
        self.shards
            .iter()
            .any(|s| s.outcome == ShardOutcome::Interrupted)
    }

    /// Human-readable descriptions of every non-completed shard.
    pub fn failures(&self) -> Vec<String> {
        self.shards
            .iter()
            .filter_map(|s| match &s.outcome {
                ShardOutcome::Completed => None,
                ShardOutcome::Exhausted {
                    attempts,
                    last_failure,
                } => Some(format!(
                    "worker shard {} failed after {attempts} attempt(s): {last_failure}",
                    s.shard
                )),
                ShardOutcome::SpawnFailed(e) => {
                    Some(format!("cannot spawn worker shard {}: {e}", s.shard))
                }
                ShardOutcome::Interrupted => Some(format!("worker shard {} interrupted", s.shard)),
            })
            .collect()
    }
}

static INTERRUPTED: AtomicBool = AtomicBool::new(false);

extern "C" fn interrupt_flag_handler(_signum: i32) {
    INTERRUPTED.store(true, Ordering::SeqCst);
}

/// Installs a SIGINT/SIGTERM handler that sets the supervisor's interrupt
/// flag, so a Ctrl-C on the service drains through the poll loop — killing
/// every worker — instead of killing only the parent and stranding orphans.
/// Call once from the CLI before entering serve mode; a no-op off unix.
pub fn install_interrupt_handler() {
    #[cfg(unix)]
    {
        extern "C" {
            fn signal(signum: i32, handler: usize) -> usize;
        }
        const SIGINT: i32 = 2;
        const SIGTERM: i32 = 15;
        unsafe {
            signal(
                SIGINT,
                interrupt_flag_handler as extern "C" fn(i32) as usize,
            );
            signal(
                SIGTERM,
                interrupt_flag_handler as extern "C" fn(i32) as usize,
            );
        }
    }
}

/// `true` once an interrupt has been received (see
/// [`install_interrupt_handler`]). The serve loop also polls this between
/// submissions.
pub fn interrupted() -> bool {
    INTERRUPTED.load(Ordering::SeqCst)
}

/// One shard slot's supervision state.
enum Slot {
    Running {
        child: Child,
        /// Progress-probe reading at the last observed change.
        last_progress: u64,
        /// When the probe last moved (or the child was spawned).
        last_change: Instant,
    },
    Waiting {
        until: Instant,
    },
    Terminal(ShardOutcome),
}

/// The live fleet; its `Drop` kills every still-running child.
struct Fleet {
    slots: Vec<(Slot, ShardStats)>,
}

#[derive(Clone, Copy, Default)]
struct ShardStats {
    lives: u32,
    hangs: u32,
}

impl Drop for Fleet {
    fn drop(&mut self) {
        for (slot, _) in &mut self.slots {
            if let Slot::Running { child, .. } = slot {
                let _ = child.kill();
                let _ = child.wait();
            }
        }
    }
}

/// Runs `shards` worker processes to completion under the retry/backoff/
/// timeout policy in `options`, with an external stop signal polled once per
/// sweep.
///
/// `make_command` builds the command for one slot (it is called once per
/// life; the supervisor adds the [`FAULT_LIFE_ENV`] life number before
/// spawning). `progress` is the monotonic progress probe of one running
/// child, keyed by its pid — the broker counts the frames each worker
/// process sends, so a wedged worker stalls its own probe no matter what its
/// siblings do. The baseline is re-read at every spawn. `log` receives one
/// line per supervision event (crash, backoff, hang kill, exhaustion).
///
/// When `stop` returns `true` the remaining queue is treated as drained:
/// running and waiting slots are killed and marked [`ShardOutcome::Completed`]
/// (their work is done or was done by someone else — the broker uses this
/// when the queue empties while local workers still run). Slots already
/// terminal keep their outcome. The `stop` closure doubles as a per-poll
/// tick, so a caller can piggyback periodic work (the broker's lease-expiry
/// sweep) on it; callers with nothing to stop on pass `&mut || false`.
///
/// Never blocks on a wedged child and never returns with a child still
/// running: every slot ends [`ShardOutcome::Completed`], `Exhausted`,
/// `SpawnFailed`, or — if Ctrl-C arrives — `Interrupted`.
pub fn supervise_with_stop(
    shards: usize,
    make_command: &mut dyn FnMut(usize) -> Command,
    progress: &mut dyn FnMut(u32) -> u64,
    options: &SuperviseOptions,
    log: &mut dyn FnMut(&str),
    stop: &mut dyn FnMut() -> bool,
) -> SupervisedRun {
    let mut fleet = Fleet { slots: Vec::new() };
    for shard in 0..shards {
        let mut stats = ShardStats::default();
        let slot = spawn_life(shard, make_command, progress, &mut stats, log);
        fleet.slots.push((slot, stats));
    }

    loop {
        let mut all_terminal = true;
        for (shard, (slot, stats)) in fleet.slots.iter_mut().enumerate() {
            match slot {
                Slot::Terminal(_) => continue,
                Slot::Running {
                    child,
                    last_progress,
                    last_change,
                } => {
                    match child.try_wait() {
                        Ok(Some(status)) if status.success() => {
                            *slot = Slot::Terminal(ShardOutcome::Completed);
                            continue;
                        }
                        Ok(Some(status)) => {
                            let failure = format!("exited with {status}");
                            *slot = after_failure(shard, stats, &failure, options, log);
                        }
                        Err(e) => {
                            let failure = format!("cannot wait: {e}");
                            let _ = child.kill();
                            let _ = child.wait();
                            *slot = after_failure(shard, stats, &failure, options, log);
                        }
                        Ok(None) => {
                            let now_progress = progress(child.id());
                            if now_progress > *last_progress {
                                *last_progress = now_progress;
                                *last_change = Instant::now();
                            } else if now_progress < *last_progress {
                                // A shrink re-baselines the probe but is NOT
                                // progress: the hang clock keeps running.
                                *last_progress = now_progress;
                            } else if last_change.elapsed() >= options.worker_timeout {
                                stats.hangs += 1;
                                let _ = child.kill();
                                let _ = child.wait();
                                let failure =
                                    format!("hung (no progress for {:?})", options.worker_timeout);
                                *slot = after_failure(shard, stats, &failure, options, log);
                            }
                        }
                    }
                    if !matches!(slot, Slot::Terminal(_)) {
                        all_terminal = false;
                    }
                }
                Slot::Waiting { until } => {
                    if Instant::now() >= *until {
                        *slot = spawn_life(shard, make_command, progress, stats, log);
                    }
                    if !matches!(slot, Slot::Terminal(_)) {
                        all_terminal = false;
                    }
                }
            }
        }
        if all_terminal {
            break;
        }
        if stop() {
            log("supervisor: queue drained, stopping local workers");
            for (slot, _) in &mut fleet.slots {
                if let Slot::Running { child, .. } = slot {
                    let _ = child.kill();
                    let _ = child.wait();
                }
                if !matches!(slot, Slot::Terminal(_)) {
                    *slot = Slot::Terminal(ShardOutcome::Completed);
                }
            }
            break;
        }
        if interrupted() {
            log("supervisor: interrupt received, stopping workers");
            for (slot, _) in &mut fleet.slots {
                if let Slot::Running { child, .. } = slot {
                    let _ = child.kill();
                    let _ = child.wait();
                }
                if !matches!(slot, Slot::Terminal(_)) {
                    *slot = Slot::Terminal(ShardOutcome::Interrupted);
                }
            }
            break;
        }
        std::thread::sleep(options.poll);
    }

    let shards = fleet
        .slots
        .iter()
        .enumerate()
        .map(|(shard, (slot, stats))| ShardReport {
            shard,
            lives: stats.lives,
            hangs: stats.hangs,
            outcome: match slot {
                Slot::Terminal(outcome) => outcome.clone(),
                // Unreachable: the loop only exits with every slot terminal.
                _ => ShardOutcome::Interrupted,
            },
        })
        .collect();
    SupervisedRun { shards }
}

/// Spawns the next life of `shard`, stamping its life number into the
/// environment and re-reading the progress baseline.
fn spawn_life(
    shard: usize,
    make_command: &mut dyn FnMut(usize) -> Command,
    progress: &mut dyn FnMut(u32) -> u64,
    stats: &mut ShardStats,
    log: &mut dyn FnMut(&str),
) -> Slot {
    stats.lives += 1;
    let mut cmd = make_command(shard);
    cmd.env(FAULT_LIFE_ENV, stats.lives.to_string());
    match cmd.spawn() {
        Ok(child) => {
            if stats.lives > 1 {
                log(&format!(
                    "supervisor: shard {shard} restarted (life {})",
                    stats.lives
                ));
            }
            Slot::Running {
                last_progress: progress(child.id()),
                child,
                last_change: Instant::now(),
            }
        }
        Err(e) => {
            log(&format!("supervisor: cannot spawn shard {shard}: {e}"));
            Slot::Terminal(ShardOutcome::SpawnFailed(e.to_string()))
        }
    }
}

/// Decides a failed life's fate: backoff-and-restart while the retry budget
/// lasts, terminal exhaustion after.
fn after_failure(
    shard: usize,
    stats: &ShardStats,
    failure: &str,
    options: &SuperviseOptions,
    log: &mut dyn FnMut(&str),
) -> Slot {
    let restarts_used = stats.lives - 1;
    if restarts_used < options.max_retries {
        let backoff = options
            .backoff_base
            .saturating_mul(1u32 << restarts_used.min(20))
            .min(options.backoff_cap);
        log(&format!(
            "supervisor: shard {shard} {failure}; retrying in {backoff:?} \
             ({} of {} retries used)",
            restarts_used + 1,
            options.max_retries
        ));
        Slot::Waiting {
            until: Instant::now() + backoff,
        }
    } else {
        log(&format!(
            "supervisor: shard {shard} {failure}; retry budget exhausted \
             ({} attempt(s))",
            stats.lives
        ));
        Slot::Terminal(ShardOutcome::Exhausted {
            attempts: stats.lives,
            last_failure: failure.to_string(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use testkit::temp_dir;

    fn fast_options() -> SuperviseOptions {
        SuperviseOptions {
            max_retries: 2,
            worker_timeout: Duration::from_secs(30),
            backoff_base: Duration::from_millis(5),
            backoff_cap: Duration::from_millis(20),
            poll: Duration::from_millis(5),
        }
    }

    fn sh(script: String) -> Command {
        let mut cmd = Command::new("/bin/sh");
        cmd.arg("-c").arg(script);
        cmd
    }

    #[test]
    fn clean_fleet_completes_first_life() {
        let run = supervise_with_stop(
            3,
            &mut |_| sh("exit 0".into()),
            &mut |_| 0,
            &fast_options(),
            &mut |_| {},
            &mut || false,
        );
        assert!(run.all_complete());
        assert!(run.failures().is_empty());
        assert!(run.shards.iter().all(|s| s.lives == 1 && s.hangs == 0));
    }

    #[test]
    fn crash_then_success_uses_one_retry() {
        let dir = temp_dir("retry");
        let marker = dir.join("marker");
        let script = format!(
            "if [ -f {m} ]; then exit 0; else : > {m}; exit 113; fi",
            m = marker.display()
        );
        let mut logs = Vec::new();
        let run = supervise_with_stop(
            1,
            &mut |_| sh(script.clone()),
            &mut |_| 0,
            &fast_options(),
            &mut |line| logs.push(line.to_string()),
            &mut || false,
        );
        assert!(run.all_complete());
        assert_eq!(run.shards[0].lives, 2);
        assert!(
            logs.iter().any(|l| l.contains("retrying")),
            "logs: {logs:?}"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn persistent_crash_exhausts_budget() {
        let run = supervise_with_stop(
            1,
            &mut |_| sh("exit 7".into()),
            &mut |_| 0,
            &fast_options(),
            &mut |_| {},
            &mut || false,
        );
        assert!(!run.all_complete());
        let ShardOutcome::Exhausted {
            attempts,
            last_failure,
        } = &run.shards[0].outcome
        else {
            panic!("expected Exhausted, got {:?}", run.shards[0].outcome);
        };
        assert_eq!(*attempts, 3);
        assert!(last_failure.contains("exited"), "{last_failure}");
    }

    #[test]
    fn stalled_progress_is_killed_and_counts_as_retry() {
        let options = SuperviseOptions {
            max_retries: 0,
            worker_timeout: Duration::from_millis(100),
            ..fast_options()
        };
        let start = Instant::now();
        let run = supervise_with_stop(
            1,
            &mut |_| sh("sleep 30".into()),
            &mut |_| 42, // never moves
            &options,
            &mut |_| {},
            &mut || false,
        );
        assert!(start.elapsed() < Duration::from_secs(10), "hang not killed");
        assert_eq!(run.shards[0].hangs, 1);
        let ShardOutcome::Exhausted { last_failure, .. } = &run.shards[0].outcome else {
            panic!("expected Exhausted, got {:?}", run.shards[0].outcome);
        };
        assert!(last_failure.contains("hung"), "{last_failure}");
    }

    #[test]
    fn moving_progress_defers_the_hang_timeout() {
        let options = SuperviseOptions {
            max_retries: 0,
            worker_timeout: Duration::from_millis(150),
            ..fast_options()
        };
        let mut ticks = 0u64;
        let run = supervise_with_stop(
            1,
            // Outlives several timeout windows, but the probe keeps moving.
            &mut |_| sh("sleep 0.5; exit 0".into()),
            &mut |_| {
                ticks += 1;
                ticks
            },
            &options,
            &mut |_| {},
            &mut || false,
        );
        assert!(run.all_complete(), "{:?}", run.failures());
        assert_eq!(run.shards[0].hangs, 0);
    }

    #[test]
    fn shrinking_progress_is_not_progress() {
        // A probe going *down* must not reset the hang clock, or a worker
        // whose probe only ever shrinks could dodge the detector forever by
        // alternating probe values.
        let options = SuperviseOptions {
            max_retries: 0,
            worker_timeout: Duration::from_millis(150),
            ..fast_options()
        };
        let mut probe = 1000u64;
        let start = Instant::now();
        let run = supervise_with_stop(
            1,
            &mut |_| sh("sleep 30".into()),
            &mut |_| {
                // Strictly decreasing: every poll sees a different, smaller
                // value. Under the old `!=` rule this counted as progress.
                probe = probe.saturating_sub(1);
                probe
            },
            &options,
            &mut |_| {},
            &mut || false,
        );
        assert!(
            start.elapsed() < Duration::from_secs(10),
            "shrinking probe dodged the hang detector"
        );
        assert_eq!(run.shards[0].hangs, 1);
        let ShardOutcome::Exhausted { last_failure, .. } = &run.shards[0].outcome else {
            panic!("expected Exhausted, got {:?}", run.shards[0].outcome);
        };
        assert!(last_failure.contains("hung"), "{last_failure}");
    }

    #[test]
    fn external_stop_drains_the_fleet_as_completed() {
        let options = fast_options();
        let mut polls = 0u32;
        let mut logs = Vec::new();
        let start = Instant::now();
        let run = supervise_with_stop(
            2,
            &mut |_| sh("sleep 30".into()),
            &mut |_| 0,
            &options,
            &mut |line| logs.push(line.to_string()),
            &mut || {
                polls += 1;
                polls >= 3
            },
        );
        assert!(start.elapsed() < Duration::from_secs(10), "stop ignored");
        assert!(run.all_complete(), "{:?}", run.failures());
        assert!(logs.iter().any(|l| l.contains("drained")), "logs: {logs:?}");
    }

    #[test]
    fn each_life_sees_its_life_number() {
        let dir = temp_dir("life");
        let lives = dir.join("lives");
        let script = format!("echo ${FAULT_LIFE_ENV} >> {f}; exit 1", f = lives.display());
        let run = supervise_with_stop(
            1,
            &mut |_| sh(script.clone()),
            &mut |_| 0,
            &fast_options(),
            &mut |_| {},
            &mut || false,
        );
        assert!(!run.all_complete());
        let seen = std::fs::read_to_string(&lives).unwrap();
        assert_eq!(seen, "1\n2\n3\n");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn spawn_failure_is_terminal_not_retried() {
        let run = supervise_with_stop(
            1,
            &mut |_| Command::new("/nonexistent-binary-for-supervise-test"),
            &mut |_| 0,
            &fast_options(),
            &mut |_| {},
            &mut || false,
        );
        assert!(matches!(
            run.shards[0].outcome,
            ShardOutcome::SpawnFailed(_)
        ));
        assert_eq!(run.shards[0].lives, 1);
        assert!(
            run.failures()[0].contains("cannot spawn"),
            "{:?}",
            run.failures()
        );
    }
}
