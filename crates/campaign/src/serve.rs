//! `boomerang-sim serve`: a spool-directory campaign service.
//!
//! The service watches a spool directory for campaign spec submissions
//! (`*.toml` files) and dispatches each one through a TCP work queue (the
//! broker): the submission's job expansion is leased row-by-row to
//! `boomerang-sim worker --connect` clients over the versioned
//! [`crate::proto`] frame protocol. The broker always runs — on
//! [`ServeOptions::listen`] when given, otherwise on an ephemeral loopback
//! port — and `workers` local worker processes connect to it over loopback,
//! so local and remote dispatch drain one queue through one code path.
//!
//! The local fleet runs under the [`crate::supervise`] poll loop: a crashed
//! worker is restarted with exponential backoff up to the retry budget, a
//! worker that stops sending frames is killed as hung (the kill consumes a
//! retry), and a Ctrl-C on the service kills every child — no orphans.
//! Hang detection is per worker process: the broker counts the lease
//! requests and rows each loopback worker sends, keyed by the pid in its
//! `Hello`, so one wedged worker is caught while its siblings keep draining
//! the queue. Only loopback peers are counted, so a remote worker reusing a
//! local `--worker-index` (or, by chance or on purpose, a local child's
//! pid) cannot mask a wedged local one.
//!
//! Leases are kept alive by worker heartbeats and row submissions; a lease
//! silent past [`ServeOptions::lease_timeout`] is revoked and its job
//! requeued with exponential backoff, so a crashed, partitioned, or hung
//! worker only delays its in-flight row. The broker is the sole journal
//! writer and dedups every submitted row against the journal-backed done
//! set, which makes submission idempotent (retransmissions,
//! revoked-then-completed leases) and lets a restarted service resume
//! mid-campaign from the journal, `<name>.journal.jsonl` (per-shard
//! journals left by older versions are replayed alongside it). Once the
//! queue drains, the collector replays the journals — *without*
//! regenerating any workloads — assembles the
//! canonical report, and writes the same `<name>.json` / `<name>.csv` bytes
//! a one-shot `run` would have produced.
//!
//! If every local worker exhausts its retries before the queue drains (and,
//! with `--listen`, no remote worker finishes it), the default is to fail
//! the submission; with [`ServeOptions::allow_partial`] the collector
//! instead assembles a degraded report from whatever rows are checkpointed,
//! with the missing rows explicitly marked (see
//! [`crate::engine::PartialReport`]), and marks the submission `.partial`.
//!
//! Processed submissions are renamed `<file>.done` (or `<file>.partial`, or
//! `<file>.failed` with the reason in `<file>.error`), so the spool is also
//! the service's queue state: resubmitting is just dropping the file in
//! again — stale markers from an earlier attempt are cleared first. A lock
//! file (`.boomerang-serve.lock`, holding the owner's pid) keeps two serve
//! processes from double-processing one spool; a lock whose owner is dead
//! is reclaimed, and [`ServeOptions::steal_lock_after`] adds an
//! mtime-staleness escape hatch for platforms without procfs liveness.
//!
//! # Result integrity
//!
//! The broker does not trust what it is handed. Every `RowDone` carries a
//! `row_fnv` checksum over the canonical `index|mechanism|seed|stats`
//! encoding; the broker recomputes it from the received fields before
//! journaling, and a mismatch **quarantines** the submitting session — no
//! further leases, the row requeued for another worker — since a payload
//! that disagrees with its own checksum proves corruption between the
//! worker's simulator and the broker's socket. On top of that,
//! [`ServeOptions::verify_fraction`] samples a deterministic (spec-hash
//! seeded, so stable across broker restarts) fraction of completed rows and
//! re-leases each to a *different* session; a re-run that disagrees with
//! the journaled stats quarantines the producing session and requeues every
//! unverified row it produced. Both kinds of quarantine are counted in the
//! per-campaign integrity summary printed at the end of each dispatch, and
//! [`ServeOptions::max_quarantined`] bounds how much of the fleet may rot
//! before the submission is failed with a distinct exit code.

use crate::bench::fnv1a64;
use crate::checkpoint::{row_checksum, spec_hash, stats_from_array, Journal, JournalReplay};
use crate::engine::{assemble_partial_report, assemble_report};
use crate::expand::{expand, Job};
use crate::fault;
use crate::proto::{read_message, write_message, Message};
use crate::sink::{write_partial_reports, write_reports};
use crate::spec::{mechanism_token, CampaignSpec};
use crate::supervise::{self, supervise_with_stop, SuperviseOptions};
use boomerang::RunLength;
use frontend::SimStats;
use std::collections::{HashMap, HashSet, VecDeque};
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Name of the spool lock file (satellite: two serve processes must not
/// double-process one spool).
pub const SPOOL_LOCK_NAME: &str = ".boomerang-serve.lock";

/// How the service runs.
#[derive(Clone, Debug)]
pub struct ServeOptions {
    /// The simulator binary to spawn workers from (normally
    /// `std::env::current_exe()`; tests point it at the built binary).
    pub binary: PathBuf,
    /// Directory watched for `*.toml` spec submissions.
    pub spool: PathBuf,
    /// Root of the per-submission output directories.
    pub out: PathBuf,
    /// Local worker processes per submission, each running one row at a
    /// time (0 = remote workers only, which needs [`ServeOptions::listen`]).
    /// Defaults to one per available core.
    pub workers: usize,
    /// Run every submission at smoke length.
    pub smoke: bool,
    /// Shared content-addressed workload artifact cache for the workers.
    pub artifact_cache: Option<PathBuf>,
    /// Process the submissions present now, then exit (instead of polling).
    pub once: bool,
    /// Poll interval between spool scans in milliseconds.
    pub poll_ms: u64,
    /// Worker retry/backoff/timeout policy.
    pub supervise: SuperviseOptions,
    /// When the fleet exhausts its retries with jobs outstanding, assemble a
    /// degraded report from the checkpointed rows instead of failing the
    /// submission.
    pub allow_partial: bool,
    /// Skip submissions modified within the last this-many milliseconds
    /// (still being written). 0 disables the settle window.
    pub settle_ms: u64,
    /// Stop after this many spool scans (0 = unlimited). A testing handle:
    /// lets a polling serve loop terminate deterministically.
    pub max_scans: u64,
    /// TCP listen address of the work queue (`--listen`), which exposes it
    /// to remote `boomerang-sim worker --connect` clients. `None` binds an
    /// ephemeral loopback port that only the local fleet uses.
    pub listen: Option<String>,
    /// Write the broker's bound address (useful with `--listen 127.0.0.1:0`)
    /// to this file once listening.
    pub listen_addr_file: Option<PathBuf>,
    /// Revoke a lease with no heartbeat or row progress for this long; the
    /// job is requeued with exponential backoff on re-lease.
    pub lease_timeout: Duration,
    /// Steal the spool lock when its file's mtime is older than this, even
    /// if the owner looks alive — the escape hatch for platforms without
    /// procfs liveness (where a dead owner is indistinguishable from a live
    /// one) and for wedged owners that stopped scanning. A live serve
    /// refreshes the lock's mtime on every scan.
    pub steal_lock_after: Option<Duration>,
    /// Fraction (0.0..=1.0) of completed rows sampled for
    /// re-execution by a *different* worker session, whose stats must match
    /// the journaled row (`--verify-fraction`). The sample is deterministic
    /// — seeded by the campaign's spec hash — so the same rows re-verify
    /// across broker restarts. 0 disables sampling; the `row_fnv` checksum
    /// on every submission is always verified regardless.
    pub verify_fraction: f64,
    /// Fail the submission (with its own exit code, distinct from plain
    /// failure) once *more than* this many worker sessions have been
    /// quarantined (`--max-quarantined`). `None` leaves degradation
    /// unbounded: quarantined sessions are only counted and reported.
    pub max_quarantined: Option<usize>,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            binary: PathBuf::new(),
            spool: PathBuf::new(),
            out: PathBuf::new(),
            workers: sim_core::pool::default_workers(),
            smoke: false,
            artifact_cache: None,
            once: false,
            poll_ms: 500,
            supervise: SuperviseOptions::default(),
            allow_partial: false,
            settle_ms: 0,
            max_scans: 0,
            listen: None,
            listen_addr_file: None,
            lease_timeout: Duration::from_secs(60),
            steal_lock_after: None,
            verify_fraction: 0.0,
            max_quarantined: None,
        }
    }
}

/// How a submission ended well.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SubmissionStatus {
    /// The canonical report was written to this directory.
    Done(PathBuf),
    /// Retries were exhausted but `allow_partial` assembled a degraded
    /// report: `missing` jobs have no checkpointed rows.
    Partial {
        /// The output directory holding the degraded report.
        dir: PathBuf,
        /// Number of jobs with no statistics.
        missing: usize,
    },
}

/// What happened to one submission.
#[derive(Clone, Debug)]
pub struct ServeOutcome {
    /// The submission file (its original spool path).
    pub submission: PathBuf,
    /// The campaign name, when the spec parsed far enough to have one.
    pub campaign: String,
    /// The terminal status on success, the reason on failure.
    pub result: Result<SubmissionStatus, String>,
    /// True when the failure was the integrity bound: more worker sessions
    /// were quarantined than [`ServeOptions::max_quarantined`] allows. The
    /// CLI maps this to its own exit code so operators can tell "the fleet
    /// is corrupting results" apart from an ordinary failed run.
    pub quarantine_exceeded: bool,
}

/// Why a broker dispatch failed — a plain failure, or the quarantine bound.
enum DispatchError {
    Failed(String),
    QuarantineExceeded(String),
}

/// Holds the spool lock for the lifetime of the serve loop; dropping it
/// releases the lock file.
#[derive(Debug)]
struct SpoolLock {
    path: PathBuf,
}

impl SpoolLock {
    /// Acquires the lock, reclaiming it from a dead owner. Refuses (with an
    /// [`io::ErrorKind::WouldBlock`]-flavored error) while a live process
    /// holds it — unless `steal_after` is set and the lock file's mtime is
    /// at least that old. The liveness check is conservative off-procfs
    /// ("assume live"), so without the staleness escape hatch a dead
    /// owner's lock wedges a non-Linux spool forever; a live serve calls
    /// [`SpoolLock::refresh`] every scan, keeping its mtime fresh.
    fn acquire(spool: &Path, steal_after: Option<Duration>) -> io::Result<SpoolLock> {
        let path = spool.join(SPOOL_LOCK_NAME);
        for _ in 0..2 {
            match std::fs::OpenOptions::new()
                .write(true)
                .create_new(true)
                .open(&path)
            {
                Ok(mut file) => {
                    use std::io::Write as _;
                    let _ = write!(file, "{}", std::process::id());
                    return Ok(SpoolLock { path });
                }
                Err(e) if e.kind() == io::ErrorKind::AlreadyExists => {
                    let owner = std::fs::read_to_string(&path)
                        .ok()
                        .and_then(|s| s.trim().parse::<u32>().ok());
                    if let Some(pid) = owner {
                        if pid_is_live(pid) {
                            let stale = steal_after.is_some_and(|threshold| {
                                std::fs::metadata(&path)
                                    .and_then(|m| m.modified())
                                    .ok()
                                    .and_then(|mtime| mtime.elapsed().ok())
                                    .is_some_and(|age| age >= threshold)
                            });
                            if !stale {
                                return Err(io::Error::new(
                                    io::ErrorKind::WouldBlock,
                                    format!(
                                        "spool {} is already served by process {pid} \
                                         (lock file {})",
                                        spool.display(),
                                        path.display()
                                    ),
                                ));
                            }
                            eprintln!(
                                "serve: stealing stale spool lock {} from process {pid} \
                                 (mtime older than {:?})",
                                path.display(),
                                steal_after.expect("stale implies threshold")
                            );
                        }
                    }
                    // Dead, unreadable, or stale owner: reclaim and retry
                    // the create_new (another process may be racing us for
                    // it — exactly one create_new wins).
                    let _ = std::fs::remove_file(&path);
                }
                Err(e) => return Err(e),
            }
        }
        Err(io::Error::new(
            io::ErrorKind::WouldBlock,
            format!("cannot acquire spool lock {}", path.display()),
        ))
    }

    /// Rewrites the lock file, refreshing its mtime — the heartbeat the
    /// `steal_after` staleness check reads. Called once per spool scan.
    fn refresh(&self) {
        let _ = std::fs::write(&self.path, format!("{}", std::process::id()));
    }
}

impl Drop for SpoolLock {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

/// Whether a pid refers to a live process. On Linux this reads `/proc`;
/// elsewhere the check is conservative (assume live), so stale locks need a
/// manual remove but live ones are never stolen.
fn pid_is_live(pid: u32) -> bool {
    if cfg!(target_os = "linux") {
        Path::new(&format!("/proc/{pid}")).exists()
    } else {
        true
    }
}

/// Runs the service loop. In `--once` mode processes the submissions present
/// and returns their outcomes; otherwise polls until interrupted or the scan
/// budget (`max_scans`) runs out (outcomes are reported through `report` as
/// they happen in both modes).
///
/// A failed spool scan (transient I/O error, injected or real) is logged and
/// the loop keeps polling — it no longer kills the service.
pub fn serve(
    options: &ServeOptions,
    report: &mut dyn FnMut(&ServeOutcome),
) -> io::Result<Vec<ServeOutcome>> {
    std::fs::create_dir_all(&options.spool)?;
    std::fs::create_dir_all(&options.out)?;
    let lock = SpoolLock::acquire(&options.spool, options.steal_lock_after)?;
    let broker = Broker::start(options.listen.as_deref().unwrap_or("127.0.0.1:0"))?;
    eprintln!("serve: work queue listening on {}", broker.addr);
    if let Some(path) = &options.listen_addr_file {
        // Published atomically (write-then-rename, same pattern as the
        // report sink): a reader polling for the address can never observe
        // a half-written port number.
        let tmp = path.with_file_name(format!(
            ".tmp-{}-{}",
            std::process::id(),
            path.file_name().and_then(|n| n.to_str()).unwrap_or("addr")
        ));
        std::fs::write(&tmp, format!("{}\n", broker.addr))?;
        std::fs::rename(&tmp, path)?;
    }
    let mut outcomes = Vec::new();
    let mut scans: u64 = 0;
    loop {
        lock.refresh();
        let submissions = match scan_spool(&options.spool, options.settle_ms) {
            Ok(submissions) => submissions,
            Err(e) => {
                eprintln!("serve: spool scan failed ({e}); retrying");
                Vec::new()
            }
        };
        scans += 1;
        for submission in submissions {
            let outcome = process_submission(&submission, options, &broker);
            finalize_submission(&submission, &outcome);
            report(&outcome);
            outcomes.push(outcome);
            if supervise::interrupted() {
                break;
            }
        }
        if options.once
            || supervise::interrupted()
            || (options.max_scans > 0 && scans >= options.max_scans)
        {
            broker.finish();
            return Ok(outcomes);
        }
        std::thread::sleep(std::time::Duration::from_millis(options.poll_ms.max(10)));
    }
}

/// The `*.toml` submissions currently in the spool, in name order. Files
/// modified within the settle window are skipped — they are still being
/// written; a later scan picks them up once their mtime is stable.
fn scan_spool(spool: &Path, settle_ms: u64) -> io::Result<Vec<PathBuf>> {
    if fault::fail_this_spool_scan() {
        return Err(io::Error::other("injected spool scan fault"));
    }
    let mut files = Vec::new();
    for entry in std::fs::read_dir(spool)? {
        let path = entry?.path();
        if path.extension().is_none_or(|e| e != "toml") || !path.is_file() {
            continue;
        }
        if settle_ms > 0 {
            let settled = std::fs::metadata(&path)
                .and_then(|m| m.modified())
                .ok()
                .and_then(|mtime| mtime.elapsed().ok())
                .is_some_and(|age| age >= Duration::from_millis(settle_ms));
            if !settled {
                continue;
            }
        }
        files.push(path);
    }
    files.sort();
    Ok(files)
}

/// The marker suffixes [`finalize_submission`] manages.
const MARKER_SUFFIXES: [&str; 4] = ["done", "partial", "failed", "error"];

/// Marks a submission processed: `<file>.done` on success, `<file>.partial`
/// for a degraded report, `<file>.failed` plus a `<file>.error` note on
/// failure. Idempotent across resubmissions: stale markers from a previous
/// attempt are cleared first, so a resubmitted spec can never sit beside a
/// leftover `.failed`/`.error` that contradicts its fresh outcome.
fn finalize_submission(submission: &Path, outcome: &ServeOutcome) {
    for suffix in MARKER_SUFFIXES {
        let mut stale = submission.as_os_str().to_owned();
        stale.push(format!(".{suffix}"));
        let _ = std::fs::remove_file(&stale);
    }
    let suffix = match &outcome.result {
        Ok(SubmissionStatus::Done(_)) => "done",
        Ok(SubmissionStatus::Partial { .. }) => "partial",
        Err(_) => "failed",
    };
    let mut renamed = submission.as_os_str().to_owned();
    renamed.push(format!(".{suffix}"));
    if let Err(e) = std::fs::rename(submission, &renamed) {
        eprintln!(
            "serve: cannot rename {} to .{suffix}: {e}",
            submission.display()
        );
    }
    if let Err(reason) = &outcome.result {
        let mut note = submission.as_os_str().to_owned();
        note.push(".error");
        let _ = std::fs::write(note, format!("{reason}\n"));
    }
}

fn process_submission(submission: &Path, options: &ServeOptions, broker: &Broker) -> ServeOutcome {
    let mut outcome = ServeOutcome {
        submission: submission.to_path_buf(),
        campaign: String::new(),
        result: Err(String::new()),
        quarantine_exceeded: false,
    };
    let text = match std::fs::read_to_string(submission) {
        Ok(text) => text,
        Err(e) => {
            outcome.result = Err(format!("cannot read submission: {e}"));
            return outcome;
        }
    };
    let spec = match CampaignSpec::from_toml_str(&text) {
        Ok(spec) => spec,
        Err(e) => {
            outcome.result = Err(format!("invalid spec: {e}"));
            return outcome;
        }
    };
    outcome.campaign = spec.name.clone();

    let stem = submission
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or("submission");
    let dir = options.out.join(stem);
    let run = if options.smoke {
        RunLength::smoke_test()
    } else {
        spec.run
    };
    let hash = spec_hash(&spec, run, options.smoke);

    // A previous half-processed submission with the same spec resumes; a
    // different spec under the same stem is refused, not clobbered.
    match JournalReplay::existing_hash(&dir, &spec.name) {
        Ok(Some(existing)) if existing != hash => {
            outcome.result = Err(format!(
                "output directory {} already holds campaign `{}` with spec hash {existing}, \
                 which does not match this submission's {hash}",
                dir.display(),
                spec.name
            ));
            return outcome;
        }
        Ok(_) => {}
        Err(e) => {
            outcome.result = Err(format!("cannot inspect output directory: {e}"));
            return outcome;
        }
    }

    outcome.result = match dispatch(&spec, &dir, run, &hash, options, broker) {
        Ok(status) => Ok(status),
        Err(DispatchError::Failed(reason)) => Err(reason),
        Err(DispatchError::QuarantineExceeded(reason)) => {
            outcome.quarantine_exceeded = true;
            Err(reason)
        }
    };
    outcome
}

// ---- the work queue ------------------------------------------------------
//
// Submissions install an `ActiveCampaign` (job queue + journal) in the
// broker's shared state, and every connected `boomerang-sim worker` drains
// it over the `crate::proto` frame protocol. The broker is the *only*
// journal writer, which is what makes row submission idempotent: every
// `RowDone` is deduped against the done set (seeded from the journal replay
// on resume) under one lock before it is appended, so a retransmitted
// frame, a revoked-then-completed lease, or a worker that crashed between
// send and ack can never double-append a row.

/// One queued (not currently leased) job.
struct QueuedJob {
    job: usize,
    /// Times this job's lease was revoked before.
    attempts: u32,
    /// Exponential-backoff gate: not leasable before this instant.
    ready_at: Instant,
}

/// One outstanding lease.
struct LeaseState {
    job: usize,
    attempts: u32,
    /// Refreshed by heartbeats and row submission; a lease idle past the
    /// timeout is revoked and its job requeued.
    last_activity: Instant,
}

/// One completed row sampled for re-execution by a different session.
struct VerifyJob {
    job: usize,
    /// Session whose journaled row is under test — never granted its own
    /// verification lease.
    producer: u64,
    /// The stat array as journaled; the re-run must reproduce it exactly.
    expected: Vec<u64>,
    ready_at: Instant,
}

/// One outstanding verification lease (a re-run of an already-done row).
struct VerifyLease {
    job: usize,
    producer: u64,
    expected: Vec<u64>,
    last_activity: Instant,
}

/// The campaign the broker is currently leasing out.
struct ActiveCampaign {
    spec_toml: String,
    spec_hash: String,
    smoke: bool,
    jobs: Vec<Job>,
    journal: Journal,
    done: HashSet<usize>,
    queue: VecDeque<QueuedJob>,
    leases: HashMap<u64, LeaseState>,
    next_lease: u64,
    /// Rows journaled this dispatch.
    rows_submitted: u64,
    /// Last lease grant, heartbeat, or row: the give-up clock.
    last_activity: Instant,
    lease_timeout: Duration,
    backoff_base: Duration,
    backoff_cap: Duration,
    /// Sampling rate for row re-verification (0 disables).
    verify_fraction: f64,
    /// Completed rows waiting for a re-run by a non-producer session.
    verify_queue: VecDeque<VerifyJob>,
    /// Outstanding verification leases, keyed like regular leases (one id
    /// space, so acks and revocations cannot confuse the two).
    verify_leases: HashMap<u64, VerifyLease>,
    /// Job index → the session whose row the journal holds (this broker
    /// life only; resumed rows have no known producer).
    row_producer: HashMap<usize, u64>,
    /// Sessions barred from further leases; their unverified rows were
    /// requeued when they entered.
    quarantined: HashSet<u64>,
    /// More quarantines than this fail the submission with its own exit
    /// code (`None` = unbounded).
    max_quarantined: Option<usize>,
    /// Rows rejected because their `row_fnv` disagreed with their payload.
    checksum_rejects: u64,
    /// Sampled re-runs whose stats matched the journaled row.
    rows_verified: u64,
    /// Sampled re-runs that contradicted the journaled row.
    verify_mismatches: u64,
    /// Sampled rows abandoned unverified (no eligible session appeared).
    verify_abandoned: u64,
}

impl ActiveCampaign {
    /// Every job journaled (verification may still be outstanding).
    fn rows_complete(&self) -> bool {
        self.done.len() == self.jobs.len()
    }

    /// Every job journaled *and* every sampled re-verification resolved.
    fn complete(&self) -> bool {
        self.rows_complete() && self.verify_queue.is_empty() && self.verify_leases.is_empty()
    }

    /// Whether quarantines have exceeded the configured bound.
    fn quarantine_breached(&self) -> bool {
        self.max_quarantined
            .is_some_and(|max| self.quarantined.len() > max)
    }

    /// Revokes every lease (regular and verification) idle past the
    /// timeout, requeueing the jobs with exponential backoff — and, once
    /// all rows are done, abandons verification samples nobody is eligible
    /// to pick up (a one-session fleet can never re-verify its own rows;
    /// without this escape the campaign would idle forever).
    fn sweep_expired(&mut self) {
        let now = Instant::now();
        let expired: Vec<u64> = self
            .leases
            .iter()
            .filter(|(_, l)| now.duration_since(l.last_activity) >= self.lease_timeout)
            .map(|(&id, _)| id)
            .chain(
                self.verify_leases
                    .iter()
                    .filter(|(_, l)| now.duration_since(l.last_activity) >= self.lease_timeout)
                    .map(|(&id, _)| id),
            )
            .collect();
        for lease in expired {
            self.revoke(lease, "expired (no heartbeat or row progress)");
        }
        if self.rows_complete()
            && !self.verify_queue.is_empty()
            && self.verify_leases.is_empty()
            && self.last_activity.elapsed() >= self.lease_timeout
        {
            self.verify_abandoned += self.verify_queue.len() as u64;
            eprintln!(
                "serve: abandoning {} queued verification sample(s): no eligible session \
                 picked them up within the lease timeout",
                self.verify_queue.len()
            );
            self.verify_queue.clear();
        }
    }

    /// Returns one lease to its queue (lease expiry or connection loss).
    /// Verification leases requeue as verification work; regular leases
    /// requeue the job with exponential backoff.
    fn revoke(&mut self, lease: u64, why: &str) {
        if let Some(state) = self.verify_leases.remove(&lease) {
            eprintln!(
                "serve: verification lease {lease} for job {} {why}; requeued",
                state.job
            );
            self.verify_queue.push_back(VerifyJob {
                job: state.job,
                producer: state.producer,
                expected: state.expected,
                ready_at: Instant::now() + self.backoff_base,
            });
            return;
        }
        let Some(state) = self.leases.remove(&lease) else {
            return;
        };
        if self.done.contains(&state.job) {
            return;
        }
        let attempts = state.attempts + 1;
        let backoff = self
            .backoff_base
            .saturating_mul(1u32 << (attempts - 1).min(20))
            .min(self.backoff_cap);
        eprintln!(
            "serve: lease {lease} for job {} {why}; requeued with {backoff:?} backoff \
             (attempt {attempts})",
            state.job
        );
        self.queue.push_back(QueuedJob {
            job: state.job,
            attempts,
            ready_at: Instant::now() + backoff,
        });
    }

    /// Leases the next ready job to `session`, skipping queue entries that
    /// completed while waiting (a revoked lease whose original worker
    /// finished after all). Fresh work first; with the queue drained,
    /// verification samples are handed to any session other than the one
    /// that produced the row under test.
    fn grant(&mut self, session: u64) -> Option<(u64, usize)> {
        let now = Instant::now();
        let mut deferred = 0;
        while deferred < self.queue.len() {
            let Some(entry) = self.queue.pop_front() else {
                break;
            };
            if self.done.contains(&entry.job) {
                continue;
            }
            if entry.ready_at > now {
                self.queue.push_back(entry);
                deferred += 1;
                continue;
            }
            let lease = self.next_lease;
            self.next_lease += 1;
            self.leases.insert(
                lease,
                LeaseState {
                    job: entry.job,
                    attempts: entry.attempts,
                    last_activity: now,
                },
            );
            self.last_activity = now;
            return Some((lease, entry.job));
        }
        let mut deferred = 0;
        while deferred < self.verify_queue.len() {
            let Some(entry) = self.verify_queue.pop_front() else {
                break;
            };
            if !self.done.contains(&entry.job) {
                // The row under test was requeued for a fresh run (its
                // producer was quarantined); this sample is moot — the
                // re-run will be re-sampled when it lands.
                continue;
            }
            if entry.producer == session || entry.ready_at > now {
                self.verify_queue.push_back(entry);
                deferred += 1;
                continue;
            }
            let lease = self.next_lease;
            self.next_lease += 1;
            self.verify_leases.insert(
                lease,
                VerifyLease {
                    job: entry.job,
                    producer: entry.producer,
                    expected: entry.expected,
                    last_activity: now,
                },
            );
            self.last_activity = now;
            return Some((lease, entry.job));
        }
        None
    }

    /// Whether row `index` is in the deterministic verification sample.
    /// The draw hashes `spec_hash|verify|index`, so it is stable across
    /// broker restarts and independent of submission order. The FNV value
    /// is pushed through a SplitMix64 finalizer before the threshold
    /// compare: FNV-1a's final multiply barely moves its high bits for
    /// inputs differing only in a trailing byte, so the raw hash would
    /// cluster whole runs of indices on the same side of the threshold.
    fn sampled_for_verification(&self, index: usize) -> bool {
        if self.verify_fraction <= 0.0 {
            return false;
        }
        let mut z = fnv1a64(format!("{}|verify|{index}", self.spec_hash).as_bytes());
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        (z as f64 / u64::MAX as f64) < self.verify_fraction
    }

    /// Bars `session` from further leases and requeues every unverified
    /// row it produced: once one row from a session is proven wrong,
    /// nothing else it journaled can be trusted.
    fn quarantine(&mut self, session: u64, worker: &str, why: &str) {
        if !self.quarantined.insert(session) {
            return;
        }
        eprintln!("serve: quarantining session {session} ({worker}): {why}");
        let suspect: Vec<usize> = self
            .row_producer
            .iter()
            .filter(|(_, &producer)| producer == session)
            .map(|(&job, _)| job)
            .collect();
        for job in suspect {
            self.row_producer.remove(&job);
            if self.done.remove(&job) {
                eprintln!(
                    "serve: requeueing job {job} (produced by quarantined session {session})"
                );
                self.queue.push_back(QueuedJob {
                    job,
                    attempts: 0,
                    ready_at: Instant::now(),
                });
            }
        }
    }

    /// Validates, dedups, journals, and acks one submitted row. The journal
    /// append is the broker's row fault point, so an armed plan can crash
    /// the broker mid-campaign — the resume path then proves itself.
    ///
    /// A row answering a verification lease is never journaled: its stats
    /// are compared against the journaled row, and a disagreement
    /// quarantines the producing session. A row whose `row_fnv` disagrees
    /// with its own payload quarantines the *submitting* session — the
    /// payload was damaged somewhere between its simulator and this socket.
    #[allow(clippy::too_many_arguments)]
    fn row_done(
        &mut self,
        session: u64,
        worker: &str,
        lease: u64,
        job: u64,
        hash: &str,
        mechanism: &str,
        seed: u64,
        row_fnv: u64,
        stats: &[u64],
    ) -> io::Result<Message> {
        let reject = |reason: String| Ok(Message::Reject { reason });
        if hash != self.spec_hash {
            return reject(format!(
                "row carries spec hash {hash}, the active campaign is {}",
                self.spec_hash
            ));
        }
        let index = job as usize;
        if index >= self.jobs.len() {
            return reject(format!(
                "job {job} outside the {}-job expansion",
                self.jobs.len()
            ));
        }
        // Every submission must be internally consistent before anything
        // else is believed about it.
        let computed = row_checksum(index, mechanism, seed, stats);
        if computed != row_fnv {
            self.checksum_rejects += 1;
            let lease_requeued = self.leases.remove(&lease).is_some();
            self.quarantine(
                session,
                worker,
                &format!(
                    "job {job} row_fnv {row_fnv:016x} does not match its payload \
                     (recomputed {computed:016x})"
                ),
            );
            if lease_requeued && !self.done.contains(&index) {
                self.queue.push_back(QueuedJob {
                    job: index,
                    attempts: 0,
                    ready_at: Instant::now(),
                });
            }
            self.verify_leases.remove(&lease);
            return reject(format!(
                "job {job} failed its row_fnv check; session quarantined"
            ));
        }
        if let Some(verify) = self.verify_leases.remove(&lease) {
            self.last_activity = Instant::now();
            if stats == verify.expected.as_slice() {
                self.rows_verified += 1;
                return Ok(Message::RowAck { job });
            }
            self.verify_mismatches += 1;
            self.quarantine(
                verify.producer,
                "producer",
                &format!(
                    "job {job} re-run by session {session} contradicts the journaled row \
                     (sampled re-verification)"
                ),
            );
            // quarantine() requeued the suspect rows (including this one);
            // the verifier's work was sound, so ack it.
            return Ok(Message::RowAck { job });
        }
        if self.quarantined.contains(&session) {
            return reject(format!("session {session} is quarantined"));
        }
        // The lease is resolved either way; an expired/unknown lease is
        // fine — the work is real.
        self.leases.remove(&lease);
        self.last_activity = Instant::now();
        if self.done.contains(&index) {
            // Idempotent dedup: ack a retransmission without appending.
            return Ok(Message::RowAck { job });
        }
        let expected = &self.jobs[index];
        if mechanism_token(expected.mechanism) != mechanism || expected.seed != seed {
            return reject(format!(
                "job {job} cross-check failed: expected ({}, seed {}), row claims \
                 ({mechanism}, seed {seed})",
                mechanism_token(expected.mechanism),
                expected.seed
            ));
        }
        let Some(sim_stats) = stats_from_array(stats) else {
            return reject(format!("job {job} carries a malformed stat array"));
        };
        self.journal.record(expected, &sim_stats)?;
        self.done.insert(index);
        self.rows_submitted += 1;
        self.row_producer.insert(index, session);
        if self.sampled_for_verification(index) {
            self.verify_queue.push_back(VerifyJob {
                job: index,
                producer: session,
                expected: stats.to_vec(),
                ready_at: Instant::now(),
            });
        }
        Ok(Message::RowAck { job })
    }
}

/// Shared state between the serve loop and the connection handler threads.
struct BrokerShared {
    campaign: Mutex<Option<ActiveCampaign>>,
    /// Set by [`Broker::finish`]: handlers answer lease requests with
    /// `Shutdown` so workers drain and exit cleanly.
    finishing: AtomicBool,
    connections: AtomicUsize,
    /// Session id source: one id per accepted connection, never reused.
    /// Quarantine is per-session — a reconnecting worker starts clean.
    next_session: AtomicU64,
    /// Lease requests plus row submissions per loopback worker pid (from
    /// `Hello`): the supervisor's per-process hang probe, cleared whenever a
    /// campaign is installed. Heartbeats do not count — they come from a
    /// separate thread that outlives a wedged row loop.
    activity: Mutex<HashMap<u64, u64>>,
}

impl BrokerShared {
    fn new() -> BrokerShared {
        BrokerShared {
            campaign: Mutex::new(None),
            finishing: AtomicBool::new(false),
            connections: AtomicUsize::new(0),
            next_session: AtomicU64::new(0),
            activity: Mutex::new(HashMap::new()),
        }
    }

    /// Counts one lease request or row from the worker `pid` at `peer`.
    /// Only loopback peers count: the probe watches the supervisor's own
    /// children, and a pid claimed by another host says nothing about them.
    fn note_activity(&self, peer: SocketAddr, pid: u64) {
        if !peer.ip().to_canonical().is_loopback() {
            return;
        }
        *self
            .activity
            .lock()
            .expect("activity mutex")
            .entry(pid)
            .or_default() += 1;
    }

    /// The hang-probe value for a local worker process.
    fn activity_of(&self, pid: u32) -> u64 {
        let activity = self.activity.lock().expect("activity mutex");
        activity.get(&u64::from(pid)).copied().unwrap_or(0)
    }
}

/// The listening work queue: an accept thread plus one handler thread per
/// connected worker.
struct Broker {
    shared: Arc<BrokerShared>,
    addr: SocketAddr,
    accept_stop: Arc<AtomicBool>,
    accept_handle: Option<std::thread::JoinHandle<()>>,
}

impl Broker {
    fn start(listen: &str) -> io::Result<Broker> {
        let listener = TcpListener::bind(listen)?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let shared = Arc::new(BrokerShared::new());
        let accept_stop = Arc::new(AtomicBool::new(false));
        let accept_handle = {
            let shared = Arc::clone(&shared);
            let stop = Arc::clone(&accept_stop);
            std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    match listener.accept() {
                        Ok((stream, peer)) => {
                            let shared = Arc::clone(&shared);
                            shared.connections.fetch_add(1, Ordering::SeqCst);
                            std::thread::spawn(move || {
                                handle_connection(stream, peer, &shared);
                                shared.connections.fetch_sub(1, Ordering::SeqCst);
                            });
                        }
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                            std::thread::sleep(Duration::from_millis(25));
                        }
                        Err(_) => std::thread::sleep(Duration::from_millis(25)),
                    }
                }
            })
        };
        Ok(Broker {
            shared,
            addr,
            accept_stop,
            accept_handle: Some(accept_handle),
        })
    }

    /// Drains the queue's workers: lease requests now answer `Shutdown`,
    /// and the broker waits briefly for connections to close before the
    /// accept thread stops.
    fn finish(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        self.shared.finishing.store(true, Ordering::SeqCst);
        let deadline = Instant::now() + Duration::from_secs(3);
        while self.shared.connections.load(Ordering::SeqCst) > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(25));
        }
        self.accept_stop.store(true, Ordering::Relaxed);
        if let Some(handle) = self.accept_handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for Broker {
    fn drop(&mut self) {
        if self.accept_handle.is_some() {
            self.shutdown_inner();
        }
    }
}

/// One handler read attempt: a frame, nothing yet, or a dead connection.
enum HandlerRead {
    Msg(Message),
    Idle,
    Dead,
}

/// Reads one frame without blocking past the socket's read timeout, and
/// without consuming bytes on an idle tick (the `peek` distinguishes "no
/// data" from "mid-frame"). A protocol violation is `Dead`: the broker
/// drops corrupt peers and lets the lease sweep reclaim their jobs.
fn next_message(stream: &mut TcpStream) -> HandlerRead {
    let mut probe = [0u8; 1];
    match stream.peek(&mut probe) {
        Ok(0) => HandlerRead::Dead,
        Ok(_) => match read_message(stream) {
            Ok(msg) => HandlerRead::Msg(msg),
            Err(_) => HandlerRead::Dead,
        },
        Err(e) if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut => {
            HandlerRead::Idle
        }
        Err(_) => HandlerRead::Dead,
    }
}

/// One worker connection's lifetime on the broker side. Each connection is
/// one *session* — the unit of quarantine and of verification eligibility.
fn handle_connection(stream: TcpStream, peer: SocketAddr, shared: &BrokerShared) {
    let mut stream = stream;
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(250)));
    let session = shared.next_session.fetch_add(1, Ordering::SeqCst) + 1;

    // Handshake: Hello within a grace window, or the connection is dropped
    // (port scanners, garbage writers, torn handshake frames).
    let handshake_deadline = Instant::now() + Duration::from_secs(10);
    let (worker_name, pid) = loop {
        match next_message(&mut stream) {
            HandlerRead::Msg(Message::Hello { worker, pid }) => break (worker, pid),
            HandlerRead::Msg(_) | HandlerRead::Dead => return,
            HandlerRead::Idle => {
                if Instant::now() > handshake_deadline {
                    return;
                }
            }
        }
    };
    let welcome = Message::Welcome {
        broker_pid: std::process::id() as u64,
    };
    if write_message(&mut stream, &welcome).is_err() {
        return;
    }

    // Leases granted over *this* connection; requeued if it dies.
    let mut my_leases: Vec<u64> = Vec::new();
    loop {
        match next_message(&mut stream) {
            HandlerRead::Idle => continue,
            HandlerRead::Dead => break,
            HandlerRead::Msg(Message::LeaseRequest) => {
                shared.note_activity(peer, pid);
                if shared.finishing.load(Ordering::SeqCst) {
                    let _ = write_message(
                        &mut stream,
                        &Message::Shutdown {
                            reason: "service shutting down".to_string(),
                        },
                    );
                    break;
                }
                let reply = {
                    let mut guard = shared.campaign.lock().expect("campaign mutex");
                    match guard.as_mut() {
                        None => Message::NoWork { retry_ms: 100 },
                        Some(campaign) if campaign.quarantined.contains(&session) => {
                            Message::Reject {
                                reason: format!(
                                    "session {session} is quarantined; no further leases"
                                ),
                            }
                        }
                        Some(campaign) => {
                            campaign.sweep_expired();
                            match campaign.grant(session) {
                                Some((lease, job)) => {
                                    my_leases.push(lease);
                                    Message::Lease {
                                        lease,
                                        job: job as u64,
                                        smoke: campaign.smoke,
                                        spec_hash: campaign.spec_hash.clone(),
                                        spec_toml: campaign.spec_toml.clone(),
                                    }
                                }
                                None => Message::NoWork { retry_ms: 100 },
                            }
                        }
                    }
                };
                if write_message(&mut stream, &reply).is_err() {
                    break;
                }
            }
            HandlerRead::Msg(Message::Heartbeat { lease }) => {
                let mut guard = shared.campaign.lock().expect("campaign mutex");
                if let Some(campaign) = guard.as_mut() {
                    if let Some(state) = campaign.leases.get_mut(&lease) {
                        state.last_activity = Instant::now();
                        campaign.last_activity = Instant::now();
                    }
                }
            }
            HandlerRead::Msg(Message::RowDone {
                lease,
                job,
                spec_hash,
                mechanism,
                seed,
                row_fnv,
                stats,
            }) => {
                shared.note_activity(peer, pid);
                my_leases.retain(|&l| l != lease);
                let reply = {
                    let mut guard = shared.campaign.lock().expect("campaign mutex");
                    match guard.as_mut() {
                        None => Message::Reject {
                            reason: "no campaign is active".to_string(),
                        },
                        Some(campaign) => {
                            match campaign.row_done(
                                session,
                                &worker_name,
                                lease,
                                job,
                                &spec_hash,
                                &mechanism,
                                seed,
                                row_fnv,
                                &stats,
                            ) {
                                Ok(reply) => reply,
                                Err(e) => {
                                    eprintln!(
                                        "serve: journal append for job {job} from \
                                         {worker_name} failed: {e}"
                                    );
                                    Message::Reject {
                                        reason: format!("journal append failed: {e}"),
                                    }
                                }
                            }
                        }
                    }
                };
                if write_message(&mut stream, &reply).is_err() {
                    break;
                }
            }
            HandlerRead::Msg(_) => break,
        }
    }

    // Connection gone: return its outstanding leases to the queue.
    if !my_leases.is_empty() {
        let mut guard = shared.campaign.lock().expect("campaign mutex");
        if let Some(campaign) = guard.as_mut() {
            for lease in my_leases {
                campaign.revoke(lease, &format!("lost its connection ({worker_name})"));
            }
        }
    }
}

/// Dispatches one submission through the work queue: installs the campaign
/// (resuming from its journals), runs the local worker fleet connected over
/// loopback, waits for remote workers when the queue is exposed, and merges
/// the journals into the canonical report — or, when the fleet gave up and
/// partial output is allowed, into a degraded report over the checkpointed
/// rows.
fn dispatch(
    spec: &CampaignSpec,
    dir: &Path,
    run: RunLength,
    hash: &str,
    options: &ServeOptions,
    broker: &Broker,
) -> Result<SubmissionStatus, DispatchError> {
    let fail = |reason: String| DispatchError::Failed(reason);
    let jobs = expand(spec);
    // Resume: rows already journaled (by an earlier service life, whatever
    // its journal layout) are done — never re-leased.
    let replay =
        JournalReplay::load(dir, &spec.name, hash, &jobs).map_err(|e| fail(e.to_string()))?;
    let done: HashSet<usize> = replay.rows.keys().copied().collect();
    if !done.is_empty() {
        eprintln!(
            "serve: resuming {}: {} of {} rows already checkpointed",
            spec.name,
            done.len(),
            jobs.len()
        );
    }
    let journal = if Journal::path_for(dir, &spec.name, None).exists() {
        Journal::append(dir, &spec.name, None)
    } else {
        Journal::create(dir, &spec.name, hash, jobs.len(), None)
    }
    .map_err(|e| fail(format!("cannot open journal: {e}")))?;

    let queue: VecDeque<QueuedJob> = (0..jobs.len())
        .filter(|i| !done.contains(i))
        .map(|job| QueuedJob {
            job,
            attempts: 0,
            ready_at: Instant::now(),
        })
        .collect();
    broker
        .shared
        .activity
        .lock()
        .expect("activity mutex")
        .clear();
    {
        let mut guard = broker.shared.campaign.lock().expect("campaign mutex");
        *guard = Some(ActiveCampaign {
            spec_toml: spec.to_toml_string(),
            spec_hash: hash.to_string(),
            smoke: options.smoke,
            jobs: jobs.clone(),
            journal,
            done,
            queue,
            leases: HashMap::new(),
            next_lease: 1,
            rows_submitted: 0,
            last_activity: Instant::now(),
            lease_timeout: options.lease_timeout,
            backoff_base: options.supervise.backoff_base,
            backoff_cap: options.supervise.backoff_cap,
            verify_fraction: options.verify_fraction,
            verify_queue: VecDeque::new(),
            verify_leases: HashMap::new(),
            row_producer: HashMap::new(),
            quarantined: HashSet::new(),
            max_quarantined: options.max_quarantined,
            checksum_rejects: 0,
            rows_verified: 0,
            verify_mismatches: 0,
            verify_abandoned: 0,
        });
    }
    let uninstall = || {
        let mut guard = broker.shared.campaign.lock().expect("campaign mutex");
        *guard = None;
    };

    // Local dispatch: the same worker client, connected over loopback, so
    // mixed local+remote fleets drain one queue through one code path. The
    // supervisor's stop closure doubles as the lease-expiry sweep.
    let mut fleet_failures: Vec<String> = Vec::new();
    if options.workers > 0 {
        let heartbeat_ms = (options.lease_timeout.as_millis() as u64 / 4).clamp(50, 5_000);
        let addr = broker.addr.to_string();
        let mut make_command = |index: usize| {
            let mut cmd = Command::new(&options.binary);
            cmd.arg("worker")
                .arg("--connect")
                .arg(&addr)
                .arg("--worker-index")
                .arg(index.to_string())
                .arg("--heartbeat-ms")
                .arg(heartbeat_ms.to_string())
                .arg("--quiet")
                .stdin(Stdio::null())
                .stdout(Stdio::null())
                .stderr(Stdio::inherit());
            if let Some(cache) = &options.artifact_cache {
                cmd.arg("--artifact-cache").arg(cache);
            }
            cmd
        };
        let shared = Arc::clone(&broker.shared);
        let mut progress = move |pid: u32| shared.activity_of(pid);
        let shared = Arc::clone(&broker.shared);
        let mut stop = move || {
            let mut guard = shared.campaign.lock().expect("campaign mutex");
            match guard.as_mut() {
                Some(campaign) => {
                    campaign.sweep_expired();
                    campaign.complete() || campaign.quarantine_breached()
                }
                None => true,
            }
        };
        let supervised = supervise_with_stop(
            options.workers,
            &mut make_command,
            &mut progress,
            &options.supervise,
            &mut |line| eprintln!("serve: {line}"),
            &mut stop,
        );
        if supervised.interrupted() {
            uninstall();
            return Err(fail(
                "interrupted before the submission finished".to_string(),
            ));
        }
        if !supervised.all_complete() {
            fleet_failures = supervised.failures();
        }
    }

    // With the queue exposed, wait for remote workers to drain what's left.
    // Give up after a long silence — several lease timeouts with no grant,
    // heartbeat, or row. On the private loopback port nobody else can
    // connect, so whatever the local fleet left undone stays undone.
    let give_up = options
        .lease_timeout
        .saturating_mul(3)
        .max(Duration::from_secs(2));
    while options.listen.is_some() {
        let (complete, breached, idle_for) = {
            let mut guard = broker.shared.campaign.lock().expect("campaign mutex");
            let campaign = guard.as_mut().expect("campaign installed");
            campaign.sweep_expired();
            (
                campaign.complete(),
                campaign.quarantine_breached(),
                campaign.last_activity.elapsed(),
            )
        };
        if complete || breached {
            break;
        }
        if supervise::interrupted() {
            uninstall();
            return Err(fail(
                "interrupted before the submission finished".to_string(),
            ));
        }
        if idle_for >= give_up {
            fleet_failures.push(format!(
                "work queue idle for {idle_for:?} with jobs outstanding; giving up"
            ));
            break;
        }
        std::thread::sleep(Duration::from_millis(50));
    }

    // The integrity ledger for this dispatch, read out before the campaign
    // is uninstalled. The summary line is stable and greppable — CI's
    // chaos gate asserts on it.
    let (quarantined, breached, summary) = {
        let guard = broker.shared.campaign.lock().expect("campaign mutex");
        let campaign = guard.as_ref().expect("campaign installed");
        (
            campaign.quarantined.len(),
            campaign.quarantine_breached(),
            format!(
                "serve: integrity summary for {}: {} rows journaled, {} checksum rejects, \
                 {} rows re-verified, {} verification mismatches, {} samples abandoned, \
                 {} sessions quarantined",
                spec.name,
                campaign.rows_submitted,
                campaign.checksum_rejects,
                campaign.rows_verified,
                campaign.verify_mismatches,
                campaign.verify_abandoned,
                campaign.quarantined.len(),
            ),
        )
    };
    uninstall();
    eprintln!("{summary}");
    if breached {
        let bound = options.max_quarantined.unwrap_or(0);
        return Err(DispatchError::QuarantineExceeded(format!(
            "{quarantined} worker sessions quarantined for corrupt results, exceeding \
             --max-quarantined {bound}; refusing to grind on with a rotten fleet"
        )));
    }

    // Merge: replay the journals, assemble the canonical (or degraded)
    // report.
    let replay =
        JournalReplay::load(dir, &spec.name, hash, &jobs).map_err(|e| fail(e.to_string()))?;
    if replay.completed() == jobs.len() {
        let stats: Vec<SimStats> = (0..jobs.len()).map(|i| replay.rows[&i]).collect();
        let report = assemble_report(spec, &jobs, run, options.smoke, stats);
        write_reports(&report, dir).map_err(|e| fail(format!("cannot write reports: {e}")))?;
        return Ok(SubmissionStatus::Done(dir.to_path_buf()));
    }
    if fleet_failures.is_empty() {
        fleet_failures.push(format!(
            "workers stopped with only {} of {} jobs checkpointed",
            replay.completed(),
            jobs.len()
        ));
    }
    if !options.allow_partial {
        return Err(fail(fleet_failures.join("; ")));
    }
    let stats: Vec<Option<SimStats>> = (0..jobs.len())
        .map(|i| replay.rows.get(&i).copied())
        .collect();
    let partial = assemble_partial_report(spec, &jobs, run, options.smoke, &stats, fleet_failures);
    let missing = partial.missing();
    write_partial_reports(&partial, dir)
        .map_err(|e| fail(format!("cannot write partial reports: {e}")))?;
    Ok(SubmissionStatus::Partial {
        dir: dir.to_path_buf(),
        missing,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("boomerang-serve-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn spool_scan_sees_only_toml_in_name_order() {
        let dir = temp_dir("scan");
        std::fs::write(dir.join("b.toml"), "x").unwrap();
        std::fs::write(dir.join("a.toml"), "x").unwrap();
        std::fs::write(dir.join("c.toml.done"), "x").unwrap();
        std::fs::write(dir.join("notes.txt"), "x").unwrap();
        let found = scan_spool(&dir, 0).unwrap();
        let names: Vec<_> = found
            .iter()
            .map(|p| p.file_name().unwrap().to_str().unwrap().to_string())
            .collect();
        assert_eq!(names, ["a.toml", "b.toml"]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn settle_window_defers_fresh_files() {
        let dir = temp_dir("settle");
        std::fs::write(dir.join("fresh.toml"), "x").unwrap();
        // A wide window hides the just-written file; no window shows it.
        assert!(scan_spool(&dir, 60_000).unwrap().is_empty());
        assert_eq!(scan_spool(&dir, 0).unwrap().len(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn unreadable_submission_fails_and_is_marked() {
        let dir = temp_dir("badspec");
        let spool = dir.join("spool");
        std::fs::create_dir_all(&spool).unwrap();
        std::fs::write(spool.join("bad.toml"), "not a spec at all = [").unwrap();
        let options = ServeOptions {
            binary: PathBuf::from("/nonexistent"),
            spool: spool.clone(),
            out: dir.join("out"),
            once: true,
            ..ServeOptions::default()
        };
        let outcomes = serve(&options, &mut |_| {}).unwrap();
        assert_eq!(outcomes.len(), 1);
        assert!(outcomes[0].result.is_err());
        assert!(spool.join("bad.toml.failed").exists());
        let note = std::fs::read_to_string(spool.join("bad.toml.error")).unwrap();
        assert!(note.contains("invalid spec"), "{note}");
        assert!(!spool.join("bad.toml").exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn resubmission_clears_stale_markers() {
        let dir = temp_dir("stale");
        let spool = dir.join("spool");
        std::fs::create_dir_all(&spool).unwrap();
        // Leftovers from an imaginary earlier failed attempt.
        std::fs::write(spool.join("job.toml.failed"), "old run").unwrap();
        std::fs::write(spool.join("job.toml.error"), "old reason").unwrap();
        std::fs::write(spool.join("job.toml.done"), "even older").unwrap();
        std::fs::write(spool.join("job.toml"), "still not a spec = [").unwrap();
        let options = ServeOptions {
            binary: PathBuf::from("/nonexistent"),
            spool: spool.clone(),
            out: dir.join("out"),
            once: true,
            ..ServeOptions::default()
        };
        let outcomes = serve(&options, &mut |_| {}).unwrap();
        assert!(outcomes[0].result.is_err());
        // Exactly one marker family survives: this run's.
        assert!(spool.join("job.toml.failed").exists());
        let note = std::fs::read_to_string(spool.join("job.toml.error")).unwrap();
        assert!(note.contains("invalid spec"), "stale note kept: {note}");
        assert!(!spool.join("job.toml.done").exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn spool_lock_blocks_live_owner_and_reclaims_dead_one() {
        let dir = temp_dir("lock");
        // Held by this (live) process: a second acquire must refuse.
        let lock = SpoolLock::acquire(&dir, None).unwrap();
        let err = SpoolLock::acquire(&dir, None).unwrap_err();
        assert!(err.to_string().contains("already served"), "{err}");
        drop(lock);
        assert!(!dir.join(SPOOL_LOCK_NAME).exists(), "lock not released");

        // A lock whose owner is long dead is reclaimed. Pid 0 is never a
        // schedulable process on Linux (and /proc/0 does not exist).
        std::fs::write(dir.join(SPOOL_LOCK_NAME), "0").unwrap();
        let lock = SpoolLock::acquire(&dir, None).unwrap();
        let owner = std::fs::read_to_string(dir.join(SPOOL_LOCK_NAME)).unwrap();
        assert_eq!(owner, std::process::id().to_string());
        drop(lock);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn stale_spool_lock_is_stolen_past_the_threshold() {
        let dir = temp_dir("lock-steal");
        // A live owner's lock: without the escape hatch it always blocks...
        let lock = SpoolLock::acquire(&dir, None).unwrap();
        let err = SpoolLock::acquire(&dir, Some(Duration::from_secs(3600))).unwrap_err();
        assert!(err.to_string().contains("already served"), "{err}");

        // ...but once the lock file's mtime is older than the threshold it
        // is stolen even though the owner pid is alive (the off-procfs
        // "assume live" case this flag exists for).
        std::thread::sleep(Duration::from_millis(60));
        let stolen = SpoolLock::acquire(&dir, Some(Duration::from_millis(50))).unwrap();
        let owner = std::fs::read_to_string(dir.join(SPOOL_LOCK_NAME)).unwrap();
        assert_eq!(owner, std::process::id().to_string());
        drop(stolen);
        drop(lock);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn refreshed_spool_lock_is_not_stolen() {
        let dir = temp_dir("lock-refresh");
        let lock = SpoolLock::acquire(&dir, None).unwrap();
        std::thread::sleep(Duration::from_millis(60));
        // The serving loop refreshes the lock each scan; a refreshed lock
        // is younger than the threshold and must survive.
        lock.refresh();
        let err = SpoolLock::acquire(&dir, Some(Duration::from_millis(50))).unwrap_err();
        assert!(err.to_string().contains("already served"), "{err}");
        drop(lock);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    // ---- result-integrity unit tests: the broker-side checksum gate, the
    // sampled re-verification loop, and quarantine -------------------------

    use crate::checkpoint::stats_to_array;

    const INTEGRITY_SPEC: &str = "name = \"integrity\"
workloads = [\"nutch\"]
mechanisms = [\"fdip\", \"boomerang\"]

[run]
trace_blocks = 2000
warmup_blocks = 400
";

    /// A broker-side campaign over [`INTEGRITY_SPEC`] with a real journal in
    /// a temp dir; `verify_fraction` as given, everything else defaulted.
    fn integrity_campaign(tag: &str, verify_fraction: f64) -> (ActiveCampaign, PathBuf) {
        let dir = temp_dir(&format!("integrity-{tag}"));
        let spec = CampaignSpec::from_toml_str(INTEGRITY_SPEC).unwrap();
        let jobs = expand(&spec);
        let hash = spec_hash(&spec, spec.run, false);
        let journal = Journal::create(&dir, &spec.name, &hash, jobs.len(), None).unwrap();
        let queue = (0..jobs.len())
            .map(|job| QueuedJob {
                job,
                attempts: 0,
                ready_at: Instant::now(),
            })
            .collect();
        let campaign = ActiveCampaign {
            spec_toml: INTEGRITY_SPEC.to_string(),
            spec_hash: hash,
            smoke: false,
            jobs,
            journal,
            done: HashSet::new(),
            queue,
            leases: HashMap::new(),
            next_lease: 1,
            rows_submitted: 0,
            last_activity: Instant::now(),
            lease_timeout: Duration::from_secs(60),
            backoff_base: Duration::from_millis(1),
            backoff_cap: Duration::from_millis(10),
            verify_fraction,
            verify_queue: VecDeque::new(),
            verify_leases: HashMap::new(),
            row_producer: HashMap::new(),
            quarantined: HashSet::new(),
            max_quarantined: None,
            checksum_rejects: 0,
            rows_verified: 0,
            verify_mismatches: 0,
            verify_abandoned: 0,
        };
        (campaign, dir)
    }

    /// Takes one lease for `session` and submits the granted job with the
    /// given stats (checksummed correctly); returns the job index and the
    /// broker's answer.
    fn submit(campaign: &mut ActiveCampaign, session: u64, stats: &[u64]) -> (usize, Message) {
        let (lease, index) = campaign.grant(session).expect("a lease to submit under");
        let (mechanism, seed) = {
            let job = &campaign.jobs[index];
            (mechanism_token(job.mechanism), job.seed)
        };
        let fnv = row_checksum(index, &mechanism, seed, stats);
        let answer = campaign
            .row_done(
                session,
                "test-worker",
                lease,
                index as u64,
                &campaign.spec_hash.clone(),
                &mechanism,
                seed,
                fnv,
                stats,
            )
            .unwrap();
        (index, answer)
    }

    #[test]
    fn corrupt_row_quarantines_the_submitter_and_requeues_the_job() {
        let (mut campaign, dir) = integrity_campaign("corrupt", 0.0);
        let stats = stats_to_array(&SimStats::default());
        let (lease, index) = campaign.grant(1).unwrap();
        let job = &campaign.jobs[index];
        let (mechanism, seed) = (mechanism_token(job.mechanism), job.seed);
        // Checksum over the true stats, then damage the payload — exactly
        // what the `row-corrupt` fault injects in a real worker.
        let fnv = row_checksum(index, &mechanism, seed, &stats);
        let mut damaged = stats;
        damaged[0] ^= 1;
        let answer = campaign
            .row_done(
                1,
                "w0",
                lease,
                index as u64,
                &campaign.spec_hash.clone(),
                &mechanism,
                seed,
                fnv,
                &damaged,
            )
            .unwrap();
        let Message::Reject { reason } = answer else {
            panic!("a corrupt row must be rejected, got {answer:?}");
        };
        assert!(reason.contains("row_fnv"), "{reason}");
        assert_eq!(campaign.checksum_rejects, 1);
        assert!(campaign.quarantined.contains(&1));
        assert!(
            !campaign.done.contains(&index),
            "the bad row must not count"
        );
        assert!(
            campaign.queue.iter().any(|q| q.job == index),
            "the job must be requeued for an honest session"
        );
        // The quarantined session gets no further leases through the
        // connection handler; a *new* session drains the queue — including
        // the requeued job — fine.
        while !campaign.rows_complete() {
            let (_, answer) = submit(&mut campaign, 2, &stats);
            assert!(matches!(answer, Message::RowAck { .. }), "{answer:?}");
        }
        assert!(campaign.done.contains(&index));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn verification_mismatch_quarantines_the_producer_and_requeues_its_rows() {
        let (mut campaign, dir) = integrity_campaign("verify-bad", 1.0);
        let total = campaign.jobs.len();
        // Session 1 produces every row — with fraction 1.0 each lands in the
        // verification queue.
        let stats = stats_to_array(&SimStats::default());
        for _ in 0..total {
            let (_, answer) = submit(&mut campaign, 1, &stats);
            assert!(matches!(answer, Message::RowAck { .. }), "{answer:?}");
        }
        assert!(campaign.rows_complete());
        assert_eq!(campaign.verify_queue.len(), total);
        // The producer is never handed its own rows to re-verify.
        assert!(campaign.grant(1).is_none(), "producer must not self-verify");
        // Session 2 re-runs the first sample and contradicts it.
        let (lease, index) = campaign.grant(2).expect("a verification lease");
        let job = &campaign.jobs[index];
        let (mechanism, seed) = (mechanism_token(job.mechanism), job.seed);
        let mut contradicting = stats;
        contradicting[1] = contradicting[1].wrapping_add(7);
        let fnv = row_checksum(index, &mechanism, seed, &contradicting);
        let answer = campaign
            .row_done(
                2,
                "w1",
                lease,
                index as u64,
                &campaign.spec_hash.clone(),
                &mechanism,
                seed,
                fnv,
                &contradicting,
            )
            .unwrap();
        // The verifier's work was sound — it is acked, the *producer* is
        // quarantined and all its rows go back to the queue.
        assert!(matches!(answer, Message::RowAck { .. }), "{answer:?}");
        assert_eq!(campaign.verify_mismatches, 1);
        assert!(campaign.quarantined.contains(&1));
        assert!(!campaign.quarantined.contains(&2));
        assert_eq!(
            campaign.done.len(),
            0,
            "every row by the quarantined producer is suspect"
        );
        assert_eq!(campaign.queue.len(), total);
        assert!(!campaign.quarantine_breached());
        campaign.max_quarantined = Some(0);
        assert!(campaign.quarantine_breached());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn matching_reverification_counts_and_completes() {
        let (mut campaign, dir) = integrity_campaign("verify-ok", 1.0);
        let total = campaign.jobs.len();
        let stats = stats_to_array(&SimStats::default());
        for _ in 0..total {
            submit(&mut campaign, 1, &stats);
        }
        assert!(!campaign.complete(), "verification is still outstanding");
        // Session 2 re-runs every sample with matching stats.
        while let Some((lease, index)) = campaign.grant(2) {
            let job = &campaign.jobs[index];
            let (mechanism, seed) = (mechanism_token(job.mechanism), job.seed);
            let fnv = row_checksum(index, &mechanism, seed, &stats);
            let answer = campaign
                .row_done(
                    2,
                    "w1",
                    lease,
                    index as u64,
                    &campaign.spec_hash.clone(),
                    &mechanism,
                    seed,
                    fnv,
                    &stats,
                )
                .unwrap();
            assert!(matches!(answer, Message::RowAck { .. }), "{answer:?}");
        }
        assert_eq!(campaign.rows_verified as usize, total);
        assert_eq!(campaign.verify_mismatches, 0);
        assert!(campaign.quarantined.is_empty());
        assert!(campaign.complete());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn verification_sampling_is_deterministic_and_respects_the_fraction() {
        let (all, dir_a) = integrity_campaign("sample-all", 1.0);
        let (none, dir_b) = integrity_campaign("sample-none", 0.0);
        let (half, dir_c) = integrity_campaign("sample-half", 0.5);
        let total = all.jobs.len();
        assert_eq!(
            (0..total)
                .filter(|&i| all.sampled_for_verification(i))
                .count(),
            total
        );
        assert_eq!(
            (0..total)
                .filter(|&i| none.sampled_for_verification(i))
                .count(),
            0
        );
        let drawn: Vec<usize> = (0..total)
            .filter(|&i| half.sampled_for_verification(i))
            .collect();
        let again: Vec<usize> = (0..total)
            .filter(|&i| half.sampled_for_verification(i))
            .collect();
        assert_eq!(drawn, again, "the draw must be a pure function of the hash");
        for dir in [dir_a, dir_b, dir_c] {
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn abandoned_verification_samples_unblock_a_lone_session() {
        let (mut campaign, dir) = integrity_campaign("abandon", 1.0);
        campaign.lease_timeout = Duration::from_millis(20);
        let total = campaign.jobs.len();
        let stats = stats_to_array(&SimStats::default());
        for _ in 0..total {
            submit(&mut campaign, 1, &stats);
        }
        // Only the producing session exists: nobody can take the samples.
        assert!(campaign.grant(1).is_none());
        assert!(!campaign.complete());
        std::thread::sleep(Duration::from_millis(30));
        campaign.sweep_expired();
        assert_eq!(campaign.verify_abandoned as usize, total);
        assert!(
            campaign.complete(),
            "an unverifiable sample must not deadlock the campaign"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn remote_worker_with_a_colliding_pid_cannot_feed_the_hang_probe() {
        let shared = BrokerShared::new();
        let local: SocketAddr = "127.0.0.1:40000".parse().unwrap();
        let mapped: SocketAddr = "[::ffff:127.0.0.1]:40001".parse().unwrap();
        let remote: SocketAddr = "192.0.2.7:40000".parse().unwrap();
        let remote_v6: SocketAddr = "[2001:db8::7]:40000".parse().unwrap();
        // A wedged local child (pid 4242) sends nothing more; a remote
        // worker that happens to report the same pid keeps submitting.
        for _ in 0..5 {
            shared.note_activity(remote, 4242);
            shared.note_activity(remote_v6, 4242);
        }
        assert_eq!(
            shared.activity_of(4242),
            0,
            "a non-loopback session must not advance a local worker's probe"
        );
        shared.note_activity(local, 4242);
        shared.note_activity(mapped, 4242);
        assert_eq!(shared.activity_of(4242), 2);
        assert_eq!(shared.activity_of(7), 0);
    }
}
