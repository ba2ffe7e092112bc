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
//! pid) cannot mask a wedged local one. Heartbeats do not count, and
//! generating a point sends nothing, so a row whose generation and
//! simulation outlast the worker timeout is killed as hung too.
//!
//! Leases are kept alive by worker heartbeats (at an interval the broker
//! derives from its lease timeout and sends in its `Welcome`) and row
//! submissions; a lease silent past [`ServeOptions::lease_timeout`] is
//! revoked and its job requeued with exponential backoff, so a crashed,
//! partitioned, or hung worker only delays its in-flight row. The broker is
//! the sole journal writer and dedups every submitted row against the
//! journal-backed done map, which makes submission idempotent
//! (retransmissions, revoked-then-completed leases) and lets a restarted
//! service resume mid-campaign from the journal, `<name>.journal.jsonl`
//! (per-shard journals left by older versions are replayed alongside it).
//! Beside each journal append it streams the row to `<name>.rows.jsonl` /
//! `<name>.rows.csv`, replayed rows first on resume.
//!
//! # One dispatch path
//!
//! A campaign goes through the broker in three steps. **Install** replays
//! the journal, reopens it and queues the missing rows. **Drive** runs the
//! workers: `serve`'s supervised local processes (plus remote ones with
//! `--listen`), or — for `boomerang-sim run` ([`run_local`]), which starts a
//! private broker on an ephemeral loopback port — worker threads of its own
//! process sharing one store of decoded workload points. **Collect**
//! replays the journal, *without* regenerating any workloads, into the same
//! `<name>.json` / `<name>.csv` bytes however the rows were produced.
//!
//! Every broker decision (grant, refusal, heartbeat, expiry, dedup,
//! verification, quarantine) lives in one clock-free state machine,
//! `ActiveCampaign`: a connection handler handshakes, then makes one
//! `handle(session, worker, frame, now)` call per frame and one
//! `disconnect(session, now)` at the end; `serve` and `run` share one drive
//! loop that sweeps expired leases. A seeded schedule explorer in this
//! module's tests runs it against real worker sessions over in-memory,
//! adversarially damaged frames — no sockets, threads or sleeps — and
//! checks the lease rules after every step.
//!
//! Its job state is one work queue, one lease table and one done map (job →
//! producing session). Each job is in exactly one of them as a regular row:
//! done, leased or queued. A sampled re-verification is ordinary work that
//! carries the row it must reproduce, so it is granted, heartbeaten,
//! expired, revoked and backed off like any other lease; only its answer
//! differs, being compared instead of journaled. A re-run lease's id says
//! so (its low bit), so an answer that lands after the lease is gone is
//! still known for a re-run and dropped, never journaled. A landing row
//! removes its job's queued or leased regular work at once, and a
//! quarantine that requeues a row drops that row's pending re-run.
//!
//! # Lease order
//!
//! A worker generates (or loads from the artifact cache) each workload
//! point — a (workload, seed) pair — the first time a lease needs it and
//! keeps it for every later row on that point. Handing rows out in job
//! order would have every worker alternate through each point's rows, so
//! every worker would decode nearly every point. The broker therefore
//! remembers, per live session, the point of its last regular lease, and
//! ranks the ready rows for each lease request:
//!
//! 1. a row of the session's current point;
//! 2. otherwise the first row of a point no other live session is on;
//! 3. otherwise the first ready row — a steal, so no worker idles while
//!    work is ready.
//!
//! The key ignores the config axis, so a multi-config spec keeps a point's
//! rows on one worker across configs. A session's point is forgotten when
//! its connection ends. Rows are deterministic, so the order changes
//! where decode time is spent and nothing else: reports are assembled in
//! canonical job order whoever ran each row.
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
//! again — stale markers from an earlier attempt are cleared first. An
//! exclusive OS file lock on `.boomerang-serve.lock` keeps two serve
//! processes from double-processing one spool. The kernel drops the lock
//! when its holder exits, however it exits, so a dead owner never wedges
//! the spool; the file holds the holder's pid for the refusal message and
//! is never removed.
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
//! re-leases each to a *different* session, once no regular row is ready; a
//! re-run that disagrees with the journaled stats quarantines the producing
//! session and requeues every row it produced. Both kinds of quarantine are
//! counted in the per-campaign integrity summary printed at the end of each
//! dispatch, and [`ServeOptions::max_quarantined`] bounds how much of the
//! fleet may rot before the submission is failed with a distinct exit code.

use crate::checkpoint::{
    fnv1a64, row_checksum, spec_hash, stats_from_array, Journal, JournalReplay,
};
use crate::cli;
use crate::engine::{assemble_partial_report, assemble_report, CampaignReport};
use crate::expand::{expand, Job};
use crate::fault;
use crate::proto::{read_message, write_message, Message};
use crate::sink::{write_partial_reports, write_reports, StreamingSink};
use crate::spec::{mechanism_token, CampaignSpec};
use crate::supervise::{self, supervise_with_stop, SuperviseOptions};
use crate::worker::{run_worker_in, PointStore, WorkerOptions};
use boomerang::RunLength;
use frontend::SimStats;
use sim_core::rng::mix64;
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
    /// job is requeued with exponential backoff on re-lease. Below
    /// [`MIN_LEASE_TIMEOUT`] workers get fewer than four heartbeats per
    /// timeout, so the CLI rejects it.
    pub lease_timeout: Duration,
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

/// How long a worker waits before asking again when no row is ready.
const NO_WORK_RETRY_MS: u64 = 10;

/// Heartbeats a worker sends per lease timeout.
const BEATS_PER_LEASE: u64 = 4;

/// The shortest heartbeat interval a broker announces.
const MIN_HEARTBEAT_MS: u64 = 50;

/// The shortest lease timeout that still gets four heartbeats at the
/// broker's 50 ms heartbeat floor.
pub const MIN_LEASE_TIMEOUT: Duration = Duration::from_millis(BEATS_PER_LEASE * MIN_HEARTBEAT_MS);

/// Poll interval of the broker's accept loop.
const ACCEPT_POLL: Duration = Duration::from_millis(2);

/// Poll interval while waiting for a campaign, or its connections, to
/// drain.
const DRAIN_POLL: Duration = Duration::from_millis(5);

/// Why a broker dispatch failed — a plain failure, or the quarantine bound.
enum DispatchError {
    Failed(String),
    QuarantineExceeded(String),
}

/// Holds the spool lock for the lifetime of the serve loop: an exclusive
/// lock on the lock file's open handle, which the kernel drops when the
/// handle closes — on drop, or when the owner dies however it dies. The
/// file itself is never removed: unlinking it while it is locked would let
/// the next serve lock a fresh inode beside this one.
#[derive(Debug)]
struct SpoolLock {
    _file: std::fs::File,
}

impl SpoolLock {
    /// Acquires the lock and writes this process's pid into the file.
    /// Refuses, with an [`io::ErrorKind::WouldBlock`] error naming the
    /// holder's pid, while another handle holds it.
    fn acquire(spool: &Path) -> io::Result<SpoolLock> {
        use std::io::Write as _;
        let path = spool.join(SPOOL_LOCK_NAME);
        let mut file = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&path)?;
        match file.try_lock() {
            Ok(()) => {}
            Err(std::fs::TryLockError::WouldBlock) => {
                let owner = std::fs::read_to_string(&path).unwrap_or_default();
                return Err(io::Error::new(
                    io::ErrorKind::WouldBlock,
                    format!(
                        "spool {} is already served by process {} (lock file {})",
                        spool.display(),
                        owner.trim(),
                        path.display()
                    ),
                ));
            }
            Err(std::fs::TryLockError::Error(e)) => return Err(e),
        }
        file.set_len(0)?;
        write!(file, "{}", std::process::id())?;
        Ok(SpoolLock { _file: file })
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
    let _lock = SpoolLock::acquire(&options.spool)?;
    let broker = Broker::start(
        options.listen.as_deref().unwrap_or("127.0.0.1:0"),
        options.lease_timeout,
    )?;
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
    // A previous half-processed submission with the same spec resumes; a
    // different spec under the same stem is refused by the journal replay
    // (which names both spec hashes), not clobbered.
    let dir = options.out.join(stem);
    outcome.result = match dispatch(&spec, &dir, options, broker) {
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
// `RowDone` is deduped against the done map (seeded from the journal replay
// on resume) under one lock before it is appended, so a retransmitted
// frame, a revoked-then-completed lease, or a worker that crashed between
// send and ack can never double-append a row.
//
// Job state is one work queue, one lease table and one done map. A job is
// in exactly one of them as a regular row — done, leased or queued — and a
// sampled re-run of a done row is ordinary work carrying a `Check`.

/// What a sampled re-run of a done row must reproduce.
struct Check {
    /// Session whose journaled row is under test — never granted its own
    /// row to re-run.
    producer: u64,
    /// The stat array as journaled; the re-run must reproduce it exactly.
    expected: Vec<u64>,
}

/// One job waiting for a lease: a row to run, or with `check` a done row
/// to re-run and compare.
struct Work {
    job: usize,
    /// Times this work's lease was revoked before.
    attempts: u32,
    /// Exponential-backoff gate: not leasable before this instant.
    ready_at: Instant,
    check: Option<Check>,
}

/// The low bit of a re-run lease's id: a row names the kind of lease it
/// answers, even once the broker has let go of the lease.
const RERUN_LEASE: u64 = 1;

/// One outstanding lease.
struct Lease {
    work: Work,
    /// The session holding the lease; its disconnect revokes the lease.
    session: u64,
    /// Refreshed by heartbeats and row submission; a lease idle past the
    /// timeout is revoked and its work requeued.
    last_activity: Instant,
}

/// The campaign the broker is currently leasing out.
struct ActiveCampaign {
    spec_toml: String,
    spec_hash: String,
    smoke: bool,
    jobs: Vec<Job>,
    journal: Journal,
    /// The row streams, appended beside the journal.
    stream: StreamingSink,
    /// Journaled jobs → the session that produced the row (this broker
    /// life only; `None` for rows replayed from the journal).
    done: HashMap<usize, Option<u64>>,
    queue: VecDeque<Work>,
    leases: HashMap<u64, Lease>,
    /// Live session → the (workload, seed) point of its last regular
    /// lease: the workload that worker holds decoded. Drives the
    /// point-affine grant order; cleared when the connection ends.
    session_points: HashMap<u64, (usize, u64)>,
    /// Grant counter. A lease id is the count shifted left by one, its low
    /// bit set for a re-run ([`RERUN_LEASE`]).
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
    /// The first failed journal append, which ends the dispatch: a row the
    /// journal cannot hold is a row the campaign cannot claim.
    journal_error: Option<String>,
}

impl ActiveCampaign {
    /// Opens the campaign's journal in `dir` for appending (creating it
    /// under `hash` if absent), restarts the row streams with the
    /// `replayed` rows in canonical order, and queues every other job,
    /// leasable from `now`.
    fn open(
        spec: &CampaignSpec,
        dir: &Path,
        hash: &str,
        jobs: Vec<Job>,
        replayed: &HashMap<usize, SimStats>,
        options: &ServeOptions,
        now: Instant,
    ) -> Result<ActiveCampaign, String> {
        let journal = if Journal::path_for(dir, &spec.name, None).exists() {
            Journal::append(dir, &spec.name, None)
        } else {
            Journal::create(dir, &spec.name, hash, jobs.len(), None)
        }
        .map_err(|e| format!("cannot open the checkpoint journal: {e}"))?;
        let stream = StreamingSink::create(spec, dir)
            .map_err(|e| format!("cannot open the row streams: {e}"))?;
        // Canonical order puts every baseline before its group, so nothing
        // is left buffered.
        for (index, job) in jobs.iter().enumerate() {
            if let Some(stats) = replayed.get(&index) {
                stream
                    .record(job, stats)
                    .map_err(|e| format!("cannot stream a replayed row: {e}"))?;
            }
        }
        let queue = (0..jobs.len())
            .filter(|i| !replayed.contains_key(i))
            .map(|job| Work {
                job,
                attempts: 0,
                ready_at: now,
                check: None,
            })
            .collect();
        Ok(ActiveCampaign {
            spec_toml: spec.to_toml_string(),
            spec_hash: hash.to_string(),
            smoke: options.smoke,
            jobs,
            journal,
            stream,
            done: replayed.keys().map(|&job| (job, None)).collect(),
            queue,
            leases: HashMap::new(),
            session_points: HashMap::new(),
            next_lease: 1,
            rows_submitted: 0,
            last_activity: now,
            lease_timeout: options.lease_timeout,
            backoff_base: options.supervise.backoff_base,
            backoff_cap: options.supervise.backoff_cap,
            verify_fraction: options.verify_fraction,
            quarantined: HashSet::new(),
            max_quarantined: options.max_quarantined,
            checksum_rejects: 0,
            rows_verified: 0,
            verify_mismatches: 0,
            verify_abandoned: 0,
            journal_error: None,
        })
    }

    /// Every job journaled (verification may still be outstanding).
    fn rows_complete(&self) -> bool {
        self.done.len() == self.jobs.len()
    }

    /// Every job journaled *and* every sampled re-verification resolved:
    /// with no work queued or leased, every job is done.
    fn complete(&self) -> bool {
        self.queue.is_empty() && self.leases.is_empty()
    }

    /// Nothing is left to drive: every row journaled and verified, the
    /// quarantine bound breached, or a journal append failed.
    fn settled(&self) -> bool {
        self.complete() || self.quarantine_breached() || self.journal_error.is_some()
    }

    /// Whether quarantines have exceeded the configured bound.
    fn quarantine_breached(&self) -> bool {
        self.max_quarantined
            .is_some_and(|max| self.quarantined.len() > max)
    }

    /// Answers one frame that `session` (the worker named `worker`) sent at
    /// `now`: the broker's only entry point after the handshake.
    ///
    /// - `LeaseRequest`: a quarantined session is refused; otherwise
    ///   expired leases are swept and a ready row is granted, or `NoWork`.
    /// - `Heartbeat`: refreshes the lease it names; no reply.
    /// - `RowDone`: validated, deduped, journaled and acked (see
    ///   [`ActiveCampaign::row_done`]).
    ///
    /// Frames only a broker sends get no reply.
    fn handle(
        &mut self,
        session: u64,
        worker: &str,
        msg: Message,
        now: Instant,
    ) -> Option<Message> {
        match msg {
            Message::LeaseRequest => {
                if self.quarantined.contains(&session) {
                    return Some(Message::Reject {
                        reason: format!("session {session} is quarantined; no further leases"),
                    });
                }
                self.sweep_expired(now);
                Some(match self.grant(session, now) {
                    Some((lease, job)) => Message::Lease {
                        lease,
                        job: job as u64,
                        smoke: self.smoke,
                        spec_hash: self.spec_hash.clone(),
                        spec_toml: self.spec_toml.clone(),
                    },
                    None => Message::NoWork {
                        retry_ms: NO_WORK_RETRY_MS,
                    },
                })
            }
            Message::Heartbeat { lease } => {
                if let Some(held) = self.leases.get_mut(&lease) {
                    held.last_activity = now;
                    self.last_activity = now;
                }
                None
            }
            row @ Message::RowDone { .. } => Some(self.row_done(session, worker, row, now)),
            _ => None,
        }
    }

    /// Ends `session` at `now`: every lease it holds is revoked, and its
    /// point is freed for the sessions still live.
    fn disconnect(&mut self, session: u64, now: Instant) {
        let why = format!("lost its connection (session {session})");
        for lease in self.lease_ids(|holder, _| holder == session) {
            self.revoke(lease, &why, now);
        }
        self.session_points.remove(&session);
    }

    /// The ids of every lease whose (session, last activity) satisfies
    /// `pick`, in grant order.
    fn lease_ids(&self, pick: impl Fn(u64, Instant) -> bool) -> Vec<u64> {
        let mut ids: Vec<u64> = self
            .leases
            .iter()
            .filter_map(|(&id, l)| pick(l.session, l.last_activity).then_some(id))
            .collect();
        ids.sort_unstable();
        ids
    }

    /// Revokes every lease idle past the timeout at `now`, requeueing its
    /// work with exponential backoff — and, once all rows are done and
    /// nothing is leased, abandons the queued re-runs nobody has picked up
    /// (a one-session fleet can never re-verify its own rows; without this
    /// escape the campaign would idle forever).
    fn sweep_expired(&mut self, now: Instant) {
        let timeout = self.lease_timeout;
        let idle = move |last: Instant| now.duration_since(last) >= timeout;
        for lease in self.lease_ids(|_, last| idle(last)) {
            self.revoke(lease, "expired (no heartbeat or row progress)", now);
        }
        if self.rows_complete()
            && !self.queue.is_empty()
            && self.leases.is_empty()
            && idle(self.last_activity)
        {
            self.verify_abandoned += self.queue.len() as u64;
            eprintln!(
                "serve: abandoning {} queued verification sample(s): no eligible session \
                 picked them up within the lease timeout",
                self.queue.len()
            );
            self.queue.clear();
        }
    }

    /// Returns one lease's work to the queue at `now` (expiry, connection
    /// loss, or a corrupt answer), leasable again after an exponential
    /// backoff that doubles with every revocation of that work.
    fn revoke(&mut self, lease: u64, why: &str, now: Instant) {
        let Some(Lease { work, .. }) = self.leases.remove(&lease) else {
            return;
        };
        let attempts = work.attempts + 1;
        let backoff = self
            .backoff_base
            .saturating_mul(1u32 << (attempts - 1).min(20))
            .min(self.backoff_cap);
        eprintln!(
            "serve: lease {lease} for job {} {why}; requeued with {backoff:?} backoff \
             (attempt {attempts})",
            work.job
        );
        self.queue.push_back(Work {
            attempts,
            ready_at: now + backoff,
            ..work
        });
    }

    /// The workload point — (workload axis index, seed) — job `job` runs
    /// on: the key a worker generates or loads its `WorkloadData` under.
    fn point_of(&self, job: usize) -> (usize, u64) {
        (self.jobs[job].workload, self.jobs[job].seed)
    }

    /// Leases a job ready at `now` to `session`, point-affine (see the
    /// module docs' *Lease order*). One scan over the queue ranks every
    /// ready row:
    ///
    /// 1. a row of the session's current point — the point of its last
    ///    regular lease, whose workload the worker already holds;
    /// 2. otherwise the first row of a point no other live session is on,
    ///    so each point is decoded by one worker;
    /// 3. otherwise the first ready row: a steal, so no session idles while
    ///    work is ready.
    ///
    /// Work still inside its revocation backoff is skipped at every rank.
    /// A re-run of a done row ranks below every regular row, so it is
    /// handed out only when no regular row is ready, first in queue order —
    /// and never to the session that produced the row under test.
    fn grant(&mut self, session: u64, now: Instant) -> Option<(u64, usize)> {
        let mine = self.session_points.get(&session).copied();
        let others: Vec<(usize, u64)> = self
            .session_points
            .iter()
            .filter(|(&other, _)| other != session)
            .map(|(_, &point)| point)
            .collect();
        let mut best: Option<(u8, usize)> = None;
        for (pos, work) in self.queue.iter().enumerate() {
            if work.ready_at > now {
                continue;
            }
            let point = self.point_of(work.job);
            let rank = match &work.check {
                Some(check) if check.producer == session => continue,
                Some(_) => 3,
                None if Some(point) == mine => 0,
                None if !others.contains(&point) => 1,
                None => 2,
            };
            if best.is_none_or(|(best_rank, _)| rank < best_rank) {
                best = Some((rank, pos));
                if rank == 0 {
                    break;
                }
            }
        }
        let work = self.queue.remove(best?.1)?;
        let job = work.job;
        if work.check.is_none() {
            self.session_points.insert(session, self.point_of(job));
        }
        let rerun = if work.check.is_some() { RERUN_LEASE } else { 0 };
        let lease = self.next_lease << 1 | rerun;
        self.next_lease += 1;
        self.leases.insert(
            lease,
            Lease {
                work,
                session,
                last_activity: now,
            },
        );
        self.last_activity = now;
        Some((lease, job))
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
        let z = mix64(fnv1a64(
            format!("{}|verify|{index}", self.spec_hash).as_bytes(),
        ));
        (z as f64 / u64::MAX as f64) < self.verify_fraction
    }

    /// Bars `session` from further leases and requeues, ready at `now`,
    /// every row it produced: once one row from a session is proven wrong,
    /// nothing else it journaled can be trusted. A requeued row's pending
    /// re-run is dropped with it — the fresh row is sampled when it lands.
    fn quarantine(&mut self, session: u64, worker: &str, why: &str, now: Instant) {
        if !self.quarantined.insert(session) {
            return;
        }
        eprintln!("serve: quarantining session {session} ({worker}): {why}");
        let mut suspect: Vec<usize> = self
            .done
            .iter()
            .filter(|(_, &producer)| producer == Some(session))
            .map(|(&job, _)| job)
            .collect();
        suspect.sort_unstable();
        // A done job's only queued or leased work is its re-run.
        self.queue.retain(|work| !suspect.contains(&work.job));
        self.leases.retain(|_, l| !suspect.contains(&l.work.job));
        for job in suspect {
            self.done.remove(&job);
            eprintln!("serve: requeueing job {job} (produced by quarantined session {session})");
            self.queue.push_back(Work {
                job,
                attempts: 0,
                ready_at: now,
                check: None,
            });
        }
    }

    /// Validates, dedups, journals, streams, and acks one `RowDone` frame
    /// submitted at `now`. The journal append is the broker's row fault
    /// point, so an armed plan can crash the broker mid-campaign — the
    /// resume path then proves itself; a failed append ends the dispatch.
    ///
    /// A row answering a re-run lease (work with a [`Check`]) is never
    /// journaled: while the lease is live its stats are compared against
    /// the journaled row, and a disagreement quarantines the producing
    /// session; once the lease is gone (revoked, answered, or dropped by a
    /// quarantine) the row is acked and dropped. A row whose
    /// `row_fnv` disagrees with its own payload quarantines the
    /// *submitting* session — the payload was damaged somewhere between its
    /// simulator and this socket — and returns its lease to the queue. A
    /// quarantined session's rows are refused; its leases run out.
    fn row_done(&mut self, session: u64, worker: &str, row: Message, now: Instant) -> Message {
        let Message::RowDone {
            lease,
            job,
            spec_hash: hash,
            mechanism,
            seed,
            row_fnv,
            stats,
        } = row
        else {
            unreachable!("handle routes only RowDone frames here");
        };
        let reject = |reason: String| Message::Reject { reason };
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
        let computed = row_checksum(index, &mechanism, seed, &stats);
        if computed != row_fnv {
            self.checksum_rejects += 1;
            self.quarantine(
                session,
                worker,
                &format!(
                    "job {job} row_fnv {row_fnv:016x} does not match its payload \
                     (recomputed {computed:016x})"
                ),
                now,
            );
            self.revoke(lease, "was answered with a corrupt row", now);
            return reject(format!(
                "job {job} failed its row_fnv check; session quarantined"
            ));
        }
        if self.quarantined.contains(&session) {
            return reject(format!("session {session} is quarantined"));
        }
        self.last_activity = now;
        if lease & RERUN_LEASE != 0 {
            let check = match self.leases.get(&lease) {
                Some(held) if held.work.job == index => self.leases.remove(&lease),
                _ => None,
            };
            let Some(check) = check.and_then(|held| held.work.check) else {
                return Message::RowAck { job };
            };
            if stats == check.expected {
                self.rows_verified += 1;
                return Message::RowAck { job };
            }
            self.verify_mismatches += 1;
            self.quarantine(
                check.producer,
                "producer",
                &format!(
                    "job {job} re-run by session {session} contradicts the journaled row \
                     (sampled re-verification)"
                ),
                now,
            );
            // quarantine() requeued the suspect rows (including this one);
            // the verifier's work was sound, so ack it.
            return Message::RowAck { job };
        }
        if self.done.contains_key(&index) {
            // Idempotent dedup: ack a retransmission without appending.
            return Message::RowAck { job };
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
        let Some(sim_stats) = stats_from_array(&stats) else {
            return reject(format!("job {job} carries a malformed stat array"));
        };
        if let Err(e) = self.journal.record(expected, &sim_stats) {
            eprintln!("serve: journal append for job {job} from {worker} failed: {e}");
            self.journal_error
                .get_or_insert_with(|| format!("checkpoint write failed: {e}"));
            return reject(format!("journal append failed: {e}"));
        }
        if let Err(e) = self.stream.record(expected, &sim_stats) {
            eprintln!("warning: row stream write failed: {e}");
        }
        // The row lands: whatever regular work the job still had queued or
        // leased (a revoked lease's requeue, or its re-lease) is resolved.
        // An expired or unknown lease is fine — the work is real.
        self.done.insert(index, Some(session));
        self.queue.retain(|work| work.job != index);
        self.leases.retain(|_, l| l.work.job != index);
        self.rows_submitted += 1;
        if self.sampled_for_verification(index) {
            self.queue.push_back(Work {
                job: index,
                attempts: 0,
                ready_at: now,
                check: Some(Check {
                    producer: session,
                    expected: stats,
                }),
            });
        }
        Message::RowAck { job }
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
    /// The heartbeat interval every worker is told in its `Welcome`.
    heartbeat_ms: u64,
}

impl BrokerShared {
    fn new(lease_timeout: Duration) -> BrokerShared {
        BrokerShared {
            campaign: Mutex::new(None),
            finishing: AtomicBool::new(false),
            connections: AtomicUsize::new(0),
            next_session: AtomicU64::new(0),
            activity: Mutex::new(HashMap::new()),
            heartbeat_ms: (lease_timeout.as_millis() as u64 / BEATS_PER_LEASE)
                .clamp(MIN_HEARTBEAT_MS, 5_000),
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
    /// Listens on `listen`; workers heartbeat [`BEATS_PER_LEASE`] times
    /// per `lease_timeout` (between [`MIN_HEARTBEAT_MS`] and 5 s).
    fn start(listen: &str, lease_timeout: Duration) -> io::Result<Broker> {
        let listener = TcpListener::bind(listen)?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let shared = Arc::new(BrokerShared::new(lease_timeout));
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
                        Err(_) => std::thread::sleep(ACCEPT_POLL),
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

    /// The one drive loop of an installed campaign, shared by `serve`'s
    /// supervisor and remote drain and by `run`'s worker threads. Each tick
    /// reads the clock once and sweeps expired leases; the loop ends `Ok`
    /// once the campaign is settled (or none is installed), or `Err` with
    /// whatever `halt` returns first, given how long the campaign has seen
    /// no grant, heartbeat or row. Ticks are [`DRAIN_POLL`] apart.
    fn drive<T>(&self, mut halt: impl FnMut(Duration) -> Option<T>) -> Result<(), T> {
        loop {
            let idle_for = {
                let mut guard = self.shared.campaign.lock().expect("campaign mutex");
                let Some(campaign) = guard.as_mut() else {
                    return Ok(());
                };
                let now = Instant::now();
                campaign.sweep_expired(now);
                if campaign.settled() {
                    return Ok(());
                }
                now.duration_since(campaign.last_activity)
            };
            if let Some(reason) = halt(idle_for) {
                return Err(reason);
            }
            std::thread::sleep(DRAIN_POLL);
        }
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
            std::thread::sleep(DRAIN_POLL);
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
/// After the handshake every frame is one [`ActiveCampaign::handle`] call,
/// and the end of the connection one [`ActiveCampaign::disconnect`].
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
        heartbeat_ms: shared.heartbeat_ms,
    };
    if write_message(&mut stream, &welcome).is_err() {
        return;
    }

    loop {
        let msg = match next_message(&mut stream) {
            HandlerRead::Idle => continue,
            HandlerRead::Dead => break,
            HandlerRead::Msg(msg) => msg,
        };
        match msg {
            Message::LeaseRequest | Message::RowDone { .. } => shared.note_activity(peer, pid),
            Message::Heartbeat { .. } => {}
            // Only a broker sends anything else: a confused or hostile peer.
            _ => break,
        }
        let lease_request = matches!(msg, Message::LeaseRequest);
        if lease_request && shared.finishing.load(Ordering::SeqCst) {
            let reason = "service shutting down".to_string();
            let _ = write_message(&mut stream, &Message::Shutdown { reason });
            break;
        }
        let reply = match shared.campaign.lock().expect("campaign mutex").as_mut() {
            Some(campaign) => campaign.handle(session, &worker_name, msg, Instant::now()),
            None if lease_request => Some(Message::NoWork {
                retry_ms: NO_WORK_RETRY_MS,
            }),
            None => matches!(msg, Message::RowDone { .. }).then(|| Message::Reject {
                reason: "no campaign is active".to_string(),
            }),
        };
        if reply.is_some_and(|reply| write_message(&mut stream, &reply).is_err()) {
            break;
        }
    }

    if let Some(campaign) = shared.campaign.lock().expect("campaign mutex").as_mut() {
        campaign.disconnect(session, Instant::now());
    }
}

/// A campaign installed in the broker.
struct Installed {
    /// The canonical job expansion.
    jobs: Vec<Job>,
    /// The effective run length (the spec's, or smoke length).
    run: RunLength,
    /// The spec hash its journal is written under.
    hash: String,
    /// Rows the journal already held, replayed instead of queued.
    replayed: usize,
}

/// Install: replays the campaign's journal in `dir` (rows already journaled
/// by an earlier life, whatever its journal layout, are never re-leased),
/// opens the journal for appending, restarts the row streams with the
/// replayed rows in canonical order, and installs the missing rows as the
/// broker's queue.
fn install(
    broker: &Broker,
    spec: &CampaignSpec,
    dir: &Path,
    options: &ServeOptions,
) -> Result<Installed, String> {
    let run = if options.smoke {
        RunLength::smoke_test()
    } else {
        spec.run
    };
    let hash = spec_hash(spec, run, options.smoke);
    let jobs = expand(spec);
    let replay = JournalReplay::load(dir, &spec.name, &hash, &jobs).map_err(|e| e.to_string())?;
    let campaign = ActiveCampaign::open(
        spec,
        dir,
        &hash,
        jobs.clone(),
        &replay.rows,
        options,
        Instant::now(),
    )?;
    broker
        .shared
        .activity
        .lock()
        .expect("activity mutex")
        .clear();
    *broker.shared.campaign.lock().expect("campaign mutex") = Some(campaign);
    Ok(Installed {
        jobs,
        run,
        hash,
        replayed: replay.rows.len(),
    })
}

/// Takes the installed campaign out of the broker; dropping it closes its
/// journal and row streams.
fn uninstall(broker: &Broker) -> Option<ActiveCampaign> {
    broker
        .shared
        .campaign
        .lock()
        .expect("campaign mutex")
        .take()
}

/// How a collected campaign ended.
enum Collected {
    /// Every row was journaled; the canonical report is written.
    Done(Box<CampaignReport>),
    /// Rows were missing and `allow_partial` wrote a degraded report with
    /// this many holes.
    Partial(usize),
}

/// Collect: replays the journal and writes the canonical report or, when
/// rows are missing and partial output is allowed, a degraded report over
/// the journaled rows. `failures` explains missing rows.
fn collect(
    spec: &CampaignSpec,
    dir: &Path,
    installed: &Installed,
    mut failures: Vec<String>,
    options: &ServeOptions,
) -> Result<Collected, String> {
    let jobs = &installed.jobs;
    let replay =
        JournalReplay::load(dir, &spec.name, &installed.hash, jobs).map_err(|e| e.to_string())?;
    if replay.completed() == jobs.len() {
        let stats: Vec<SimStats> = (0..jobs.len()).map(|i| replay.rows[&i]).collect();
        let report = assemble_report(spec, jobs, installed.run, options.smoke, stats);
        write_reports(&report, dir).map_err(|e| format!("cannot write reports: {e}"))?;
        return Ok(Collected::Done(Box::new(report)));
    }
    if failures.is_empty() {
        failures.push(format!(
            "workers stopped with only {} of {} jobs checkpointed",
            replay.completed(),
            jobs.len()
        ));
    }
    if !options.allow_partial {
        return Err(failures.join("; "));
    }
    let stats: Vec<Option<SimStats>> = (0..jobs.len())
        .map(|i| replay.rows.get(&i).copied())
        .collect();
    let partial =
        assemble_partial_report(spec, jobs, installed.run, options.smoke, &stats, failures);
    write_partial_reports(&partial, dir)
        .map_err(|e| format!("cannot write partial reports: {e}"))?;
    Ok(Collected::Partial(partial.missing()))
}

/// Dispatches one submission through the work queue: installs the campaign,
/// drives it with the local worker fleet connected over loopback (waiting
/// for remote workers when the queue is exposed), and collects the journal
/// into the canonical report — or, when the fleet gave up and partial
/// output is allowed, into a degraded report over the checkpointed rows.
fn dispatch(
    spec: &CampaignSpec,
    dir: &Path,
    options: &ServeOptions,
    broker: &Broker,
) -> Result<SubmissionStatus, DispatchError> {
    let fail = |reason: String| DispatchError::Failed(reason);
    let installed = install(broker, spec, dir, options).map_err(fail)?;
    if installed.replayed > 0 {
        eprintln!(
            "serve: resuming {}: {} of {} rows already checkpointed",
            spec.name,
            installed.replayed,
            installed.jobs.len()
        );
    }

    // Local dispatch: the same worker client, connected over loopback, so
    // mixed local+remote fleets drain one queue through one code path. The
    // supervisor's stop closure is one tick of the drive loop.
    let mut fleet_failures: Vec<String> = Vec::new();
    if options.workers > 0 {
        let addr = broker.addr.to_string();
        let mut make_command = |index: usize| {
            let mut cmd = Command::new(&options.binary);
            cmd.arg("worker")
                .arg(cli::CONNECT.name)
                .arg(&addr)
                .arg(cli::WORKER_INDEX.name)
                .arg(index.to_string())
                .arg(cli::QUIET.name)
                .stdin(Stdio::null())
                .stdout(Stdio::null())
                .stderr(Stdio::inherit());
            if let Some(cache) = &options.artifact_cache {
                cmd.arg(cli::ARTIFACT_CACHE.name).arg(cache);
            }
            cmd
        };
        let mut progress = |pid: u32| broker.shared.activity_of(pid);
        let mut stop = || broker.drive(|_| Some(())).is_ok();
        let supervised = supervise_with_stop(
            options.workers,
            &mut make_command,
            &mut progress,
            &options.supervise,
            &mut |line| eprintln!("serve: {line}"),
            &mut stop,
        );
        if !supervised.all_complete() {
            fleet_failures = supervised.failures();
        }
    }

    // With the queue exposed, wait for remote workers to drain what's left.
    // Give up after a long silence — several lease timeouts with no grant,
    // heartbeat, or row. On the private loopback port nobody else can
    // connect, so whatever the local fleet left undone stays undone.
    if options.listen.is_some() && !supervise::interrupted() {
        let give_up = options
            .lease_timeout
            .saturating_mul(3)
            .max(Duration::from_secs(2));
        let halted = broker.drive(|idle_for| {
            (supervise::interrupted() || idle_for >= give_up).then_some(idle_for)
        });
        if let Err(idle_for) = halted {
            fleet_failures.push(format!(
                "work queue idle for {idle_for:?} with jobs outstanding; giving up"
            ));
        }
    }
    if supervise::interrupted() {
        uninstall(broker);
        return Err(fail(
            "interrupted before the submission finished".to_string(),
        ));
    }

    // The integrity ledger of this dispatch, one stable line (CI's chaos
    // gate greps for it).
    let campaign = uninstall(broker).expect("campaign installed");
    eprintln!(
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
    );
    if campaign.quarantine_breached() {
        let bound = options.max_quarantined.unwrap_or(0);
        return Err(DispatchError::QuarantineExceeded(format!(
            "{} worker sessions quarantined for corrupt results, exceeding \
             {} {bound}; refusing to grind on with a rotten fleet",
            campaign.quarantined.len(),
            cli::MAX_QUARANTINED.name
        )));
    }
    fleet_failures.extend(campaign.journal_error);
    match collect(spec, dir, &installed, fleet_failures, options).map_err(fail)? {
        Collected::Done(_) => Ok(SubmissionStatus::Done(dir.to_path_buf())),
        Collected::Partial(missing) => Ok(SubmissionStatus::Partial {
            dir: dir.to_path_buf(),
            missing,
        }),
    }
}

/// Runs one campaign into `dir` — the `boomerang-sim run` path — as a
/// client of the same broker `serve` runs: the campaign is installed in a
/// private broker on an ephemeral loopback port and driven by `jobs` worker
/// threads of this process (0 = one per core), each a [`crate::run_worker`]
/// client sharing one store of decoded workload points. Rows already in
/// `dir`'s journal are replayed, not re-run. Unless `quiet`, prints the
/// resume line and the `workload artifacts` line summed over the threads.
///
/// # Errors
///
/// Returns a message if the journal cannot be replayed or written, if the
/// worker threads stop with rows missing, or if the reports cannot be
/// written.
pub fn run_local(
    spec: &CampaignSpec,
    dir: &Path,
    smoke: bool,
    jobs: usize,
    artifact_cache: Option<PathBuf>,
    quiet: bool,
) -> Result<CampaignReport, String> {
    let options = ServeOptions {
        smoke,
        artifact_cache,
        ..ServeOptions::default()
    };
    let broker = Broker::start("127.0.0.1:0", options.lease_timeout)
        .map_err(|e| format!("cannot start the local work queue: {e}"))?;
    let installed = install(&broker, spec, dir, &options)?;
    let total = installed.jobs.len();
    if !quiet && installed.replayed > 0 {
        eprintln!(
            "resuming: {} of {total} rows replayed from the checkpoint journal",
            installed.replayed
        );
    }
    let threads = if installed.replayed == total {
        0
    } else if jobs == 0 {
        sim_core::pool::default_workers()
    } else {
        jobs
    };
    let points = PointStore::default();
    let mut failures = Vec::new();
    let (mut cache_hits, mut generated) = (0, 0);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|index| {
                let worker = WorkerOptions {
                    connect: broker.addr.to_string(),
                    worker_index: index,
                    artifact_cache: options.artifact_cache.clone(),
                    quiet: true,
                    ..WorkerOptions::default()
                };
                let points = &points;
                scope.spawn(move || run_worker_in(&worker, points, true))
            })
            .collect();
        // Drive until every row is journaled or every thread has stopped;
        // then each lease request answers `Shutdown`.
        let _ = broker.drive(|_| handles.iter().all(|h| h.is_finished()).then_some(()));
        broker.shared.finishing.store(true, Ordering::SeqCst);
        for (index, handle) in handles.into_iter().enumerate() {
            match handle.join() {
                Ok(Ok(summary)) => {
                    cache_hits += summary.cache_hits;
                    generated += summary.generated;
                }
                Ok(Err(e)) => failures.push(format!("worker thread {index}: {e}")),
                Err(_) => failures.push(format!("worker thread {index} panicked")),
            }
        }
    });
    if !quiet {
        if threads == 0 {
            eprintln!("workload artifacts: nothing to generate (all rows checkpointed)");
        } else {
            eprintln!(
                "workload artifacts: {cache_hits} cache hits, {generated} generated{}",
                options
                    .artifact_cache
                    .as_deref()
                    .map(|d| format!(" ({})", d.display()))
                    .unwrap_or_default(),
            );
        }
    }
    failures.extend(uninstall(&broker).and_then(|c| c.journal_error));
    broker.finish();
    match collect(spec, dir, &installed, failures, &options)? {
        Collected::Done(report) => Ok(*report),
        Collected::Partial(_) => unreachable!("run never allows a partial report"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use testkit::{temp_dir, SplitMix};

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
        let path = dir.join(SPOOL_LOCK_NAME);
        // Held through one handle: a second acquire must refuse, naming the
        // holder's pid.
        let lock = SpoolLock::acquire(&dir).unwrap();
        let err = SpoolLock::acquire(&dir).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::WouldBlock);
        let pid = std::process::id().to_string();
        assert!(err.to_string().contains("already served"), "{err}");
        assert!(err.to_string().contains(&pid), "{err}");
        drop(lock);
        assert!(path.exists(), "the lock file must never be removed");

        // A left-over lock file with no holder — what a dead owner leaves —
        // is acquired, and its pid replaced.
        std::fs::write(&path, "4294967295").unwrap();
        let lock = SpoolLock::acquire(&dir).unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), pid);
        drop(lock);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    // ---- broker unit tests: the state machine under an injected clock ----

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
        broker_campaign(INTEGRITY_SPEC, &format!("integrity-{tag}"), verify_fraction)
    }

    /// A broker-side campaign over `spec_text` with a real journal in a
    /// temp dir, opened now; `verify_fraction` as given, everything else
    /// defaulted.
    fn broker_campaign(
        spec_text: &str,
        tag: &str,
        verify_fraction: f64,
    ) -> (ActiveCampaign, PathBuf) {
        let dir = temp_dir(tag);
        let spec = CampaignSpec::from_toml_str(spec_text).unwrap();
        let hash = spec_hash(&spec, spec.run, false);
        let options = ServeOptions {
            verify_fraction,
            supervise: SuperviseOptions {
                backoff_base: Duration::from_millis(1),
                backoff_cap: Duration::from_millis(10),
                ..SuperviseOptions::default()
            },
            ..ServeOptions::default()
        };
        let campaign = ActiveCampaign::open(
            &spec,
            &dir,
            &hash,
            expand(&spec),
            &HashMap::new(),
            &options,
            Instant::now(),
        )
        .unwrap();
        (campaign, dir)
    }

    /// A `RowDone` for job `index` under `lease` carrying `stats`, with a
    /// `row_fnv` taken over `checksummed` (the same values for an intact
    /// row).
    fn row_frame(
        campaign: &ActiveCampaign,
        lease: u64,
        index: usize,
        stats: &[u64],
        checksummed: &[u64],
    ) -> Message {
        let job = &campaign.jobs[index];
        let mechanism = mechanism_token(job.mechanism).to_string();
        Message::RowDone {
            lease,
            job: index as u64,
            spec_hash: campaign.spec_hash.clone(),
            row_fnv: row_checksum(index, &mechanism, job.seed, checksummed),
            mechanism,
            seed: job.seed,
            stats: stats.to_vec(),
        }
    }

    /// Submits job `index` under `lease` for `session` at `now` with the
    /// given stats (checksummed correctly); returns the broker's answer.
    fn complete(
        campaign: &mut ActiveCampaign,
        session: u64,
        lease: u64,
        index: usize,
        stats: &[u64],
        now: Instant,
    ) -> Message {
        let row = row_frame(campaign, lease, index, stats, stats);
        campaign
            .handle(session, "test-worker", row, now)
            .expect("every row is answered")
    }

    /// Takes one lease for `session` at `now` and submits the granted job
    /// with the given stats (checksummed correctly); returns the job index
    /// and the broker's answer.
    fn submit(
        campaign: &mut ActiveCampaign,
        session: u64,
        stats: &[u64],
        now: Instant,
    ) -> (usize, Message) {
        let (lease, index) = campaign
            .grant(session, now)
            .expect("a lease to submit under");
        (index, complete(campaign, session, lease, index, stats, now))
    }

    #[test]
    fn corrupt_row_quarantines_the_submitter_and_requeues_the_job() {
        let (mut campaign, dir) = integrity_campaign("corrupt", 0.0);
        let now = Instant::now();
        let stats = stats_to_array(&SimStats::default());
        let (lease, index) = campaign.grant(1, now).unwrap();
        // Checksum over the true stats, then damage the payload — exactly
        // what the explorer's corrupting wire sends the broker.
        let mut damaged = stats;
        damaged[0] ^= 1;
        let row = row_frame(&campaign, lease, index, &damaged, &stats);
        let answer = campaign.handle(1, "w0", row, now).unwrap();
        let Message::Reject { reason } = answer else {
            panic!("a corrupt row must be rejected, got {answer:?}");
        };
        assert!(reason.contains("row_fnv"), "{reason}");
        assert_eq!(campaign.checksum_rejects, 1);
        assert!(campaign.quarantined.contains(&1));
        assert!(
            !campaign.done.contains_key(&index),
            "the bad row must not count"
        );
        assert!(
            campaign.queue.iter().any(|q| q.job == index),
            "the job must be requeued for an honest session"
        );
        // The quarantined session is refused further leases; a *new*
        // session drains the queue — including the requeued job, once its
        // backoff has passed — fine.
        let refused = campaign.handle(1, "w0", Message::LeaseRequest, now);
        assert!(
            matches!(refused, Some(Message::Reject { .. })),
            "{refused:?}"
        );
        let later = now + Duration::from_secs(1);
        while !campaign.rows_complete() {
            let (_, answer) = submit(&mut campaign, 2, &stats, later);
            assert!(matches!(answer, Message::RowAck { .. }), "{answer:?}");
        }
        assert!(campaign.done.contains_key(&index));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn verification_mismatch_quarantines_the_producer_and_requeues_its_rows() {
        let (mut campaign, dir) = integrity_campaign("verify-bad", 1.0);
        let now = Instant::now();
        let total = campaign.jobs.len();
        // Session 1 produces every row — with fraction 1.0 each lands in the
        // verification queue.
        let stats = stats_to_array(&SimStats::default());
        for _ in 0..total {
            let (_, answer) = submit(&mut campaign, 1, &stats, now);
            assert!(matches!(answer, Message::RowAck { .. }), "{answer:?}");
        }
        assert!(campaign.rows_complete());
        assert_eq!(queued_checks(&campaign).len(), total);
        // The producer is never handed its own rows to re-verify.
        assert!(
            campaign.grant(1, now).is_none(),
            "producer must not self-verify"
        );
        // Session 2 re-runs the first sample and contradicts it.
        let (lease, index) = campaign.grant(2, now).expect("a verification lease");
        let mut contradicting = stats;
        contradicting[1] = contradicting[1].wrapping_add(7);
        let answer = complete(&mut campaign, 2, lease, index, &contradicting, now);
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
        // Requeued as rows to run; the moot re-runs of them are gone.
        assert_eq!(campaign.queue.len(), total);
        assert!(queued_checks(&campaign).is_empty());
        assert!(!campaign.quarantine_breached());
        campaign.max_quarantined = Some(0);
        assert!(campaign.quarantine_breached());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A lying verifier's row that lands twice (a duplicated frame) is
    /// compared once, under its live re-run lease. The second copy finds
    /// that lease gone and is acked unjournaled, not taken for the row of
    /// the job the quarantine requeued.
    #[test]
    fn a_lying_verifiers_row_landing_twice_is_never_journaled() {
        let (mut campaign, dir) = integrity_campaign("verify-lie-twice", 1.0);
        let now = Instant::now();
        let total = campaign.jobs.len();
        let stats = stats_to_array(&SimStats::default());
        for _ in 0..total {
            submit(&mut campaign, 1, &stats, now);
        }
        let (lease, index) = campaign.grant(2, now).expect("a verification lease");
        let mut lie = stats;
        lie[1] = lie[1].wrapping_add(7);
        for _ in 0..2 {
            let answer = complete(&mut campaign, 2, lease, index, &lie, now);
            assert!(matches!(answer, Message::RowAck { .. }), "{answer:?}");
        }
        assert_eq!(campaign.verify_mismatches, 1);
        assert!(
            !campaign.done.contains_key(&index),
            "the lie landed as a row"
        );
        // An honest session runs every requeued row: one line per job
        // after the producer's, each holding the true stats.
        while !campaign.rows_complete() {
            let (_, answer) = submit(&mut campaign, 3, &stats, now);
            assert!(matches!(answer, Message::RowAck { .. }), "{answer:?}");
        }
        let path = Journal::path_for(&dir, "integrity", None);
        let text = std::fs::read_to_string(path).unwrap();
        let mut rerun: Vec<usize> = (text.lines().skip(1 + total))
            .map(|line| line["{\"job\":".len()..].split(',').next().unwrap())
            .map(|job| job.parse().unwrap())
            .collect();
        rerun.sort_unstable();
        assert_eq!(rerun, (0..total).collect::<Vec<_>>());
        let replay =
            JournalReplay::load(&dir, "integrity", &campaign.spec_hash, &campaign.jobs).unwrap();
        assert_eq!(replay.completed(), total);
        assert!(replay.rows.values().all(|row| *row == SimStats::default()));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn matching_reverification_counts_and_completes() {
        let (mut campaign, dir) = integrity_campaign("verify-ok", 1.0);
        let now = Instant::now();
        let total = campaign.jobs.len();
        let stats = stats_to_array(&SimStats::default());
        for _ in 0..total {
            submit(&mut campaign, 1, &stats, now);
        }
        assert!(!campaign.complete(), "verification is still outstanding");
        // Session 2 re-runs every sample with matching stats.
        while let Some((lease, index)) = campaign.grant(2, now) {
            let answer = complete(&mut campaign, 2, lease, index, &stats, now);
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
        let now = Instant::now();
        let total = campaign.jobs.len();
        let stats = stats_to_array(&SimStats::default());
        for _ in 0..total {
            submit(&mut campaign, 1, &stats, now);
        }
        // Only the producing session exists: nobody can take the samples.
        assert!(campaign.grant(1, now).is_none());
        campaign.sweep_expired(now + Duration::from_millis(10));
        assert_eq!(campaign.verify_abandoned, 0, "abandoned inside the timeout");
        assert!(!campaign.complete());
        campaign.sweep_expired(now + Duration::from_millis(30));
        assert_eq!(campaign.verify_abandoned as usize, total);
        assert!(
            campaign.complete(),
            "an unverifiable sample must not deadlock the campaign"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn heartbeats_keep_regular_and_verification_leases_alive() {
        let (mut campaign, dir) = integrity_campaign("heartbeat", 1.0);
        campaign.lease_timeout = Duration::from_secs(1);
        let t0 = Instant::now();
        let stats = stats_to_array(&SimStats::default());
        let total = campaign.jobs.len();
        for _ in 1..total {
            submit(&mut campaign, 1, &stats, t0);
        }
        // Session 2 holds the last regular row, sessions 3 and 4 one
        // verification sample each; 2 and 3 heartbeat, 4 stays silent.
        let (regular, _) = campaign.grant(2, t0).unwrap();
        let (beating, _) = campaign.grant(3, t0).unwrap();
        let (silent, _) = campaign.grant(4, t0).unwrap();
        assert!(campaign.leases[&regular].work.check.is_none());
        assert!(campaign.leases[&beating].work.check.is_some());
        assert!(campaign.leases[&silent].work.check.is_some());
        for tick in 1..=5 {
            let now = t0 + Duration::from_millis(600 * tick);
            for (session, lease) in [(2, regular), (3, beating)] {
                let reply = campaign.handle(session, "w", Message::Heartbeat { lease }, now);
                assert_eq!(reply, None, "heartbeats are fire-and-forget");
            }
            campaign.sweep_expired(now);
        }
        assert!(
            campaign.leases.contains_key(&regular),
            "a heartbeating regular lease expired"
        );
        assert!(
            campaign.leases.contains_key(&beating),
            "a heartbeating verification lease expired"
        );
        assert!(
            !campaign.leases.contains_key(&silent),
            "a silent verification lease outlived the timeout"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    // ---- lease-order unit tests: point-affine grants ----------------------

    /// Two workloads x two seeds: four (workload, seed) points of three rows
    /// each (two mechanisms plus the implicit baseline).
    const AFFINITY_SPEC: &str = "name = \"affinity\"
workloads = [\"nutch\", \"zeus\"]
mechanisms = [\"fdip\", \"boomerang\"]
seeds = [0, 1]

[run]
trace_blocks = 2000
warmup_blocks = 400
";

    /// [`AFFINITY_SPEC`] over two configs: the same four points, each with
    /// its rows split across both configs' halves of the job order.
    const AFFINITY_TWO_CONFIG_SPEC: &str = "name = \"affinity-configs\"
workloads = [\"nutch\", \"zeus\"]
mechanisms = [\"fdip\", \"boomerang\"]
seeds = [0, 1]

[run]
trace_blocks = 2000
warmup_blocks = 400

[[config]]
label = \"llc-1\"
noc = 1

[[config]]
label = \"llc-30\"
noc = 30
";

    /// Distinct (workload, seed) points of a campaign's job list.
    fn point_count(campaign: &ActiveCampaign) -> usize {
        (0..campaign.jobs.len())
            .map(|job| campaign.point_of(job))
            .collect::<HashSet<_>>()
            .len()
    }

    /// Whether some regular queued row is leasable at `now`.
    fn regular_row_ready(campaign: &ActiveCampaign, now: Instant) -> bool {
        campaign
            .queue
            .iter()
            .any(|q| q.check.is_none() && q.ready_at <= now)
    }

    /// The queued re-runs, in queue order: (job, producer of its row).
    fn queued_checks(campaign: &ActiveCampaign) -> Vec<(usize, u64)> {
        let queue = campaign.queue.iter();
        queue
            .filter_map(|w| w.check.as_ref().map(|c| (w.job, c.producer)))
            .collect()
    }

    #[test]
    fn alternating_sessions_each_decode_few_points() {
        for (tag, spec_text) in [
            ("affinity-pairs", AFFINITY_SPEC),
            ("affinity-pairs-configs", AFFINITY_TWO_CONFIG_SPEC),
        ] {
            let (mut campaign, dir) = broker_campaign(spec_text, tag, 0.0);
            let now = Instant::now();
            let stats = stats_to_array(&SimStats::default());
            let mut pairs: HashSet<(u64, (usize, u64))> = HashSet::new();
            // Both sessions hold a lease at once, then both submit — two
            // workers running side by side.
            while !campaign.rows_complete() {
                let granted: Vec<(u64, u64, usize)> = [1, 2]
                    .into_iter()
                    .filter_map(|s| campaign.grant(s, now).map(|(lease, job)| (s, lease, job)))
                    .collect();
                assert!(!granted.is_empty(), "rows remain but nothing was granted");
                for (session, lease, job) in granted {
                    pairs.insert((session, campaign.point_of(job)));
                    let answer = complete(&mut campaign, session, lease, job, &stats, now);
                    assert!(matches!(answer, Message::RowAck { .. }), "{answer:?}");
                }
            }
            let points = point_count(&campaign);
            assert_eq!(points, 4, "{tag}");
            assert!(
                pairs.len() <= points + 2,
                "{tag}: {} (session, point) pairs over {points} points: {pairs:?}",
                pairs.len()
            );
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn grant_never_idles_a_session_while_a_regular_row_is_ready() {
        // One point, two sessions: the second must steal, not idle.
        let (mut campaign, dir) = integrity_campaign("steal", 0.0);
        let now = Instant::now();
        let (_, first) = campaign.grant(1, now).unwrap();
        let (lease, stolen) = campaign.grant(2, now).expect("a steal from the busy point");
        assert_eq!(campaign.point_of(first), campaign.point_of(stolen));
        assert!(campaign.leases.contains_key(&lease));
        std::fs::remove_dir_all(&dir).unwrap();

        // Three sessions over four points, each holding a lease at a time.
        let (mut campaign, dir) = broker_campaign(AFFINITY_TWO_CONFIG_SPEC, "no-idle", 0.0);
        let now = Instant::now();
        let stats = stats_to_array(&SimStats::default());
        let mut held: HashMap<u64, (u64, usize)> = HashMap::new();
        for step in 0.. {
            if campaign.rows_complete() {
                break;
            }
            assert!(step < 1_000, "the campaign never drained");
            let session = step % 3 + 1;
            if let Some((lease, job)) = held.remove(&session) {
                complete(&mut campaign, session, lease, job, &stats, now);
            }
            let ready = regular_row_ready(&campaign, now);
            match campaign.grant(session, now) {
                Some((lease, job)) => {
                    let regular = campaign.leases[&lease].work.check.is_none();
                    assert!(regular, "a regular lease");
                    held.insert(session, (lease, job));
                }
                None => assert!(!ready, "session {session} idled with a row ready"),
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn revoked_row_is_not_granted_before_its_backoff_at_any_rank() {
        let (mut campaign, dir) = broker_campaign(AFFINITY_SPEC, "backoff", 0.0);
        campaign.backoff_base = Duration::from_secs(60);
        campaign.backoff_cap = Duration::from_secs(60);
        let now = Instant::now();
        let stats = stats_to_array(&SimStats::default());
        let (lease, revoked) = campaign.grant(1, now).unwrap();
        campaign.revoke(lease, "test revocation", now);
        // Session 1's own point ranks first, but its revoked row must wait.
        let (lease, job) = campaign.grant(1, now).unwrap();
        assert_ne!(job, revoked);
        assert_eq!(campaign.point_of(job), campaign.point_of(revoked));
        complete(&mut campaign, 1, lease, job, &stats, now);
        for session in [1, 2].into_iter().cycle() {
            let Some((lease, job)) = campaign.grant(session, now) else {
                break;
            };
            assert_ne!(job, revoked, "granted inside its backoff");
            complete(&mut campaign, session, lease, job, &stats, now);
        }
        assert_eq!(campaign.done.len(), campaign.jobs.len() - 1);
        let almost = now + Duration::from_millis(59_999);
        assert!(campaign.grant(2, almost).is_none());
        assert_eq!(campaign.queue.len(), 1);
        // Once the backoff has passed, the row is leasable again.
        let after = now + Duration::from_secs(60);
        assert_eq!(campaign.grant(2, after).map(|(_, job)| job), Some(revoked));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn revoked_reruns_back_off_like_regular_rows() {
        let (mut campaign, dir) = integrity_campaign("rerun-backoff", 1.0);
        campaign.backoff_base = Duration::from_secs(10);
        campaign.backoff_cap = Duration::from_secs(60);
        let now = Instant::now();
        let stats = stats_to_array(&SimStats::default());
        for _ in 0..campaign.jobs.len() {
            submit(&mut campaign, 1, &stats, now);
        }
        let (lease, job) = campaign.grant(2, now).unwrap();
        campaign.revoke(lease, "test revocation", now);
        // Sessions 2 and 3 hold the other re-runs, so only the revoked one
        // is left to grant: one base after its first revocation, two bases
        // after its second.
        let others: Vec<usize> = [2, 3]
            .into_iter()
            .map(|session| campaign.grant(session, now).unwrap().1)
            .collect();
        assert!(!others.contains(&job));
        let mut at = now;
        for wait in [10, 20] {
            let backoff = Duration::from_secs(wait);
            let almost = at + backoff - Duration::from_millis(1);
            assert!(
                campaign.grant(4, almost).is_none(),
                "granted inside its backoff"
            );
            at += backoff;
            let (lease, again) = campaign.grant(4, at).unwrap();
            assert_eq!(again, job);
            assert!(campaign.leases[&lease].work.check.is_some());
            campaign.revoke(lease, "test revocation", at);
        }
        assert_eq!(campaign.queue.back().map(|w| w.attempts), Some(3));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn verification_takes_the_first_eligible_sample_and_skips_its_producer() {
        let (mut campaign, dir) = broker_campaign(AFFINITY_SPEC, "verify-order", 1.0);
        let now = Instant::now();
        let stats = stats_to_array(&SimStats::default());
        while !campaign.rows_complete() {
            for session in [1, 2] {
                if let Some((lease, job)) = campaign.grant(session, now) {
                    complete(&mut campaign, session, lease, job, &stats, now);
                }
            }
        }
        // Samples session 1 may re-run, in queue order: it is handed them
        // in that order, whatever point it was last on.
        let eligible: Vec<usize> = queued_checks(&campaign)
            .into_iter()
            .filter(|&(_, producer)| producer != 1)
            .map(|(job, _)| job)
            .collect();
        assert!(!eligible.is_empty());
        let mut granted = Vec::new();
        while let Some((lease, job)) = campaign.grant(1, now) {
            let check = campaign.leases[&lease].work.check.as_ref();
            assert_ne!(
                check.map(|c| c.producer),
                Some(1),
                "session 1 was handed its own row to verify"
            );
            granted.push(job);
            complete(&mut campaign, 1, lease, job, &stats, now);
        }
        assert_eq!(granted, eligible);
        let left = queued_checks(&campaign);
        assert!(left.iter().all(|&(_, producer)| producer == 1));
        assert_eq!(campaign.rows_verified as usize, eligible.len());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn ending_a_session_frees_its_point_for_another() {
        let (mut campaign, dir) = broker_campaign(AFFINITY_SPEC, "end-session", 0.0);
        let now = Instant::now();
        let (_, first) = campaign.grant(1, now).unwrap();
        let p0 = campaign.point_of(first);
        let (kept, second) = campaign.grant(2, now).unwrap();
        assert_ne!(campaign.point_of(second), p0, "p0 is session 1's");
        // Session 1's connection ends: its lease is revoked, its point
        // freed; session 2's lease is untouched.
        campaign.disconnect(1, now);
        assert!(!campaign.session_points.contains_key(&1));
        assert!(campaign.queue.iter().any(|q| q.job == first));
        assert!(campaign.leases.contains_key(&kept));
        let (_, third) = campaign.grant(3, now).unwrap();
        assert_eq!(
            campaign.point_of(third),
            p0,
            "the freed point leads the queue"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn remote_worker_with_a_colliding_pid_cannot_feed_the_hang_probe() {
        let shared = BrokerShared::new(Duration::from_secs(60));
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

    // ---- the seeded schedule explorer -------------------------------------
    //
    // Drives one broker campaign over [`AFFINITY_SPEC`] with real worker
    // sessions ([`WorkerSession`]) through random schedules of exchanges,
    // wire damage, disconnects, clock jumps and broker restarts — no
    // sockets, threads or sleeps — and checks the lease rules after every
    // step. Every frame crosses an in-memory wire: `proto::encode` on one
    // side, `read_message` on the other. Every choice comes from one
    // SplitMix64 stream, so a failing seed replays exactly.

    use crate::proto::{encode, HEADER_LEN, TRAILER_LEN};
    use crate::worker::{Campaigns, SessionEnd, Step, WorkerSession};
    use std::collections::BTreeMap;

    /// The explorer's lease timeout (on its own clock).
    const EXPLORE_TIMEOUT: Duration = Duration::from_secs(1);

    /// `run_campaign`'s JSON and CSV report of [`AFFINITY_SPEC`] and every
    /// job's true stat array, computed once: the rows honest peers submit
    /// and the bytes every explored schedule must reproduce.
    fn truth() -> &'static (String, String, Vec<Vec<u64>>) {
        static TRUTH: std::sync::OnceLock<(String, String, Vec<Vec<u64>>)> =
            std::sync::OnceLock::new();
        TRUTH.get_or_init(|| {
            let spec = CampaignSpec::from_toml_str(AFFINITY_SPEC).unwrap();
            let options = crate::engine::EngineOptions {
                jobs: 2,
                ..Default::default()
            };
            let report = crate::engine::run_campaign(&spec, &options).unwrap();
            let stats = report
                .rows
                .iter()
                .map(|row| stats_to_array(&row.stats).to_vec())
                .collect();
            (
                crate::sink::to_json(&report),
                crate::sink::to_csv(&report),
                stats,
            )
        })
    }

    /// Damage done to one exchange between a session and the broker: what
    /// an adversary on the wire can do. A flip changes one payload byte (a
    /// trailer byte if there is none) under the trailer of the true bytes.
    #[derive(Clone, Copy, PartialEq, Eq)]
    enum Wire {
        TearUp,
        TearDown,
        FlipUp,
        FlipDown,
        /// Deliver a `RowDone` twice, hiding the second reply.
        Duplicate,
        /// Drop the connection after a `RowDone`, before its ack.
        DropAck,
        /// Re-encode a `RowDone` with one stat changed after checksumming.
        Corrupt,
    }

    /// Every wire damage and its tally entry: the first four fit any
    /// exchange, the next two a row, the last only an adversarial row.
    const WIRES: [(Wire, &str); 7] = [
        (Wire::TearUp, "frames torn upstream"),
        (Wire::TearDown, "frames torn downstream"),
        (Wire::FlipUp, "frames flipped upstream"),
        (Wire::FlipDown, "frames flipped downstream"),
        (Wire::Duplicate, "duplicates"),
        (Wire::DropAck, "lost acks"),
        (Wire::Corrupt, "corrupt rows"),
    ];

    /// Carries `msg` across the in-memory wire, torn or flipped by
    /// `damage`. A damaged frame must fail its receiver's decode, which
    /// kills the connection (`None`).
    fn carry(msg: &Message, damage: Option<Wire>) -> Result<Option<Message>, String> {
        let mut frame = encode(msg);
        match damage {
            Some(Wire::TearUp | Wire::TearDown) => frame.truncate(frame.len() / 2),
            Some(Wire::FlipUp | Wire::FlipDown) => {
                let payload = frame.len() - HEADER_LEN - TRAILER_LEN;
                let at = match payload {
                    0 => frame.len() - 1,
                    _ => HEADER_LEN + payload / 2,
                };
                frame[at] ^= 0x01;
            }
            _ => {
                return read_message(&mut frame.as_slice())
                    .map(Some)
                    .map_err(|e| format!("an intact {msg:?} failed to decode: {e}"))
            }
        }
        match read_message(&mut frame.as_slice()) {
            Ok(decoded) => Err(format!("a damaged {msg:?} decoded as {decoded:?}")),
            Err(_) => Ok(None),
        }
    }

    /// One simulated worker connection: a real session and the broker's id
    /// for it.
    struct Peer {
        session: u64,
        worker: WorkerSession,
        /// What the session asked for last.
        next: Step,
        /// Heartbeats its lease before every clock step; the liveness
        /// invariant covers exactly these peers.
        heartbeats: bool,
        /// The lease the broker granted this connection, while its session
        /// holds it.
        held: Option<Held>,
    }

    /// A lease a peer holds.
    #[derive(Clone, Copy)]
    struct Held {
        lease: u64,
        job: usize,
        /// The lease re-runs a done row.
        check: bool,
        /// The broker let go of the lease without this peer's row: another
        /// row landed its job, or a quarantine requeued the job and dropped
        /// its re-run. The peer may still answer it.
        resolved: bool,
    }

    /// What schedules exercised, by name, summed over their broker lives.
    #[derive(Debug, Default)]
    struct Tally(BTreeMap<&'static str, u64>);

    impl Tally {
        fn add(&mut self, what: &'static str, count: u64) {
            *self.0.entry(what).or_default() += count;
        }

        fn get(&self, what: &str) -> u64 {
            self.0.get(what).copied().unwrap_or(0)
        }

        /// Panics naming the first of `whats` this tally never reached.
        fn require(&self, whats: &[&str]) {
            for what in whats {
                assert!(self.get(what) > 0, "no {what} in the seed budget: {self:?}");
            }
        }
    }

    /// One seeded schedule against one broker campaign.
    struct Explorer {
        rng: SplitMix,
        /// The wire may corrupt rows after checksumming, and verifiers may
        /// be fed wrong stats. Regular rows are always the truth otherwise.
        adversarial: bool,
        spec: CampaignSpec,
        hash: String,
        jobs: Vec<Job>,
        options: ServeOptions,
        dir: PathBuf,
        campaign: ActiveCampaign,
        now: Instant,
        peers: Vec<Peer>,
        next_session: u64,
        /// Every session quarantined in any broker life.
        quarantined: HashSet<u64>,
        /// The journal's row lines so far: (job, producing session).
        journal: Vec<(usize, u64)>,
        tally: Tally,
    }

    impl Explorer {
        /// A schedule adding to `tally`.
        fn new(seed: u64, adversarial: bool, verify_fraction: f64, tally: Tally) -> Explorer {
            let kind = if adversarial { "adversary" } else { "honest" };
            let dir = temp_dir(&format!("explore-{kind}-{seed}"));
            let spec = CampaignSpec::from_toml_str(AFFINITY_SPEC).unwrap();
            let hash = spec_hash(&spec, spec.run, false);
            let jobs = expand(&spec);
            let options = ServeOptions {
                verify_fraction,
                lease_timeout: EXPLORE_TIMEOUT,
                supervise: SuperviseOptions {
                    backoff_base: Duration::from_millis(50),
                    backoff_cap: Duration::from_millis(400),
                    ..SuperviseOptions::default()
                },
                ..ServeOptions::default()
            };
            let now = Instant::now();
            let campaign = ActiveCampaign::open(
                &spec,
                &dir,
                &hash,
                jobs.clone(),
                &HashMap::new(),
                &options,
                now,
            )
            .unwrap();
            Explorer {
                rng: SplitMix(seed),
                adversarial,
                spec,
                hash,
                jobs,
                options,
                dir,
                campaign,
                now,
                peers: Vec::new(),
                next_session: 1,
                quarantined: HashSet::new(),
                journal: Vec::new(),
                tally,
            }
        }

        /// Runs `steps` random steps, then drains the campaign with two
        /// honest peers and compares the report assembled from its journal
        /// with `run_campaign`'s bytes.
        fn run(mut self, steps: usize) -> Result<Tally, String> {
            for step in 0..steps {
                self.step().map_err(|e| format!("step {step}: {e}"))?;
            }
            self.drain().map_err(|e| format!("drain: {e}"))?;
            self.bank_counters();
            let replay = JournalReplay::load(&self.dir, &self.spec.name, &self.hash, &self.jobs)
                .map_err(|e| e.to_string())?;
            if replay.completed() != self.jobs.len() {
                return Err(format!("only {} rows journaled", replay.completed()));
            }
            let stats = (0..self.jobs.len()).map(|i| replay.rows[&i]).collect();
            let report = assemble_report(&self.spec, &self.jobs, self.spec.run, false, stats);
            let (json, csv, _) = truth();
            if crate::sink::to_json(&report) != *json || crate::sink::to_csv(&report) != *csv {
                return Err("the report differs from run_campaign's bytes".to_string());
            }
            std::fs::remove_dir_all(&self.dir).map_err(|e| e.to_string())?;
            self.tally.add("journal lines", self.journal.len() as u64);
            Ok(self.tally)
        }

        /// One random operation, then every invariant.
        fn step(&mut self) -> Result<(), String> {
            let roll = self.rng.below(100);
            let pick = |explorer: &mut Explorer, holding: bool| {
                let eligible: Vec<usize> = (0..explorer.peers.len())
                    .filter(|&i| !holding || explorer.peers[i].held.is_some())
                    .collect();
                (!eligible.is_empty()).then(|| eligible[explorer.rng.index(eligible.len())])
            };
            match roll {
                0..=9 if self.peers.len() < 4 => {
                    let heartbeats = self.rng.percent(70);
                    self.connect(heartbeats, Campaigns::new());
                }
                10..=56 => {
                    if let Some(i) = pick(self, false) {
                        self.act(i, None)?;
                    }
                }
                57..=66 => {
                    if let Some(i) = pick(self, false) {
                        let kinds = match self.peers[i].next {
                            Step::Run(_) if self.adversarial => 7,
                            Step::Run(_) => 6,
                            _ => 4,
                        };
                        let (wire, name) = WIRES[self.rng.index(kinds)];
                        self.tally.add(name, 1);
                        self.act(i, Some(wire))?;
                    }
                }
                67..=74 => {
                    if let Some(i) = pick(self, true) {
                        self.beat(i)?;
                    }
                }
                75..=81 => {
                    if let Some(i) = pick(self, false) {
                        let peer = self.peers.swap_remove(i);
                        self.campaign.disconnect(peer.session, self.now);
                    }
                }
                82..=97 => {
                    let millis = EXPLORE_TIMEOUT.as_millis() as u64;
                    let jump = if self.rng.percent(30) {
                        millis + self.rng.below(2 * millis)
                    } else {
                        self.rng.below(millis / 4)
                    };
                    self.advance(Duration::from_millis(jump))?;
                    if self.rng.percent(50) {
                        // One tick of the drive loop.
                        self.sweep();
                    }
                }
                98..=99 => self.restart()?,
                _ => {}
            }
            self.check()
        }

        /// A worker connects with a fresh session over `campaigns`.
        fn connect(&mut self, heartbeats: bool, campaigns: Campaigns) {
            let worker = WorkerSession::new(campaigns);
            self.peers.push(Peer {
                session: self.next_session,
                next: worker.request(),
                worker,
                heartbeats,
                held: None,
            });
            self.next_session += 1;
        }

        /// Peer `i`'s connection dies: the broker ends its session, and the
        /// worker reconnects at once with a fresh session over the same
        /// campaigns. Ends the exchange that killed the connection.
        fn hang_up(&mut self, i: usize) -> Result<(), String> {
            let peer = self.peers.swap_remove(i);
            self.campaign.disconnect(peer.session, self.now);
            self.connect(peer.heartbeats, peer.worker.into_campaigns());
            self.tally.add("reconnects", 1);
            Ok(())
        }

        /// Sends one frame for `session` and checks each line it added to
        /// the journal: a job's second line is allowed only once the
        /// producer of its earlier line was quarantined.
        fn send(&mut self, session: u64, msg: Message) -> Result<Option<Message>, String> {
            let reply = self.campaign.handle(session, "peer", msg, self.now);
            self.quarantined
                .extend(self.campaign.quarantined.iter().copied());
            let text = std::fs::read_to_string(Journal::path_for(&self.dir, &self.spec.name, None))
                .map_err(|e| e.to_string())?;
            for line in text.lines().skip(1 + self.journal.len()) {
                let job: usize = line
                    .strip_prefix("{\"job\":")
                    .and_then(|rest| rest.split(',').next())
                    .and_then(|n| n.parse().ok())
                    .ok_or_else(|| format!("unreadable journal line {line}"))?;
                if let Some(&(_, earlier)) = self
                    .journal
                    .iter()
                    .find(|&&(j, producer)| j == job && !self.quarantined.contains(&producer))
                {
                    return Err(format!(
                        "job {job} journaled again by session {session}, though its \
                         producer, session {earlier}, was never quarantined"
                    ));
                }
                self.journal.push((job, session));
            }
            Ok(reply)
        }

        /// Peer `i`'s heartbeat thread refreshes the lease its session
        /// holds; the broker never answers a heartbeat.
        fn beat(&mut self, i: usize) -> Result<(), String> {
            let lease = self.peers[i].worker.lease();
            let beat = carry(&Message::Heartbeat { lease }, None)?.expect("an intact frame");
            match self.send(self.peers[i].session, beat)? {
                None => Ok(()),
                Some(reply) => Err(format!("a heartbeat was answered with {reply:?}")),
            }
        }

        /// Peer `i`'s session takes its next step: one exchange with the
        /// broker, after asking again from a sleep or running a leased row.
        /// When adversarial, a peer holding a re-run lease, live or
        /// revoked, may feed it wrong stats, whatever the wire then does to
        /// the row: a lie is compared while its lease is live and never
        /// journaled. Regular rows stay truthful.
        fn act(&mut self, i: usize, wire: Option<Wire>) -> Result<(), String> {
            let mut step = std::mem::replace(&mut self.peers[i].next, Step::Sleep(Duration::ZERO));
            loop {
                step = match step {
                    Step::Sleep(_) => self.peers[i].worker.request(),
                    Step::Run(job) => {
                        let mut stats = truth().2[job.index].clone();
                        let verifying = self.peers[i].held.is_some_and(|held| held.check);
                        if self.adversarial && verifying && self.rng.percent(30) {
                            self.tally.add("lying verifiers", 1);
                            stats[1] = stats[1].wrapping_add(1);
                        }
                        Step::Send(self.peers[i].worker.row_done(stats))
                    }
                    Step::Send(frame) => return self.exchange(i, frame, wire),
                    Step::End(end) => return Err(format!("a stored step ended: {end:?}")),
                };
            }
        }

        /// Carries `frame` from peer `i`'s session to the broker and the
        /// broker's reply back, doing `wire`'s damage on the way, and checks
        /// both ends: the session resends no row (the retransmit rule), a
        /// true row from a trusted session is acked, and no lease goes to a
        /// quarantined session or a re-run to its row's producer.
        fn exchange(
            &mut self,
            i: usize,
            mut frame: Message,
            wire: Option<Wire>,
        ) -> Result<(), String> {
            let session = self.peers[i].session;
            let mut honest = true;
            if let Message::RowDone {
                lease, job, stats, ..
            } = &mut frame
            {
                let held = self.peers[i].held.take();
                if held.is_none_or(|held| (held.lease, held.job as u64) != (*lease, *job)) {
                    return Err(format!(
                        "session {session} sent a row for lease {lease}, which it does not \
                         hold: a resend"
                    ));
                }
                if !self.campaign.leases.contains_key(lease) {
                    self.tally.add("late rows", 1);
                }
                if wire == Some(Wire::Corrupt) {
                    stats[0] ^= 1;
                }
                honest = *stats == truth().2[*job as usize];
            }
            let up = wire.filter(|w| matches!(w, Wire::TearUp | Wire::FlipUp));
            let Some(msg) = carry(&frame, up)? else {
                return self.hang_up(i);
            };
            let trusted = !self.campaign.quarantined.contains(&session);
            let reply = self.send(session, msg.clone())?;
            if wire == Some(Wire::Duplicate) {
                self.send(session, msg)?;
            }
            let granted = match (&frame, &reply) {
                (Message::LeaseRequest, Some(Message::Lease { lease, job, .. })) => {
                    let check = self.campaign.leases[lease].work.check.as_ref();
                    if !trusted || check.is_some_and(|check| check.producer == session) {
                        return Err(format!(
                            "lease {lease} of job {job} granted to session {session}, which \
                             is quarantined or produced the row it re-runs"
                        ));
                    }
                    Some(Held {
                        lease: *lease,
                        job: *job as usize,
                        check: check.is_some(),
                        resolved: false,
                    })
                }
                (Message::LeaseRequest, Some(Message::NoWork { .. })) => None,
                (Message::LeaseRequest, Some(Message::Reject { .. })) if !trusted => None,
                (Message::RowDone { job, .. }, Some(reply)) => {
                    if honest && trusted && !matches!(reply, Message::RowAck { .. }) {
                        return Err(format!(
                            "session {session}'s true row for job {job} got {reply:?}"
                        ));
                    }
                    None
                }
                (frame, reply) => {
                    return Err(format!("session {session}'s {frame:?} got {reply:?}"))
                }
            };
            let down = wire.filter(|w| matches!(w, Wire::TearDown | Wire::FlipDown));
            let reply = match reply {
                Some(reply) if wire != Some(Wire::DropAck) => carry(&reply, down)?,
                _ => None,
            };
            let Some(reply) = reply else {
                return self.hang_up(i);
            };
            match self.peers[i].worker.receive(reply)? {
                Step::End(SessionEnd::Rejected(_)) => {
                    self.tally.add("rejected sessions", 1);
                    self.hang_up(i)
                }
                Step::End(end) => Err(format!("session {session} ended: {end:?}")),
                next => {
                    // Only a lease is granted, and only a lease runs a job.
                    self.peers[i].held = granted;
                    self.peers[i].next = next;
                    Ok(())
                }
            }
        }

        /// Moves the clock `by`, in steps of a third of the lease timeout,
        /// each preceded by a heartbeat from every heartbeating peer that
        /// holds a lease.
        fn advance(&mut self, by: Duration) -> Result<(), String> {
            let mut left = by;
            while !left.is_zero() {
                for i in 0..self.peers.len() {
                    if self.peers[i].heartbeats && self.peers[i].worker.lease() != 0 {
                        self.beat(i)?;
                    }
                }
                let chunk = left.min(EXPLORE_TIMEOUT / 3);
                self.now += chunk;
                left -= chunk;
            }
            Ok(())
        }

        /// One drive-loop tick: sweeps expired leases.
        fn sweep(&mut self) {
            let before = self.campaign.leases.len();
            self.campaign.sweep_expired(self.now);
            let after = self.campaign.leases.len();
            self.tally.add("expiries", (before - after) as u64);
        }

        /// Adds this broker life's counters to the tally.
        fn bank_counters(&mut self) {
            self.tally
                .add("re-verified rows", self.campaign.rows_verified);
            self.tally
                .add("verification mismatches", self.campaign.verify_mismatches);
            self.tally
                .add("quarantines", self.campaign.quarantined.len() as u64);
        }

        /// Drops the campaign with every connection and installs it again
        /// from its journal, as a restarted broker does.
        fn restart(&mut self) -> Result<(), String> {
            self.tally.add("restarts", 1);
            self.bank_counters();
            self.peers.clear();
            let replay = JournalReplay::load(&self.dir, &self.spec.name, &self.hash, &self.jobs)
                .map_err(|e| e.to_string())?;
            self.campaign = ActiveCampaign::open(
                &self.spec,
                &self.dir,
                &self.hash,
                self.jobs.clone(),
                &replay.rows,
                &self.options,
                self.now,
            )?;
            let journaled: HashSet<usize> = self.journal.iter().map(|&(job, _)| job).collect();
            let replayed: HashSet<usize> = self.campaign.done.keys().copied().collect();
            if replayed != journaled {
                return Err(format!(
                    "restart replayed {replayed:?}, the journal holds {journaled:?}"
                ));
            }
            Ok(())
        }

        /// Disconnects every peer, then two fresh honest peers run their
        /// sessions over an intact wire until the campaign is settled.
        fn drain(&mut self) -> Result<(), String> {
            self.adversarial = false;
            for peer in std::mem::take(&mut self.peers) {
                self.campaign.disconnect(peer.session, self.now);
            }
            self.check()?;
            self.connect(true, Campaigns::new());
            self.connect(true, Campaigns::new());
            for _ in 0..10_000 {
                if self.campaign.settled() {
                    return if self.campaign.complete() {
                        Ok(())
                    } else {
                        Err("settled without completing".to_string())
                    };
                }
                for i in 0..2 {
                    self.act(i, None)?;
                    self.check()?;
                }
                if self
                    .peers
                    .iter()
                    .all(|peer| matches!(peer.next, Step::Sleep(_)))
                {
                    self.advance(EXPLORE_TIMEOUT / 4)?;
                    self.sweep();
                    self.check()?;
                }
            }
            Err("the campaign never settled".to_string())
        }

        /// The invariants that hold after every step. A held lease the
        /// broker let go of for a sound reason is marked resolved the step
        /// it disappears.
        fn check(&mut self) -> Result<(), String> {
            let campaign = &self.campaign;
            for job in 0..campaign.jobs.len() {
                let done = usize::from(campaign.done.contains_key(&job));
                let rows = |work: &Work| work.job == job && work.check.is_none();
                let leased = campaign.leases.values().filter(|l| rows(&l.work)).count();
                let queued = campaign.queue.iter().filter(|&w| rows(w)).count();
                if done + leased + queued != 1 {
                    return Err(format!(
                        "job {job} is done {done}, leased {leased} and queued {queued} \
                         times as a row"
                    ));
                }
            }
            let leased = campaign.leases.values().map(|l| &l.work);
            let reruns = campaign.queue.iter().chain(leased);
            if let Some(work) = reruns
                .filter(|work| work.check.is_some())
                .find(|work| !campaign.done.contains_key(&work.job))
            {
                return Err(format!("job {} has a re-run but is not done", work.job));
            }
            for peer in self.peers.iter_mut().filter(|peer| peer.heartbeats) {
                let Some(held) = peer.held.as_mut().filter(|held| !held.resolved) else {
                    continue;
                };
                if campaign.leases.contains_key(&held.lease) {
                    continue;
                }
                let done = campaign.done.contains_key(&held.job);
                // A row lease goes when another row lands its job; a re-run
                // when a quarantine requeues its job.
                if done != held.check {
                    held.resolved = true;
                    continue;
                }
                return Err(format!(
                    "lease {} (job {}) of session {}, which kept heartbeating, was revoked",
                    held.lease, held.job, peer.session
                ));
            }
            Ok(())
        }
    }

    /// Runs `seeds` schedules of `steps` steps; panics naming the first
    /// failing seed and invariant.
    fn explore(
        seeds: std::ops::Range<u64>,
        steps: usize,
        adversarial: bool,
        fraction: f64,
    ) -> Tally {
        seeds.fold(Tally::default(), |tally, seed| {
            Explorer::new(seed, adversarial, fraction, tally)
                .run(steps)
                .unwrap_or_else(|e| panic!("explorer seed {seed}: {e}"))
        })
    }

    /// The lease rules under an adversarial fleet of real worker sessions:
    /// torn and bit-flipped frames both ways, duplicated rows, acks lost
    /// with their connection, rows corrupted after checksumming, lying
    /// verifiers, late rows after a revoke, silent and disconnecting peers,
    /// clock jumps past the lease timeout and broker restarts. Every
    /// schedule keeps every invariant and ends in `run_campaign`'s report
    /// bytes.
    #[test]
    fn seeded_schedules_keep_the_lease_invariants() {
        // The budget must actually reach every rule it claims to check.
        explore(0..48, 160, true, 0.5).require(&[
            "frames torn upstream",
            "frames torn downstream",
            "frames flipped upstream",
            "frames flipped downstream",
            "duplicates",
            "lost acks",
            "corrupt rows",
            "lying verifiers",
            "restarts",
            "expiries",
            "late rows",
            "reconnects",
            "rejected sessions",
            "re-verified rows",
            "verification mismatches",
            "quarantines",
        ]);
    }

    /// An honest fleet under the same schedules and wire damage, every row
    /// sampled: the broker journals each job exactly once whatever is
    /// duplicated, lost or completed late, every sample is re-run by
    /// another session and matches, and nobody is quarantined.
    #[test]
    fn honest_schedules_journal_each_row_once_and_verify_clean() {
        const SEEDS: u64 = 16;
        let jobs = expand(&CampaignSpec::from_toml_str(AFFINITY_SPEC).unwrap()).len() as u64;
        let tally = explore(0..SEEDS, 160, false, 1.0);
        // Every schedule journals every job, so one extra line anywhere
        // shows in the sum.
        assert_eq!(tally.get("journal lines"), SEEDS * jobs, "{tally:?}");
        assert_eq!(tally.get("quarantines"), 0, "{tally:?}");
        assert_eq!(tally.get("verification mismatches"), 0, "{tally:?}");
        tally.require(&["duplicates", "lost acks", "late rows", "re-verified rows"]);
    }
}
