//! The TCP campaign worker: connect to a broker, lease jobs, run rows,
//! survive the network.
//!
//! The worker side of the lease protocol is one sans-IO state machine,
//! `WorkerSession`, which owns no socket, thread or clock. Fed each
//! broker frame, it answers with a `Step`: send a frame, sleep and ask
//! again, run a leased job, or end the session. Handed a row's stats, it
//! builds the row's checksummed [`Message::RowDone`]. A leased job names
//! the campaign by spec hash and carries the canonical TOML, so the worker
//! needs no shared filesystem: the session re-expands the spec once per
//! hash and recomputes the hash (a mismatch is terminal — the two ends
//! disagree about what the campaign *is*); a job outside the expansion
//! ends the session as lost. The TCP driver below runs it over a socket,
//! and the schedule explorer in `serve::tests` over in-memory frames.
//!
//! **Retransmit rule: never resend.** A session whose row ack is lost ends
//! with its connection, and the next session starts holding no lease, so
//! it never resends that row: the broker's disconnect revokes the lease,
//! and a row the broker never journaled is leased again. Resending would
//! save one re-simulated row per lost ack at the price of state carried
//! across sessions. The explorer checks that no session sends a row for a
//! lease it does not hold.
//!
//! # The TCP driver
//!
//! `boomerang-sim worker --connect ADDR` runs [`run_worker`]: an outer
//! reconnect loop (capped exponential backoff, so a broker restart is a
//! pause, not a death) around one session per connection, which
//! handshakes ([`Message::Hello`] → [`Message::Welcome`]) first. Each
//! distinct (workload, seed) point is generated once per process,
//! optionally through the content-addressed artifact cache. The decoded
//! points live in one `PointStore` per process: the worker threads of a
//! `boomerang-sim run` share it, so a row stolen from another thread's
//! point never decodes that point again.
//!
//! A heartbeat thread shares the socket (writes serialised by a mutex;
//! heartbeats are the protocol's only fire-and-forget frame, so the
//! session's request-reply reads never race a heartbeat's non-existent
//! reply) and refreshes whichever lease the session currently holds, at the
//! interval the broker's `Welcome` names — the broker derives it from its
//! own lease timeout, so every worker beats several times per timeout. If
//! the worker stalls — the injectable `heartbeat-stall` fault, or a real
//! wedge — the heartbeats stop and the broker's lease timeout reclaims the
//! job. The driver unparks the heartbeat thread when a connection ends, so
//! a shutdown never waits out a heartbeat interval.

use crate::artifact::ArtifactCache;
use crate::checkpoint::{row_checksum, spec_hash, stats_to_array};
use crate::engine::load_point;
use crate::expand::{expand, Job};
use crate::fault;
use crate::proto::{read_message, write_message, Message};
use crate::spec::{mechanism_token, CampaignSpec};
use boomerang::{RunLength, WorkloadData};
use std::collections::HashMap;
use std::io;
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Connection and pacing policy for one worker process.
#[derive(Clone, Debug)]
pub struct WorkerOptions {
    /// Broker address (`host:port`).
    pub connect: String,
    /// This worker's index, quoted in the handshake and registered as the
    /// process's fault shard (so `shard=N` plans can address one worker).
    pub worker_index: usize,
    /// Backoff before the first reconnect; doubles per consecutive failure.
    pub reconnect_base: Duration,
    /// Upper bound on the doubled reconnect backoff.
    pub reconnect_cap: Duration,
    /// Consecutive connection failures tolerated before giving up. A
    /// successful handshake resets the count, so this bounds one outage, not
    /// the process lifetime.
    pub reconnect_tries: u32,
    /// Directory of the content-addressed workload artifact cache; `None`
    /// generates in-process.
    pub artifact_cache: Option<PathBuf>,
    /// Suppress per-row log lines.
    pub quiet: bool,
}

impl Default for WorkerOptions {
    fn default() -> Self {
        WorkerOptions {
            connect: String::new(),
            worker_index: 0,
            reconnect_base: Duration::from_millis(250),
            reconnect_cap: Duration::from_secs(10),
            reconnect_tries: 6,
            artifact_cache: None,
            quiet: false,
        }
    }
}

/// What one worker process accomplished.
#[derive(Clone, Debug, Default)]
pub struct WorkerSummary {
    /// Rows completed and acked.
    pub rows: u64,
    /// Leases accepted.
    pub leases: u64,
    /// Successful connections after the first (broker restarts ridden out).
    pub reconnects: u64,
    /// Workload points loaded from the artifact cache.
    pub cache_hits: u64,
    /// Workload points generated in-process (no cache, a miss, or a
    /// rejected artifact).
    pub generated: u64,
    /// The broker pid announced by the last `Welcome`.
    pub broker_pid: u64,
    /// The broker's shutdown reason.
    pub shutdown_reason: String,
}

impl WorkerSummary {
    /// Distinct workload points this process decoded, however obtained.
    pub fn points(&self) -> u64 {
        self.cache_hits + self.generated
    }
}

/// Per-campaign state a worker builds once per spec hash and reuses for
/// every lease of that campaign.
pub(crate) struct CampaignState {
    hash: String,
    spec: CampaignSpec,
    run: RunLength,
    jobs: Vec<Job>,
    configs: Vec<sim_core::MicroarchConfig>,
}

impl CampaignState {
    /// Expands a leased spec. Terminal errors: unparseable TOML, or a
    /// recomputed hash that contradicts the broker's `hash`.
    fn new(hash: &str, spec_toml: &str, smoke: bool) -> Result<CampaignState, String> {
        let spec = CampaignSpec::from_toml_str(spec_toml)
            .map_err(|e| format!("leased spec does not parse: {e}"))?;
        let run = if smoke {
            RunLength::smoke_test()
        } else {
            spec.run
        };
        let computed = spec_hash(&spec, run, smoke);
        if computed != hash {
            return Err(format!(
                "spec hash skew: broker leased {hash}, this worker computes {computed} \
                 — mismatched binaries?"
            ));
        }
        Ok(CampaignState {
            hash: computed,
            jobs: expand(&spec),
            configs: spec.configs.iter().map(|c| c.build()).collect(),
            spec,
            run,
        })
    }
}

/// The campaigns a worker has expanded, by spec hash, handed on from each
/// session to the next.
pub(crate) type Campaigns = HashMap<String, CampaignState>;

/// What a [`WorkerSession`] asks its driver to do next.
#[derive(Debug)]
pub(crate) enum Step {
    /// Write this frame, then hand the broker's reply to
    /// [`WorkerSession::receive`].
    Send(Message),
    /// Wait this long, then ask again ([`WorkerSession::request`]).
    Sleep(Duration),
    /// Run this leased job and hand its stats to
    /// [`WorkerSession::row_done`], whose frame is sent next.
    Run(Job),
    /// The session is over.
    End(SessionEnd),
}

/// How a connection session ended.
#[derive(Debug)]
pub(crate) enum SessionEnd {
    /// The broker said shutdown; the worker exits cleanly.
    Shutdown(String),
    /// The connection failed or the broker spoke out of turn; reconnect
    /// with backoff.
    Lost(io::Error),
    /// The broker refused this session further leases; it is alive, so a
    /// fresh session reconnects at once.
    Rejected(String),
}

/// The end of a session whose broker sent `what` out of turn: a broker this
/// confused is not one to keep talking to.
fn out_of_turn(what: String) -> SessionEnd {
    SessionEnd::Lost(io::Error::new(io::ErrorKind::InvalidData, what))
}

/// The lease a session holds, from its grant until the broker answers its
/// row.
struct Held {
    lease: u64,
    job: Job,
    spec_hash: String,
}

/// One connection's worker side of the lease protocol (see the module
/// docs). Each [`Step::Send`] is answered by exactly one broker frame.
pub(crate) struct WorkerSession {
    campaigns: Campaigns,
    held: Option<Held>,
}

impl WorkerSession {
    /// A fresh session, holding no lease, over earlier sessions' campaigns.
    pub(crate) fn new(campaigns: Campaigns) -> WorkerSession {
        WorkerSession {
            campaigns,
            held: None,
        }
    }

    /// Ends the session, handing its campaigns to the next one.
    pub(crate) fn into_campaigns(self) -> Campaigns {
        self.campaigns
    }

    /// A session's first step, and the one after [`Step::Sleep`].
    pub(crate) fn request(&self) -> Step {
        Step::Send(Message::LeaseRequest)
    }

    /// The lease this session holds (0 = none): what heartbeats refresh.
    pub(crate) fn lease(&self) -> u64 {
        self.held.as_ref().map_or(0, |held| held.lease)
    }

    /// The campaign of the held lease.
    fn campaign(&self) -> Option<&CampaignState> {
        self.campaigns.get(&self.held.as_ref()?.spec_hash)
    }

    /// Takes the broker's reply to the last frame sent and says what comes
    /// next. Errors are terminal: a leased spec whose TOML does not parse,
    /// or whose recomputed hash contradicts the broker's.
    pub(crate) fn receive(&mut self, msg: Message) -> Result<Step, String> {
        let lost = |what| Ok(Step::End(out_of_turn(what)));
        if self.held.is_some() {
            // The frame in flight is the held lease's row.
            return match msg {
                Message::RowAck { .. } | Message::Reject { .. } => {
                    self.held = None;
                    Ok(self.request())
                }
                other => lost(format!("expected RowAck/Reject, got {other:?}")),
            };
        }
        match msg {
            Message::NoWork { retry_ms } => Ok(Step::Sleep(Duration::from_millis(
                retry_ms.clamp(10, 5_000),
            ))),
            Message::Shutdown { reason } => Ok(Step::End(SessionEnd::Shutdown(reason))),
            // The broker refuses this *session* further leases (it was
            // quarantined after a failed row verification). A reconnect
            // opens a fresh session.
            Message::Reject { reason } => Ok(Step::End(SessionEnd::Rejected(reason))),
            Message::Lease {
                lease,
                job,
                smoke,
                spec_hash,
                spec_toml,
            } => {
                if !self.campaigns.contains_key(&spec_hash) {
                    let state = CampaignState::new(&spec_hash, &spec_toml, smoke)?;
                    self.campaigns.insert(spec_hash.clone(), state);
                }
                let jobs = &self.campaigns[&spec_hash].jobs;
                let Some(&leased) = usize::try_from(job).ok().and_then(|job| jobs.get(job)) else {
                    return lost(format!(
                        "leased job {job} outside the {}-job expansion",
                        jobs.len()
                    ));
                };
                self.held = Some(Held {
                    lease,
                    job: leased,
                    spec_hash,
                });
                Ok(Step::Run(leased))
            }
            other => lost(format!("expected Lease/NoWork/Shutdown, got {other:?}")),
        }
    }

    /// The `RowDone` answering the held lease (which a [`Step::Run`]
    /// guarantees) with `stats` in journal column order, checksummed here.
    pub(crate) fn row_done(&self, stats: Vec<u64>) -> Message {
        let held = self.held.as_ref().expect("a row answers a held lease");
        let job = held.job;
        let mechanism = mechanism_token(job.mechanism).to_string();
        Message::RowDone {
            lease: held.lease,
            job: job.index as u64,
            spec_hash: held.spec_hash.clone(),
            row_fnv: row_checksum(job.index, &mechanism, job.seed, &stats),
            mechanism,
            seed: job.seed,
            stats,
        }
    }
}

/// The decoded workload points of one process, shared by all its worker
/// threads and keyed by (spec hash, workload axis index, seed). Each point
/// is decoded once: a thread that asks for a point another thread is still
/// decoding waits for it. One decode per point also means two threads
/// never store the same artifact under the same temporary file name.
#[derive(Default)]
pub(crate) struct PointStore {
    points: Mutex<HashMap<(String, usize, u64), PointSlot>>,
}

/// One point of a [`PointStore`], filled by the first thread to ask.
type PointSlot = Arc<OnceLock<WorkloadData>>;

impl PointStore {
    /// The slot of one point, created empty on first request.
    fn slot(&self, hash: &str, workload: usize, seed: u64) -> PointSlot {
        let mut points = self.points.lock().expect("point store mutex");
        Arc::clone(
            points
                .entry((hash.to_string(), workload, seed))
                .or_default(),
        )
    }
}

/// What one worker's sessions share: its options, artifact cache and point
/// store, and whether it runs inside the broker's process.
struct Worker<'a> {
    options: &'a WorkerOptions,
    cache: &'a Option<ArtifactCache>,
    points: &'a PointStore,
    in_process: bool,
}

/// Runs the worker to completion: until the broker sends
/// [`Message::Shutdown`] (clean exit) or the reconnect budget is exhausted.
///
/// # Errors
///
/// Returns a message on terminal failures: the reconnect budget spent
/// against an unreachable broker, a spec whose TOML does not parse, or a
/// recomputed spec hash that contradicts the broker's (version/config skew —
/// retrying cannot fix either end).
pub fn run_worker(options: &WorkerOptions) -> Result<WorkerSummary, String> {
    fault::set_worker_shard(options.worker_index);
    run_worker_in(options, &PointStore::default(), false)
}

/// [`run_worker`] over a caller's point store. `in_process` marks a worker
/// thread inside the broker's own process (`boomerang-sim run`): the broker
/// already counts that process's rows at its journal appends, so such a
/// thread registers no fault shard and skips the worker-side fault points —
/// each journaled row advances the fault row counter once.
pub(crate) fn run_worker_in(
    options: &WorkerOptions,
    points: &PointStore,
    in_process: bool,
) -> Result<WorkerSummary, String> {
    let cache = match &options.artifact_cache {
        Some(dir) => Some(
            ArtifactCache::open(dir)
                .map_err(|e| format!("cannot open artifact cache {}: {e}", dir.display()))?,
        ),
        None => None,
    };
    let mut summary = WorkerSummary::default();
    let mut campaigns = Campaigns::new();
    let mut failures: u32 = 0;
    let mut connected_before = false;
    let parent = parent_pid();
    loop {
        match TcpStream::connect(&options.connect) {
            Ok(stream) => {
                let worker = Worker {
                    options,
                    cache: &cache,
                    points,
                    in_process,
                };
                match session(stream, &worker, &mut campaigns, &mut summary) {
                    Ok(SessionEnd::Shutdown(reason)) => {
                        summary.shutdown_reason = reason;
                        return Ok(summary);
                    }
                    Ok(SessionEnd::Lost(e)) => {
                        // The handshake succeeded before the loss: the
                        // outage counter restarts.
                        if connected_before {
                            summary.reconnects += 1;
                        }
                        connected_before = true;
                        failures = 1;
                        if !options.quiet {
                            eprintln!(
                                "worker {}: connection lost ({e}); reconnecting",
                                options.worker_index
                            );
                        }
                    }
                    Ok(SessionEnd::Rejected(reason)) => {
                        // Reconnecting at once matters when the queue is
                        // nearly drained: a backoff could outlast the broker.
                        summary.reconnects += u64::from(connected_before);
                        connected_before = true;
                        failures = 0;
                        if !options.quiet {
                            eprintln!(
                                "worker {}: session rejected ({reason}); reconnecting",
                                options.worker_index
                            );
                        }
                        continue;
                    }
                    Err(terminal) => return Err(terminal),
                }
            }
            Err(e) => {
                failures += 1;
                if !options.quiet {
                    eprintln!(
                        "worker {}: cannot connect to {} ({e}); attempt {}/{}",
                        options.worker_index, options.connect, failures, options.reconnect_tries
                    );
                }
            }
        }
        // A local worker of `serve` talks to its own parent; once that
        // process is gone there is no broker left to reconnect to.
        if parent != 0 && summary.broker_pid == parent && parent_pid() != parent {
            return Err(format!(
                "the serve process {parent} that spawned this worker exited"
            ));
        }
        if failures > options.reconnect_tries {
            return Err(format!(
                "broker {} unreachable after {} consecutive attempts",
                options.connect, options.reconnect_tries
            ));
        }
        let backoff = options
            .reconnect_base
            .saturating_mul(1u32 << failures.saturating_sub(1).min(20))
            .min(options.reconnect_cap);
        std::thread::sleep(backoff);
    }
}

/// This process's parent pid (0 where it cannot be read).
fn parent_pid() -> u64 {
    #[cfg(unix)]
    {
        u64::from(std::os::unix::process::parent_id())
    }
    #[cfg(not(unix))]
    {
        0
    }
}

/// One connection's lifetime: handshake, then one [`WorkerSession`].
/// `Ok(SessionEnd)` covers both clean shutdown and recoverable loss;
/// `Err(String)` is terminal (spec skew — reconnecting cannot help).
fn session(
    stream: TcpStream,
    worker: &Worker<'_>,
    campaigns: &mut Campaigns,
    summary: &mut WorkerSummary,
) -> Result<SessionEnd, String> {
    let options = worker.options;
    let mut reader = stream;
    let _ = reader.set_nodelay(true);
    let _ = reader.set_read_timeout(Some(Duration::from_secs(60)));
    let writer = match reader.try_clone() {
        Ok(w) => Arc::new(Mutex::new(w)),
        Err(e) => return Ok(SessionEnd::Lost(e)),
    };

    // Handshake first, so a failed connect never spawns a heartbeat thread.
    let hello = Message::Hello {
        worker: format!("worker-{}", options.worker_index),
        pid: std::process::id() as u64,
    };
    if let Err(e) = write_message(&mut *lock_writer(&writer)?, &hello) {
        return Ok(SessionEnd::Lost(e));
    }
    let interval = match read_message(&mut reader) {
        Ok(Message::Welcome {
            broker_pid,
            heartbeat_ms,
        }) => {
            summary.broker_pid = broker_pid;
            Duration::from_millis(heartbeat_ms.max(10))
        }
        Ok(other) => return Ok(out_of_turn(format!("expected Welcome, got {other:?}"))),
        Err(e) => return Ok(SessionEnd::Lost(e)),
    };

    // The heartbeat thread refreshes whatever lease the session currently
    // holds (0 = none). It dies with the connection: any write error or the
    // stop flag ends it, and `hb_stop` is always set — and the thread
    // unparked from its wait — before this function returns.
    let current_lease = Arc::new(AtomicU64::new(0));
    let hb_stop = Arc::new(AtomicBool::new(false));
    let hb_handle = {
        let writer = Arc::clone(&writer);
        let current_lease = Arc::clone(&current_lease);
        let hb_stop = Arc::clone(&hb_stop);
        std::thread::spawn(move || {
            while !hb_stop.load(Ordering::Relaxed) {
                let due = Instant::now() + interval;
                while !hb_stop.load(Ordering::Relaxed) {
                    let Some(left) = due.checked_duration_since(Instant::now()) else {
                        break;
                    };
                    std::thread::park_timeout(left);
                }
                let lease = current_lease.load(Ordering::Relaxed);
                if lease == 0 || hb_stop.load(Ordering::Relaxed) {
                    continue;
                }
                let beat = Message::Heartbeat { lease };
                // A poisoned writer lock means a sender thread panicked
                // mid-frame; stop heartbeating — the session thread will
                // classify the poison as a terminal error.
                let Ok(mut w) = writer.lock() else { break };
                if write_message(&mut *w, &beat).is_err() {
                    break;
                }
            }
        })
    };
    let mut carried = WorkerSession::new(std::mem::take(campaigns));
    let result = lease_loop(
        &mut reader,
        &writer,
        &current_lease,
        worker,
        &mut carried,
        summary,
    );
    *campaigns = carried.into_campaigns();
    hb_stop.store(true, Ordering::Relaxed);
    current_lease.store(0, Ordering::Relaxed);
    let _ = reader.shutdown(std::net::Shutdown::Both);
    hb_handle.thread().unpark();
    let _ = hb_handle.join();
    result
}

/// Locks the shared socket writer, classifying a poisoned mutex — a sender
/// thread panicked mid-frame, leaving the socket's write state unknowable —
/// as a terminal session error instead of propagating the panic and taking
/// the whole worker process down without a diagnosis.
fn lock_writer<'a>(
    writer: &'a Arc<Mutex<TcpStream>>,
) -> Result<std::sync::MutexGuard<'a, TcpStream>, String> {
    writer.lock().map_err(|_| {
        "socket writer lock poisoned (a sender thread panicked mid-frame); \
         the connection state is unknowable — terminating the session"
            .to_string()
    })
}

/// One connection's request-reply loop: the socket work around a
/// [`WorkerSession`], plus the worker-side fault points. Every read or
/// write error ends the session `Lost`.
fn lease_loop(
    reader: &mut TcpStream,
    writer: &Arc<Mutex<TcpStream>>,
    current_lease: &AtomicU64,
    worker: &Worker<'_>,
    session: &mut WorkerSession,
    summary: &mut WorkerSummary,
) -> Result<SessionEnd, String> {
    let options = worker.options;
    let mut exit_after_row = false;
    let mut step = session.request();
    loop {
        step = match step {
            Step::Send(frame) => {
                let sent = write_message(&mut *lock_writer(writer)?, &frame);
                let reply = match sent.and_then(|()| read_message(reader)) {
                    Ok(reply) => reply,
                    Err(e) => return Ok(SessionEnd::Lost(e)),
                };
                match (&frame, &reply) {
                    (Message::LeaseRequest, Message::Lease { lease, .. }) => {
                        summary.leases += 1;
                        if !worker.in_process && fault::stall_this_lease() {
                            // The injected wedge: heartbeats stop (lease
                            // stays 0), the process stays alive, the
                            // broker's lease timeout must reclaim the job.
                            if !options.quiet {
                                eprintln!(
                                    "worker {}: injected heartbeat stall on lease {lease}",
                                    options.worker_index
                                );
                            }
                            fault::hang_now();
                        }
                    }
                    (Message::RowDone { job, .. }, Message::RowAck { .. }) => {
                        summary.rows += 1;
                        if let Some(state) = session.campaign().filter(|_| !options.quiet) {
                            eprintln!(
                                "worker {}: row {job} done ({}/{} jobs of {})",
                                options.worker_index,
                                summary.rows,
                                state.jobs.len(),
                                state.spec.name
                            );
                        }
                    }
                    (Message::RowDone { job, .. }, Message::Reject { reason })
                        if !options.quiet =>
                    {
                        eprintln!(
                            "worker {}: row {job} rejected: {reason}",
                            options.worker_index
                        );
                    }
                    _ => {}
                }
                let next = session.receive(reply)?;
                current_lease.store(session.lease(), Ordering::Relaxed);
                if std::mem::take(&mut exit_after_row) && !matches!(next, Step::End(_)) {
                    fault::exit_now();
                }
                next
            }
            Step::Sleep(pause) => {
                std::thread::sleep(pause);
                session.request()
            }
            Step::Run(job) => {
                let state = session
                    .campaign()
                    .ok_or("internal error: a leased job without its campaign")?;
                let stats = run_row(state, &job, worker, summary);
                exit_after_row = !worker.in_process && fault::on_row();
                Step::Send(session.row_done(stats_to_array(&stats).to_vec()))
            }
            Step::End(end) => return Ok(end),
        };
    }
}

/// Runs one row, generating (or cache-loading) its workload point in the
/// process's point store on first use — the same per-point recipe as the
/// in-memory engine, so the stats are bit-identical to an in-process run.
/// The thread that decodes a point counts it in its summary. A rejected or
/// unstorable artifact is warned about whatever `--quiet` says.
fn run_row(
    state: &CampaignState,
    job: &Job,
    worker: &Worker<'_>,
    summary: &mut WorkerSummary,
) -> frontend::SimStats {
    let slot = worker.points.slot(&state.hash, job.workload, job.seed);
    let data = slot.get_or_init(|| {
        let (data, cache_hit, warnings) = load_point(
            &state.spec,
            job.workload,
            job.seed,
            state.run,
            worker.cache.as_ref(),
        );
        for warning in warnings {
            eprintln!("worker {}: warning: {warning}", worker.options.worker_index);
        }
        if cache_hit {
            summary.cache_hits += 1;
        } else {
            summary.generated += 1;
        }
        data
    });
    data.run_with_predictor(
        job.mechanism,
        &state.configs[job.config],
        state.spec.predictor,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::STAT_FIELD_COUNT;

    /// Expands to two jobs: the implicit baseline and fdip.
    const SPEC: &str = "name = \"session\"
workloads = [\"nutch\"]
mechanisms = [\"fdip\"]
";

    /// A `Lease` of `job` carrying `spec_toml` under its true hash, or
    /// under `hash` when given.
    fn lease(lease: u64, job: u64, spec_toml: &str, hash: Option<&str>) -> Message {
        let spec = CampaignSpec::from_toml_str(SPEC).unwrap();
        Message::Lease {
            lease,
            job,
            smoke: false,
            spec_hash: hash.map_or_else(|| spec_hash(&spec, spec.run, false), str::to_string),
            spec_toml: spec_toml.to_string(),
        }
    }

    /// What a fresh session does with `reply` to its first `LeaseRequest`.
    fn first(reply: Message) -> Result<Step, String> {
        WorkerSession::new(Campaigns::new()).receive(reply)
    }

    #[test]
    fn sessions_end_on_shutdown_reject_and_a_job_outside_the_expansion() {
        let shutdown = first(Message::Shutdown {
            reason: "done".into(),
        });
        assert!(matches!(&shutdown, Ok(Step::End(SessionEnd::Shutdown(r))) if r == "done"));
        let rejected = first(Message::Reject {
            reason: "barred".into(),
        });
        assert!(matches!(&rejected, Ok(Step::End(SessionEnd::Rejected(r))) if r == "barred"));
        for job in [2, u64::MAX] {
            let lost = first(lease(1, job, SPEC, None));
            assert!(
                matches!(&lost, Ok(Step::End(SessionEnd::Lost(e)))
                    if e.to_string().contains("outside the 2-job expansion")),
                "{lost:?}"
            );
        }
        let out_of_turn = first(Message::RowAck { job: 0 });
        assert!(matches!(out_of_turn, Ok(Step::End(SessionEnd::Lost(_)))));
        let idle = first(Message::NoWork { retry_ms: 0 });
        assert!(matches!(idle, Ok(Step::Sleep(pause)) if pause == Duration::from_millis(10)));
    }

    #[test]
    fn spec_hash_skew_is_terminal() {
        let skew = first(lease(1, 0, SPEC, Some("fnv1a64:0000000000000000"))).unwrap_err();
        assert!(skew.contains("spec hash skew"), "{skew}");
        let garbage = first(lease(1, 0, "not a spec = [", None)).unwrap_err();
        assert!(garbage.contains("does not parse"), "{garbage}");
    }

    /// The retransmit rule: a session whose ack was lost ends with its
    /// connection, and the next one, handed the same campaigns, holds no
    /// lease and asks for one instead of resending the row.
    #[test]
    fn a_row_is_checksummed_and_a_lost_ack_is_never_resent() {
        let mut session = WorkerSession::new(Campaigns::new());
        assert!(
            matches!(session.receive(lease(4, 1, SPEC, None)), Ok(Step::Run(job)) if job.index == 1)
        );
        assert_eq!(session.lease(), 4);
        let stats = vec![3; STAT_FIELD_COUNT];
        let Message::RowDone {
            lease: 4,
            job: 1,
            mechanism,
            seed,
            row_fnv,
            ..
        } = session.row_done(stats.clone())
        else {
            panic!("the row answers lease 4, job 1");
        };
        assert_eq!(row_fnv, row_checksum(1, &mechanism, seed, &stats));
        let mut next = WorkerSession::new(session.into_campaigns());
        assert_eq!(next.lease(), 0);
        assert!(matches!(next.request(), Step::Send(Message::LeaseRequest)));
        // The campaign carried over: a lease of it needs no spec TOML.
        assert!(matches!(
            next.receive(lease(5, 0, "", None)),
            Ok(Step::Run(_))
        ));
        // A rejected row frees the lease as an ack does.
        let after = next.receive(Message::Reject {
            reason: "late".into(),
        });
        assert!(matches!(after, Ok(Step::Send(Message::LeaseRequest))));
        assert_eq!(next.lease(), 0);
    }
}
