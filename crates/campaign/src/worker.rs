//! The TCP campaign worker: connect to a broker, lease jobs, run rows,
//! survive the network.
//!
//! `boomerang-sim worker --connect ADDR` runs [`run_worker`]: an outer
//! reconnect loop (capped exponential backoff, so a broker restart is a
//! pause, not a death) around a per-connection session. Each session
//! handshakes ([`Message::Hello`] → [`Message::Welcome`]), then loops
//! requesting leases. A leased job names the campaign by spec hash and
//! carries the canonical TOML, so the worker needs no shared filesystem: it
//! re-expands the spec locally, recomputes the hash (a mismatch is a
//! terminal error — the two ends disagree about what the campaign *is*),
//! and generates each distinct (workload, seed) point once per process,
//! optionally through the same content-addressed artifact cache the local
//! path uses.
//!
//! A heartbeat thread shares the socket (writes serialised by a mutex;
//! heartbeats are the protocol's only fire-and-forget frame, so the session
//! thread's request-reply reads never race a heartbeat's non-existent
//! reply) and refreshes whichever lease the session currently holds. If the
//! worker stalls — the injectable `heartbeat-stall` fault, or a real wedge —
//! the heartbeats stop and the broker's lease timeout reclaims the job.
//!
//! Completed rows are transmitted as [`Message::RowDone`] with the stat
//! counters in canonical journal column order plus the row's `row_fnv`
//! checksum, computed here over the stats the simulation actually produced
//! — the broker recomputes it from the received fields, so a row corrupted
//! anywhere between this process's simulator and the broker's journal can
//! never be recorded. The broker journals and acks. Row submission is
//! idempotent on the broker side, so the worker retransmits freely after a
//! reconnect — at worst the broker replies with a dedup ack.

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
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Connection and pacing policy for one worker process.
#[derive(Clone, Debug)]
pub struct WorkerOptions {
    /// Broker address (`host:port`).
    pub connect: String,
    /// This worker's index, quoted in the handshake and registered as the
    /// process's fault shard (so `shard=N` plans can address one worker).
    pub worker_index: usize,
    /// Heartbeat interval while a lease is held.
    pub heartbeat: Duration,
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
            heartbeat: Duration::from_secs(2),
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
struct CampaignState {
    spec: CampaignSpec,
    run: RunLength,
    jobs: Vec<Job>,
    configs: Vec<sim_core::MicroarchConfig>,
    /// Generated (workload axis index, seed) points, built lazily.
    data: HashMap<(usize, u64), WorkloadData>,
}

/// How a connection session ended.
enum SessionEnd {
    /// The broker said shutdown; the worker exits cleanly.
    Shutdown(String),
    /// The connection failed; reconnect with backoff.
    Lost(io::Error),
    /// The broker refused this session further leases; it is alive, so a
    /// fresh session reconnects at once.
    Rejected(String),
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
    let cache = match &options.artifact_cache {
        Some(dir) => Some(
            ArtifactCache::open(dir)
                .map_err(|e| format!("cannot open artifact cache {}: {e}", dir.display()))?,
        ),
        None => None,
    };
    let mut summary = WorkerSummary::default();
    let mut campaigns: HashMap<String, CampaignState> = HashMap::new();
    let mut failures: u32 = 0;
    let mut connected_before = false;
    let parent = parent_pid();
    loop {
        match TcpStream::connect(&options.connect) {
            Ok(stream) => {
                match session(stream, options, &cache, &mut campaigns, &mut summary) {
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

/// One connection's lifetime: handshake, then the lease/run/submit loop.
/// `Ok(SessionEnd)` covers both clean shutdown and recoverable loss;
/// `Err(String)` is terminal (spec skew — reconnecting cannot help).
fn session(
    stream: TcpStream,
    options: &WorkerOptions,
    cache: &Option<ArtifactCache>,
    campaigns: &mut HashMap<String, CampaignState>,
    summary: &mut WorkerSummary,
) -> Result<SessionEnd, String> {
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
    match read_message(&mut reader) {
        Ok(Message::Welcome { broker_pid }) => summary.broker_pid = broker_pid,
        Ok(other) => {
            return Ok(SessionEnd::Lost(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("expected Welcome, got {other:?}"),
            )))
        }
        Err(e) => return Ok(SessionEnd::Lost(e)),
    }

    // The heartbeat thread refreshes whatever lease the session currently
    // holds (0 = none). It dies with the connection: any write error or the
    // stop flag ends it, and `hb_stop` is always set before this function
    // returns.
    let current_lease = Arc::new(AtomicU64::new(0));
    let hb_stop = Arc::new(AtomicBool::new(false));
    let hb_handle = {
        let writer = Arc::clone(&writer);
        let current_lease = Arc::clone(&current_lease);
        let hb_stop = Arc::clone(&hb_stop);
        let interval = options.heartbeat;
        std::thread::spawn(move || {
            while !hb_stop.load(Ordering::Relaxed) {
                std::thread::sleep(interval);
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
    let result = lease_loop(
        &mut reader,
        &writer,
        &current_lease,
        options,
        cache,
        campaigns,
        summary,
    );
    hb_stop.store(true, Ordering::Relaxed);
    current_lease.store(0, Ordering::Relaxed);
    let _ = reader.shutdown(std::net::Shutdown::Both);
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

/// The session's request-reply loop. Every protocol read/write error is a
/// recoverable `SessionEnd::Lost`.
fn lease_loop(
    reader: &mut TcpStream,
    writer: &Arc<Mutex<TcpStream>>,
    current_lease: &AtomicU64,
    options: &WorkerOptions,
    cache: &Option<ArtifactCache>,
    campaigns: &mut HashMap<String, CampaignState>,
    summary: &mut WorkerSummary,
) -> Result<SessionEnd, String> {
    macro_rules! send {
        ($msg:expr) => {
            if let Err(e) = write_message(&mut *lock_writer(writer)?, $msg) {
                return Ok(SessionEnd::Lost(e));
            }
        };
    }
    macro_rules! recv {
        () => {
            match read_message(reader) {
                Ok(msg) => msg,
                Err(e) => return Ok(SessionEnd::Lost(e)),
            }
        };
    }
    loop {
        send!(&Message::LeaseRequest);
        match recv!() {
            Message::NoWork { retry_ms } => {
                std::thread::sleep(Duration::from_millis(retry_ms.clamp(10, 5_000)));
            }
            Message::Shutdown { reason } => return Ok(SessionEnd::Shutdown(reason)),
            Message::Reject { reason } => {
                // The broker refuses this *session* further leases (it was
                // quarantined after a failed row verification). Drop the
                // connection; a reconnect opens a fresh session.
                if !options.quiet {
                    eprintln!(
                        "worker {}: lease request rejected: {reason}",
                        options.worker_index
                    );
                }
                return Ok(SessionEnd::Rejected(reason));
            }
            Message::Lease {
                lease,
                job,
                smoke,
                spec_hash: wanted_hash,
                spec_toml,
            } => {
                summary.leases += 1;
                if fault::stall_this_lease() {
                    // The injected wedge: heartbeats stop (lease stays 0),
                    // the process stays alive, the broker's lease timeout
                    // must reclaim the job.
                    if !options.quiet {
                        eprintln!(
                            "worker {}: injected heartbeat stall on lease {lease}",
                            options.worker_index
                        );
                    }
                    fault::hang_now();
                }
                current_lease.store(lease, Ordering::Relaxed);
                let state = campaign_state(campaigns, &wanted_hash, &spec_toml, smoke)?;
                let job_index = job as usize;
                if job_index >= state.jobs.len() {
                    // A broker this confused is not one to keep talking to.
                    return Ok(SessionEnd::Lost(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!(
                            "leased job {job} outside the {}-job expansion",
                            state.jobs.len()
                        ),
                    )));
                }
                let leased = state.jobs[job_index];
                let stats = run_row(state, &leased, cache, options, summary);
                let row_faults = fault::on_worker_row();
                let mechanism = mechanism_token(leased.mechanism).to_string();
                let mut values = stats_to_array(&stats).to_vec();
                let row_fnv = row_checksum(job_index, &mechanism, leased.seed, &values);
                if row_faults.corrupt {
                    // Injected result corruption: one stat flips *after* the
                    // checksum was taken over the true values — the exact
                    // damage the broker's re-verification must catch (and
                    // quarantine this session for).
                    values[0] ^= 1;
                    if !options.quiet {
                        eprintln!(
                            "worker {}: injected row corruption on job {job}",
                            options.worker_index
                        );
                    }
                }
                let done = Message::RowDone {
                    lease,
                    job,
                    spec_hash: wanted_hash.clone(),
                    mechanism,
                    seed: leased.seed,
                    row_fnv,
                    stats: values,
                };
                let transmissions = if row_faults.duplicate { 2 } else { 1 };
                for _ in 0..transmissions {
                    send!(&done);
                }
                if row_faults.conn_drop {
                    // Drop the socket before reading the ack: the broker has
                    // (or will have) journaled the row; the retransmission
                    // after reconnect must dedup.
                    current_lease.store(0, Ordering::Relaxed);
                    return Ok(SessionEnd::Lost(io::Error::new(
                        io::ErrorKind::ConnectionReset,
                        "injected connection drop before ack",
                    )));
                }
                let mut acked = false;
                for _ in 0..transmissions {
                    match recv!() {
                        Message::RowAck { .. } => acked = true,
                        Message::Reject { reason } => {
                            if !options.quiet {
                                eprintln!(
                                    "worker {}: row {job} rejected: {reason}",
                                    options.worker_index
                                );
                            }
                        }
                        other => {
                            return Ok(SessionEnd::Lost(io::Error::new(
                                io::ErrorKind::InvalidData,
                                format!("expected RowAck/Reject, got {other:?}"),
                            )))
                        }
                    }
                }
                current_lease.store(0, Ordering::Relaxed);
                if acked {
                    summary.rows += 1;
                    if !options.quiet {
                        eprintln!(
                            "worker {}: row {job} done ({}/{} jobs of {})",
                            options.worker_index,
                            summary.rows,
                            state.jobs.len(),
                            state.spec.name
                        );
                    }
                }
                if row_faults.exit {
                    fault::exit_now();
                }
            }
            other => {
                return Ok(SessionEnd::Lost(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("expected Lease/NoWork/Shutdown, got {other:?}"),
                )))
            }
        }
    }
}

/// Fetches (or builds and caches) the per-campaign state for a spec hash.
/// Terminal errors: unparseable TOML, or a recomputed hash that contradicts
/// the broker's.
fn campaign_state<'a>(
    campaigns: &'a mut HashMap<String, CampaignState>,
    wanted_hash: &str,
    spec_toml: &str,
    smoke: bool,
) -> Result<&'a mut CampaignState, String> {
    if !campaigns.contains_key(wanted_hash) {
        let spec = CampaignSpec::from_toml_str(spec_toml)
            .map_err(|e| format!("leased spec does not parse: {e}"))?;
        let run = if smoke {
            RunLength::smoke_test()
        } else {
            spec.run
        };
        let computed = spec_hash(&spec, run, smoke);
        if computed != wanted_hash {
            return Err(format!(
                "spec hash skew: broker leased {wanted_hash}, this worker computes {computed} \
                 — mismatched binaries?"
            ));
        }
        let jobs = expand(&spec);
        let configs = spec.configs.iter().map(|c| c.build()).collect();
        campaigns.insert(
            wanted_hash.to_string(),
            CampaignState {
                spec,
                run,
                jobs,
                configs,
                data: HashMap::new(),
            },
        );
    }
    // The insert above (or an earlier lease) guarantees presence; classify
    // the impossible miss instead of panicking the worker process.
    campaigns
        .get_mut(wanted_hash)
        .ok_or_else(|| "internal error: campaign state missing after insert".to_string())
}

/// Runs one row, generating (or cache-loading) its workload point on first
/// use — the same per-point recipe as the local engine, so the stats are
/// bit-identical to an in-process run. A rejected or unstorable artifact is
/// warned about whatever `--quiet` says, as `run` does.
fn run_row(
    state: &mut CampaignState,
    job: &Job,
    cache: &Option<ArtifactCache>,
    options: &WorkerOptions,
    summary: &mut WorkerSummary,
) -> frontend::SimStats {
    let key = (job.workload, job.seed);
    if !state.data.contains_key(&key) {
        let (data, cache_hit, warnings) = load_point(
            &state.spec,
            job.workload,
            job.seed,
            state.run,
            cache.as_ref(),
        );
        for warning in warnings {
            eprintln!("worker {}: warning: {warning}", options.worker_index);
        }
        if cache_hit {
            summary.cache_hits += 1;
        } else {
            summary.generated += 1;
        }
        state.data.insert(key, data);
    }
    let data = &state.data[&key];
    data.run_with_predictor(
        job.mechanism,
        &state.configs[job.config],
        state.spec.predictor,
    )
}
