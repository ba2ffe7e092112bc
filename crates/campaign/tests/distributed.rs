//! Distributed-mode chaos suite: the TCP work queue under network faults.
//!
//! Every test drives a real `boomerang-sim serve --listen` broker and real
//! `boomerang-sim worker --connect` processes over loopback, injects
//! deterministic faults — crashes and heartbeat stalls armed in the
//! processes themselves, and wire damage done by a loopback proxy between
//! them (retransmitted rows, torn and bit-flipped frames in either
//! direction, dropped connections, rows whose stats were changed after
//! checksumming) — and asserts the contract
//! that makes distribution safe to use at all: the merged report is
//! **byte-identical** to an undisturbed single-process run, no matter how
//! the campaign was cut up or disturbed.
//!
//! These are the end-to-end checks. The broker's lease rules themselves —
//! dedup of retransmitted rows, re-verification by another session,
//! quarantine, expiry — are also checked without sockets, over many seeded
//! schedules, by the schedule explorer in `serve::tests`.

use std::io::Write as _;
use std::net::{Shutdown, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Output, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use campaign::proto::{encode, read_message, HEADER_LEN, TRAILER_LEN};
use campaign::Message;

const BIN: &str = env!("CARGO_BIN_EXE_boomerang-sim");
const FAULT_EXIT: i32 = campaign::FAULT_EXIT_CODE;

const MINI_SPEC: &str = "name = \"dist-mini\"
workloads = [\"nutch\", \"zeus\"]
mechanisms = [\"fdip\", \"boomerang\"]
seeds = [0, 1]

[run]
trace_blocks = 2000
warmup_blocks = 400
";

/// Rows in [`MINI_SPEC`]'s canonical expansion (2 workloads x 2 seeds x
/// (2 mechanisms + implicit baseline)).
const MINI_ROWS: usize = 12;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("boomerang-dist-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn stderr_of(output: &Output) -> String {
    String::from_utf8_lossy(&output.stderr).into_owned()
}

/// An undisturbed one-shot run of `spec_text`; returns the canonical
/// (JSON, CSV) report bytes every distributed run must reproduce exactly.
fn clean_reference(tag: &str, spec_text: &str, name: &str) -> (Vec<u8>, Vec<u8>) {
    let dir = temp_dir(&format!("{tag}-ref"));
    let spec = dir.join("spec.toml");
    std::fs::write(&spec, spec_text).unwrap();
    let output = Command::new(BIN)
        .args(["run", spec.to_str().unwrap(), "--smoke", "--quiet", "--out"])
        .arg(&dir)
        .output()
        .unwrap();
    assert!(output.status.success(), "{}", stderr_of(&output));
    let json = std::fs::read(dir.join(format!("{name}.json"))).unwrap();
    let csv = std::fs::read(dir.join(format!("{name}.csv"))).unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
    (json, csv)
}

/// Spawns `serve --listen 127.0.0.1:0 --once --smoke` on a one-submission
/// spool and returns (child, spool, out, bound address).
fn spawn_broker(tag: &str, spec_text: &str, extra: &[&str]) -> (Child, PathBuf, PathBuf, String) {
    let spool = temp_dir(&format!("{tag}-spool"));
    let out = temp_dir(&format!("{tag}-out"));
    std::fs::write(spool.join("job.toml"), spec_text).unwrap();
    let addr_file = spool.join("addr");
    let mut args = vec![
        "serve",
        "--once",
        "--smoke",
        "--quiet",
        "--listen",
        "127.0.0.1:0",
        "--lease-timeout-secs",
        "2",
        "--backoff-ms",
        "10",
        "--spool",
        spool.to_str().unwrap(),
        "--out",
        out.to_str().unwrap(),
        "--listen-addr-file",
        addr_file.to_str().unwrap(),
    ];
    args.extend_from_slice(extra);
    let child = Command::new(BIN)
        .args(&args)
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    let addr = wait_for_addr(&addr_file);
    (child, spool, out, addr)
}

/// Polls the `--listen-addr-file` until the broker has written its bound
/// address.
fn wait_for_addr(addr_file: &Path) -> String {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        if let Ok(text) = std::fs::read_to_string(addr_file) {
            let addr = text.trim().to_string();
            if !addr.is_empty() {
                return addr;
            }
        }
        assert!(
            Instant::now() < deadline,
            "broker never wrote its listen address"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// Spawns a `worker --connect` with the given extra flags.
fn spawn_worker(addr: &str, index: usize, extra: &[&str]) -> Child {
    let index = index.to_string();
    let mut args = vec!["worker", "--connect", addr, "--worker-index", &index];
    args.extend_from_slice(extra);
    Command::new(BIN)
        .args(&args)
        .stderr(Stdio::piped())
        .spawn()
        .unwrap()
}

fn assert_report_matches(out: &Path, name: &str, reference: &(Vec<u8>, Vec<u8>)) {
    assert_eq!(
        std::fs::read(out.join("job").join(format!("{name}.json"))).unwrap(),
        reference.0,
        "distributed JSON drifted from the undisturbed single-process run"
    );
    assert_eq!(
        std::fs::read(out.join("job").join(format!("{name}.csv"))).unwrap(),
        reference.1,
        "distributed CSV drifted from the undisturbed single-process run"
    );
}

/// The acceptance test: a figure9 smoke campaign leased to three TCP
/// workers while one loses its connection mid-row, one crashes outright,
/// and one goes silent until its lease expires and is reassigned — and the
/// merged report is still byte-identical to a clean one-shot run.
#[test]
fn figure9_smoke_under_network_chaos_matches_a_single_process_run() {
    let spec_text = campaign::presets::find("figure9").unwrap().to_toml_string();
    let reference = clean_reference("f9", &spec_text, "figure9");
    let (broker, spool, out, addr) = spawn_broker("f9", &spec_text, &["--workers", "0"]);

    // Worker 0's connection drops right after its 3rd row reaches the
    // broker (before the worker reads the ack), and the worker reconnects;
    // worker 1 crashes after 2 rows; worker 2 stops heartbeating on its 4th
    // lease and hangs until we kill it.
    let proxy = spawn_proxy(addr.clone(), Fault::DropAfterRow(3));
    let dropper = spawn_worker(&proxy.addr, 0, &[]);
    let crasher = spawn_worker(&addr, 1, &["--fault-inject", "worker-exit:after-rows=2"]);
    let mut staller = spawn_worker(
        &addr,
        2,
        &["--fault-inject", "heartbeat-stall:after-rows=4"],
    );

    let output = broker.wait_with_output().unwrap();
    let serve_log = stderr_of(&output);
    assert!(output.status.success(), "{serve_log}");
    let _ = staller.kill();
    let _ = staller.wait();

    let dropper = dropper.wait_with_output().unwrap();
    assert!(
        dropper.status.success(),
        "the disconnected worker must recover and drain: {}",
        stderr_of(&dropper)
    );
    assert_eq!(proxy.counts.fired.load(Ordering::SeqCst), 1);
    assert!(
        proxy.counts.connections.load(Ordering::SeqCst) >= 2,
        "the dropped worker must reconnect: {}",
        stderr_of(&dropper)
    );
    let crasher = crasher.wait_with_output().unwrap();
    assert_eq!(
        crasher.status.code(),
        Some(FAULT_EXIT),
        "{}",
        stderr_of(&crasher)
    );

    assert!(
        serve_log.contains("expired"),
        "the stalled worker's lease must expire and be reassigned: {serve_log}"
    );
    assert!(spool.join("job.toml.done").exists(), "{serve_log}");
    assert_report_matches(&out, "figure9", &reference);
    for dir in [spool, out] {
        std::fs::remove_dir_all(dir).unwrap();
    }
}

/// Mixed dispatch: a local supervised worker (which crashes once and is
/// restarted) and a remote worker drain the same queue.
#[test]
fn mixed_local_and_remote_workers_merge_byte_identically() {
    let reference = clean_reference("mixed", MINI_SPEC, "dist-mini");
    let (broker, spool, out, addr) = spawn_broker(
        "mixed",
        MINI_SPEC,
        &[
            "--workers",
            "1",
            "--fault-inject",
            "worker-exit:shard=0:after-rows=2",
        ],
    );
    let remote = spawn_worker(&addr, 1, &[]);

    let output = broker.wait_with_output().unwrap();
    let serve_log = stderr_of(&output);
    assert!(output.status.success(), "{serve_log}");
    assert!(
        serve_log.contains(&format!("exit status: {FAULT_EXIT}")),
        "the local worker's injected crash must be supervised: {serve_log}"
    );
    let remote = remote.wait_with_output().unwrap();
    assert!(remote.status.success(), "{}", stderr_of(&remote));

    assert!(spool.join("job.toml.done").exists(), "{serve_log}");
    assert_report_matches(&out, "dist-mini", &reference);
    for dir in [spool, out] {
        std::fs::remove_dir_all(dir).unwrap();
    }
}

/// The damage the loopback proxy of [`spawn_proxy`] does to the frames it
/// relays — an adversary on the wire, outside both processes. Ordinals count
/// from 1 over the proxy's lifetime, across the worker's reconnects, so each
/// one-shot fault acts exactly once.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Fault {
    /// Relay every `RowDone` twice — a retransmission whose first copy was
    /// not lost after all — and hide the second reply from the worker, so
    /// its request-reply conversation is undisturbed.
    DuplicateRows,
    /// Write the first half of the `n`th worker-to-broker frame, then drop
    /// both sockets: the torn TCP write.
    TearFrame(usize),
    /// Write the first half of the `n`th `Lease` on its way to the worker,
    /// then drop both sockets.
    TearLease(usize),
    /// Flip one payload byte of the `n`th worker-to-broker frame (a trailer
    /// byte if it has no payload), keeping the trailer computed over the
    /// true bytes: in-flight bit damage.
    FlipFrame(usize),
    /// Drop both sockets right after relaying the `n`th `RowDone`, before
    /// the worker reads its ack.
    DropAfterRow(usize),
    /// Re-encode the `n`th `RowDone` with `stats[0] ^= 1`: the frame
    /// trailer is valid, the row's `row_fnv` (over the true stats) is not —
    /// a worker lying about a row.
    LieInRow(usize),
}

/// A running loopback proxy.
struct Proxy {
    /// Where workers connect instead of the broker.
    addr: String,
    counts: Arc<Relayed>,
}

/// The proxy's counters, shared by every connection it relays.
#[derive(Default)]
struct Relayed {
    /// Times the fault acted (for `DuplicateRows`, rows duplicated).
    fired: AtomicUsize,
    /// Worker connections accepted: above 1 means a worker reconnected.
    connections: AtomicUsize,
    frames_up: AtomicUsize,
    rows: AtomicUsize,
    leases: AtomicUsize,
}

/// Shuts both sockets of a relayed connection, so the relay thread of the
/// other direction ends too.
fn hang_up_both(worker: &TcpStream, upstream: &TcpStream) {
    let _ = upstream.shutdown(Shutdown::Both);
    let _ = worker.shutdown(Shutdown::Both);
}

/// Starts a loopback proxy in front of `broker` that relays frames both
/// ways, decoding and re-encoding each one, and does `fault`'s damage.
fn spawn_proxy(broker: String, fault: Fault) -> Proxy {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let relayed = Arc::new(Relayed::default());
    let proxy = Proxy {
        addr,
        counts: Arc::clone(&relayed),
    };
    std::thread::spawn(move || {
        for conn in listener.incoming() {
            let Ok(worker) = conn else { return };
            let Ok(upstream) = TcpStream::connect(&broker) else {
                continue;
            };
            relayed.connections.fetch_add(1, Ordering::SeqCst);
            let (mut worker_rx, mut upstream_tx) =
                (worker.try_clone().unwrap(), upstream.try_clone().unwrap());
            let up = Arc::clone(&relayed);
            std::thread::spawn(move || {
                while let Ok(mut msg) = read_message(&mut worker_rx) {
                    let frame_no = up.frames_up.fetch_add(1, Ordering::SeqCst) + 1;
                    let row_no = match msg {
                        Message::RowDone { .. } => up.rows.fetch_add(1, Ordering::SeqCst) + 1,
                        _ => 0,
                    };
                    let damaged = match fault {
                        Fault::DuplicateRows => row_no > 0,
                        Fault::TearFrame(n) | Fault::FlipFrame(n) => frame_no == n,
                        Fault::DropAfterRow(n) | Fault::LieInRow(n) => row_no == n,
                        Fault::TearLease(_) => false,
                    };
                    let mut frame = encode(&msg);
                    let (mut copies, mut hang_up) = (1, false);
                    if damaged {
                        up.fired.fetch_add(1, Ordering::SeqCst);
                        match fault {
                            Fault::DuplicateRows => copies = 2,
                            Fault::TearFrame(_) => {
                                frame.truncate(frame.len() / 2);
                                hang_up = true;
                            }
                            Fault::FlipFrame(_) => {
                                let payload = frame.len() - HEADER_LEN - TRAILER_LEN;
                                let at = match payload {
                                    0 => frame.len() - 1,
                                    _ => HEADER_LEN + payload / 2,
                                };
                                frame[at] ^= 0x01;
                            }
                            Fault::DropAfterRow(_) => hang_up = true,
                            Fault::LieInRow(_) => {
                                if let Message::RowDone { stats, .. } = &mut msg {
                                    stats[0] ^= 1;
                                }
                                frame = encode(&msg);
                            }
                            Fault::TearLease(_) => {}
                        }
                    }
                    if (0..copies).any(|_| upstream_tx.write_all(&frame).is_err()) || hang_up {
                        break;
                    }
                }
                hang_up_both(&worker_rx, &upstream_tx);
            });
            let (mut upstream_rx, mut worker_tx) = (upstream, worker);
            let down = Arc::clone(&relayed);
            std::thread::spawn(move || {
                // Under `DuplicateRows` every row's replies arrive in pairs:
                // pass the first of each pair, drop the second.
                let mut row_replies = 0usize;
                while let Ok(msg) = read_message(&mut upstream_rx) {
                    if fault == Fault::DuplicateRows
                        && matches!(msg, Message::RowAck { .. } | Message::Reject { .. })
                    {
                        row_replies += 1;
                        if row_replies.is_multiple_of(2) {
                            continue;
                        }
                    }
                    let mut frame = encode(&msg);
                    let tear = match fault {
                        Fault::TearLease(n) if matches!(msg, Message::Lease { .. }) => {
                            down.leases.fetch_add(1, Ordering::SeqCst) + 1 == n
                        }
                        _ => false,
                    };
                    if tear {
                        down.fired.fetch_add(1, Ordering::SeqCst);
                        frame.truncate(frame.len() / 2);
                    }
                    if worker_tx.write_all(&frame).is_err() || tear {
                        break;
                    }
                }
                hang_up_both(&worker_tx, &upstream_rx);
            });
        }
    });
    proxy
}

/// Idempotent submission: every row arrives at the broker twice (through a
/// retransmitting proxy), yet the journal holds exactly one line per job
/// and the report is byte-identical.
#[test]
fn duplicated_row_submissions_are_deduped_by_the_broker() {
    let reference = clean_reference("dup", MINI_SPEC, "dist-mini");
    let (broker, spool, out, addr) = spawn_broker("dup", MINI_SPEC, &["--workers", "0"]);
    let proxy = spawn_proxy(addr, Fault::DuplicateRows);
    let worker = spawn_worker(&proxy.addr, 0, &[]);

    let output = broker.wait_with_output().unwrap();
    assert!(output.status.success(), "{}", stderr_of(&output));
    let worker = worker.wait_with_output().unwrap();
    assert!(worker.status.success(), "{}", stderr_of(&worker));

    assert!(
        proxy.counts.fired.load(Ordering::SeqCst) >= MINI_ROWS,
        "every row must have been transmitted twice"
    );
    let journal = std::fs::read_to_string(out.join("job").join("dist-mini.journal.jsonl")).unwrap();
    assert_eq!(
        journal.lines().count(),
        1 + MINI_ROWS,
        "header + one line per job; a duplicate row leaked into the journal:\n{journal}"
    );
    assert_report_matches(&out, "dist-mini", &reference);
    for dir in [spool, out] {
        std::fs::remove_dir_all(dir).unwrap();
    }
}

/// Broker crash and restart: the first broker kills itself mid-campaign
/// (fault point in its own journal append), the worker rides the outage on
/// reconnect backoff, and a second broker on the same address resumes from
/// the journal — byte-identical.
#[test]
fn broker_crash_and_restart_resumes_from_the_journal() {
    let reference = clean_reference("restart", MINI_SPEC, "dist-mini");
    // A fixed port the worker can find again across broker lives.
    let port = {
        let probe = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        probe.local_addr().unwrap().port()
    };
    let addr = format!("127.0.0.1:{port}");
    let spool = temp_dir("restart-spool");
    let out = temp_dir("restart-out");
    std::fs::write(spool.join("job.toml"), MINI_SPEC).unwrap();

    let serve_args = |fault: bool| {
        let mut args: Vec<String> = [
            "serve",
            "--once",
            "--smoke",
            "--quiet",
            "--workers",
            "0",
            "--lease-timeout-secs",
            "2",
            "--listen",
            &addr,
            "--spool",
            spool.to_str().unwrap(),
            "--out",
            out.to_str().unwrap(),
        ]
        .map(String::from)
        .to_vec();
        if fault {
            // The broker journals every row, so `after-rows` armed here
            // counts *broker* appends; no `shard=` filter means it is not
            // scoped to a worker process.
            args.extend(["--fault-inject".into(), "worker-exit:after-rows=3".into()]);
        }
        args
    };

    // The worker outlives both broker lives on a generous reconnect budget.
    let worker = spawn_worker(
        &addr,
        0,
        &["--reconnect-ms", "50", "--reconnect-tries", "400"],
    );

    let first = Command::new(BIN).args(serve_args(true)).output().unwrap();
    assert_eq!(
        first.status.code(),
        Some(FAULT_EXIT),
        "{}",
        stderr_of(&first)
    );
    assert!(
        spool.join("job.toml").exists(),
        "a crashed broker must leave the submission in the spool"
    );

    let second = Command::new(BIN).args(serve_args(false)).output().unwrap();
    let serve_log = stderr_of(&second);
    assert!(second.status.success(), "{serve_log}");
    assert!(
        serve_log.contains("resuming") && serve_log.contains("3 of 12"),
        "the second broker must resume the 3 journaled rows: {serve_log}"
    );
    let worker = worker.wait_with_output().unwrap();
    assert!(
        worker.status.success(),
        "the worker must ride out the broker restart: {}",
        stderr_of(&worker)
    );

    assert!(spool.join("job.toml.done").exists(), "{serve_log}");
    assert_report_matches(&out, "dist-mini", &reference);
    for dir in [spool, out] {
        std::fs::remove_dir_all(dir).unwrap();
    }
}

/// Asserts that a worker behind `proxy` saw the proxy's fault act once and
/// reconnected past it, and drained cleanly.
fn assert_reconnected_past(proxy: &Proxy, worker: Child) {
    let worker = worker.wait_with_output().unwrap();
    let worker_log = stderr_of(&worker);
    assert!(
        worker.status.success(),
        "the worker must reconnect and drain: {worker_log}"
    );
    assert_eq!(proxy.counts.fired.load(Ordering::SeqCst), 1, "{worker_log}");
    assert!(
        proxy.counts.connections.load(Ordering::SeqCst) >= 2 && worker_log.contains("reconnecting"),
        "the damaged connection must end and the worker reconnect: {worker_log}"
    );
}

/// Frame-level damage: a worker whose 4th frame is torn mid-frame on its
/// way to the broker reconnects and finishes, and a connection speaking
/// garbage is dropped by the broker without disturbing the campaign.
#[test]
fn torn_frames_and_garbage_connections_do_not_disturb_the_campaign() {
    let reference = clean_reference("torn", MINI_SPEC, "dist-mini");
    let (broker, spool, out, addr) = spawn_broker("torn", MINI_SPEC, &["--workers", "0"]);

    // Not-a-frame bytes: the broker must reject the header and drop us.
    {
        let mut garbage = std::net::TcpStream::connect(&addr).unwrap();
        garbage.write_all(b"GET / HTTP/1.1\r\n\r\n").unwrap();
        let _ = garbage.shutdown(std::net::Shutdown::Write);
    }
    // A connection that opens and immediately dies.
    drop(std::net::TcpStream::connect(&addr).unwrap());

    let proxy = spawn_proxy(addr, Fault::TearFrame(4));
    let worker = spawn_worker(&proxy.addr, 0, &[]);
    let output = broker.wait_with_output().unwrap();
    assert!(output.status.success(), "{}", stderr_of(&output));
    assert_reconnected_past(&proxy, worker);

    assert!(spool.join("job.toml.done").exists());
    assert_report_matches(&out, "dist-mini", &reference);
    for dir in [spool, out] {
        std::fs::remove_dir_all(dir).unwrap();
    }
}

/// A frame torn on its way from the broker: the worker reads half of its
/// second `Lease`, loses the connection, reconnects, and the broker
/// re-leases the job — byte-identical.
#[test]
fn torn_lease_to_the_worker_is_survived_by_a_reconnect() {
    let reference = clean_reference("tornlease", MINI_SPEC, "dist-mini");
    let (broker, spool, out, addr) = spawn_broker("tornlease", MINI_SPEC, &["--workers", "0"]);
    let proxy = spawn_proxy(addr, Fault::TearLease(2));
    let worker = spawn_worker(&proxy.addr, 0, &[]);

    let output = broker.wait_with_output().unwrap();
    let serve_log = stderr_of(&output);
    assert!(output.status.success(), "{serve_log}");
    assert_reconnected_past(&proxy, worker);

    assert!(spool.join("job.toml.done").exists(), "{serve_log}");
    assert_report_matches(&out, "dist-mini", &reference);
    for dir in [spool, out] {
        std::fs::remove_dir_all(dir).unwrap();
    }
}

/// Bit-level frame damage (not a tear): the worker's 4th frame has one
/// payload byte flipped on the wire, under a trailer computed over the true
/// bytes. The broker's trailer check must reject the frame and drop the
/// connection; the worker reconnects and the campaign still renders
/// byte-identically.
#[test]
fn corrupt_frame_is_rejected_by_the_trailer_check_and_recovered() {
    let reference = clean_reference("framecorrupt", MINI_SPEC, "dist-mini");
    let (broker, spool, out, addr) = spawn_broker("framecorrupt", MINI_SPEC, &["--workers", "0"]);
    let proxy = spawn_proxy(addr, Fault::FlipFrame(4));
    let worker = spawn_worker(&proxy.addr, 0, &[]);

    let output = broker.wait_with_output().unwrap();
    let serve_log = stderr_of(&output);
    assert!(output.status.success(), "{serve_log}");
    assert_reconnected_past(&proxy, worker);

    assert!(spool.join("job.toml.done").exists(), "{serve_log}");
    assert_report_matches(&out, "dist-mini", &reference);
    for dir in [spool, out] {
        std::fs::remove_dir_all(dir).unwrap();
    }
}

/// Row-payload corruption: a worker's 2nd row reaches the broker with one
/// stat value changed after the row was checksummed. The broker's
/// `row_fnv` gate must reject the row, quarantine the offending session,
/// requeue the job — and the recovered report is byte-identical. The worker
/// reconnects as a fresh (clean) session.
#[test]
fn corrupt_row_is_quarantined_requeued_and_recovered_byte_identically() {
    let reference = clean_reference("rowcorrupt", MINI_SPEC, "dist-mini");
    let (broker, spool, out, addr) = spawn_broker("rowcorrupt", MINI_SPEC, &["--workers", "0"]);
    let proxy = spawn_proxy(addr.clone(), Fault::LieInRow(2));
    let liar = spawn_worker(&proxy.addr, 0, &[]);
    let honest = spawn_worker(&addr, 1, &[]);

    let output = broker.wait_with_output().unwrap();
    let serve_log = stderr_of(&output);
    assert!(output.status.success(), "{serve_log}");
    for (name, child) in [("liar", liar), ("honest", honest)] {
        let w = child.wait_with_output().unwrap();
        assert!(
            w.status.success(),
            "the {name} worker must drain (the liar reconnects as a clean session): {}",
            stderr_of(&w)
        );
    }
    assert_eq!(proxy.counts.fired.load(Ordering::SeqCst), 1);

    assert!(
        serve_log.contains("quarantining session") && serve_log.contains("row_fnv"),
        "the checksum reject and the quarantine must be logged: {serve_log}"
    );
    assert!(
        serve_log.contains("integrity summary") && serve_log.contains("1 checksum rejects"),
        "the integrity summary must count the reject: {serve_log}"
    );
    assert!(spool.join("job.toml.done").exists(), "{serve_log}");
    assert_report_matches(&out, "dist-mini", &reference);
    for dir in [spool, out] {
        std::fs::remove_dir_all(dir).unwrap();
    }
}

/// `--max-quarantined 0`: the first quarantined session breaches the bound,
/// the submission fails rather than grind on, and the serve process exits
/// with the dedicated quarantine code (5).
#[test]
fn quarantine_bound_fails_the_run_with_exit_code_five() {
    let (broker, spool, out, addr) = spawn_broker(
        "qbound",
        MINI_SPEC,
        &["--workers", "0", "--max-quarantined", "0"],
    );
    let proxy = spawn_proxy(addr, Fault::LieInRow(1));
    let mut liar = spawn_worker(&proxy.addr, 0, &[]);

    let output = broker.wait_with_output().unwrap();
    let serve_log = stderr_of(&output);
    assert_eq!(
        output.status.code(),
        Some(5),
        "the quarantine bound needs its own exit code: {serve_log}"
    );
    assert!(
        serve_log.contains("exceeding --max-quarantined"),
        "{serve_log}"
    );
    assert!(
        spool.join("job.toml.failed").exists(),
        "a quarantine-bound breach must fail the submission: {serve_log}"
    );
    let _ = liar.kill();
    let _ = liar.wait();
    assert_eq!(proxy.counts.fired.load(Ordering::SeqCst), 1);
    for dir in [spool, out] {
        std::fs::remove_dir_all(dir).unwrap();
    }
}

/// `--verify-fraction 1.0` with two workers: every row is re-leased to the
/// session that did not produce it, every re-run matches, nobody is
/// quarantined, and the report is byte-identical.
#[test]
fn sampled_reverification_passes_on_an_honest_fleet() {
    let reference = clean_reference("verifyok", MINI_SPEC, "dist-mini");
    let (broker, spool, out, addr) = spawn_broker(
        "verifyok",
        MINI_SPEC,
        &["--workers", "0", "--verify-fraction", "1.0"],
    );
    let a = spawn_worker(&addr, 0, &[]);
    let b = spawn_worker(&addr, 1, &[]);

    let output = broker.wait_with_output().unwrap();
    let serve_log = stderr_of(&output);
    assert!(output.status.success(), "{serve_log}");
    for child in [a, b] {
        let w = child.wait_with_output().unwrap();
        assert!(w.status.success(), "{}", stderr_of(&w));
    }

    let summary = serve_log
        .lines()
        .find(|l| l.contains("integrity summary"))
        .unwrap_or_else(|| panic!("no integrity summary in: {serve_log}"));
    assert!(
        !summary.contains("0 rows re-verified"),
        "a 1.0 fraction must actually re-verify rows: {summary}"
    );
    assert!(
        summary.contains("0 verification mismatches") && summary.contains("0 sessions quarantined"),
        "an honest fleet must come out clean: {summary}"
    );
    assert!(spool.join("job.toml.done").exists(), "{serve_log}");
    assert_report_matches(&out, "dist-mini", &reference);
    for dir in [spool, out] {
        std::fs::remove_dir_all(dir).unwrap();
    }
}

/// Point-affine leasing end to end: two workers draining a six-point
/// campaign each decode only the points they simulate. Summed over both
/// workers' exit lines the points stay within points + workers (at most a
/// final steal each). Both workers are connected before the queue opens:
/// the broker polls its spool and only takes the submission once its
/// mtime is `--settle-ms` old. Job-order leasing would then alternate the
/// two workers through each point's rows, so both would decode nearly
/// every point and fail the bound. The grant rank itself is pinned by the
/// `serve::tests` grant unit tests.
#[test]
fn two_workers_decode_each_point_about_once() {
    const SIX_POINT_SPEC: &str = "name = \"dist-points\"
workloads = [\"nutch\", \"zeus\", \"apache\"]
mechanisms = [\"fdip\", \"boomerang\"]
seeds = [0, 1]

[run]
trace_blocks = 2000
warmup_blocks = 400
";
    const POINTS: u64 = 6;
    let reference = clean_reference("points", SIX_POINT_SPEC, "dist-points");
    let spool = temp_dir("points-spool");
    let out = temp_dir("points-out");
    let addr_file = spool.join("addr");
    // No `--once`: the broker scans every 50 ms, the submission settles
    // 1.5 s after it is written, and the scan bound (>= 5 s of scans) ends
    // the service after the campaign.
    let broker = Command::new(BIN)
        .args([
            "serve",
            "--smoke",
            "--quiet",
            "--workers",
            "0",
            "--listen",
            "127.0.0.1:0",
            "--poll-ms",
            "50",
            "--settle-ms",
            "1500",
            "--max-scans",
            "100",
            "--spool",
            spool.to_str().unwrap(),
            "--out",
            out.to_str().unwrap(),
            "--listen-addr-file",
            addr_file.to_str().unwrap(),
        ])
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    let addr = wait_for_addr(&addr_file);
    let workers = [spawn_worker(&addr, 0, &[]), spawn_worker(&addr, 1, &[])];
    std::fs::write(spool.join("job.toml"), SIX_POINT_SPEC).unwrap();

    let output = broker.wait_with_output().unwrap();
    let serve_log = stderr_of(&output);
    assert!(output.status.success(), "{serve_log}");
    assert!(spool.join("job.toml.done").exists(), "{serve_log}");
    let mut decoded = 0;
    for child in workers {
        let w = child.wait_with_output().unwrap();
        let log = stderr_of(&w);
        assert!(w.status.success(), "{log}");
        // `worker N: R rows over L leases, C reconnects, P points (H cache
        // hits, G generated); <shutdown reason>`
        let line = log
            .lines()
            .find(|l| l.contains(" points ("))
            .unwrap_or_else(|| panic!("no exit line in: {log}"));
        let points: u64 = line
            .split(" points (")
            .next()
            .and_then(|head| head.rsplit(' ').next())
            .and_then(|n| n.parse().ok())
            .unwrap_or_else(|| panic!("unparseable exit line: {line}"));
        assert!(
            line.contains(&format!("(0 cache hits, {points} generated)")),
            "{line}"
        );
        assert!(
            points > 0,
            "worker {line} got no rows: both must share the campaign"
        );
        decoded += points;
    }
    assert!(
        decoded <= POINTS + 2,
        "two workers decoded {decoded} points of a {POINTS}-point campaign"
    );
    assert_report_matches(&out, "dist-points", &reference);
    for dir in [spool, out] {
        std::fs::remove_dir_all(dir).unwrap();
    }
}

/// A clean shutdown never waits out a heartbeat interval: a worker told to
/// heartbeat every 5 s (a 20 s lease timeout's interval) still exits within
/// a second of the broker finishing, because ending the session wakes its
/// heartbeat thread.
#[test]
fn worker_exits_promptly_when_the_broker_finishes() {
    let reference = clean_reference("hb-exit", MINI_SPEC, "dist-mini");
    let (broker, spool, out, addr) = spawn_broker(
        "hb-exit",
        MINI_SPEC,
        &["--workers", "0", "--lease-timeout-secs", "20"],
    );
    let mut worker = spawn_worker(&addr, 0, &[]);
    let output = broker.wait_with_output().unwrap();
    let finished = Instant::now();
    assert!(output.status.success(), "{}", stderr_of(&output));
    let exited = loop {
        if let Some(status) = worker.try_wait().unwrap() {
            break Some(status);
        }
        if finished.elapsed() >= Duration::from_secs(1) {
            break None;
        }
        std::thread::sleep(Duration::from_millis(10));
    };
    let Some(status) = exited else {
        let _ = worker.kill();
        let _ = worker.wait();
        panic!("the worker was still running 1 s after the broker finished");
    };
    assert!(status.success(), "{status}");
    assert_report_matches(&out, "dist-mini", &reference);
    for dir in [spool, out] {
        std::fs::remove_dir_all(dir).unwrap();
    }
}
