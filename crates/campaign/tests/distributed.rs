//! Distributed-mode chaos suite: the TCP work queue under process faults.
//!
//! Every test drives a real `boomerang-sim serve --listen` broker and real
//! `boomerang-sim worker --connect` processes over loopback, injects
//! deterministic faults that need real processes — crashes and heartbeat
//! stalls armed in the processes themselves, a broker killed and
//! restarted, garbage and torn bytes on a raw socket, and a hand-written
//! client that submits a row whose stats changed after checksumming — and
//! asserts the contract that makes distribution safe to use at all: the
//! merged report is **byte-identical** to an undisturbed single-process
//! run, no matter how the campaign was cut up or disturbed.
//!
//! Damage between a worker and the broker — retransmitted rows, torn and
//! bit-flipped frames in either direction, connections dropped before an
//! ack, rows corrupted after checksumming — is not done here. The schedule
//! explorer in `serve::tests` does it to the frames between real worker
//! sessions and the real broker state machine, over many seeded schedules,
//! and also checks the broker's lease rules: dedup, re-verification by
//! another session, quarantine, expiry.

use std::io::Write as _;
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Output, Stdio};
use std::time::{Duration, Instant};

use campaign::checkpoint::{row_checksum, STAT_FIELD_COUNT};
use campaign::proto::{encode, read_message, write_message};
use campaign::Message;
use testkit::temp_dir;

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

/// `serve --smoke --quiet --workers 0` over `spool` and `out`, then
/// `extra` (a repeated flag's last value wins), its stderr piped.
fn serve_command(spool: &Path, out: &Path, extra: &[&str]) -> Command {
    let mut command = Command::new(BIN);
    command
        .args(["serve", "--smoke", "--quiet", "--workers", "0", "--spool"])
        .arg(spool)
        .arg("--out")
        .arg(out)
        .args(extra)
        .stderr(Stdio::piped());
    command
}

/// Spawns `serve --listen 127.0.0.1:0 --once` on a one-submission spool
/// and returns (child, spool, out, bound address).
fn spawn_broker(tag: &str, spec_text: &str, extra: &[&str]) -> (Child, PathBuf, PathBuf, String) {
    let spool = temp_dir(&format!("{tag}-spool"));
    let out = temp_dir(&format!("{tag}-out"));
    std::fs::write(spool.join("job.toml"), spec_text).unwrap();
    let addr_file = spool.join("addr");
    let addr_arg = addr_file.to_str().unwrap();
    let mut args = vec![
        "--once",
        "--listen",
        "127.0.0.1:0",
        "--listen-addr-file",
        addr_arg,
    ];
    args.extend(["--lease-timeout-secs", "2", "--backoff-ms", "10"]);
    args.extend_from_slice(extra);
    let child = serve_command(&spool, &out, &args).spawn().unwrap();
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
/// workers while one crashes outright and one goes silent until its lease
/// expires and is reassigned — and the merged report is still
/// byte-identical to a clean one-shot run.
#[test]
fn figure9_smoke_under_network_chaos_matches_a_single_process_run() {
    let spec_text = campaign::presets::find("figure9").unwrap().to_toml_string();
    let reference = clean_reference("f9", &spec_text, "figure9");
    let (broker, spool, out, addr) = spawn_broker("f9", &spec_text, &[]);

    // Worker 1 crashes after 2 rows; worker 2 stops heartbeating on its 4th
    // lease and hangs until we kill it; worker 0 drains the rest.
    let steady = spawn_worker(&addr, 0, &[]);
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

    let steady = steady.wait_with_output().unwrap();
    assert!(steady.status.success(), "{}", stderr_of(&steady));
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

    let serve_args = ["--once", "--lease-timeout-secs", "2", "--listen", &addr];
    // The broker journals every row, so `after-rows` armed here counts
    // *broker* appends; no `shard=` filter means it is not scoped to a
    // worker process.
    let fault = [
        serve_args.as_slice(),
        &["--fault-inject", "worker-exit:after-rows=3"],
    ]
    .concat();

    // The worker outlives both broker lives on a generous reconnect budget.
    let worker = spawn_worker(
        &addr,
        0,
        &["--reconnect-ms", "50", "--reconnect-tries", "400"],
    );

    let first = serve_command(&spool, &out, &fault).output().unwrap();
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

    let second = serve_command(&spool, &out, &serve_args).output().unwrap();
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

/// A worker that lies once, speaking `campaign::proto` itself: it takes a
/// lease and answers it with a row whose stats changed after checksumming.
/// Returns the broker's answer to that row.
fn submit_corrupt_row(addr: &str) -> Message {
    let mut stream = TcpStream::connect(addr).unwrap();
    let mut exchange = |msg: Message| {
        write_message(&mut stream, &msg).unwrap();
        read_message(&mut stream).unwrap()
    };
    let hello = Message::Hello {
        worker: "liar".to_string(),
        pid: u64::from(std::process::id()),
    };
    assert!(matches!(exchange(hello), Message::Welcome { .. }));
    let (lease, job, spec_hash, spec_toml) = loop {
        match exchange(Message::LeaseRequest) {
            Message::Lease {
                lease,
                job,
                spec_hash,
                spec_toml,
                ..
            } => break (lease, job, spec_hash, spec_toml),
            Message::NoWork { retry_ms } => std::thread::sleep(Duration::from_millis(retry_ms)),
            other => panic!("the liar's lease request got {other:?}"),
        }
    };
    let spec = campaign::CampaignSpec::from_toml_str(&spec_toml).unwrap();
    let leased = campaign::expand(&spec)[job as usize];
    let mechanism = campaign::mechanism_token(leased.mechanism).to_string();
    let mut stats = vec![0; STAT_FIELD_COUNT];
    let row_fnv = row_checksum(leased.index, &mechanism, leased.seed, &stats);
    stats[0] ^= 1;
    exchange(Message::RowDone {
        lease,
        job,
        spec_hash,
        mechanism,
        seed: leased.seed,
        row_fnv,
        stats,
    })
}

/// Garbage on the wire: a connection speaking HTTP, one that closes at
/// once and one that tears its `Hello` frame in half are each dropped by
/// the broker without disturbing the campaign.
#[test]
fn torn_frames_and_garbage_connections_do_not_disturb_the_campaign() {
    let reference = clean_reference("torn", MINI_SPEC, "dist-mini");
    let (broker, spool, out, addr) = spawn_broker("torn", MINI_SPEC, &[]);

    // Not-a-frame bytes: the broker must reject the header and drop us.
    let mut garbage = TcpStream::connect(&addr).unwrap();
    garbage.write_all(b"GET / HTTP/1.1\r\n\r\n").unwrap();
    // A connection that opens and immediately dies.
    drop(TcpStream::connect(&addr).unwrap());
    // Half a handshake frame, then the connection dies.
    let hello = encode(&Message::Hello {
        worker: "torn".to_string(),
        pid: 0,
    });
    let mut torn = TcpStream::connect(&addr).unwrap();
    torn.write_all(&hello[..hello.len() / 2]).unwrap();
    drop((garbage, torn));

    let worker = spawn_worker(&addr, 0, &[]);
    let output = broker.wait_with_output().unwrap();
    assert!(output.status.success(), "{}", stderr_of(&output));
    let worker = worker.wait_with_output().unwrap();
    assert!(worker.status.success(), "{}", stderr_of(&worker));

    assert!(spool.join("job.toml.done").exists());
    assert_report_matches(&out, "dist-mini", &reference);
    for dir in [spool, out] {
        std::fs::remove_dir_all(dir).unwrap();
    }
}

/// Row-payload corruption: a client's row reaches the broker with one stat
/// value changed after the row was checksummed. The broker's `row_fnv`
/// gate must reject the row, quarantine the offending session, requeue the
/// job — and the report an honest worker then completes is byte-identical.
#[test]
fn corrupt_row_is_quarantined_requeued_and_recovered_byte_identically() {
    let reference = clean_reference("rowcorrupt", MINI_SPEC, "dist-mini");
    let (broker, spool, out, addr) = spawn_broker("rowcorrupt", MINI_SPEC, &[]);
    let answer = submit_corrupt_row(&addr);
    assert!(
        matches!(&answer, Message::Reject { reason } if reason.contains("row_fnv")),
        "{answer:?}"
    );
    let honest = spawn_worker(&addr, 1, &[]);

    let output = broker.wait_with_output().unwrap();
    let serve_log = stderr_of(&output);
    assert!(output.status.success(), "{serve_log}");
    let honest = honest.wait_with_output().unwrap();
    assert!(honest.status.success(), "{}", stderr_of(&honest));

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
    let (broker, spool, out, addr) = spawn_broker("qbound", MINI_SPEC, &["--max-quarantined", "0"]);
    submit_corrupt_row(&addr);

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
    let (broker, spool, out, addr) =
        spawn_broker("verifyok", MINI_SPEC, &["--verify-fraction", "1.0"]);
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
    let addr_arg = addr_file.to_str().unwrap();
    let mut args = vec!["--listen", "127.0.0.1:0", "--listen-addr-file", addr_arg];
    args.extend([
        "--poll-ms",
        "50",
        "--settle-ms",
        "1500",
        "--max-scans",
        "100",
    ]);
    let broker = serve_command(&spool, &out, &args).spawn().unwrap();
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
    let (broker, spool, out, addr) =
        spawn_broker("hb-exit", MINI_SPEC, &["--lease-timeout-secs", "20"]);
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
