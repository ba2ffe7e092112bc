//! Runs a program and measures it from the outside: wall time, exit status
//! and peak resident memory.

use std::process::Command;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError};
use std::time::{Duration, Instant};

/// `struct timeval` on 64-bit Linux.
#[repr(C)]
#[derive(Default)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals, then fourteen longs of
/// which the first is the peak resident set size in KiB.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
    fn kill(pid: i32, sig: i32) -> i32;
}

const SIGKILL: i32 = 9;
const SIGTERM: i32 = 15;

/// How a measured program ended.
pub struct Finished {
    pub wall_s: f64,
    /// Peak resident memory of the program, or of the largest of its
    /// descendants it waited for, in KiB.
    pub peak_rss_kb: u64,
    pub success: bool,
    pub timed_out: bool,
}

/// Spawns `cmd`, waits for it and measures it. A program still running
/// after `timeout` gets SIGTERM (so it can stop its own children), then
/// SIGKILL two seconds later.
pub fn run_measured(cmd: &mut Command, timeout: Duration) -> Result<Finished, String> {
    let start = Instant::now();
    let child = cmd
        .spawn()
        .map_err(|e| format!("cannot start {:?}: {e}", cmd.get_program()))?;
    let pid = i32::try_from(child.id()).map_err(|_| "child pid out of range".to_string())?;
    let timed_out = AtomicBool::new(false);
    let (done, waiting) = mpsc::channel::<()>();
    let (status, usage, wall_s) = std::thread::scope(|s| {
        s.spawn(|| watchdog(pid, timeout, waiting, &timed_out));
        let mut status = 0i32;
        let mut usage = Rusage::default();
        let rc = loop {
            // SAFETY: `pid` is our own unreaped child (std never waits on
            // it: we never call `Child::wait`), and both out-pointers are
            // valid, exclusively borrowed locals of the C layout wait4
            // expects on 64-bit Linux.
            let rc = unsafe { wait4(pid, &mut status, 0, &mut usage) };
            if rc != -1 || std::io::Error::last_os_error().kind() != std::io::ErrorKind::Interrupted
            {
                break rc;
            }
        };
        // Read the clock before the watchdog is joined.
        let wall_s = start.elapsed().as_secs_f64();
        drop(done);
        ((rc == pid).then_some(status), usage, wall_s)
    });
    let status = status.ok_or_else(|| format!("waiting for {:?} failed", cmd.get_program()))?;
    // WIFEXITED(status) && WEXITSTATUS(status) == 0
    let success = status & 0x7f == 0 && (status >> 8) & 0xff == 0;
    Ok(Finished {
        wall_s,
        peak_rss_kb: usage.maxrss.max(0) as u64,
        success,
        timed_out: timed_out.load(Ordering::SeqCst),
    })
}

/// Signals `pid` if `done` is not dropped within `timeout`: SIGTERM, then
/// SIGKILL two seconds later.
fn watchdog(pid: i32, timeout: Duration, done: Receiver<()>, timed_out: &AtomicBool) {
    let mut wait = timeout;
    for signal in [SIGTERM, SIGKILL] {
        if done.recv_timeout(wait) != Err(RecvTimeoutError::Timeout) {
            return;
        }
        timed_out.store(true, Ordering::SeqCst);
        // SAFETY: plain syscall; the waiting thread has not reaped `pid` yet
        // (it drops `done` right after), so the pid still names our child.
        unsafe { kill(pid, signal) };
        wait = Duration::from_secs(2);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measures_exit_status_and_memory() {
        let ok = run_measured(&mut Command::new("true"), Duration::from_secs(30)).unwrap();
        assert!(ok.success && !ok.timed_out);
        assert!(ok.peak_rss_kb > 0);
        let bad = run_measured(&mut Command::new("false"), Duration::from_secs(30)).unwrap();
        assert!(!bad.success);
    }

    #[test]
    fn stops_a_program_that_overruns() {
        let mut cmd = Command::new("sleep");
        cmd.arg("30");
        let out = run_measured(&mut cmd, Duration::from_millis(200)).unwrap();
        assert!(out.timed_out && !out.success);
        assert!(out.wall_s < 10.0);
    }
}
