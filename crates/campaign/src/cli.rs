//! The `boomerang-sim` command line: one flag table per subcommand and one
//! parser. Each flag is defined once, with its name, value placeholder and
//! help, and a subcommand's table lists the flags it accepts. The parser
//! checks a command line against a table and `--help` is rendered from the
//! same tables, so the two cannot disagree. A bad value fails in one
//! wording, `bad --flag value `v` (want ...)`.

use std::fmt::Write as _;
use std::path::PathBuf;
use std::str::FromStr;
use std::time::Duration;

/// One command-line flag.
#[derive(Debug)]
pub struct Flag {
    /// The flag as typed, `--name`.
    pub name: &'static str,
    /// The placeholder of its value; empty for a switch.
    pub value: &'static str,
    /// Its help text.
    pub help: &'static str,
}

impl Flag {
    /// The flag as help shows it: `--out <DIR>`, or `--smoke` for a switch.
    pub fn usage(&self) -> String {
        match self.value {
            "" => self.name.to_string(),
            value => format!("{} <{value}>", self.name),
        }
    }
}

/// A subcommand's option table.
#[derive(Debug)]
pub struct Command {
    /// The title of its `--help` section.
    pub title: &'static str,
    /// What its one positional argument is; `None` if it takes none.
    pub positional: Option<&'static str>,
    /// The flags it accepts, in help order.
    pub flags: &'static [&'static Flag],
}

/// Defines each flag as a `pub static` [`Flag`]: `NAME "--flag" <"VALUE">
/// "help";`, with no `<"VALUE">` for a switch.
macro_rules! flags {
    ($($id:ident $name:literal $(<$value:literal>)? $help:literal;)*) => {$(
        #[doc = concat!("`", $name, "`: ", $help)]
        pub static $id: Flag = Flag { name: $name, value: concat!($($value)?), help: $help };
    )*};
}

flags! {
    PRESET "--preset" <"name"> "Run an embedded preset instead of a spec file";
    JOBS "--jobs" <"N"> "Worker threads (default: all cores); serve ignores it with a warning";
    SMOKE "--smoke" "Replace the spec's run length with a short smoke run (verify: audit one)";
    OUT "--out" <"DIR">
        "Output directory: a run's reports, row streams and checkpoint journal (default: \
         campaign-out), or serve's per-submission directories (default: serve-out)";
    ARTIFACT_CACHE "--artifact-cache" <"DIR">
        "Content-addressed workload artifact cache: repeat campaigns over the same workload \
         points skip generation; verify audits every artifact's header and payload checksum";
    RESUME "--resume"
        "Continue from the directory's checkpoint journal instead of refusing to touch it";
    FORCE "--force" "Clear an existing campaign (even a mismatching one) and start over";
    FAULT_INJECT "--fault-inject" <"PLAN">
        "Arm deterministic crash points (testing; serve forwards the plan to its workers): \
         kinds worker-exit, report-torn, spool-scan-error and heartbeat-stall, in the syntax of the README's failure model \
         (worker-exit:after-rows=N interrupts a run after N checkpointed rows)";
    QUIET "--quiet" "Suppress the progress banner and result table, or a worker's row logs";
    SPOOL "--spool" <"DIR">
        "Directory watched for *.toml submissions; each becomes *.done, *.partial or *.failed";
    WORKERS "--workers" <"N">
        "Local worker processes, each running one row at a time over loopback (default: one \
         per core; 0 = remote workers only, which needs a listen address)";
    ONCE "--once" "Process the submissions present now, then exit";
    POLL_MS "--poll-ms" <"MS"> "Spool poll interval (default: 500)";
    MAX_RETRIES "--max-retries" <"N"> "Restarts per crashed/hung local worker (default: 2)";
    WORKER_TIMEOUT_SECS "--worker-timeout-secs" <"S">
        "Kill a local worker that sends no lease request or row for S seconds; counts as a \
         retry (default: 300). Heartbeats do not count, so S must exceed the longest row, \
         point generation included, or a healthy worker is killed as hung";
    BACKOFF_MS "--backoff-ms" <"MS"> "Base restart backoff, doubling per retry (default: 250)";
    ALLOW_PARTIAL "--allow-partial"
        "When every local worker has exhausted its retries, write a degraded report with \
         the missing rows marked (exit code 4) instead of failing";
    SETTLE_MS "--settle-ms" <"MS">
        "Skip submissions modified within the last MS (default: 0 = off)";
    MAX_SCANS "--max-scans" <"N"> "Stop after N spool scans (testing; default: 0 = unlimited)";
    LISTEN "--listen" <"ADDR">
        "Expose the work queue on ADDR (e.g. 0.0.0.0:7000) to remote workers (default: a \
         private ephemeral loopback port)";
    LISTEN_ADDR_FILE "--listen-addr-file" <"FILE">
        "Write the bound work-queue address to FILE once listening";
    LEASE_TIMEOUT_SECS "--lease-timeout-secs" <"S">
        "Revoke and requeue, with backoff, a lease with no heartbeat or row for S seconds \
         (default: 60; at least 0.2); workers heartbeat four times per timeout (50 ms to 5 s)";
    VERIFY_FRACTION "--verify-fraction" <"F">
        "Re-lease a deterministic fraction F (0.0-1.0) of completed rows to a different \
         worker session and compare; a mismatch quarantines the producing session and \
         requeues its unverified rows (default: 0 = off; needs two workers)";
    MAX_QUARANTINED "--max-quarantined" <"N">
        "Fail a submission (exit code 5) once more than N worker sessions are quarantined \
         for corrupt results (default: unbounded)";
    CONNECT "--connect" <"ADDR">
        "Broker address (host:port) to lease jobs from; it sets the heartbeat interval";
    WORKER_INDEX "--worker-index" <"N">
        "This worker's index, quoted in its handshake and addressable by `shard=` fault \
         filters (default: 0)";
    RECONNECT_MS "--reconnect-ms" <"MS">
        "Base reconnect backoff, doubling per consecutive failure (default: 250)";
    RECONNECT_CAP_MS "--reconnect-cap-ms" <"MS"> "Reconnect backoff ceiling (default: 10000)";
    RECONNECT_TRIES "--reconnect-tries" <"N">
        "Consecutive failed reconnects before giving up (default: 6)";
    SPEC "--spec" <"FILE">
        "The campaign's spec TOML: adds the spec-hash, completeness, report-byte and \
         recompute checks to the self-contained journal row-checksum scan";
    RECOMPUTE "--recompute" <"N">
        "Re-simulate N sampled rows (the sample is deterministic per spec) and compare their \
         stats to the journal (default: 0 = off)";
}

/// `run <spec.toml>` and `resume <spec.toml>`.
#[rustfmt::skip]
pub static RUN: Command = Command {
    title: "OPTIONS (run and resume)",
    positional: Some("spec file"),
    flags: &[&PRESET, &JOBS, &SMOKE, &OUT, &ARTIFACT_CACHE, &RESUME, &FORCE, &FAULT_INJECT, &QUIET],
};

/// `serve`.
#[rustfmt::skip]
pub static SERVE: Command = Command {
    title: "SERVE OPTIONS (every submission is leased row by row from a work queue)",
    positional: None,
    flags: &[
        &SPOOL, &OUT, &WORKERS, &JOBS, &SMOKE, &ARTIFACT_CACHE, &ONCE, &POLL_MS, &MAX_RETRIES,
        &WORKER_TIMEOUT_SECS, &BACKOFF_MS, &ALLOW_PARTIAL, &SETTLE_MS, &MAX_SCANS, &FAULT_INJECT,
        &LISTEN, &LISTEN_ADDR_FILE, &LEASE_TIMEOUT_SECS, &VERIFY_FRACTION, &MAX_QUARANTINED, &QUIET,
    ],
};

/// `worker`, the client of a serve work queue.
#[rustfmt::skip]
pub static WORKER: Command = Command {
    title: "WORKER OPTIONS",
    positional: None,
    flags: &[&CONNECT, &WORKER_INDEX, &RECONNECT_MS, &RECONNECT_CAP_MS, &RECONNECT_TRIES,
        &ARTIFACT_CACHE, &FAULT_INJECT, &QUIET],
};

/// `verify <DIR>`, the offline audit of a campaign directory.
pub static VERIFY: Command = Command {
    title: "VERIFY OPTIONS (offline audit of a campaign directory)",
    positional: Some("campaign directory"),
    flags: &[&SPEC, &SMOKE, &RECOMPUTE, &ARTIFACT_CACHE],
};

/// Every subcommand's table, in help order.
pub static COMMANDS: [&Command; 4] = [&RUN, &SERVE, &WORKER, &VERIFY];

/// Column at which help text starts.
const HELP_COLUMN: usize = 27;
/// Width help lines wrap at.
const HELP_WIDTH: usize = 79;

/// The option sections of `--help`, one per table. A flag's help is written
/// out where the flag first appears and referred to after.
pub fn help() -> String {
    let mut out = String::new();
    let mut shown: Vec<&str> = Vec::new();
    for command in COMMANDS {
        let _ = writeln!(out, "\n{}:", command.title);
        for flag in command.flags {
            let help = if shown.contains(&flag.name) {
                "(as above)"
            } else {
                flag.help
            };
            shown.push(flag.name);
            help_entry(&mut out, &flag.usage(), help);
        }
    }
    out
}

/// Appends one help entry: `left` indented by four, then `help` wrapped in
/// the help column, starting on the next line if `left` reaches it.
fn help_entry(out: &mut String, left: &str, help: &str) {
    let mut line = format!("    {left}");
    if line.len() >= HELP_COLUMN {
        let _ = writeln!(out, "{line}");
        line.clear();
    }
    for word in help.split_whitespace() {
        if line.len() + 1 + word.len() > HELP_WIDTH {
            let _ = writeln!(out, "{line}");
            line.clear();
        }
        line.push_str(&" ".repeat(HELP_COLUMN.saturating_sub(line.len()).max(1)));
        line.push_str(word);
    }
    let _ = writeln!(out, "{line}");
}

/// A command line parsed against a [`Command`]'s table. Its typed readers
/// return `None` for a flag not given.
#[derive(Debug)]
pub struct Args<'a> {
    /// Each flag given, with its value (empty for a switch).
    given: Vec<(&'static str, &'a str)>,
    /// The positional argument, if given.
    pub positional: Option<&'a str>,
}

/// Parses `args` against `command`'s table. Every flag must be in it, the
/// last of a repeated flag wins, a valued flag takes the next argument
/// whatever it looks like, and only a command that takes a positional
/// argument gets one. `Ok(None)` means `-h` or `--help` was given.
///
/// # Errors
///
/// A message naming the unknown or valueless flag, or the unexpected
/// positional argument.
pub fn parse<'a>(command: &Command, args: &'a [String]) -> Result<Option<Args<'a>>, String> {
    let mut parsed = Args {
        given: Vec::new(),
        positional: None,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if arg == "-h" || arg == "--help" {
            return Ok(None);
        }
        if !arg.starts_with('-') {
            match (command.positional, parsed.positional) {
                (Some(_), None) => parsed.positional = Some(arg),
                (Some(what), Some(first)) => {
                    return Err(format!("one {what} only, got `{first}` and `{arg}`"))
                }
                (None, _) => return Err(format!("unexpected argument `{arg}`")),
            }
            continue;
        }
        let flag = (command.flags.iter().find(|f| f.name == arg))
            .ok_or_else(|| format!("unknown option `{arg}` (see --help)"))?;
        // A repeated flag's last value wins, so a caller can append an
        // override to a shared command line.
        parsed.given.retain(|&(name, _)| name != flag.name);
        let value = match flag.value {
            "" => "",
            what => it
                .next()
                .ok_or_else(|| format!("{} needs a value <{what}>", flag.name))?,
        };
        parsed.given.push((flag.name, value));
    }
    Ok(Some(parsed))
}

impl Args<'_> {
    fn value(&self, flag: &Flag) -> Option<&str> {
        let given = self.given.iter().find(|&&(name, _)| name == flag.name);
        given.map(|&(_, value)| value)
    }

    /// Reads `flag`'s value through `parse`; `want` says what a good value
    /// is when it fails.
    fn read<T>(
        &self,
        flag: &Flag,
        want: &str,
        parse: impl FnOnce(&str) -> Option<T>,
    ) -> Result<Option<T>, String> {
        let bad = |v| format!("bad {} value `{v}` (want {want})", flag.name);
        self.value(flag)
            .map(|v| parse(v).ok_or_else(|| bad(v)))
            .transpose()
    }

    /// Whether `flag` was given.
    pub fn switch(&self, flag: &Flag) -> bool {
        self.value(flag).is_some()
    }

    /// `flag`'s value as given.
    pub fn text(&self, flag: &Flag) -> Option<String> {
        self.value(flag).map(str::to_string)
    }

    /// `flag`'s value as a path.
    pub fn path(&self, flag: &Flag) -> Option<PathBuf> {
        self.value(flag).map(PathBuf::from)
    }

    /// `flag`'s value as a non-negative integer that fits `T`.
    pub fn count<T: FromStr>(&self, flag: &Flag) -> Result<Option<T>, String> {
        self.read(flag, "a non-negative integer", |v| v.parse().ok())
    }

    /// `flag`'s value as whole milliseconds.
    pub fn millis(&self, flag: &Flag) -> Result<Option<Duration>, String> {
        self.read(flag, "whole milliseconds", |v| {
            v.parse().ok().map(Duration::from_millis)
        })
    }

    /// `flag`'s value in seconds, as a duration that is finite,
    /// representable, not zero (so not `inf`, `1e300`, `nan` or `0`) and
    /// at least `floor`.
    pub fn seconds(&self, flag: &Flag, floor: Duration) -> Result<Option<Duration>, String> {
        let want = if floor.is_zero() {
            "a finite number of seconds above 0".to_string()
        } else {
            format!(
                "a finite number of seconds of at least {}",
                floor.as_secs_f64()
            )
        };
        self.read(flag, &want, |v| {
            let secs = Duration::try_from_secs_f64(v.parse().ok()?).ok();
            secs.filter(|d| !d.is_zero() && *d >= floor)
        })
    }

    /// `flag`'s value as a fraction from 0.0 to 1.0.
    pub fn fraction(&self, flag: &Flag) -> Result<Option<f64>, String> {
        self.read(flag, "0.0-1.0", |v| {
            v.parse().ok().filter(|f| (0.0..=1.0).contains(f))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|a| a.to_string()).collect()
    }

    fn parse_err(command: &Command, args: &[&str]) -> String {
        parse(command, &argv(args)).unwrap_err()
    }

    #[test]
    fn every_flag_is_defined_once_and_helped_where_it_first_appears() {
        let all: Vec<&Flag> = COMMANDS
            .iter()
            .flat_map(|c| c.flags.iter().copied())
            .collect();
        for a in &all {
            assert!(a.name.starts_with("--") && !a.help.is_empty(), "{a:?}");
            for b in &all {
                assert!(
                    a.name != b.name || std::ptr::eq(*a, *b),
                    "{} defined twice",
                    a.name
                );
            }
        }
        let mut names: Vec<&str> = all.iter().map(|f| f.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 31);
        let help = help();
        for command in COMMANDS {
            assert!(help.contains(&format!("\n{}:\n", command.title)));
            for (i, flag) in command.flags.iter().enumerate() {
                assert!(!command.flags[..i].iter().any(|f| f.name == flag.name));
            }
        }
        for flag in &all {
            let first = help.find(&format!("    {}", flag.usage())).unwrap();
            let words: Vec<&str> = flag.help.split_whitespace().collect();
            let shown: Vec<&str> = help[first..].split_whitespace().collect();
            assert!(
                shown.windows(words.len()).any(|w| w == words),
                "{}",
                flag.name
            );
        }
        for line in help.lines() {
            assert!(line.len() <= HELP_WIDTH, "help line too long: {line}");
        }
    }

    #[test]
    fn help_wraps_beside_short_flags_and_below_long_ones() {
        let mut out = String::new();
        help_entry(&mut out, "--out <DIR>", "one two");
        assert_eq!(out, format!("    --out <DIR>{}one two\n", " ".repeat(12)));
        let mut out = String::new();
        help_entry(&mut out, "--worker-timeout-secs <S>", "help");
        let indent = " ".repeat(HELP_COLUMN);
        assert_eq!(
            out,
            format!("    --worker-timeout-secs <S>\n{indent}help\n")
        );
        let mut out = String::new();
        help_entry(&mut out, "--x", &"word ".repeat(20));
        assert_eq!(out.lines().count(), 2, "{out}");
    }

    #[test]
    fn parser_rejects_unknown_valueless_and_extra_arguments() {
        assert!(parse_err(&SERVE, &["--bogus"]).contains("unknown option `--bogus`"));
        // A run flag is not a serve flag.
        assert!(parse_err(&SERVE, &["--force"]).contains("`--force`"));
        // The last of a repeated flag wins.
        let args = argv(&["--poll-ms", "5", "--once", "--poll-ms", "7", "--once"]);
        let parsed = parse(&SERVE, &args).unwrap().unwrap();
        assert_eq!(parsed.count::<u64>(&POLL_MS), Ok(Some(7)));
        assert!(parsed.switch(&ONCE));
        assert_eq!(
            parse_err(&WORKER, &["--connect"]),
            "--connect needs a value <ADDR>"
        );
        assert!(parse_err(&SERVE, &["stray"]).contains("`stray`"));
        assert!(parse_err(&VERIFY, &["a", "b"]).contains("one campaign directory"));
        // `-h` anywhere asks for help, except as a flag's value.
        assert!(parse(&RUN, &argv(&["x.toml", "-h"])).unwrap().is_none());
        let args = argv(&["--out", "-h"]);
        let parsed = parse(&RUN, &args).unwrap().unwrap();
        assert_eq!(parsed.path(&OUT), Some(PathBuf::from("-h")));
    }

    #[test]
    fn typed_readers_share_one_error_wording() {
        let args = argv(&[
            "--workers",
            "-3",
            "--verify-fraction",
            "1.5",
            "--backoff-ms",
            "2.5",
            "--max-quarantined",
            "99999999999999999999999",
        ]);
        let parsed = parse(&SERVE, &args).unwrap().unwrap();
        assert_eq!(
            parsed.count::<usize>(&WORKERS).unwrap_err(),
            "bad --workers value `-3` (want a non-negative integer)"
        );
        assert_eq!(
            parsed.fraction(&VERIFY_FRACTION).unwrap_err(),
            "bad --verify-fraction value `1.5` (want 0.0-1.0)"
        );
        assert!(parsed.millis(&BACKOFF_MS).is_err());
        assert!(parsed.count::<usize>(&MAX_QUARANTINED).is_err());
        assert_eq!(parsed.millis(&POLL_MS), Ok(None));
    }

    /// `--lease-timeout-secs inf` and `--worker-timeout-secs 1e300` once
    /// passed a `> 0` filter and then panicked converting to a `Duration`.
    #[test]
    fn checked_seconds_admit_only_finite_positive_durations() {
        for flag in [&LEASE_TIMEOUT_SECS, &WORKER_TIMEOUT_SECS] {
            let read = |v: &str| {
                let args = argv(&[flag.name, v]);
                parse(&SERVE, &args)
                    .unwrap()
                    .unwrap()
                    .seconds(flag, Duration::ZERO)
            };
            assert_eq!(read("2"), Ok(Some(Duration::from_secs(2))));
            assert_eq!(read("0.25"), Ok(Some(Duration::from_millis(250))));
            for bad in ["inf", "-inf", "nan", "1e300", "0", "-1", "1e-12", "two"] {
                let e = read(bad).unwrap_err();
                assert!(
                    e.starts_with(&format!("bad {} value `{bad}`", flag.name)),
                    "{e}"
                );
            }
        }
    }
}
