//! Row-level campaign checkpointing: an append-only JSONL journal.
//!
//! A campaign writes one journal line per completed job, flushed to disk the
//! moment the row exists. If the process is killed, `resume` replays the
//! journal(s) in the output directory, re-runs only the missing jobs, and the
//! merged report is byte-identical to an uninterrupted run — reports are a
//! pure function of the spec, and the journal just caches finished rows.
//!
//! # File format
//!
//! One campaign directory holds `<name>.journal.jsonl`; directories written
//! by older sharded workers also hold `<name>.journal-<i>.jsonl` per shard,
//! and replay reads them all. The first line is a header
//! object pinning the format version, the campaign name, the [`spec_hash`] of
//! the spec + run length, and the canonical job count:
//!
//! ```text
//! {"journal_format":2,"campaign":"figure9","spec_hash":"fnv1a64:…","jobs":45,"shard_index":0,"shard_count":1}
//! {"job":0,"mechanism":"baseline","seed":0,"row_fnv":…,"instructions":…,…}
//! ```
//!
//! Every subsequent line is one completed job: its canonical index, the
//! mechanism token and seed (cross-checked against the expanded job list on
//! replay — a journal can never be applied to a different spec), a `row_fnv`
//! checksum (FNV-1a-64 over the canonical `index|mechanism|seed|stats`
//! encoding, re-verified on replay so at-rest bit damage can never replay
//! silently into a report), and the full set of [`SimStats`] counters. A
//! truncated **final** line (the process died mid-write) is ignored on
//! replay; corruption anywhere else is an error. Replay and the offline
//! auditor ([`crate::verify`]) read a journal through one scanner.

use crate::expand::Job;
use crate::fault;
use crate::json::Json;
use crate::spec::{mechanism_token, CampaignSpec};
use boomerang::RunLength;
use frontend::stats::{MissBreakdown, SquashStats};
use frontend::SimStats;
use std::collections::HashMap;
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{self, BufRead as _, Write as _};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// Version stamp written in every journal header. Bump on any change to the
/// line schema. Format 2 added the per-row `row_fnv` checksum; any other
/// format is rejected rather than misread.
pub const JOURNAL_FORMAT: u64 = 2;

/// A checkpoint journal could not be read or does not belong to this
/// campaign.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CheckpointError {
    /// The journal file involved.
    pub path: PathBuf,
    /// 1-based line number, or 0 for file-level problems (I/O, header).
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl CheckpointError {
    fn file(path: &Path, message: impl Into<String>) -> Self {
        CheckpointError {
            path: path.to_path_buf(),
            line: 0,
            message: message.into(),
        }
    }

    fn at(path: &Path, line: usize, message: impl Into<String>) -> Self {
        CheckpointError {
            path: path.to_path_buf(),
            line,
            message: message.into(),
        }
    }
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line == 0 {
            write!(f, "journal {}: {}", self.path.display(), self.message)
        } else {
            write!(
                f,
                "journal {}:{}: {}",
                self.path.display(),
                self.line,
                self.message
            )
        }
    }
}

impl std::error::Error for CheckpointError {}

/// FNV-1a 64-bit digest, byte at a time. Besides [`spec_hash`] and every
/// row's `row_fnv`, it checks frame trailers ([`crate::proto`]), derives
/// artifact keys ([`crate::artifact::artifact_key`]), and seeds the row
/// samplers of `serve --verify-fraction` and [`crate::verify`]. Artifact
/// payloads use its word-wise form, [`crate::artifact::payload_fnv`].
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Content hash identifying a (spec, run length, smoke) triple.
///
/// This is what makes journals and output directories self-describing: a
/// journal written for one campaign can never be replayed into another, and
/// `run --out` refuses to mix outputs from different specs (satellite 1).
/// The hash covers the spec's canonical TOML rendering plus the *effective*
/// run length, so `--smoke` and a full run never share a hash.
pub fn spec_hash(spec: &CampaignSpec, run: RunLength, smoke: bool) -> String {
    let mut text = spec.to_toml_string();
    text.push_str(&format!(
        "\n# effective-run trace_blocks={} warmup_blocks={} smoke={}\n",
        run.trace_blocks, run.warmup_blocks, smoke
    ));
    format!("fnv1a64:{:016x}", fnv1a64(text.as_bytes()))
}

/// One journal column: its field name and the counter it reads.
type StatField = (&'static str, fn(&SimStats) -> u64);

/// The 17 stat counters, in journal column order, with their field names.
/// Shared by the journal writer, the replayer and the report's `stats`
/// object so they can never drift.
pub(crate) const STAT_FIELDS: [StatField; 17] = [
    ("instructions", |s| s.instructions),
    ("cycles", |s| s.cycles),
    ("fetch_stall_cycles", |s| s.fetch_stall_cycles),
    ("squash_stall_cycles", |s| s.squash_stall_cycles),
    ("ftq_empty_cycles", |s| s.ftq_empty_cycles),
    ("rob_full_cycles", |s| s.rob_full_cycles),
    ("squashes_btb_miss", |s| s.squashes.btb_miss),
    ("squashes_misprediction", |s| s.squashes.misprediction),
    ("btb_lookups", |s| s.btb_lookups),
    ("btb_misses", |s| s.btb_misses),
    ("prefetch_buffer_hits", |s| s.prefetch_buffer_hits),
    ("prefetches_issued", |s| s.prefetches_issued),
    ("conditional_predictions", |s| s.conditional_predictions),
    ("conditional_mispredictions", |s| {
        s.conditional_mispredictions
    }),
    ("miss_breakdown_sequential", |s| s.miss_breakdown.sequential),
    ("miss_breakdown_conditional", |s| {
        s.miss_breakdown.conditional
    }),
    ("miss_breakdown_unconditional", |s| {
        s.miss_breakdown.unconditional
    }),
];

/// Number of stat counters a journal row (and a `RowDone` protocol frame)
/// carries — the arity both ends of the wire check against.
pub const STAT_FIELD_COUNT: usize = STAT_FIELDS.len();

/// Flattens stats into the canonical journal column order, for transport in
/// a `RowDone` frame.
pub(crate) fn stats_to_array(stats: &SimStats) -> [u64; STAT_FIELD_COUNT] {
    let mut values = [0u64; STAT_FIELD_COUNT];
    for (slot, (_, read)) in values.iter_mut().zip(STAT_FIELDS.iter()) {
        *slot = read(stats);
    }
    values
}

/// Rebuilds stats from the canonical journal column order — the inverse of
/// [`stats_to_array`]. Returns `None` on arity mismatch.
pub(crate) fn stats_from_array(values: &[u64]) -> Option<SimStats> {
    if values.len() != STAT_FIELD_COUNT {
        return None;
    }
    stats_from_fields(|name| {
        STAT_FIELDS
            .iter()
            .position(|(field, _)| *field == name)
            .map(|i| values[i])
    })
}

/// The checksum every completed row carries, in the journal (`row_fnv`
/// field) and on the wire (`RowDone` frame): FNV-1a-64 over the canonical
/// `index|mechanism|seed|stat|stat|…` encoding, stats in `STAT_FIELDS`
/// column order. Writer, broker, replayer and auditor all compute it from
/// the same inputs, so a row whose bytes changed anywhere along the path —
/// a flipped stat digit, a corrupted frame payload, at-rest bitrot — can
/// never verify.
pub fn row_checksum(index: usize, mechanism: &str, seed: u64, stats: &[u64]) -> u64 {
    let mut text = format!("{index}|{mechanism}|{seed}");
    for value in stats {
        text.push('|');
        text.push_str(&value.to_string());
    }
    fnv1a64(text.as_bytes())
}

fn stats_from_fields(get: impl Fn(&'static str) -> Option<u64>) -> Option<SimStats> {
    Some(SimStats {
        instructions: get("instructions")?,
        cycles: get("cycles")?,
        fetch_stall_cycles: get("fetch_stall_cycles")?,
        miss_breakdown: MissBreakdown {
            sequential: get("miss_breakdown_sequential")?,
            conditional: get("miss_breakdown_conditional")?,
            unconditional: get("miss_breakdown_unconditional")?,
        },
        squash_stall_cycles: get("squash_stall_cycles")?,
        ftq_empty_cycles: get("ftq_empty_cycles")?,
        rob_full_cycles: get("rob_full_cycles")?,
        squashes: SquashStats {
            btb_miss: get("squashes_btb_miss")?,
            misprediction: get("squashes_misprediction")?,
        },
        btb_lookups: get("btb_lookups")?,
        btb_misses: get("btb_misses")?,
        prefetch_buffer_hits: get("prefetch_buffer_hits")?,
        prefetches_issued: get("prefetches_issued")?,
        conditional_predictions: get("conditional_predictions")?,
        conditional_mispredictions: get("conditional_mispredictions")?,
    })
}

/// An open, append-only checkpoint journal.
///
/// The campaign broker ([`crate::serve`]) is its only writer: it appends
/// each row it accepts from a worker. `record` locks an internal mutex and
/// writes the whole line in one call.
#[derive(Debug)]
pub struct Journal {
    path: PathBuf,
    file: Mutex<File>,
}

impl Journal {
    /// The journal path for `campaign` in `dir`: `<name>.journal.jsonl`, or
    /// the per-shard `<name>.journal-<i>.jsonl` layout older sharded workers
    /// wrote for shard `i` of `count > 1`.
    pub fn path_for(dir: &Path, campaign: &str, shard: Option<(usize, usize)>) -> PathBuf {
        match shard {
            Some((index, count)) if count > 1 => {
                dir.join(format!("{campaign}.journal-{index}.jsonl"))
            }
            _ => dir.join(format!("{campaign}.journal.jsonl")),
        }
    }

    /// Creates (truncating) the journal for a fresh run and writes the
    /// header line.
    ///
    /// The header is written to a `.tmp-<pid>` sibling and renamed into
    /// place, so a concurrently starting process (whose spec-mismatch check
    /// scans *every* journal in the directory) can never observe a
    /// created-but-headerless journal file.
    pub fn create(
        dir: &Path,
        campaign: &str,
        hash: &str,
        jobs: usize,
        shard: Option<(usize, usize)>,
    ) -> io::Result<Journal> {
        std::fs::create_dir_all(dir)?;
        let path = Journal::path_for(dir, campaign, shard);
        let tmp = path.with_extension(format!("jsonl.tmp-{}", std::process::id()));
        let (shard_index, shard_count) = shard.unwrap_or((0, 1));
        let header = Json::object()
            .field("journal_format", JOURNAL_FORMAT)
            .field("campaign", campaign)
            .field("spec_hash", hash)
            .field("jobs", jobs)
            .field("shard_index", shard_index)
            .field("shard_count", shard_count);
        let mut file = File::create(&tmp)?;
        writeln!(file, "{}", header.compact())?;
        // A full disk often only surfaces at sync time; swallowing it here
        // would rename an incomplete header into place as if it were durable.
        file.sync_data()?;
        drop(file);
        std::fs::rename(&tmp, &path)?;
        let file = OpenOptions::new().append(true).open(&path)?;
        Ok(Journal {
            path,
            file: Mutex::new(file),
        })
    }

    /// Reopens an existing journal in append mode (resume). The caller is
    /// expected to have validated the header via [`JournalReplay::load`]
    /// first.
    ///
    /// A process killed mid-`record` leaves an unterminated final line, which
    /// replay tolerates — but appending *after* it would weld the new row
    /// onto the torn prefix, turning tolerated tail damage into fatal
    /// interior corruption. So the reopen first truncates the file back to
    /// the end of its last complete (newline-terminated) line.
    pub fn append(
        dir: &Path,
        campaign: &str,
        shard: Option<(usize, usize)>,
    ) -> io::Result<Journal> {
        let path = Journal::path_for(dir, campaign, shard);
        let bytes = std::fs::read(&path)?;
        let keep = match bytes.iter().rposition(|&b| b == b'\n') {
            Some(last_newline) => last_newline + 1,
            None => 0,
        };
        let file = OpenOptions::new().append(true).open(&path)?;
        if keep < bytes.len() {
            file.set_len(keep as u64)?;
        }
        Ok(Journal {
            path,
            file: Mutex::new(file),
        })
    }

    /// Where this journal lives.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Appends one completed job. The full line is written in a single
    /// syscall so a kill can at worst truncate the final line — which replay
    /// tolerates — never interleave two rows.
    ///
    /// This is also the broker's row crash point (in a `run` process or
    /// a `serve` process): an armed [`crate::fault`] plan can exit after
    /// the durable write — the crash signature resume must survive.
    pub fn record(&self, job: &Job, stats: &SimStats) -> io::Result<()> {
        let mechanism = mechanism_token(job.mechanism);
        let values = stats_to_array(stats);
        let checksum = row_checksum(job.index, &mechanism, job.seed, &values);
        let mut row = Json::object()
            .field("job", job.index)
            .field("mechanism", mechanism)
            .field("seed", job.seed)
            .field("row_fnv", checksum);
        for (name, read) in STAT_FIELDS {
            row = row.field(name, read(stats));
        }
        let mut line = row.compact().into_bytes();
        line.push(b'\n');
        let exit = fault::on_row();
        append_durable(
            &mut *self.file.lock().expect("journal mutex poisoned"),
            &line,
        )?;
        if exit {
            fault::exit_now();
        }
        Ok(())
    }

    /// Deletes every journal file for `campaign` in `dir` (the `--force`
    /// path). Missing directory or files are fine.
    pub fn remove_all(dir: &Path, campaign: &str) -> io::Result<()> {
        for path in journal_files(dir, Some(campaign))? {
            std::fs::remove_file(path)?;
        }
        Ok(())
    }
}

/// One durable row append: the whole line in a single write, then a flush.
/// Both errors are surfaced — a full disk (ENOSPC) is often only reported
/// when buffered bytes hit the device, and swallowing it would let a
/// campaign "complete" with rows that were never written.
fn append_durable(file: &mut dyn io::Write, line: &[u8]) -> io::Result<()> {
    file.write_all(line)?;
    file.flush()
}

/// Journal files in `dir` — `campaign`'s when given, every campaign's
/// otherwise — sorted by name for deterministic replay order. Missing
/// directory → empty list.
pub(crate) fn journal_files(dir: &Path, campaign: Option<&str>) -> io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    let entries = match std::fs::read_dir(dir) {
        Ok(entries) => entries,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(files),
        Err(e) => return Err(e),
    };
    for entry in entries {
        let entry = entry?;
        let name = entry.file_name();
        let Some(owner) = name.to_str().and_then(journal_campaign) else {
            continue;
        };
        if campaign.is_none_or(|campaign| campaign == owner) {
            files.push(entry.path());
        }
    }
    files.sort();
    Ok(files)
}

/// The campaign a journal file name belongs to: exactly
/// `<campaign>.journal.jsonl` or `<campaign>.journal-<digits>.jsonl`.
fn journal_campaign(name: &str) -> Option<&str> {
    let stem = name.strip_suffix(".jsonl")?;
    if let Some(campaign) = stem.strip_suffix(".journal") {
        return Some(campaign);
    }
    let (campaign, shard) = stem.rsplit_once(".journal-")?;
    let digits = !shard.is_empty() && shard.bytes().all(|b| b.is_ascii_digit());
    digits.then_some(campaign)
}

/// The merged result of replaying every journal for a campaign.
#[derive(Clone, Debug, Default)]
pub struct JournalReplay {
    /// Completed rows by canonical job index (last occurrence wins).
    pub rows: HashMap<usize, SimStats>,
    /// The journal files that were read, in replay order.
    pub files: Vec<PathBuf>,
}

impl JournalReplay {
    /// Reads the spec hash from the first journal found for `campaign` in
    /// `dir`, or `None` if no journal exists yet. This is how `run --out`
    /// detects that a directory already belongs to a different spec.
    pub fn existing_hash(dir: &Path, campaign: &str) -> Result<Option<String>, CheckpointError> {
        let files = journal_files(dir, Some(campaign))
            .map_err(|e| CheckpointError::file(dir, format!("scanning directory: {e}")))?;
        let Some(path) = files.first() else {
            return Ok(None);
        };
        let header = read_header(path)?;
        Ok(Some(header.spec_hash))
    }

    /// Replays every journal for `campaign` in `dir`, validating each file's
    /// header against `expected_hash` and each row against the canonical
    /// `jobs` expansion. Rows for the same job are deduplicated **last
    /// occurrence wins**: shard files never overlap (the stats are identical
    /// by construction when they do), and within one broker journal a later
    /// row for the same job is a correction — the re-run that replaced a
    /// quarantined session's suspect row.
    pub fn load(
        dir: &Path,
        campaign: &str,
        expected_hash: &str,
        jobs: &[Job],
    ) -> Result<JournalReplay, CheckpointError> {
        let files = journal_files(dir, Some(campaign))
            .map_err(|e| CheckpointError::file(dir, format!("scanning directory: {e}")))?;
        let mut replay = JournalReplay::default();
        for path in files {
            // The spec-free scan, then the header checked against this
            // campaign and every row against the canonical job it claims.
            let scan = scan_journal(&path)?;
            let header_error = if scan.campaign != campaign {
                Some(format!(
                    "belongs to campaign `{}`, expected `{campaign}`",
                    scan.campaign
                ))
            } else if scan.spec_hash != expected_hash {
                Some(format!(
                    "spec hash {} does not match this spec's {expected_hash}",
                    scan.spec_hash
                ))
            } else if scan.jobs != jobs.len() as u64 {
                Some(format!(
                    "header says {} jobs, spec expands to {}",
                    scan.jobs,
                    jobs.len()
                ))
            } else {
                None
            };
            if let Some(message) = header_error {
                return Err(CheckpointError::at(&path, 1, message));
            }
            for row in scan.rows {
                let job = &jobs[row.index];
                let expected_mechanism = mechanism_token(job.mechanism);
                if row.mechanism != expected_mechanism || row.seed != job.seed {
                    return Err(CheckpointError::at(
                        &path,
                        row.line,
                        format!(
                            "row ({}, seed {}) does not match job {} ({expected_mechanism}, \
                             seed {})",
                            row.mechanism, row.seed, row.index, job.seed
                        ),
                    ));
                }
                replay.rows.insert(row.index, row.stats);
            }
            replay.files.push(path);
        }
        Ok(replay)
    }

    /// How many distinct jobs have checkpointed rows.
    pub fn completed(&self) -> usize {
        self.rows.len()
    }
}

/// What a standalone scan of one journal file found: the header's claims
/// plus every complete row, its `row_fnv` verified. Used as-is by the
/// offline auditor ([`crate::verify`]) and, with the spec cross-checks on
/// top, by replay.
pub(crate) struct JournalScan {
    /// The campaign the header claims.
    pub campaign: String,
    /// The spec hash the header claims.
    pub spec_hash: String,
    /// The job-expansion size the header claims.
    pub jobs: u64,
    /// The rows, in file order.
    pub rows: Vec<ScannedRow>,
}

/// One journal row whose `row_fnv` matched its contents.
pub(crate) struct ScannedRow {
    /// 1-based line number in the journal file.
    pub line: usize,
    /// Canonical job index (below the header's `jobs`).
    pub index: usize,
    /// The mechanism token the row claims.
    pub mechanism: String,
    /// The seed offset the row claims.
    pub seed: u64,
    /// The row's statistics.
    pub stats: SimStats,
}

/// Parses a header line: the current `journal_format`, the campaign name,
/// the spec hash and the job count must all be present.
fn parse_header(path: &Path, line: &str) -> Result<JournalScan, CheckpointError> {
    let fields = parse_flat_object(line)
        .map_err(|e| CheckpointError::at(path, 1, format!("malformed header: {e}")))?;
    let get = |key: &str| fields.iter().find(|(k, _)| k == key).map(|(_, v)| v);
    let format = get("journal_format")
        .and_then(Scalar::as_u64)
        .ok_or_else(|| CheckpointError::at(path, 1, "header field `journal_format` missing"))?;
    if format != JOURNAL_FORMAT {
        return Err(CheckpointError::at(
            path,
            1,
            format!("journal_format {format} (this build reads {JOURNAL_FORMAT})"),
        ));
    }
    let text = |key: &'static str| {
        get(key)
            .and_then(Scalar::as_str)
            .map(str::to_string)
            .ok_or_else(|| CheckpointError::at(path, 1, format!("header field `{key}` missing")))
    };
    Ok(JournalScan {
        campaign: text("campaign")?,
        spec_hash: text("spec_hash")?,
        jobs: get("jobs")
            .and_then(Scalar::as_u64)
            .ok_or_else(|| CheckpointError::at(path, 1, "header field `jobs` missing"))?,
        rows: Vec::new(),
    })
}

/// Reads and parses only the header line of a journal.
fn read_header(path: &Path) -> Result<JournalScan, CheckpointError> {
    let mut first = String::new();
    File::open(path)
        .and_then(|f| io::BufReader::new(f).read_line(&mut first))
        .map_err(|e| CheckpointError::file(path, format!("reading: {e}")))?;
    if first.is_empty() {
        return Err(CheckpointError::file(path, "empty journal"));
    }
    parse_header(path, first.trim_end_matches('\n'))
}

/// Scans one journal file without a spec: validates the header, parses
/// every row, bounds-checks its job index against the header's own `jobs`
/// claim, and recomputes every `row_fnv`. A damaged *final* line is the
/// expected signature of a process killed mid-write and is dropped (the
/// job simply re-runs); a damaged interior line is corruption.
pub(crate) fn scan_journal(path: &Path) -> Result<JournalScan, CheckpointError> {
    let bytes =
        std::fs::read(path).map_err(|e| CheckpointError::file(path, format!("reading: {e}")))?;
    // Bytes that are not UTF-8 decode to U+FFFD, so they fail the line they
    // sit on like any other damage, and a torn tail is still dropped.
    let text = String::from_utf8_lossy(&bytes);
    let lines: Vec<&str> = text.lines().collect();
    let Some((&header_line, row_lines)) = lines.split_first() else {
        return Err(CheckpointError::file(path, "empty journal"));
    };
    let mut scan = parse_header(path, header_line)?;
    for (i, line) in row_lines.iter().enumerate() {
        let lineno = i + 2;
        let last = i + 1 == row_lines.len();
        let fields = match parse_flat_object(line) {
            Ok(fields) => fields,
            Err(_) if last => break,
            Err(e) => {
                return Err(CheckpointError::at(
                    path,
                    lineno,
                    format!("malformed row: {e}"),
                ))
            }
        };
        let get = |key: &str| fields.iter().find(|(k, _)| k == key).map(|(_, v)| v);
        let (Some(index), Some(mechanism), Some(seed)) = (
            get("job").and_then(Scalar::as_u64),
            get("mechanism").and_then(Scalar::as_str),
            get("seed").and_then(Scalar::as_u64),
        ) else {
            if last {
                break;
            }
            return Err(CheckpointError::at(
                path,
                lineno,
                "row missing job/mechanism/seed",
            ));
        };
        if index >= scan.jobs {
            return Err(CheckpointError::at(
                path,
                lineno,
                format!(
                    "job index {index} out of range (header claims {} jobs)",
                    scan.jobs
                ),
            ));
        }
        let (Some(stats), Some(recorded)) = (
            stats_from_fields(|name| get(name).and_then(Scalar::as_u64)),
            get("row_fnv").and_then(Scalar::as_u64),
        ) else {
            if last {
                break;
            }
            return Err(CheckpointError::at(
                path,
                lineno,
                "row missing stat fields or `row_fnv`",
            ));
        };
        let index = index as usize;
        let computed = row_checksum(index, mechanism, seed, &stats_to_array(&stats));
        if recorded != computed {
            return Err(CheckpointError::at(
                path,
                lineno,
                format!(
                    "row_fnv {recorded:016x} does not match the row's contents \
                     (recomputed {computed:016x}): the row was damaged after it \
                     was written"
                ),
            ));
        }
        scan.rows.push(ScannedRow {
            line: lineno,
            index,
            mechanism: mechanism.to_string(),
            seed,
            stats,
        });
    }
    Ok(scan)
}

/// A value in a flat journal line: the only shapes the format uses.
#[derive(Clone, Debug, PartialEq)]
enum Scalar {
    Str(String),
    UInt(u64),
    Bool(bool),
}

impl Scalar {
    fn as_u64(&self) -> Option<u64> {
        match self {
            Scalar::UInt(u) => Some(*u),
            _ => None,
        }
    }

    fn as_str(&self) -> Option<&str> {
        match self {
            Scalar::Str(s) => Some(s),
            _ => None,
        }
    }
}

/// Parses one journal line: a single-level JSON object whose values are
/// strings, unsigned integers or booleans. Exactly the grammar [`Journal`]
/// writes — anything else is corruption.
fn parse_flat_object(line: &str) -> Result<Vec<(String, Scalar)>, String> {
    let mut p = Parser {
        bytes: line.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    p.expect(b'{')?;
    let mut fields = Vec::new();
    p.skip_ws();
    if p.peek() == Some(b'}') {
        p.pos += 1;
    } else {
        loop {
            p.skip_ws();
            let key = p.string()?;
            p.skip_ws();
            p.expect(b':')?;
            p.skip_ws();
            let value = p.scalar()?;
            fields.push((key, value));
            p.skip_ws();
            match p.next() {
                Some(b',') => continue,
                Some(b'}') => break,
                _ => return Err("expected `,` or `}`".into()),
            }
        }
    }
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err("trailing bytes after object".into());
    }
    Ok(fields)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn next(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, want: u8) -> Result<(), String> {
        if self.next() == Some(want) {
            Ok(())
        } else {
            Err(format!("expected `{}`", want as char))
        }
    }

    fn scalar(&mut self) -> Result<Scalar, String> {
        match self.peek() {
            Some(b'"') => Ok(Scalar::Str(self.string()?)),
            Some(b't') => self.literal("true").map(|()| Scalar::Bool(true)),
            Some(b'f') => self.literal("false").map(|()| Scalar::Bool(false)),
            Some(b'0'..=b'9') => {
                let start = self.pos;
                while matches!(self.peek(), Some(b'0'..=b'9')) {
                    self.pos += 1;
                }
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .ok()
                    .and_then(|s| s.parse::<u64>().ok())
                    .map(Scalar::UInt)
                    .ok_or_else(|| "integer out of range".to_string())
            }
            _ => Err("expected string, integer or boolean".into()),
        }
    }

    fn literal(&mut self, word: &str) -> Result<(), String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(())
        } else {
            Err(format!("expected `{word}`"))
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.next().ok_or("unterminated string")? {
                b'"' => return Ok(out),
                b'\\' => match self.next().ok_or("unterminated escape")? {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'n' => out.push('\n'),
                    b't' => out.push('\t'),
                    b'r' => out.push('\r'),
                    b'b' => out.push('\u{8}'),
                    b'f' => out.push('\u{c}'),
                    b'u' => {
                        if self.pos + 4 > self.bytes.len() {
                            return Err("truncated \\u escape".into());
                        }
                        let hex = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
                            .map_err(|_| "bad \\u escape".to_string())?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| "bad \\u escape".to_string())?;
                        self.pos += 4;
                        out.push(char::from_u32(code).ok_or("bad \\u escape")?);
                    }
                    b => return Err(format!("bad escape `\\{}`", b as char)),
                },
                b => {
                    // Re-sync to char boundaries for multi-byte UTF-8.
                    let start = self.pos - 1;
                    let len = utf8_len(b).ok_or("bad UTF-8")?;
                    if start + len > self.bytes.len() {
                        return Err("truncated UTF-8".into());
                    }
                    let s = std::str::from_utf8(&self.bytes[start..start + len])
                        .map_err(|_| "bad UTF-8".to_string())?;
                    out.push_str(s);
                    self.pos = start + len;
                }
            }
        }
    }
}

fn utf8_len(first: u8) -> Option<usize> {
    match first {
        0x00..=0x7f => Some(1),
        0xc0..=0xdf => Some(2),
        0xe0..=0xef => Some(3),
        0xf0..=0xf7 => Some(4),
        _ => None,
    }
}

#[cfg(test)]
mod fuzz;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::CampaignSpec;
    use testkit::temp_dir;

    #[test]
    fn fnv_digest_is_the_reference_constant() {
        // Standard FNV-1a test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
    }

    /// Flips the last ASCII digit of `line` to a different digit. The last
    /// digit of a row line is always a stat value, so the damaged line still
    /// parses but fails its `row_fnv`.
    fn flip_last_digit(line: &mut [u8]) {
        if let Some(byte) = line.iter_mut().rev().find(|b| b.is_ascii_digit()) {
            *byte = if *byte == b'9' { b'0' } else { *byte + 1 };
        }
    }

    pub(super) fn spec() -> CampaignSpec {
        CampaignSpec::from_toml_str(
            "name = \"jtest\"\nworkloads = [\"nutch\"]\nmechanisms = [\"fdip\"]\nseeds = [0, 1]\n",
        )
        .unwrap()
    }

    pub(super) fn stats(n: u64) -> SimStats {
        SimStats {
            instructions: 1000 + n,
            cycles: 2000 + n,
            fetch_stall_cycles: 300 + n,
            miss_breakdown: MissBreakdown {
                sequential: 100,
                conditional: 100 + n,
                unconditional: 100,
            },
            squash_stall_cycles: 10,
            ftq_empty_cycles: 11,
            rob_full_cycles: 12,
            squashes: SquashStats {
                btb_miss: 5,
                misprediction: 6 + n,
            },
            btb_lookups: 500,
            btb_misses: 50,
            prefetch_buffer_hits: 7,
            prefetches_issued: 8,
            conditional_predictions: 400,
            conditional_mispredictions: 20,
        }
    }

    #[test]
    fn journal_roundtrips_rows_exactly() {
        let dir = temp_dir("roundtrip");
        let spec = spec();
        let jobs = crate::expand::expand(&spec);
        let hash = spec_hash(&spec, RunLength::smoke_test(), true);
        let journal = Journal::create(&dir, &spec.name, &hash, jobs.len(), None).unwrap();
        journal.record(&jobs[0], &stats(0)).unwrap();
        journal.record(&jobs[2], &stats(2)).unwrap();
        drop(journal);

        let replay = JournalReplay::load(&dir, &spec.name, &hash, &jobs).unwrap();
        assert_eq!(replay.completed(), 2);
        assert_eq!(replay.rows[&0], stats(0));
        assert_eq!(replay.rows[&2], stats(2));
        assert!(!replay.rows.contains_key(&1));
        assert_eq!(
            JournalReplay::existing_hash(&dir, &spec.name).unwrap(),
            Some(hash)
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncated_final_line_is_dropped_not_fatal() {
        let dir = temp_dir("truncated");
        let spec = spec();
        let jobs = crate::expand::expand(&spec);
        let hash = spec_hash(&spec, RunLength::smoke_test(), true);
        let journal = Journal::create(&dir, &spec.name, &hash, jobs.len(), None).unwrap();
        journal.record(&jobs[0], &stats(0)).unwrap();
        journal.record(&jobs[1], &stats(1)).unwrap();
        let path = journal.path().to_path_buf();
        drop(journal);

        // Simulate a kill mid-write: chop the file in the middle of row 2.
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, &text[..text.len() - 40]).unwrap();
        let replay = JournalReplay::load(&dir, &spec.name, &hash, &jobs).unwrap();
        assert_eq!(replay.completed(), 1);
        assert_eq!(replay.rows[&0], stats(0));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn append_after_torn_tail_truncates_not_welds() {
        let dir = temp_dir("tornappend");
        let spec = spec();
        let jobs = crate::expand::expand(&spec);
        let hash = spec_hash(&spec, RunLength::smoke_test(), true);
        let journal = Journal::create(&dir, &spec.name, &hash, jobs.len(), None).unwrap();
        journal.record(&jobs[0], &stats(0)).unwrap();
        let path = journal.path().to_path_buf();
        drop(journal);

        // Kill mid-write of row 2: an unterminated prefix at the tail.
        let mut text = std::fs::read_to_string(&path).unwrap();
        text.push_str("{\"job\":1,\"mechanism\":\"fd");
        std::fs::write(&path, &text).unwrap();

        // Resume must drop the torn prefix, not weld the new row onto it
        // (which would be fatal interior corruption on the next replay).
        let journal = Journal::append(&dir, &spec.name, None).unwrap();
        journal.record(&jobs[1], &stats(1)).unwrap();
        drop(journal);
        let replay = JournalReplay::load(&dir, &spec.name, &hash, &jobs).unwrap();
        assert_eq!(replay.completed(), 2);
        assert_eq!(replay.rows[&1], stats(1));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn stats_array_round_trips_in_column_order() {
        let original = stats(7);
        let values = stats_to_array(&original);
        assert_eq!(values.len(), STAT_FIELD_COUNT);
        assert_eq!(stats_from_array(&values), Some(original));
        assert_eq!(stats_from_array(&values[..STAT_FIELD_COUNT - 1]), None);
        // The array shares column order with the journal writer.
        assert_eq!(values[0], original.instructions);
        assert_eq!(values[1], original.cycles);
    }

    #[test]
    fn mismatching_spec_hash_is_rejected() {
        let dir = temp_dir("hash");
        let spec = spec();
        let jobs = crate::expand::expand(&spec);
        let hash = spec_hash(&spec, RunLength::smoke_test(), true);
        Journal::create(&dir, &spec.name, &hash, jobs.len(), None).unwrap();

        let other = spec_hash(&spec, RunLength::paper_default(), false);
        assert_ne!(hash, other);
        let err = JournalReplay::load(&dir, &spec.name, &other, &jobs).unwrap_err();
        assert!(err.message.contains("spec hash"), "{err}");
        assert_eq!(err.line, 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_interior_row_is_an_error() {
        let dir = temp_dir("corrupt");
        let spec = spec();
        let jobs = crate::expand::expand(&spec);
        let hash = spec_hash(&spec, RunLength::smoke_test(), true);
        let journal = Journal::create(&dir, &spec.name, &hash, jobs.len(), None).unwrap();
        journal.record(&jobs[0], &stats(0)).unwrap();
        journal.record(&jobs[1], &stats(1)).unwrap();
        let path = journal.path().to_path_buf();
        drop(journal);

        // Splice a garbage line between the two valid rows so it is interior.
        let text = std::fs::read_to_string(&path).unwrap();
        let mut lines: Vec<&str> = text.lines().collect();
        lines.insert(2, "{\"job\": not json");
        std::fs::write(&path, lines.join("\n") + "\n").unwrap();

        let err = JournalReplay::load(&dir, &spec.name, &hash, &jobs).unwrap_err();
        assert!(err.message.contains("malformed row"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rows_from_a_different_expansion_are_rejected() {
        let dir = temp_dir("expansion");
        let spec = spec();
        let jobs = crate::expand::expand(&spec);
        let hash = spec_hash(&spec, RunLength::smoke_test(), true);
        let journal = Journal::create(&dir, &spec.name, &hash, jobs.len(), None).unwrap();
        // Write a row whose seed contradicts the canonical job at index 0.
        let mut fake = jobs[0];
        fake.seed = 99;
        journal.record(&fake, &stats(0)).unwrap();
        journal.record(&jobs[1], &stats(1)).unwrap();
        drop(journal);

        let err = JournalReplay::load(&dir, &spec.name, &hash, &jobs).unwrap_err();
        assert!(err.message.contains("does not match job"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn sharded_journals_merge() {
        let dir = temp_dir("shards");
        let spec = spec();
        let jobs = crate::expand::expand(&spec);
        let hash = spec_hash(&spec, RunLength::smoke_test(), true);
        for shard in 0..2usize {
            let journal =
                Journal::create(&dir, &spec.name, &hash, jobs.len(), Some((shard, 2))).unwrap();
            for job in jobs.iter().filter(|j| j.index % 2 == shard) {
                journal.record(job, &stats(job.index as u64)).unwrap();
            }
        }
        let replay = JournalReplay::load(&dir, &spec.name, &hash, &jobs).unwrap();
        assert_eq!(replay.completed(), jobs.len());
        assert_eq!(replay.files.len(), 2);
        for job in &jobs {
            assert_eq!(replay.rows[&job.index], stats(job.index as u64));
        }
        Journal::remove_all(&dir, &spec.name).unwrap();
        assert_eq!(
            JournalReplay::existing_hash(&dir, &spec.name).unwrap(),
            None
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn bit_flipped_row_fails_its_checksum_on_replay() {
        let dir = temp_dir("bitflip");
        let spec = spec();
        let jobs = crate::expand::expand(&spec);
        let hash = spec_hash(&spec, RunLength::smoke_test(), true);
        let journal = Journal::create(&dir, &spec.name, &hash, jobs.len(), None).unwrap();
        journal.record(&jobs[0], &stats(0)).unwrap();
        journal.record(&jobs[1], &stats(1)).unwrap();
        let path = journal.path().to_path_buf();
        drop(journal);

        // Flip one stat digit of row 1 (an *interior* line, so torn-tail
        // tolerance cannot excuse it). The line still parses as JSON.
        let text = std::fs::read_to_string(&path).unwrap();
        let mut lines: Vec<String> = text.lines().map(String::from).collect();
        let mut row = lines[1].clone().into_bytes();
        flip_last_digit(&mut row);
        lines[1] = String::from_utf8(row).unwrap();
        std::fs::write(&path, lines.join("\n") + "\n").unwrap();

        let err = JournalReplay::load(&dir, &spec.name, &hash, &jobs).unwrap_err();
        assert!(err.message.contains("row_fnv"), "{err}");
        assert_eq!(err.line, 2, "the error must name the damaged line");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn tampered_row_fnv_field_is_also_rejected() {
        let dir = temp_dir("fnvfield");
        let spec = spec();
        let jobs = crate::expand::expand(&spec);
        let hash = spec_hash(&spec, RunLength::smoke_test(), true);
        let journal = Journal::create(&dir, &spec.name, &hash, jobs.len(), None).unwrap();
        journal.record(&jobs[0], &stats(0)).unwrap();
        journal.record(&jobs[1], &stats(1)).unwrap();
        let path = journal.path().to_path_buf();
        drop(journal);

        // Damage the checksum itself instead of a stat: same rejection.
        // The *last* digit flips — bumping the leading digit of a u64 near
        // the top of its range would overflow the parser instead.
        let text = std::fs::read_to_string(&path).unwrap();
        let mut lines: Vec<String> = text.lines().map(String::from).collect();
        let start = lines[1].find("\"row_fnv\":").unwrap() + "\"row_fnv\":".len();
        let mut row = lines[1].clone().into_bytes();
        let end = (start..row.len())
            .take_while(|&i| row[i].is_ascii_digit())
            .last()
            .unwrap();
        row[end] = if row[end] == b'9' { b'0' } else { row[end] + 1 };
        lines[1] = String::from_utf8(row).unwrap();
        std::fs::write(&path, lines.join("\n") + "\n").unwrap();

        let err = JournalReplay::load(&dir, &spec.name, &hash, &jobs).unwrap_err();
        assert!(err.message.contains("row_fnv"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn unknown_future_format_is_rejected() {
        let dir = temp_dir("future");
        let spec = spec();
        let jobs = crate::expand::expand(&spec);
        let hash = spec_hash(&spec, RunLength::smoke_test(), true);
        let journal = Journal::create(&dir, &spec.name, &hash, jobs.len(), None).unwrap();
        let path = journal.path().to_path_buf();
        drop(journal);
        let text = std::fs::read_to_string(&path)
            .unwrap()
            .replace("\"journal_format\":2", "\"journal_format\":9");
        std::fs::write(&path, text).unwrap();
        let err = JournalReplay::load(&dir, &spec.name, &hash, &jobs).unwrap_err();
        assert!(err.message.contains("journal_format 9"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn row_checksum_is_sensitive_to_every_input() {
        let values = stats_to_array(&stats(3));
        let base = row_checksum(4, "fdip", 1, &values);
        assert_ne!(base, row_checksum(5, "fdip", 1, &values));
        assert_ne!(base, row_checksum(4, "boomerang", 1, &values));
        assert_ne!(base, row_checksum(4, "fdip", 2, &values));
        let mut off = values;
        off[STAT_FIELD_COUNT - 1] += 1;
        assert_ne!(base, row_checksum(4, "fdip", 1, &off));
        assert_eq!(base, row_checksum(4, "fdip", 1, &values));
    }

    /// A writer that accepts bytes but reports a full disk at flush time —
    /// the shape ENOSPC actually takes with buffered files.
    struct FullDisk;

    impl io::Write for FullDisk {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Err(io::Error::from_raw_os_error(28)) // ENOSPC
        }
    }

    #[test]
    fn deferred_enospc_surfaces_instead_of_being_swallowed() {
        let err = append_durable(&mut FullDisk, b"{\"job\":0}\n").unwrap_err();
        assert_eq!(err.raw_os_error(), Some(28), "{err}");
    }

    #[test]
    fn flat_parser_handles_escapes_and_rejects_junk() {
        let fields =
            parse_flat_object("{\"a\":\"x\\\"y\\u00e9\",\"b\":7,\"c\":true,\"d\":false}").unwrap();
        assert_eq!(fields[0].1, Scalar::Str("x\"y\u{e9}".into()));
        assert_eq!(fields[1].1, Scalar::UInt(7));
        assert_eq!(fields[2].1, Scalar::Bool(true));
        assert_eq!(fields[3].1, Scalar::Bool(false));
        assert!(parse_flat_object("{\"a\":1} extra").is_err());
        assert!(parse_flat_object("{\"a\":}").is_err());
        assert!(parse_flat_object("{\"a\":-1}").is_err());
        assert!(parse_flat_object("[1]").is_err());
        assert!(parse_flat_object("{\"a\":1").is_err());
    }
}
