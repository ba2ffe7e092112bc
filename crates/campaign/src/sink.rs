//! Report rendering: JSON, CSV, a human-readable table — and streaming
//! row sinks that flush each result the moment its job completes.
//!
//! The batch renderers are pure functions of the [`CampaignReport`] row list,
//! which the engine emits in canonical job order — so for a given spec the
//! bytes written here are identical no matter how the sweep was sharded. The
//! [`StreamingSink`] complements them: it writes the *same row schema* in
//! completion order while the campaign is still running, so long sweeps are
//! observable (and greppable) before the canonical report exists.

use crate::checkpoint::STAT_FIELDS;
use crate::engine::{CampaignReport, PartialReport, PartialRow, RowResult};
use crate::expand::Job;
use crate::fault;
use crate::json::Json;
use crate::spec::{mechanism_token, CampaignSpec};
use boomerang::Mechanism;
use frontend::SimStats;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::fs::File;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// Renders the full JSON report.
pub fn to_json(report: &CampaignReport) -> String {
    let rows: Vec<Json> = report.rows.iter().map(|r| row_json(r.into())).collect();
    Json::object()
        .field("campaign", report.spec.name.as_str())
        .field("description", report.spec.description.as_str())
        .field(
            "run",
            Json::object()
                .field("trace_blocks", report.effective_run.trace_blocks)
                .field("warmup_blocks", report.effective_run.warmup_blocks)
                .field("smoke", report.smoke),
        )
        .field("jobs", report.rows.len())
        .field("results", rows)
        .pretty()
}

/// One report row as the renderers see it: its identity, its own stats if
/// it checkpointed, and its group baseline's if that did too. A complete
/// report's rows have both; a degraded report's rows may lack either.
struct RowView<'a> {
    job: &'a Job,
    config_label: &'a str,
    workload_label: &'a str,
    stats: Option<&'a SimStats>,
    baseline: Option<&'a SimStats>,
}

impl<'a> From<&'a RowResult> for RowView<'a> {
    fn from(row: &'a RowResult) -> Self {
        RowView {
            job: &row.job,
            config_label: &row.config_label,
            workload_label: &row.workload_label,
            stats: Some(&row.stats),
            baseline: Some(&row.baseline),
        }
    }
}

impl<'a> From<&'a PartialRow> for RowView<'a> {
    fn from(row: &'a PartialRow) -> Self {
        match row {
            PartialRow::Present(full) => full.into(),
            PartialRow::NoBaseline {
                job,
                config_label,
                workload_label,
                stats,
            } => RowView {
                job,
                config_label,
                workload_label,
                stats: Some(stats),
                baseline: None,
            },
            PartialRow::Missing {
                job,
                config_label,
                workload_label,
            } => RowView {
                job,
                config_label,
                workload_label,
                stats: None,
                baseline: None,
            },
        }
    }
}

impl RowView<'_> {
    /// The row's stats with its baseline's, when both are present.
    fn against_baseline(&self) -> Option<(&SimStats, &SimStats)> {
        self.stats.zip(self.baseline)
    }
}

/// A row's JSON object. A row without stats carries only its identity;
/// a row without a baseline has `null` for the baseline-derived fields.
fn row_json(row: RowView<'_>) -> Json {
    let identity = Json::object()
        .field("config", row.config_label)
        .field("workload", row.workload_label)
        .field("mechanism", mechanism_token(row.job.mechanism))
        .field("seed", row.job.seed)
        .field("baseline_ref", row.job.implicit_baseline);
    let Some(s) = row.stats else {
        return identity;
    };
    let derived = row.against_baseline();
    identity
        .field("speedup", derived.map(|(s, b)| s.speedup_vs(b)))
        .field(
            "stall_coverage",
            derived.map(|(s, b)| s.stall_coverage_vs(b)),
        )
        .field("ipc", s.ipc())
        .field("btb_miss_rate", s.btb_miss_rate())
        .field("squashes_per_ki", s.squashes_per_kilo().total())
        .field(
            "stats",
            STAT_FIELDS
                .iter()
                .fold(Json::object(), |stats, (name, read)| {
                    stats.field(name, read(s))
                }),
        )
        .field("baseline_cycles", row.baseline.map(|b| b.cycles))
        .field(
            "baseline_fetch_stall_cycles",
            row.baseline.map(|b| b.fetch_stall_cycles),
        )
}

/// The CSV column header, shared by [`to_csv`] and the streaming CSV so the
/// two can never drift.
const CSV_HEADER: &str = "config,workload,mechanism,seed,baseline_ref,speedup,stall_coverage,ipc,\
                          instructions,cycles,fetch_stall_cycles,btb_miss_rate,\
                          mispredict_per_ki,btb_miss_per_ki";

/// One CSV line (no trailing newline) for a row, RFC-4180 quoting for the
/// label fields. A cell the row cannot compute is blank.
fn csv_row(row: RowView<'_>) -> String {
    fn cell<T: std::fmt::Display>(value: Option<T>) -> String {
        value.map_or_else(String::new, |v| v.to_string())
    }
    let s = row.stats;
    let derived = row.against_baseline();
    let rates = s.map(SimStats::squashes_per_kilo);
    [
        csv_field(row.config_label),
        csv_field(row.workload_label),
        csv_field(&mechanism_token(row.job.mechanism)),
        row.job.seed.to_string(),
        row.job.implicit_baseline.to_string(),
        cell(derived.map(|(s, b)| s.speedup_vs(b))),
        cell(derived.map(|(s, b)| s.stall_coverage_vs(b))),
        cell(s.map(SimStats::ipc)),
        cell(s.map(|s| s.instructions)),
        cell(s.map(|s| s.cycles)),
        cell(s.map(|s| s.fetch_stall_cycles)),
        cell(s.map(SimStats::btb_miss_rate)),
        cell(rates.map(|r| r.misprediction)),
        cell(rates.map(|r| r.btb_miss)),
    ]
    .join(",")
}

/// Renders the CSV report (header + one line per row).
pub fn to_csv(report: &CampaignReport) -> String {
    let mut out = String::from(CSV_HEADER);
    out.push('\n');
    for row in &report.rows {
        let _ = writeln!(out, "{}", csv_row(row.into()));
    }
    out
}

fn csv_field(value: &str) -> String {
    if value.contains([',', '"', '\n']) {
        format!("\"{}\"", value.replace('"', "\"\""))
    } else {
        value.to_string()
    }
}

/// Renders a per-config speedup table (one row per workload, one column per
/// mechanism, arithmetic-mean footer), in the style of the paper's figures.
pub fn to_table(report: &CampaignReport) -> String {
    let mut out = String::new();
    for (config_idx, point) in report.spec.configs.iter().enumerate() {
        for &seed in &report.spec.seeds {
            let rows: Vec<&RowResult> = report
                .rows
                .iter()
                .filter(|r| {
                    r.job.config == config_idx && r.job.seed == seed && !r.job.implicit_baseline
                })
                .collect();
            if rows.is_empty() {
                continue;
            }
            let _ = write!(out, "\n=== {} — config `{}`", report.spec.name, point.label);
            if report.spec.seeds.len() > 1 {
                let _ = write!(out, ", seed {seed}");
            }
            let _ = writeln!(out, " — speedup over no-prefetch baseline ===");

            // One column per distinct mechanism (not per label: several
            // Boomerang throttle variants share the "Boomerang" label, and
            // each must keep its own column). Headers fall back to the spec
            // token whenever a label is ambiguous within this table.
            let mut mechanisms: Vec<boomerang::Mechanism> = Vec::new();
            for row in &rows {
                if !mechanisms.contains(&row.job.mechanism) {
                    mechanisms.push(row.job.mechanism);
                }
            }
            let headers: Vec<String> = mechanisms
                .iter()
                .map(|&m| {
                    let ambiguous = mechanisms
                        .iter()
                        .filter(|&&other| other.label() == m.label())
                        .count()
                        > 1;
                    if ambiguous {
                        mechanism_token(m)
                    } else {
                        m.label().to_string()
                    }
                })
                .collect();
            // Column width fits the longest header plus a separating space;
            // the workload column fits the longest label (12 keeps the
            // paper-preset tables byte-stable).
            let width = headers.iter().map(String::len).max().unwrap_or(0).max(12) + 1;
            let name_width = report
                .spec
                .workloads
                .iter()
                .map(|w| w.label.len())
                .max()
                .unwrap_or(0)
                .max(12);
            let _ = write!(out, "{:<name_width$}", "workload");
            for h in &headers {
                let _ = write!(out, "{h:>width$}");
            }
            out.push('\n');

            let mut columns: Vec<Vec<f64>> = vec![Vec::new(); mechanisms.len()];
            for (workload, point) in report.spec.workloads.iter().enumerate() {
                let _ = write!(out, "{:<name_width$}", point.label);
                for (col, &m) in mechanisms.iter().enumerate() {
                    let cell = rows
                        .iter()
                        .find(|r| r.job.workload == workload && r.job.mechanism == m);
                    match cell {
                        Some(r) => {
                            let v = r.speedup();
                            columns[col].push(v);
                            let _ = write!(out, "{v:>width$.3}");
                        }
                        None => {
                            let _ = write!(out, "{:>width$}", "-");
                        }
                    }
                }
                out.push('\n');
            }
            let _ = write!(out, "{:<name_width$}", "Avg");
            for col in &columns {
                let avg = sim_core::stats::arithmetic_mean(col);
                let _ = write!(out, "{avg:>width$.3}");
            }
            out.push('\n');
        }
    }
    out
}

/// Streams report rows to `<name>.rows.jsonl` and `<name>.rows.csv` as jobs
/// complete, in completion order.
///
/// The streamed rows use exactly the same schema as the final report (the
/// JSONL lines are compact renderings of the JSON report's `results`
/// entries; the CSV shares [`to_csv`]'s header), but the *order* is whatever
/// order the workers finished rows in — the canonical, byte-stable report is still
/// written at the end of the run and is the artifact of record.
///
/// Speedup and coverage need the group's baseline run, which may complete
/// after other rows of its group: such rows are buffered and flushed the
/// moment the baseline lands. Canonical job order puts every baseline before
/// its group, so replaying checkpointed rows through [`StreamingSink::record`]
/// in index order (what `resume` does) never leaves anything buffered.
///
/// The campaign broker ([`crate::serve`]) owns one per installed campaign
/// and records each row beside its journal append.
#[derive(Debug)]
pub struct StreamingSink {
    paths: ReportPaths,
    state: Mutex<StreamState>,
}

#[derive(Debug)]
struct StreamState {
    spec: CampaignSpec,
    jsonl: File,
    csv: File,
    baselines: HashMap<(usize, usize, u64), SimStats>,
    pending: HashMap<(usize, usize, u64), Vec<(Job, SimStats)>>,
}

impl StreamingSink {
    /// Creates (truncating) the two stream files under `dir` and writes the
    /// CSV header.
    pub fn create(spec: &CampaignSpec, dir: &Path) -> io::Result<StreamingSink> {
        std::fs::create_dir_all(dir)?;
        let paths = ReportPaths {
            json: dir.join(format!("{}.rows.jsonl", spec.name)),
            csv: dir.join(format!("{}.rows.csv", spec.name)),
        };
        let jsonl = File::create(&paths.json)?;
        let mut csv = File::create(&paths.csv)?;
        writeln!(csv, "{CSV_HEADER}")?;
        Ok(StreamingSink {
            paths,
            state: Mutex::new(StreamState {
                spec: spec.clone(),
                jsonl,
                csv,
                baselines: HashMap::new(),
                pending: HashMap::new(),
            }),
        })
    }

    /// The stream file paths (`json` is the JSONL stream).
    pub fn paths(&self) -> &ReportPaths {
        &self.paths
    }

    /// Records one completed job. Baseline rows flush immediately (and
    /// release any rows of their group that were waiting); other rows flush
    /// immediately if their baseline is known, otherwise they wait for it.
    pub fn record(&self, job: &Job, stats: &SimStats) -> io::Result<()> {
        let mut state = self.state.lock().expect("stream sink mutex poisoned");
        let group = (job.config, job.workload, job.seed);
        if job.mechanism == Mechanism::Baseline {
            state.baselines.insert(group, *stats);
            state.emit(*job, *stats, *stats)?;
            for (waiting_job, waiting_stats) in state.pending.remove(&group).unwrap_or_default() {
                state.emit(waiting_job, waiting_stats, *stats)?;
            }
        } else if let Some(&baseline) = state.baselines.get(&group) {
            state.emit(*job, *stats, baseline)?;
        } else {
            state.pending.entry(group).or_default().push((*job, *stats));
        }
        Ok(())
    }

    /// Number of rows still waiting for their group baseline. Non-zero only
    /// when the run was cut short (an interrupted process) before a group's
    /// baseline completed — those rows are in the journal and will stream on
    /// resume.
    pub fn pending(&self) -> usize {
        let state = self.state.lock().expect("stream sink mutex poisoned");
        state.pending.values().map(Vec::len).sum()
    }
}

impl StreamState {
    fn emit(&mut self, job: Job, stats: SimStats, baseline: SimStats) -> io::Result<()> {
        let row = RowResult {
            job,
            config_label: self.spec.configs[job.config].label.clone(),
            workload_label: self.spec.workloads[job.workload].label.clone(),
            stats,
            baseline,
        };
        let mut line = row_json((&row).into()).compact();
        line.push('\n');
        self.jsonl.write_all(line.as_bytes())?;
        let mut csv_line = csv_row((&row).into());
        csv_line.push('\n');
        self.csv.write_all(csv_line.as_bytes())?;
        Ok(())
    }
}

/// The files a campaign run writes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ReportPaths {
    /// The JSON report path.
    pub json: PathBuf,
    /// The CSV report path.
    pub csv: PathBuf,
}

/// Writes `bytes` to `path` atomically: a `.tmp-<pid>` sibling first, then a
/// rename. A kill mid-write leaves at worst a stale temp file — readers of
/// `path` only ever see complete old bytes or complete new bytes, never a
/// torn report.
///
/// This is also the report-write fault point: an armed `report-torn` plan
/// (see [`crate::fault`]) stops the temp write halfway and exits, which is
/// exactly the crash the rename discipline must make invisible.
fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(format!(".tmp-{}", std::process::id()));
    let tmp = PathBuf::from(tmp);
    let mut file = File::create(&tmp)?;
    if fault::tear_this_report_write() {
        file.write_all(&bytes[..bytes.len() / 2])?;
        let _ = file.flush();
        fault::exit_now();
    }
    file.write_all(bytes)?;
    // Surfaced, not swallowed: a full disk often reports ENOSPC only when
    // the buffered bytes hit the device, and renaming an unsynced temp into
    // place would publish a report that was never durably written.
    file.sync_data()?;
    drop(file);
    std::fs::rename(&tmp, path)
}

/// Writes `<name>.json` and `<name>.csv` under `dir` (created if needed).
/// Each file is written atomically (temp + rename), so a crash mid-write
/// never leaves a torn report behind.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn write_reports(report: &CampaignReport, dir: &Path) -> io::Result<ReportPaths> {
    std::fs::create_dir_all(dir)?;
    let json = dir.join(format!("{}.json", report.spec.name));
    let csv = dir.join(format!("{}.csv", report.spec.name));
    write_atomic(&json, to_json(report).as_bytes())?;
    write_atomic(&csv, to_csv(report).as_bytes())?;
    Ok(ReportPaths { json, csv })
}

/// Renders the JSON form of a degraded report. The shape follows [`to_json`]
/// with three additions: a top-level `"partial": true` + `"missing_rows"` +
/// `"degraded"` preamble, a `"status"` on every row (`ok` / `no-baseline` /
/// `missing`), and `null` for every metric a hole makes uncomputable —
/// explicit damage, never silently absent rows.
pub fn to_json_partial(report: &PartialReport) -> String {
    let rows: Vec<Json> = (report.rows.iter())
        .map(|r| row_json(r.into()).field("status", r.status()))
        .collect();
    Json::object()
        .field("campaign", report.spec.name.as_str())
        .field("description", report.spec.description.as_str())
        .field(
            "run",
            Json::object()
                .field("trace_blocks", report.effective_run.trace_blocks)
                .field("warmup_blocks", report.effective_run.warmup_blocks)
                .field("smoke", report.smoke),
        )
        .field("partial", true)
        .field("missing_rows", report.missing())
        .field(
            "degraded",
            report
                .degraded
                .iter()
                .map(|note| Json::from(note.as_str()))
                .collect::<Vec<Json>>(),
        )
        .field("jobs", report.rows.len())
        .field("results", rows)
        .pretty()
}

/// The CSV header of a degraded report: the canonical columns plus a
/// trailing `status`.
const CSV_PARTIAL_SUFFIX: &str = ",status";

/// Renders the CSV form of a degraded report: [`to_csv`]'s columns plus a
/// `status` column. `ok` rows carry the exact values the complete report
/// would; `no-baseline` rows blank the two baseline-derived columns;
/// `missing` rows keep their five identity columns and blank the rest.
pub fn to_csv_partial(report: &PartialReport) -> String {
    let mut out = String::from(CSV_HEADER);
    out.push_str(CSV_PARTIAL_SUFFIX);
    out.push('\n');
    for row in &report.rows {
        let _ = writeln!(out, "{},{}", csv_row(row.into()), row.status());
    }
    out
}

/// Writes the degraded `<name>.json` / `<name>.csv` under `dir`, atomically,
/// under the same names the complete report would use — downstream tooling
/// reads one location and checks the `partial` flag.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn write_partial_reports(report: &PartialReport, dir: &Path) -> io::Result<ReportPaths> {
    std::fs::create_dir_all(dir)?;
    let json = dir.join(format!("{}.json", report.spec.name));
    let csv = dir.join(format!("{}.csv", report.spec.name));
    write_atomic(&json, to_json_partial(report).as_bytes())?;
    write_atomic(&csv, to_csv_partial(report).as_bytes())?;
    Ok(ReportPaths { json, csv })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{run_campaign, EngineOptions};
    use crate::spec::CampaignSpec;
    use testkit::temp_dir;

    fn tiny_report() -> CampaignReport {
        let spec = CampaignSpec::from_toml_str(
            "name = \"sink-test\"\nworkloads = [\"nutch\"]\nmechanisms = [\"fdip\"]\n\n[run]\ntrace_blocks = 2000\nwarmup_blocks = 400\n",
        )
        .unwrap();
        run_campaign(&spec, &EngineOptions::default()).unwrap()
    }

    #[test]
    fn json_has_per_row_entries() {
        let report = tiny_report();
        let text = to_json(&report);
        assert!(text.contains("\"campaign\": \"sink-test\""));
        assert!(text.contains("\"jobs\": 2"));
        assert!(text.contains("\"mechanism\": \"fdip\""));
        assert!(text.contains("\"mechanism\": \"baseline\""));
        assert!(text.ends_with("\n"));
    }

    #[test]
    fn csv_row_count_matches() {
        let report = tiny_report();
        let csv = to_csv(&report);
        assert_eq!(csv.lines().count(), 1 + report.rows.len());
        assert!(csv
            .lines()
            .nth(1)
            .unwrap()
            .starts_with("table1,Nutch,baseline,0,true"));
    }

    #[test]
    fn csv_quoting() {
        assert_eq!(csv_field("plain"), "plain");
        assert_eq!(csv_field("a,b"), "\"a,b\"");
        assert_eq!(csv_field("q\"q"), "\"q\"\"q\"");
    }

    #[test]
    fn partial_renderers_mark_damage_explicitly() {
        use crate::engine::assemble_partial_report;
        let report = tiny_report();
        let jobs: Vec<Job> = report.rows.iter().map(|r| r.job).collect();
        // Drop the baseline row: its own row goes missing and the fdip row
        // loses its derived metrics.
        let stats: Vec<Option<SimStats>> = report
            .rows
            .iter()
            .map(|r| (!r.job.implicit_baseline).then_some(r.stats))
            .collect();
        let partial = assemble_partial_report(
            &report.spec,
            &jobs,
            report.effective_run,
            report.smoke,
            &stats,
            vec!["worker shard 0 failed after 3 attempt(s)".into()],
        );
        assert_eq!(partial.missing(), 1);

        let json = to_json_partial(&partial);
        assert!(json.contains("\"partial\": true"), "{json}");
        assert!(json.contains("\"missing_rows\": 1"), "{json}");
        assert!(json.contains("\"status\": \"missing\""), "{json}");
        assert!(json.contains("\"status\": \"no-baseline\""), "{json}");
        assert!(json.contains("\"speedup\": null"), "{json}");
        assert!(json.contains("worker shard 0 failed"), "{json}");
        // The no-baseline row keeps every stat counter and blanks only the
        // baseline-derived cells; the missing row keeps only its identity.
        for row in &partial.rows {
            let Json::Object(fields) = row_json(row.into()) else {
                panic!("a row renders as an object")
            };
            let get = |key: &str| fields.iter().find(|(k, _)| k == key).map(|(_, v)| v);
            match row {
                PartialRow::NoBaseline { .. } => {
                    let Some(Json::Object(stats)) = get("stats") else {
                        panic!("no stats object: {fields:?}")
                    };
                    let names: Vec<&str> = stats.iter().map(|(k, _)| k.as_str()).collect();
                    assert_eq!(names, STAT_FIELDS.map(|(name, _)| name));
                    for derived in ["speedup", "stall_coverage", "baseline_cycles"] {
                        assert_eq!(get(derived), Some(&Json::Null), "{derived}");
                    }
                    assert!(matches!(get("ipc"), Some(Json::Float(_))));
                }
                PartialRow::Missing { .. } => assert_eq!(fields.len(), 5, "{fields:?}"),
                PartialRow::Present(_) => panic!("no row has both stats and baseline"),
            }
        }

        let csv = to_csv_partial(&partial);
        let header_cols = csv.lines().next().unwrap().split(',').count();
        assert!(csv.lines().next().unwrap().ends_with(",status"));
        for line in csv.lines().skip(1) {
            assert_eq!(line.split(',').count(), header_cols, "ragged row: {line}");
        }
        assert!(csv.lines().any(|l| l.ends_with(",missing")), "{csv}");
        let no_baseline = csv.lines().find(|l| l.ends_with(",no-baseline")).unwrap();
        let cells: Vec<&str> = no_baseline.split(',').collect();
        assert_eq!(&cells[5..7], ["", ""], "{no_baseline}");
        assert!(cells[7..14].iter().all(|c| !c.is_empty()), "{no_baseline}");
    }

    #[test]
    fn atomic_write_leaves_no_temp_behind() {
        let report = tiny_report();
        let dir = temp_dir("atomicw");
        let paths = write_reports(&report, &dir).unwrap();
        assert_eq!(
            std::fs::read_to_string(&paths.json).unwrap(),
            to_json(&report)
        );
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().contains(".tmp-"))
            .collect();
        assert!(leftovers.is_empty(), "{leftovers:?}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn table_keeps_boomerang_throttle_variants_apart() {
        let spec = CampaignSpec::from_toml_str(
            "name = \"throttles\"\nworkloads = [\"nutch\"]\nmechanisms = [\"boomerang\", \"boomerang:none\", \"fdip\"]\n\n[run]\ntrace_blocks = 2000\nwarmup_blocks = 400\n",
        )
        .unwrap();
        let report = run_campaign(&spec, &EngineOptions::default()).unwrap();
        let table = to_table(&report);
        // Ambiguous labels fall back to spec tokens; unambiguous ones keep
        // their figure label.
        assert!(table.contains("FDIP"), "{table}");
        let header = table.lines().nth(2).unwrap();
        assert!(
            header.contains("boomerang") && header.contains("boomerang:none"),
            "each throttle variant needs its own column: {header}"
        );
        // Three mechanism columns + the workload row label.
        assert_eq!(header.split_whitespace().count(), 4, "{header}");
    }

    #[test]
    fn streaming_sink_matches_batch_rows_even_out_of_order() {
        let report = tiny_report();
        let dir = temp_dir("stream");
        let sink = StreamingSink::create(&report.spec, &dir).unwrap();
        // Feed rows in reverse completion order: mechanism rows arrive before
        // their baseline and must be buffered, then flushed.
        for row in report.rows.iter().rev() {
            sink.record(&row.job, &row.stats).unwrap();
        }
        assert_eq!(sink.pending(), 0);
        let paths = sink.paths().clone();
        drop(sink);

        let jsonl = std::fs::read_to_string(&paths.json).unwrap();
        let mut streamed: Vec<&str> = jsonl.lines().collect();
        let mut expected: Vec<String> = report
            .rows
            .iter()
            .map(|r| row_json(r.into()).compact())
            .collect();
        streamed.sort_unstable();
        expected.sort_unstable();
        assert_eq!(streamed, expected);

        let csv_stream = std::fs::read_to_string(&paths.csv).unwrap();
        let batch = to_csv(&report);
        assert_eq!(
            csv_stream.lines().next(),
            batch.lines().next(),
            "same header"
        );
        let mut streamed: Vec<&str> = csv_stream.lines().skip(1).collect();
        let mut expected: Vec<&str> = batch.lines().skip(1).collect();
        streamed.sort_unstable();
        expected.sort_unstable();
        assert_eq!(streamed, expected);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn table_lists_workloads_and_mechanisms() {
        let report = tiny_report();
        let table = to_table(&report);
        assert!(table.contains("Nutch"));
        assert!(table.contains("FDIP"));
        assert!(table.contains("Avg"));
        // The implicit baseline reference is not a table column.
        assert!(!table.contains("Baseline"));
    }
}
