//! Deterministic fault injection for the campaign service.
//!
//! FIPAC-style fault injection treats faults as a first-class adversary; this
//! module treats them as a first-class *test harness* for the service that
//! runs the campaigns. A **fault plan** — parsed from the [`FAULT_ENV`]
//! environment variable or the `--fault-inject` CLI flag — arms named fault
//! points compiled into the worker row loop, the checkpoint-journal append,
//! the report write and the spool scan. With no plan the points are inert
//! (one relaxed atomic load), so the exact crash paths the supervisor must
//! survive can be exercised deterministically in CI without a separate
//! chaos build.
//!
//! Only faults that need the process's own timing or death live here.
//! Damage on the wire or the disk is done from outside the process under
//! test. Torn, flipped, duplicated, dropped and rewritten frames are
//! schedule-explorer actions in `serve::tests`, on the frames between real
//! worker sessions and the broker. Flipped journal and artifact bytes and
//! a torn journal tail are byte edits of the on-disk files in
//! `tests/chaos.rs`.
//!
//! # Plan syntax
//!
//! A plan is a comma-separated list of faults, each a kind plus optional
//! `key=value` filters separated by `:`
//!
//! ```text
//! worker-exit:shard=1:after-rows=3
//! report-torn
//! spool-scan-error:nth=1,worker-exit:shard=1:after-rows=3:lives=2
//! heartbeat-stall:shard=1:after-rows=3
//! ```
//!
//! | kind                | fires at                            | effect |
//! |---------------------|-------------------------------------|--------|
//! | `worker-exit`       | the `after-rows`-th checkpointed row | `exit(113)` after the row is durably journaled (or acked) |
//! | `heartbeat-stall`   | the `after-rows`-th *granted lease* | a TCP worker stops heartbeating and stalls forever (the broker revokes and reassigns) |
//! | `report-torn`       | the `nth` report-file write         | writes half the bytes, then `exit(113)` |
//! | `spool-scan-error`  | the `nth` spool scan                | the scan returns an injected I/O error |
//!
//! Filters: `shard=N` restricts a row fault to the worker process
//! registered as worker `N` — the `--worker-index` of a TCP worker, which
//! for `serve`'s local fleet is the supervisor slot; a `run` process, broker
//! and worker threads together, registers as worker 0 (default: any). The
//! `serve` process itself registers no index, so a `shard=` fault never
//! fires in the broker, while an unfiltered row fault also arms the
//! broker's own journal appends; `after-rows=N` fires when this process's
//! checkpointed/completed-row count reaches exactly `N` (default 1; for
//! `heartbeat-stall` it counts granted leases — the stall happens before
//! any row runs); `nth=N` fires on the `N`-th
//! event of a counter fault (default 1); `lives=K` (or `lives=all`) arms
//! the fault only while the worker's supervised life number —
//! [`FAULT_LIFE_ENV`], set by the supervisor on every (re)spawn, default 1
//! — is at most `K` (default 1). The life filter is what makes
//! crash-recovery tests deterministic: a restarted worker inherits the same
//! plan but runs at life 2, so a `lives=1` fault fires once and the retry
//! recovers, while `lives=all` models a persistent failure that exhausts
//! the retry budget.
//!
//! Row counts are per process life: `after-rows` compares against rows
//! *checkpointed by this process*, not rows replayed from the journal, so a
//! resumed worker's counter starts at zero again — which is exactly what a
//! `lives` bound needs to reason about. Each row counts once per process: a
//! `run` process counts its rows at the broker's journal appends, and its
//! worker threads skip the worker-side points, so
//! `worker-exit:after-rows=N` stops it with exactly `N` rows journaled.
//! The TCP-only `heartbeat-stall` therefore never fires in a `run`.
//!
//! [`FaultPlan`] implements `Display` with a canonical rendering (default
//! filters omitted) that round-trips through [`FaultPlan::parse`]; `serve`
//! forwards exactly that canonical form to its workers through
//! [`FAULT_ENV`].

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// Environment variable holding the fault plan. Worker processes inherit it
/// from the `serve` supervisor, so one plan arms the whole process tree.
pub const FAULT_ENV: &str = "BOOMERANG_FAULT";

/// Environment variable carrying a worker's supervised life number
/// (1-based). The supervisor sets it on every spawn; unset means life 1.
pub const FAULT_LIFE_ENV: &str = "BOOMERANG_FAULT_LIFE";

/// Exit code of every injected crash (`worker-exit`, `report-torn`).
/// Distinct from real failure codes so supervisor logs can label injected
/// deaths.
pub const FAULT_EXIT_CODE: i32 = 113;

/// The named fault points a plan can arm.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// Exit the process right after a row is durably checkpointed.
    WorkerExit,
    /// A TCP worker accepts a lease, then stops heartbeating and stalls
    /// forever — the revocation/reassignment signature.
    HeartbeatStall,
    /// Exit midway through writing a report file (before the atomic
    /// rename).
    ReportTorn,
    /// Make one spool scan return an I/O error.
    SpoolScanError,
}

impl FaultKind {
    /// Every kind, in declaration order.
    const ALL: [FaultKind; 4] = [
        FaultKind::WorkerExit,
        FaultKind::HeartbeatStall,
        FaultKind::ReportTorn,
        FaultKind::SpoolScanError,
    ];

    /// The kind's name in a plan string.
    fn name(self) -> &'static str {
        match self {
            FaultKind::WorkerExit => "worker-exit",
            FaultKind::HeartbeatStall => "heartbeat-stall",
            FaultKind::ReportTorn => "report-torn",
            FaultKind::SpoolScanError => "spool-scan-error",
        }
    }

    /// Row faults count checkpointed rows (or granted leases) and accept the
    /// `shard`/`after-rows` filters; counter faults count their own events
    /// and accept `nth`.
    fn is_row_fault(self) -> bool {
        matches!(self, FaultKind::WorkerExit | FaultKind::HeartbeatStall)
    }
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One armed fault: a kind plus its firing filters.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FaultSpec {
    /// Which fault point this arms.
    pub kind: FaultKind,
    /// Row faults only: fire only in the worker process registered under
    /// this index (`None` = any process).
    pub shard: Option<usize>,
    /// Row faults: fire when the process's checkpointed-row count reaches
    /// exactly this (1-based).
    pub after_rows: u64,
    /// Counter faults: fire on this event ordinal (1-based).
    pub nth: u64,
    /// Fire only while the worker's life number is at most this.
    pub lives: u64,
}

impl FaultSpec {
    fn new(kind: FaultKind) -> FaultSpec {
        FaultSpec {
            kind,
            shard: None,
            after_rows: 1,
            nth: 1,
            lives: 1,
        }
    }
}

impl fmt::Display for FaultSpec {
    /// Canonical plan syntax: the kind, then only the non-default filters.
    /// Round-trips through [`FaultPlan::parse`].
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.kind)?;
        if let Some(shard) = self.shard {
            write!(f, ":shard={shard}")?;
        }
        if self.after_rows != 1 {
            write!(f, ":after-rows={}", self.after_rows)?;
        }
        if self.nth != 1 {
            write!(f, ":nth={}", self.nth)?;
        }
        if self.lives == u64::MAX {
            write!(f, ":lives=all")?;
        } else if self.lives != 1 {
            write!(f, ":lives={}", self.lives)?;
        }
        Ok(())
    }
}

/// A parsed fault plan: the list of armed faults, in plan order. The first
/// matching fault acts on any given event.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// The armed faults.
    pub faults: Vec<FaultSpec>,
}

impl FaultPlan {
    /// Parses the `--fault-inject` / [`FAULT_ENV`] syntax. An empty string
    /// is the empty (inert) plan.
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending entry on unknown kinds,
    /// unknown or misapplied filter keys, and unparseable values.
    pub fn parse(text: &str) -> Result<FaultPlan, String> {
        let mut faults = Vec::new();
        for entry in text.split(',').map(str::trim).filter(|e| !e.is_empty()) {
            let mut parts = entry.split(':');
            let kind_name = parts.next().expect("split yields at least one part");
            let kind = FaultKind::ALL
                .into_iter()
                .find(|kind| kind.name() == kind_name)
                .ok_or_else(|| {
                    format!("fault plan entry `{entry}`: unknown fault kind `{kind_name}`")
                })?;
            let mut spec = FaultSpec::new(kind);
            let mut seen: Vec<&str> = Vec::new();
            for filter in parts {
                let (key, value) = filter.split_once('=').ok_or_else(|| {
                    format!("fault plan entry `{entry}`: filter `{filter}` is not key=value")
                })?;
                if seen.contains(&key) {
                    return Err(format!(
                        "fault plan entry `{entry}`: duplicate `{key}` filter"
                    ));
                }
                seen.push(key);
                let number = |value: &str| {
                    value.parse::<u64>().map_err(|_| {
                        format!("fault plan entry `{entry}`: bad `{key}` value `{value}`")
                    })
                };
                match key {
                    "shard" if kind.is_row_fault() => {
                        spec.shard = Some(number(value)? as usize);
                    }
                    "after-rows" if kind.is_row_fault() => {
                        let n = number(value)?;
                        if n == 0 {
                            return Err(format!(
                                "fault plan entry `{entry}`: `after-rows` must be at least 1"
                            ));
                        }
                        spec.after_rows = n;
                    }
                    "nth" if !kind.is_row_fault() => {
                        let n = number(value)?;
                        if n == 0 {
                            return Err(format!(
                                "fault plan entry `{entry}`: `nth` must be at least 1"
                            ));
                        }
                        spec.nth = n;
                    }
                    "lives" => {
                        spec.lives = if value == "all" {
                            u64::MAX
                        } else {
                            let n = number(value)?;
                            if n == 0 {
                                return Err(format!(
                                    "fault plan entry `{entry}`: `lives` must be at least 1 \
                                     (or `all`)"
                                ));
                            }
                            n
                        };
                    }
                    _ => {
                        return Err(format!(
                            "fault plan entry `{entry}`: filter `{key}` does not apply to \
                             `{}`",
                            kind.name()
                        ))
                    }
                }
            }
            faults.push(spec);
        }
        Ok(FaultPlan { faults })
    }

    /// `true` when no fault is armed.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }
}

impl fmt::Display for FaultPlan {
    /// Canonical plan syntax (entries joined with `,`, default filters
    /// omitted); `FaultPlan::parse(&plan.to_string())` yields `plan` back.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, spec) in self.faults.iter().enumerate() {
            if i > 0 {
                f.write_str(",")?;
            }
            write!(f, "{spec}")?;
        }
        Ok(())
    }
}

/// The process-wide fault runtime: the plan plus the event counters the
/// filters compare against.
struct FaultState {
    plan: FaultPlan,
    /// This process's supervised life number (1-based).
    life: u64,
    /// The worker index this process registered ([`set_worker_shard`]);
    /// `u64::MAX` until registered.
    shard: AtomicU64,
    rows: AtomicU64,
    report_writes: AtomicU64,
    spool_scans: AtomicU64,
    /// Leases granted to this process (a TCP worker), for `heartbeat-stall`.
    leases: AtomicU64,
}

static STATE: OnceLock<Result<FaultState, String>> = OnceLock::new();

fn build_state(plan_text: Option<&str>) -> Result<FaultState, String> {
    let text = match plan_text {
        Some(text) => text.to_string(),
        None => std::env::var(FAULT_ENV).unwrap_or_default(),
    };
    let plan = FaultPlan::parse(&text)?;
    let life = match std::env::var(FAULT_LIFE_ENV) {
        Ok(v) => v
            .parse::<u64>()
            .map_err(|_| format!("bad {FAULT_LIFE_ENV} value `{v}`"))?
            .max(1),
        Err(_) => 1,
    };
    Ok(FaultState {
        plan,
        life,
        shard: AtomicU64::new(u64::MAX),
        rows: AtomicU64::new(0),
        report_writes: AtomicU64::new(0),
        spool_scans: AtomicU64::new(0),
        leases: AtomicU64::new(0),
    })
}

/// Installs the process's fault plan from an explicit `--fault-inject`
/// string, or — when `None` — from [`FAULT_ENV`]. Idempotent for the same
/// plan; call before any fault point runs (the points self-initialise from
/// the environment otherwise).
///
/// # Errors
///
/// Returns the parse error of a malformed plan, or a conflict message if a
/// different plan was already installed in this process.
pub fn install(plan_text: Option<&str>) -> Result<(), String> {
    let state = STATE.get_or_init(|| build_state(plan_text));
    match state {
        Err(e) => Err(e.clone()),
        Ok(installed) => {
            if let Some(text) = plan_text {
                let wanted = FaultPlan::parse(text)?;
                if installed.plan != wanted {
                    return Err(
                        "a different fault plan is already active in this process".to_string()
                    );
                }
            }
            Ok(())
        }
    }
}

/// The live state, or `None` when the plan is empty (the fast path).
fn active() -> Option<&'static FaultState> {
    let state = STATE.get_or_init(|| build_state(None));
    match state {
        Ok(state) if !state.plan.is_empty() => Some(state),
        Ok(_) => None,
        // `install` surfaces parse errors cleanly at startup; a fault point
        // reached with a plan that never parsed must not run unprotected.
        Err(e) => panic!("{FAULT_ENV} did not parse: {e}"),
    }
}

/// Registers this process's worker index (a TCP worker's `--worker-index`;
/// a `run` process registers 0), so `shard=` filters can address one worker
/// of a fleet.
pub fn set_worker_shard(shard: usize) {
    if let Some(state) = active() {
        state.shard.store(shard as u64, Ordering::Relaxed);
    }
}

/// Row fault point: advances this process's row counter and reports
/// whether a `worker-exit` fires at this row — the caller exits (with
/// [`FAULT_EXIT_CODE`]) once the row is durably written. Called once per row
/// by [`crate::checkpoint::Journal::record`] and by a TCP worker's row loop
/// (a TCP worker appends no journal of its own; the broker journals on its
/// behalf). Worker threads inside the broker's own process do not call it,
/// so each row counts once.
pub fn on_row() -> bool {
    let Some(state) = active() else {
        return false;
    };
    let row = state.rows.fetch_add(1, Ordering::Relaxed) + 1;
    let shard = state.shard.load(Ordering::Relaxed);
    state.plan.faults.iter().any(|spec| {
        spec.kind == FaultKind::WorkerExit
            && state.life <= spec.lives
            && row == spec.after_rows
            && spec.shard.is_none_or(|s| s as u64 == shard)
    })
}

/// Lease-grant fault point: advances the granted-lease counter and reports
/// whether a `heartbeat-stall` fault fires on this lease — the worker must
/// stop heartbeating and stall forever, leaving the lease to expire.
pub fn stall_this_lease() -> bool {
    let Some(state) = active() else {
        return false;
    };
    let lease = state.leases.fetch_add(1, Ordering::Relaxed) + 1;
    let shard = state.shard.load(Ordering::Relaxed);
    state.plan.faults.iter().any(|spec| {
        spec.kind == FaultKind::HeartbeatStall
            && state.life <= spec.lives
            && lease == spec.after_rows
            && spec.shard.is_none_or(|s| s as u64 == shard)
    })
}

/// Advances a counter fault's event ordinal and reports whether a `kind`
/// fault fires on this event.
fn counter_fault(kind: FaultKind, counter: fn(&FaultState) -> &AtomicU64) -> bool {
    let Some(state) = active() else {
        return false;
    };
    let event = counter(state).fetch_add(1, Ordering::Relaxed) + 1;
    state
        .plan
        .faults
        .iter()
        .any(|spec| spec.kind == kind && state.life <= spec.lives && event == spec.nth)
}

/// Report-write fault point: `true` when this report-file write must stop
/// halfway and exit.
pub fn tear_this_report_write() -> bool {
    counter_fault(FaultKind::ReportTorn, |state| &state.report_writes)
}

/// Spool-scan fault point: `true` when this scan must fail with an injected
/// I/O error.
pub fn fail_this_spool_scan() -> bool {
    counter_fault(FaultKind::SpoolScanError, |state| &state.spool_scans)
}

/// Terminates the process with [`FAULT_EXIT_CODE`] — the injected-crash
/// exit. Callers flush what a real kill would have left on disk first.
pub fn exit_now() -> ! {
    std::process::exit(FAULT_EXIT_CODE)
}

/// Never returns: the injected-stall behaviour of `heartbeat-stall` (the
/// process stays alive but sends no further frames, which is the signature
/// both lease expiry and the supervisor's hang detection read).
pub fn hang_now() -> ! {
    loop {
        std::thread::sleep(std::time::Duration::from_secs(3600));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_parses_to_inert() {
        assert!(FaultPlan::parse("").unwrap().is_empty());
        assert!(FaultPlan::parse("  ").unwrap().is_empty());
    }

    #[test]
    fn full_plan_round_trips_fields() {
        let plan = FaultPlan::parse(
            "worker-exit:shard=1:after-rows=3:lives=2, spool-scan-error, \
             report-torn:nth=2, heartbeat-stall:shard=0:after-rows=5:lives=all",
        )
        .unwrap();
        assert_eq!(plan.faults.len(), 4);
        assert_eq!(plan.faults[0].kind, FaultKind::WorkerExit);
        assert_eq!(plan.faults[0].shard, Some(1));
        assert_eq!(plan.faults[0].after_rows, 3);
        assert_eq!(plan.faults[0].lives, 2);
        assert_eq!(plan.faults[1].kind, FaultKind::SpoolScanError);
        assert_eq!(plan.faults[1].nth, 1);
        assert_eq!(plan.faults[2].kind, FaultKind::ReportTorn);
        assert_eq!(plan.faults[2].nth, 2);
        assert_eq!(plan.faults[3].kind, FaultKind::HeartbeatStall);
        assert_eq!(plan.faults[3].lives, u64::MAX);
    }

    #[test]
    fn bad_plans_are_named_errors() {
        let unknown = FaultPlan::parse("meteor-strike").unwrap_err();
        assert!(unknown.contains("unknown fault kind"), "{unknown}");
        let misapplied = FaultPlan::parse("report-torn:shard=1").unwrap_err();
        assert!(misapplied.contains("does not apply"), "{misapplied}");
        let misapplied = FaultPlan::parse("worker-exit:nth=1").unwrap_err();
        assert!(misapplied.contains("does not apply"), "{misapplied}");
        let bad_value = FaultPlan::parse("worker-exit:after-rows=soon").unwrap_err();
        assert!(bad_value.contains("bad `after-rows`"), "{bad_value}");
        let zero = FaultPlan::parse("worker-exit:after-rows=0").unwrap_err();
        assert!(zero.contains("at least 1"), "{zero}");
        let no_eq = FaultPlan::parse("worker-exit:after-rows").unwrap_err();
        assert!(no_eq.contains("not key=value"), "{no_eq}");
    }

    #[test]
    fn network_kinds_parse_with_row_filters() {
        let plan =
            FaultPlan::parse("heartbeat-stall:shard=1:after-rows=3,heartbeat-stall:lives=all")
                .unwrap();
        assert_eq!(plan.faults.len(), 2);
        assert_eq!(plan.faults[0].kind, FaultKind::HeartbeatStall);
        assert_eq!(plan.faults[0].shard, Some(1));
        assert_eq!(plan.faults[0].after_rows, 3);
        assert_eq!(plan.faults[1].lives, u64::MAX);
        // heartbeat-stall counts granted leases: counter filters are
        // rejected.
        let misapplied = FaultPlan::parse("heartbeat-stall:nth=2").unwrap_err();
        assert!(misapplied.contains("does not apply"), "{misapplied}");
    }

    #[test]
    fn wire_and_disk_kinds_are_unknown_and_filters_classify() {
        // Torn, flipped, dropped and rewritten frames, flipped journal and
        // artifact bytes and a torn journal tail are damage on the wire or
        // the disk, done by the schedule explorer and the tests' byte
        // edits, never by the binary: a plan naming one fails loudly
        // instead of arming nothing.
        for moved in [
            "journal-torn-tail:after-rows=2",
            "frame-torn:nth=4",
            "frame-corrupt:nth=5",
            "row-corrupt:shard=1:after-rows=2",
            "conn-drop:after-rows=2",
            "journal-bitrot:after-rows=3:lives=all",
            "artifact-corrupt",
        ] {
            let err = FaultPlan::parse(moved).unwrap_err();
            let kind = moved.split(':').next().unwrap();
            assert!(
                err.contains(&format!("unknown fault kind `{kind}`")),
                "{err}"
            );
        }
        // Row faults take `shard`/`after-rows`; counter faults take `nth`.
        for (plan, ok) in [
            ("worker-exit:shard=0:after-rows=2", true),
            ("spool-scan-error:nth=2", true),
            ("spool-scan-error:after-rows=2", false),
            ("report-torn:shard=0", false),
        ] {
            assert_eq!(FaultPlan::parse(plan).is_ok(), ok, "{plan}");
        }
    }

    #[test]
    fn display_is_canonical_and_round_trips() {
        let texts = [
            "worker-exit:shard=1:after-rows=3:lives=2",
            "report-torn:nth=2",
            "heartbeat-stall:shard=0:after-rows=5:lives=all",
            "worker-exit:shard=0:after-rows=2,heartbeat-stall:after-rows=3",
            "spool-scan-error:nth=7:lives=3,report-torn",
            "",
        ];
        for text in texts {
            let plan = FaultPlan::parse(text).unwrap();
            let rendered = plan.to_string();
            assert_eq!(
                FaultPlan::parse(&rendered).unwrap(),
                plan,
                "via `{rendered}`"
            );
        }
        // Canonical form drops defaults and normalises whitespace.
        let plan =
            FaultPlan::parse(" worker-exit:after-rows=1:lives=1 , heartbeat-stall:nth-free=1")
                .map(|p| p.to_string());
        assert!(plan.is_err(), "nth-free must be rejected");
        let plan =
            FaultPlan::parse(" worker-exit:after-rows=1:lives=1 , heartbeat-stall ").unwrap();
        assert_eq!(plan.to_string(), "worker-exit,heartbeat-stall");
    }

    #[test]
    fn duplicate_and_malformed_filters_are_rejected() {
        let dup = FaultPlan::parse("worker-exit:lives=1:lives=2").unwrap_err();
        assert!(dup.contains("duplicate `lives`"), "{dup}");
        let dup = FaultPlan::parse("heartbeat-stall:after-rows=2:after-rows=3").unwrap_err();
        assert!(dup.contains("duplicate `after-rows`"), "{dup}");
        let bad_shard = FaultPlan::parse("heartbeat-stall:shard=first").unwrap_err();
        assert!(bad_shard.contains("bad `shard`"), "{bad_shard}");
        let unknown = FaultPlan::parse("packet-eater:shard=0").unwrap_err();
        assert!(unknown.contains("unknown fault kind"), "{unknown}");
    }

    // Behavioural coverage of the fault points lives in the chaos suites
    // (`tests/chaos.rs`, `tests/distributed.rs`), which arm plans in
    // *spawned* binary processes — the runtime state is process-global, so
    // in-process tests stick to the pure parser.
}
