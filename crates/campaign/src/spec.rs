//! The declarative campaign spec: what to sweep, expressed as data.
//!
//! A campaign is the cartesian product of workloads × mechanisms ×
//! configuration points × seeds, at one run length, evaluated with one
//! direction predictor. Specs are written in a TOML subset (see
//! [`crate::toml`]) and round-trip losslessly through
//! [`CampaignSpec::from_toml_str`] / [`CampaignSpec::to_toml_string`]:
//!
//! ```toml
//! name = "figure9"
//! description = "Speedup over the no-prefetch baseline"
//! workloads = ["all"]
//! mechanisms = ["next-line", "dip", "fdip", "shift", "confluence", "boomerang"]
//! predictor = "tage"
//! seeds = [0]
//!
//! [run]
//! trace_blocks = 150000
//! warmup_blocks = 25000
//!
//! [[config]]
//! label = "table1"
//! ```
//!
//! Configuration points start from the paper's Table I
//! ([`MicroarchConfig::hpca17`]) and apply named overrides, so a spec states
//! only what it changes.
//!
//! The workload axis is not limited to the six paper presets: `[[workload]]`
//! tables define *custom* workloads that start from a `base` preset and
//! override [`WorkloadProfile`] fields, with list values sweeping the field
//! cartesianly into a family of profiles — in the
//! `[workload.terminators]`/`[workload.conditionals]`/`[workload.backend]`
//! sub-tables just like at the top level:
//!
//! ```toml
//! [[workload]]
//! label = "nutch-fp"
//! base = "nutch"
//! footprint_bytes = [262144, 1048576, 4194304]
//! service_roots = [32, 96]
//!
//! [workload.backend]
//! l1d_miss_rate = [0.02, 0.08]
//! ```
//!
//! expands into twelve workload points (`nutch-fp-262144-32-0.02`, ...),
//! each a full profile validated field-by-field at parse time.

use crate::toml::{self, Document, Table, TomlError, Value};
use boomerang::{Mechanism, RunLength, ThrottlePolicy};
use branch_pred::PredictorKind;
use sim_core::{MicroarchConfig, NocModel, PerfectComponents};
use std::fmt;
use workloads::{WorkloadKind, WorkloadProfile};

/// Interconnect selection in a spec (`noc = "mesh" | "crossbar" | <cycles>`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NocSel {
    /// The paper's 4x4 mesh (30-cycle LLC round trip).
    Mesh,
    /// The §VI-E2 crossbar (18-cycle LLC round trip).
    Crossbar,
    /// A fixed LLC round-trip latency, for sweeps.
    Fixed(u64),
}

impl NocSel {
    fn to_model(self) -> NocModel {
        match self {
            NocSel::Mesh => NocModel::Mesh4x4,
            NocSel::Crossbar => NocModel::Crossbar,
            NocSel::Fixed(lat) => NocModel::Fixed(lat),
        }
    }
}

/// One named override of the Table I configuration.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ConfigOverride {
    /// `btb_entries = N`
    BtbEntries(u64),
    /// `btb_ways = N`
    BtbWays(u64),
    /// `ftq_entries = N`
    FtqEntries(usize),
    /// `l1i_bytes = N`
    L1iBytes(u64),
    /// `fetch_width = N`
    FetchWidth(u64),
    /// `rob_entries = N`
    RobEntries(u64),
    /// `memory_latency_ns = X`
    MemoryLatencyNs(f64),
    /// `prefetch_probes_per_cycle = N`
    PrefetchProbesPerCycle(u64),
    /// `noc = "mesh" | "crossbar" | N`
    Noc(NocSel),
    /// `perfect_l1i = true|false`
    PerfectL1i(bool),
    /// `perfect_btb = true|false`
    PerfectBtb(bool),
}

impl ConfigOverride {
    fn apply(self, cfg: &mut MicroarchConfig) {
        match self {
            ConfigOverride::BtbEntries(v) => cfg.btb_entries = v,
            ConfigOverride::BtbWays(v) => cfg.btb_ways = v,
            ConfigOverride::FtqEntries(v) => cfg.ftq_entries = v,
            ConfigOverride::L1iBytes(v) => cfg.l1i_bytes = v,
            ConfigOverride::FetchWidth(v) => cfg.fetch_width = v,
            ConfigOverride::RobEntries(v) => cfg.rob_entries = v,
            ConfigOverride::MemoryLatencyNs(v) => cfg.memory_latency_ns = v,
            ConfigOverride::PrefetchProbesPerCycle(v) => cfg.prefetch_probes_per_cycle = v,
            ConfigOverride::Noc(sel) => cfg.noc = sel.to_model(),
            ConfigOverride::PerfectL1i(v) => cfg.perfect.perfect_l1i = v,
            ConfigOverride::PerfectBtb(v) => cfg.perfect.perfect_btb = v,
        }
    }

    fn write(self, table: &mut Table) {
        match self {
            ConfigOverride::BtbEntries(v) => table.insert("btb_entries", int_value(v)),
            ConfigOverride::BtbWays(v) => table.insert("btb_ways", int_value(v)),
            ConfigOverride::FtqEntries(v) => table.insert("ftq_entries", int_value(v as u64)),
            ConfigOverride::L1iBytes(v) => table.insert("l1i_bytes", int_value(v)),
            ConfigOverride::FetchWidth(v) => table.insert("fetch_width", int_value(v)),
            ConfigOverride::RobEntries(v) => table.insert("rob_entries", int_value(v)),
            ConfigOverride::MemoryLatencyNs(v) => {
                table.insert("memory_latency_ns", Value::Float(v))
            }
            ConfigOverride::PrefetchProbesPerCycle(v) => {
                table.insert("prefetch_probes_per_cycle", int_value(v))
            }
            ConfigOverride::Noc(NocSel::Mesh) => table.insert("noc", Value::Str("mesh".into())),
            ConfigOverride::Noc(NocSel::Crossbar) => {
                table.insert("noc", Value::Str("crossbar".into()))
            }
            ConfigOverride::Noc(NocSel::Fixed(lat)) => table.insert("noc", int_value(lat)),
            ConfigOverride::PerfectL1i(v) => table.insert("perfect_l1i", Value::Bool(v)),
            ConfigOverride::PerfectBtb(v) => table.insert("perfect_btb", Value::Bool(v)),
        }
    }
}

/// One configuration point of the sweep: a label plus Table I overrides.
#[derive(Clone, Debug, PartialEq)]
pub struct ConfigPoint {
    /// Label used in reports (e.g. `"table1"`, `"llc-18"`).
    pub label: String,
    /// Overrides applied on top of [`MicroarchConfig::hpca17`], in order.
    pub overrides: Vec<ConfigOverride>,
}

impl ConfigPoint {
    /// The baseline Table I point with no overrides.
    pub fn table1(label: impl Into<String>) -> Self {
        ConfigPoint {
            label: label.into(),
            overrides: Vec::new(),
        }
    }

    /// Materialises the [`MicroarchConfig`] this point describes.
    pub fn build(&self) -> MicroarchConfig {
        let mut cfg = MicroarchConfig::hpca17();
        cfg.perfect = PerfectComponents::none();
        for o in &self.overrides {
            o.apply(&mut cfg);
        }
        cfg
    }
}

/// One resolved point of the workload axis: a report label plus the full
/// profile the engine generates for it.
///
/// Points come from two spec surfaces: the classic `workloads = [...]` name
/// array (each name resolves to its paper preset with the paper label) and
/// `[[workload]]` tables, which start from a `base` preset, apply profile
/// overrides, and may expand into several points when an override value is a
/// list (see [`CampaignSpec::from_toml_str`]).
#[derive(Clone, Debug, PartialEq)]
pub struct WorkloadPoint {
    /// Label used in reports. Paper presets use the paper name ("Nutch");
    /// list-expanded custom entries get one `-<value>` suffix per listed
    /// override, in document order.
    pub label: String,
    /// The fully resolved profile.
    pub profile: WorkloadProfile,
}

impl WorkloadPoint {
    /// The unmodified paper preset for `kind`, labelled with the paper name.
    pub fn preset(kind: WorkloadKind) -> Self {
        WorkloadPoint {
            label: kind.name().to_string(),
            profile: kind.profile(),
        }
    }

    /// Whether this point is byte-for-byte a paper preset (label and
    /// profile). Such points serialise back into the `workloads` name array.
    pub fn is_preset(&self) -> bool {
        self.label == self.profile.kind.name() && self.profile == self.profile.kind.profile()
    }
}

/// Upper bound on resolved workload-axis points, so a typo'd override list
/// cannot expand into an accidental multi-gigabyte generation phase.
pub const MAX_WORKLOAD_POINTS: usize = 512;

/// A fully parsed campaign description.
#[derive(Clone, Debug, PartialEq)]
pub struct CampaignSpec {
    /// Campaign name; also the stem of the report files.
    pub name: String,
    /// One-line description.
    pub description: String,
    /// The resolved workload axis, in canonical order: named paper presets
    /// first, then `[[workload]]` points in document (and list-expansion)
    /// order.
    pub workloads: Vec<WorkloadPoint>,
    /// Mechanisms to sweep.
    pub mechanisms: Vec<Mechanism>,
    /// Direction predictor for every job.
    pub predictor: PredictorKind,
    /// Seed offsets; `0` keeps each workload's paper seed, other values
    /// re-derive layout and trace deterministically (see
    /// [`crate::engine::derive_seed`]).
    pub seeds: Vec<u64>,
    /// Simulation length for every job.
    pub run: RunLength,
    /// Configuration points.
    pub configs: Vec<ConfigPoint>,
}

/// Error produced while interpreting a spec.
#[derive(Clone, Debug, PartialEq)]
pub enum SpecError {
    /// The TOML layer rejected the document.
    Toml(TomlError),
    /// The document parsed but does not describe a valid campaign.
    Invalid(String),
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecError::Toml(e) => write!(f, "{e}"),
            SpecError::Invalid(msg) => write!(f, "invalid campaign spec: {msg}"),
        }
    }
}

impl std::error::Error for SpecError {}

impl From<TomlError> for SpecError {
    fn from(e: TomlError) -> Self {
        SpecError::Toml(e)
    }
}

fn invalid(msg: impl Into<String>) -> SpecError {
    SpecError::Invalid(msg.into())
}

/// Parses a workload token (paper name, case-insensitive).
pub fn parse_workload(token: &str) -> Result<WorkloadKind, SpecError> {
    let t = token.to_ascii_lowercase();
    WorkloadKind::ALL
        .iter()
        .copied()
        .find(|k| k.name().to_ascii_lowercase() == t)
        .ok_or_else(|| {
            invalid(format!(
                "unknown workload `{token}` (expected one of {}, or \"all\")",
                WorkloadKind::ALL.map(|k| k.name()).join(", ")
            ))
        })
}

/// Parses a mechanism token: `baseline`, `next-line`, `dip`, `fdip`, `pif`,
/// `shift`, `confluence`, `boomerang`, `boomerang:none`, or `boomerang:N`
/// (next-N-blocks throttle).
pub fn parse_mechanism(token: &str) -> Result<Mechanism, SpecError> {
    let t = token.to_ascii_lowercase();
    Ok(match t.as_str() {
        "baseline" => Mechanism::Baseline,
        "next-line" | "nextline" => Mechanism::NextLine,
        "dip" => Mechanism::Dip,
        "fdip" => Mechanism::Fdip,
        "pif" => Mechanism::Pif,
        "shift" => Mechanism::Shift,
        "confluence" => Mechanism::Confluence,
        "boomerang" => Mechanism::Boomerang(ThrottlePolicy::PAPER_DEFAULT),
        _ => {
            if let Some(policy) = t.strip_prefix("boomerang:") {
                // A zero degree is the same policy as `none`: fold it so
                // duplicate rejection sees one mechanism value.
                let degree = match policy {
                    "none" => 0,
                    n => n.parse::<u64>().map_err(|_| {
                        invalid(format!(
                            "bad boomerang throttle `{token}` (use boomerang:none or boomerang:N)"
                        ))
                    })?,
                };
                let policy = match degree {
                    0 => ThrottlePolicy::None,
                    n => ThrottlePolicy::NextN(n),
                };
                Mechanism::Boomerang(policy)
            } else {
                return Err(invalid(format!("unknown mechanism `{token}`")));
            }
        }
    })
}

/// The canonical spec token for a mechanism (inverse of [`parse_mechanism`]).
pub fn mechanism_token(m: Mechanism) -> String {
    match m {
        Mechanism::Baseline => "baseline".into(),
        Mechanism::NextLine => "next-line".into(),
        Mechanism::Dip => "dip".into(),
        Mechanism::Fdip => "fdip".into(),
        Mechanism::Pif => "pif".into(),
        Mechanism::Shift => "shift".into(),
        Mechanism::Confluence => "confluence".into(),
        Mechanism::Boomerang(ThrottlePolicy::PAPER_DEFAULT) => "boomerang".into(),
        Mechanism::Boomerang(ThrottlePolicy::None) => "boomerang:none".into(),
        Mechanism::Boomerang(ThrottlePolicy::NextN(n)) => format!("boomerang:{n}"),
    }
}

/// Parses a predictor token (`tage`, `gshare`, `bimodal`, `never-taken`).
pub fn parse_predictor(token: &str) -> Result<PredictorKind, SpecError> {
    Ok(match token.to_ascii_lowercase().as_str() {
        "tage" => PredictorKind::Tage,
        "gshare" => PredictorKind::Gshare,
        "bimodal" => PredictorKind::Bimodal,
        "never-taken" | "nevertaken" => PredictorKind::NeverTaken,
        _ => return Err(invalid(format!("unknown predictor `{token}`"))),
    })
}

fn predictor_token(p: PredictorKind) -> &'static str {
    match p {
        PredictorKind::Tage => "tage",
        PredictorKind::Gshare => "gshare",
        PredictorKind::Bimodal => "bimodal",
        PredictorKind::NeverTaken => "never-taken",
    }
}

impl CampaignSpec {
    /// Parses a spec from TOML text.
    ///
    /// # Errors
    ///
    /// Returns a [`SpecError`] for malformed TOML or an invalid campaign
    /// (unknown workloads/mechanisms/keys, empty axes, bad config values).
    pub fn from_toml_str(text: &str) -> Result<Self, SpecError> {
        let doc = toml::parse(text)?;
        for key in doc.root.keys() {
            match key {
                "name" | "description" | "workloads" | "mechanisms" | "predictor" | "seeds" => {}
                other => return Err(invalid(format!("unknown top-level key `{other}`"))),
            }
        }
        for (name, _) in &doc.tables {
            if name != "run" {
                return Err(invalid(format!("unknown table [{name}]")));
            }
        }
        for (name, _) in &doc.arrays {
            if name != "config" && name != "workload" {
                return Err(invalid(format!("unknown array of tables [[{name}]]")));
            }
        }

        let name = req_str(&doc.root, "name")?;
        if name.is_empty()
            || !name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-')
        {
            return Err(invalid(format!(
                "campaign name `{name}` must be a non-empty [A-Za-z0-9_-]+ file stem"
            )));
        }
        let description = opt_str(&doc.root, "description")?.unwrap_or_default();

        let workload_tables = doc.array("workload");
        let workload_tokens = match doc.root.get("workloads") {
            Some(_) => req_str_array(&doc.root, "workloads")?,
            // The name array may be omitted when the spec defines its own
            // `[[workload]]` axis.
            None if !workload_tables.is_empty() => Vec::new(),
            None => return Err(invalid("missing required key `workloads`")),
        };
        let named = if workload_tokens
            .iter()
            .any(|t| t.eq_ignore_ascii_case("all"))
        {
            if workload_tokens.len() != 1 {
                return Err(invalid(
                    "\"all\" stands for every workload and cannot be mixed with named workloads",
                ));
            }
            WorkloadKind::ALL.to_vec()
        } else {
            workload_tokens
                .iter()
                .map(|t| parse_workload(t))
                .collect::<Result<Vec<_>, _>>()?
        };
        reject_duplicates(&named, "workloads", |w| w.name().to_string())?;
        let mut workloads: Vec<WorkloadPoint> =
            named.into_iter().map(WorkloadPoint::preset).collect();
        for table in workload_tables {
            workloads.extend(parse_workload_points(table)?);
        }
        if workloads.is_empty() {
            return Err(invalid("workloads must not be empty"));
        }
        if workloads.len() > MAX_WORKLOAD_POINTS {
            return Err(invalid(format!(
                "workload axis expands to {} points (max {MAX_WORKLOAD_POINTS})",
                workloads.len()
            )));
        }
        reject_duplicates(
            &workloads
                .iter()
                .map(|w| w.label.to_ascii_lowercase())
                .collect::<Vec<_>>(),
            "workload label",
            |l| l.clone(),
        )?;
        for point in &workloads {
            point
                .profile
                .validate()
                .map_err(|e| invalid(format!("workload `{}`: {e}", point.label)))?;
        }

        let mechanisms = req_str_array(&doc.root, "mechanisms")?
            .iter()
            .map(|t| parse_mechanism(t))
            .collect::<Result<Vec<_>, _>>()?;
        if mechanisms.is_empty() {
            return Err(invalid("mechanisms must not be empty"));
        }
        // Compare parsed values, not tokens: `boomerang` and `boomerang:2`
        // normalise to the same mechanism.
        reject_duplicates(&mechanisms, "mechanisms", |&m| mechanism_token(m))?;

        let predictor = match opt_str(&doc.root, "predictor")? {
            Some(tok) => parse_predictor(&tok)?,
            None => PredictorKind::Tage,
        };

        let seeds = match doc.root.get("seeds") {
            None => vec![0],
            Some(v) => {
                let items = v
                    .as_array()
                    .ok_or_else(|| invalid("`seeds` must be an array of integers"))?;
                let seeds = items
                    .iter()
                    .map(|i| {
                        i.as_u64()
                            .ok_or_else(|| invalid("`seeds` must be non-negative integers"))
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                if seeds.is_empty() {
                    return Err(invalid("seeds must not be empty"));
                }
                reject_duplicates(&seeds, "seeds", |s| s.to_string())?;
                seeds
            }
        };

        let run = match doc.table("run") {
            None => RunLength::paper_default(),
            Some(table) => {
                for key in table.keys() {
                    if key != "trace_blocks" && key != "warmup_blocks" {
                        return Err(invalid(format!("unknown [run] key `{key}`")));
                    }
                }
                if let Some((sub, _)) = table.subtables.first() {
                    return Err(invalid(format!("unknown sub-table [run.{sub}]")));
                }
                let default = RunLength::paper_default();
                RunLength {
                    trace_blocks: opt_usize(table, "trace_blocks")?.unwrap_or(default.trace_blocks),
                    warmup_blocks: opt_usize(table, "warmup_blocks")?
                        .unwrap_or(default.warmup_blocks),
                }
            }
        };
        if run.trace_blocks == 0 {
            return Err(invalid("run.trace_blocks must be positive"));
        }

        let config_tables = doc.array("config");
        let configs = if config_tables.is_empty() {
            vec![ConfigPoint::table1("table1")]
        } else {
            config_tables
                .iter()
                .map(parse_config_point)
                .collect::<Result<Vec<_>, _>>()?
        };
        let labels: Vec<&str> = configs.iter().map(|c| c.label.as_str()).collect();
        reject_duplicates(&labels, "config label", |l| l.to_string())?;
        for point in &configs {
            point
                .build()
                .validate()
                .map_err(|e| invalid(format!("config `{}`: {e}", point.label)))?;
        }

        Ok(CampaignSpec {
            name,
            description,
            workloads,
            mechanisms,
            predictor,
            seeds,
            run,
            configs,
        })
    }

    /// Serialises the spec as TOML; `from_toml_str(to_toml_string(s)) == s`.
    pub fn to_toml_string(&self) -> String {
        let mut doc = Document::default();
        doc.root.insert("name", Value::Str(self.name.clone()));
        if !self.description.is_empty() {
            doc.root
                .insert("description", Value::Str(self.description.clone()));
        }
        // The longest prefix of unmodified paper presets serialises as the
        // classic name array; every later point becomes an explicit
        // `[[workload]]` table (already expanded: one scalar table per
        // point). Parsing puts named workloads before `[[workload]]` points,
        // so this is the identity on parsed specs.
        let preset_prefix = self.workloads.iter().take_while(|w| w.is_preset()).count();
        if preset_prefix > 0 {
            doc.root.insert(
                "workloads",
                Value::Array(
                    self.workloads[..preset_prefix]
                        .iter()
                        .map(|w| Value::Str(w.profile.kind.name().to_ascii_lowercase()))
                        .collect(),
                ),
            );
        }
        doc.root.insert(
            "mechanisms",
            Value::Array(
                self.mechanisms
                    .iter()
                    .map(|&m| Value::Str(mechanism_token(m)))
                    .collect(),
            ),
        );
        doc.root.insert(
            "predictor",
            Value::Str(predictor_token(self.predictor).into()),
        );
        doc.root.insert(
            "seeds",
            Value::Array(self.seeds.iter().map(|&s| int_value(s)).collect()),
        );

        let mut run = Table::default();
        run.insert("trace_blocks", int_value(self.run.trace_blocks as u64));
        run.insert("warmup_blocks", int_value(self.run.warmup_blocks as u64));
        doc.tables.push(("run".into(), run));

        let mut configs = Vec::new();
        for point in &self.configs {
            let mut table = Table::default();
            table.insert("label", Value::Str(point.label.clone()));
            for o in &point.overrides {
                o.write(&mut table);
            }
            configs.push(table);
        }
        doc.arrays.push(("config".into(), configs));

        let custom: Vec<Table> = self.workloads[preset_prefix..]
            .iter()
            .map(write_workload_point)
            .collect();
        if !custom.is_empty() {
            doc.arrays.push(("workload".into(), custom));
        }
        toml::write(&doc)
    }

    /// Total number of explicitly requested cells (before the engine adds
    /// implicit baseline reference jobs).
    pub fn cell_count(&self) -> usize {
        self.configs.len() * self.workloads.len() * self.seeds.len() * self.mechanisms.len()
    }
}

fn parse_config_point(table: &Table) -> Result<ConfigPoint, SpecError> {
    let label = req_str(table, "label")?;
    if label.is_empty() {
        return Err(invalid("config label must not be empty"));
    }
    if let Some((sub, _)) = table.subtables.first() {
        return Err(invalid(format!(
            "unknown sub-table [config.{sub}] for config `{label}` (sub-tables only apply to [[workload]])"
        )));
    }
    let mut overrides = Vec::new();
    for (key, value) in &table.entries {
        let o = match key.as_str() {
            "label" => continue,
            "btb_entries" => ConfigOverride::BtbEntries(as_u64(value, key)?),
            "btb_ways" => ConfigOverride::BtbWays(as_u64(value, key)?),
            "ftq_entries" => ConfigOverride::FtqEntries(as_usize(value, key)?),
            "l1i_bytes" => ConfigOverride::L1iBytes(as_u64(value, key)?),
            "fetch_width" => ConfigOverride::FetchWidth(as_u64(value, key)?),
            "rob_entries" => ConfigOverride::RobEntries(as_u64(value, key)?),
            "memory_latency_ns" => ConfigOverride::MemoryLatencyNs(
                value
                    .as_f64()
                    .ok_or_else(|| invalid("memory_latency_ns must be a number"))?,
            ),
            "prefetch_probes_per_cycle" => {
                ConfigOverride::PrefetchProbesPerCycle(as_u64(value, key)?)
            }
            "noc" => ConfigOverride::Noc(match value {
                Value::Str(s) if s.eq_ignore_ascii_case("mesh") => NocSel::Mesh,
                Value::Str(s) if s.eq_ignore_ascii_case("crossbar") => NocSel::Crossbar,
                Value::Int(i) if *i >= 0 => NocSel::Fixed(*i as u64),
                _ => {
                    return Err(invalid(
                        "noc must be \"mesh\", \"crossbar\", or a fixed cycle count",
                    ))
                }
            }),
            "perfect_l1i" => ConfigOverride::PerfectL1i(
                value
                    .as_bool()
                    .ok_or_else(|| invalid("perfect_l1i must be a boolean"))?,
            ),
            "perfect_btb" => ConfigOverride::PerfectBtb(
                value
                    .as_bool()
                    .ok_or_else(|| invalid("perfect_btb must be a boolean"))?,
            ),
            other => {
                return Err(invalid(format!(
                    "unknown [[config]] key `{other}` for config `{label}`"
                )))
            }
        };
        overrides.push(o);
    }
    Ok(ConfigPoint { label, overrides })
}

/// Parses one `[[workload]]` table into its resolved points.
///
/// The table names a `base` preset and applies profile overrides on top of
/// it. A scalar override sets the field; a *list* override sweeps it, with
/// every listed key expanding cartesianly (in document order) into one point
/// per combination. Expanded points get a `-<value>` label suffix per listed
/// key, so `label = "fp"` with `footprint_bytes = [262144, 1048576]` and
/// `service_roots = [32, 96]` yields `fp-262144-32`, `fp-262144-96`,
/// `fp-1048576-32`, `fp-1048576-96`.
///
/// The `[workload.terminators]` / `[workload.conditionals]` /
/// `[workload.backend]` sub-table fields sweep the same way (their axes are
/// named by dotted path, e.g. `backend.l1d_miss_rate = [0.02, 0.08]`), and
/// combine cartesianly with any top-level lists — sub-table axes vary
/// fastest, matching document order. Parse-time validation errors name the
/// sub-table field (`workload `x`: `backend.l1d_miss_rate` must be a
/// number`).
fn parse_workload_points(table: &Table) -> Result<Vec<WorkloadPoint>, SpecError> {
    let label = req_str(table, "label")?;
    if label.is_empty() {
        return Err(invalid("workload label must not be empty"));
    }
    let context = |msg: String| invalid(format!("workload `{label}`: {msg}"));
    let base_names = || {
        WorkloadKind::ALL
            .map(|k| k.name().to_ascii_lowercase())
            .join(", ")
    };
    let base_token = match table.get("base") {
        None => {
            return Err(context(format!(
                "missing required key `base` (one of {})",
                base_names()
            )))
        }
        Some(v) => v
            .as_str()
            .ok_or_else(|| context("`base` must be a string naming a paper workload".into()))?,
    };
    // Not parse_workload: its error suggests "all", which `base` (one
    // concrete preset) does not accept, and lacks the label context.
    let base = WorkloadKind::ALL
        .into_iter()
        .find(|k| k.name().eq_ignore_ascii_case(base_token))
        .ok_or_else(|| {
            context(format!(
                "unknown base workload `{base_token}` (expected one of {})",
                base_names()
            ))
        })?;
    let mut profile = base.profile();

    // Scalar overrides apply once; list overrides are collected as sweep
    // axes, in document order.
    let mut sweeps: Vec<(String, Vec<Value>)> = Vec::new();
    let mut seen_utility = false;
    for (key, value) in &table.entries {
        let canonical = match key.as_str() {
            "label" | "base" => continue,
            "description" => {
                profile.description = value
                    .as_str()
                    .ok_or_else(|| context("`description` must be a string".into()))?
                    .to_string();
                continue;
            }
            // Deprecated alias of `utility_fraction` (the field's old,
            // misleading name).
            "hot_function_fraction" | "utility_fraction" => {
                if seen_utility {
                    return Err(context(
                        "give either `utility_fraction` or its deprecated alias \
                         `hot_function_fraction`, not both"
                            .into(),
                    ));
                }
                seen_utility = true;
                "utility_fraction"
            }
            k if WORKLOAD_OVERRIDE_KEYS.contains(&k) => k,
            other => {
                return Err(context(format!(
                    "unknown [[workload]] key `{other}` (overridable fields: {})",
                    WORKLOAD_OVERRIDE_KEYS.join(", ")
                )))
            }
        };
        apply_or_sweep(&mut profile, &mut sweeps, key, canonical, value).map_err(context)?;
    }
    for (name, sub) in &table.subtables {
        if !matches!(name.as_str(), "terminators" | "conditionals" | "backend") {
            return Err(context(format!(
                "unknown sub-table [workload.{name}] (expected terminators, conditionals or backend)"
            )));
        }
        for (key, value) in &sub.entries {
            // Sub-table fields sweep exactly like top-level keys; the axis
            // is named by its dotted path (e.g. `backend.l1d_miss_rate`).
            let dotted = format!("{name}.{key}");
            apply_or_sweep(&mut profile, &mut sweeps, &dotted, &dotted, value).map_err(context)?;
        }
    }

    // Cap the cartesian size *before* materialising any points, so a typo'd
    // spec (six 40-value lists = 4e9 combinations) is an error, not an OOM.
    let combinations = sweeps
        .iter()
        .try_fold(1usize, |acc, (_, values)| acc.checked_mul(values.len()))
        .filter(|&n| n <= MAX_WORKLOAD_POINTS);
    if combinations.is_none() {
        return Err(context(format!(
            "override lists expand to {} points (max {MAX_WORKLOAD_POINTS})",
            sweeps
                .iter()
                .map(|(_, values)| values.len().to_string())
                .collect::<Vec<_>>()
                .join(" x ")
        )));
    }

    // Cartesian expansion of the list overrides: earlier keys vary slowest.
    let mut points = vec![WorkloadPoint {
        label: label.clone(),
        profile,
    }];
    for (key, values) in &sweeps {
        let mut expanded = Vec::with_capacity(points.len() * values.len());
        for point in &points {
            for value in values {
                let mut profile = point.profile.clone();
                apply_workload_override(&mut profile, key, value).map_err(context)?;
                expanded.push(WorkloadPoint {
                    label: format!("{}-{}", point.label, label_fragment(value)),
                    profile,
                });
            }
        }
        points = expanded;
    }
    Ok(points)
}

/// Interprets one `[[workload]]` override value — shared by the top-level
/// key loop and the sub-table loops so the list-vs-scalar rules cannot
/// drift: a *list* registers a sweep axis (non-empty, duplicate-free), a
/// scalar applies to the profile immediately. `shown` is the key as the
/// spec author wrote it (used in error messages), `canonical` the
/// normalised field/axis name (they differ only for the deprecated
/// top-level `hot_function_fraction` alias). Errors are plain messages; the
/// caller adds the workload-label context.
fn apply_or_sweep(
    profile: &mut WorkloadProfile,
    sweeps: &mut Vec<(String, Vec<Value>)>,
    shown: &str,
    canonical: &str,
    value: &Value,
) -> Result<(), String> {
    match value {
        Value::Array(items) => {
            if items.is_empty() {
                return Err(format!("override list `{shown}` must not be empty"));
            }
            reject_duplicates(items, shown, label_fragment).map_err(|e| match e {
                SpecError::Invalid(msg) => msg,
                other => other.to_string(),
            })?;
            sweeps.push((canonical.to_string(), items.clone()));
            Ok(())
        }
        scalar => apply_workload_override(profile, canonical, scalar),
    }
}

/// Top-level `[[workload]]` keys that override a scalar profile field (the
/// canonical spellings; `hot_function_fraction` is accepted as a deprecated
/// alias of `utility_fraction`).
const WORKLOAD_OVERRIDE_KEYS: [&str; 10] = [
    "footprint_bytes",
    "service_roots",
    "max_call_depth",
    "seed",
    "mean_block_instructions",
    "mean_function_blocks",
    "cond_target_mean_lines",
    "cond_backward_fraction",
    "hot_callee_fraction",
    "utility_fraction",
];

/// Applies one scalar override (canonical key) to a profile. Errors are
/// plain messages; the caller adds the workload-label context.
fn apply_workload_override(
    profile: &mut WorkloadProfile,
    key: &str,
    value: &Value,
) -> Result<(), String> {
    let integer = || {
        value
            .as_u64()
            .ok_or_else(|| format!("`{key}` must be a non-negative integer"))
    };
    let index = || {
        integer().and_then(|v| {
            usize::try_from(v)
                .map_err(|_| format!("`{key}` value {v} exceeds this platform's usize range"))
        })
    };
    let number = || {
        value
            .as_f64()
            .ok_or_else(|| format!("`{key}` must be a number"))
    };
    match key {
        "footprint_bytes" => profile.footprint_bytes = integer()?,
        "service_roots" => profile.service_roots = index()?,
        "max_call_depth" => profile.max_call_depth = index()?,
        "seed" => profile.seed = integer()?,
        "mean_block_instructions" => profile.mean_block_instructions = number()?,
        "mean_function_blocks" => profile.mean_function_blocks = number()?,
        "cond_target_mean_lines" => profile.cond_target_mean_lines = number()?,
        "cond_backward_fraction" => profile.cond_backward_fraction = number()?,
        "hot_callee_fraction" => profile.hot_callee_fraction = number()?,
        "utility_fraction" => profile.utility_fraction = number()?,
        "terminators.call" => profile.terminators.call = number()?,
        "terminators.indirect_call" => profile.terminators.indirect_call = number()?,
        "terminators.jump" => profile.terminators.jump = number()?,
        "terminators.indirect_jump" => profile.terminators.indirect_jump = number()?,
        "terminators.early_return" => profile.terminators.early_return = number()?,
        "conditionals.loop_backedge" => profile.conditionals.loop_backedge = number()?,
        "conditionals.pattern" => profile.conditionals.pattern = number()?,
        "conditionals.data_dependent" => profile.conditionals.data_dependent = number()?,
        "conditionals.bias_mean" => profile.conditionals.bias_mean = number()?,
        "conditionals.mean_trip_count" => profile.conditionals.mean_trip_count = number()?,
        "backend.load_fraction" => profile.backend.load_fraction = number()?,
        "backend.l1d_miss_rate" => profile.backend.l1d_miss_rate = number()?,
        "backend.llc_miss_rate" => profile.backend.llc_miss_rate = number()?,
        "backend.base_latency" => profile.backend.base_latency = integer()?,
        other => return Err(format!("unknown workload override `{other}`")),
    }
    Ok(())
}

/// The label suffix a swept override value contributes (`262144`, `0.3`).
fn label_fragment(value: &Value) -> String {
    match value {
        Value::Int(i) => i.to_string(),
        Value::Float(f) => format!("{f}"),
        Value::Str(s) => s.clone(),
        Value::Bool(b) => b.to_string(),
        Value::Array(_) => "list".to_string(),
    }
}

fn as_u64(value: &Value, key: &str) -> Result<u64, SpecError> {
    value
        .as_u64()
        .ok_or_else(|| invalid(format!("`{key}` must be a non-negative integer")))
}

fn req_str(table: &Table, key: &str) -> Result<String, SpecError> {
    opt_str(table, key)?.ok_or_else(|| invalid(format!("missing required key `{key}`")))
}

fn opt_str(table: &Table, key: &str) -> Result<Option<String>, SpecError> {
    match table.get(key) {
        None => Ok(None),
        Some(v) => v
            .as_str()
            .map(|s| Some(s.to_string()))
            .ok_or_else(|| invalid(format!("`{key}` must be a string"))),
    }
}

/// Rejects repeated entries in a sweep axis: each duplicate would become a
/// full redundant simulation job per matrix cell.
fn reject_duplicates<T: PartialEq>(
    items: &[T],
    axis: &str,
    describe: impl Fn(&T) -> String,
) -> Result<(), SpecError> {
    for (i, item) in items.iter().enumerate() {
        if items[..i].contains(item) {
            return Err(invalid(format!(
                "duplicate `{axis}` entry `{}`",
                describe(item)
            )));
        }
    }
    Ok(())
}

fn req_str_array(table: &Table, key: &str) -> Result<Vec<String>, SpecError> {
    let value = table
        .get(key)
        .ok_or_else(|| invalid(format!("missing required key `{key}`")))?;
    let items = value
        .as_array()
        .ok_or_else(|| invalid(format!("`{key}` must be an array of strings")))?;
    items
        .iter()
        .map(|v| {
            v.as_str()
                .map(str::to_string)
                .ok_or_else(|| invalid(format!("`{key}` must contain only strings")))
        })
        .collect()
}

fn opt_usize(table: &Table, key: &str) -> Result<Option<usize>, SpecError> {
    match table.get(key) {
        None => Ok(None),
        Some(v) => as_usize(v, key).map(Some),
    }
}

/// Parses a non-negative integer that must also fit this platform's `usize`.
/// On 32-bit targets a plain `as usize` cast would silently truncate; this
/// rejects the value instead.
fn as_usize(value: &Value, key: &str) -> Result<usize, SpecError> {
    let v = as_u64(value, key)?;
    usize::try_from(v).map_err(|_| {
        invalid(format!(
            "`{key}` value {v} exceeds this platform's usize range"
        ))
    })
}

/// A TOML integer value.
///
/// # Panics
///
/// Panics if the value exceeds `i64::MAX`. Parsing rejects such values (the
/// TOML layer only produces non-negative `i64`s), so this can only trigger
/// on a hand-constructed spec — where the old silent `as i64` wrap would
/// have emitted a negative number and corrupted the round-trip guarantee.
fn int_value(v: u64) -> Value {
    Value::Int(i64::try_from(v).expect("campaign spec integer exceeds TOML's i64 range"))
}

/// Serialises one custom workload point as a scalar `[[workload]]` table:
/// `label`, `base`, and exactly the fields that differ from the base preset,
/// with sub-struct fields in their `[workload.*]` sub-tables.
fn write_workload_point(point: &WorkloadPoint) -> Table {
    let base = point.profile.kind.profile();
    let p = &point.profile;
    let mut table = Table::default();
    table.insert("label", Value::Str(point.label.clone()));
    table.insert("base", Value::Str(p.kind.name().to_ascii_lowercase()));
    if p.description != base.description {
        table.insert("description", Value::Str(p.description.clone()));
    }
    if p.seed != base.seed {
        table.insert("seed", int_value(p.seed));
    }
    if p.footprint_bytes != base.footprint_bytes {
        table.insert("footprint_bytes", int_value(p.footprint_bytes));
    }
    if p.service_roots != base.service_roots {
        table.insert("service_roots", int_value(p.service_roots as u64));
    }
    if p.max_call_depth != base.max_call_depth {
        table.insert("max_call_depth", int_value(p.max_call_depth as u64));
    }
    let floats = [
        (
            "mean_block_instructions",
            p.mean_block_instructions,
            base.mean_block_instructions,
        ),
        (
            "mean_function_blocks",
            p.mean_function_blocks,
            base.mean_function_blocks,
        ),
        (
            "cond_target_mean_lines",
            p.cond_target_mean_lines,
            base.cond_target_mean_lines,
        ),
        (
            "cond_backward_fraction",
            p.cond_backward_fraction,
            base.cond_backward_fraction,
        ),
        (
            "hot_callee_fraction",
            p.hot_callee_fraction,
            base.hot_callee_fraction,
        ),
        (
            "utility_fraction",
            p.utility_fraction,
            base.utility_fraction,
        ),
    ];
    for (key, value, base_value) in floats {
        if value != base_value {
            table.insert(key, Value::Float(value));
        }
    }

    if p.terminators != base.terminators {
        let sub = table.insert_subtable("terminators");
        let fields = [
            ("call", p.terminators.call, base.terminators.call),
            (
                "indirect_call",
                p.terminators.indirect_call,
                base.terminators.indirect_call,
            ),
            ("jump", p.terminators.jump, base.terminators.jump),
            (
                "indirect_jump",
                p.terminators.indirect_jump,
                base.terminators.indirect_jump,
            ),
            (
                "early_return",
                p.terminators.early_return,
                base.terminators.early_return,
            ),
        ];
        for (key, value, base_value) in fields {
            if value != base_value {
                sub.insert(key, Value::Float(value));
            }
        }
    }
    if p.conditionals != base.conditionals {
        let sub = table.insert_subtable("conditionals");
        let fields = [
            (
                "loop_backedge",
                p.conditionals.loop_backedge,
                base.conditionals.loop_backedge,
            ),
            ("pattern", p.conditionals.pattern, base.conditionals.pattern),
            (
                "data_dependent",
                p.conditionals.data_dependent,
                base.conditionals.data_dependent,
            ),
            (
                "bias_mean",
                p.conditionals.bias_mean,
                base.conditionals.bias_mean,
            ),
            (
                "mean_trip_count",
                p.conditionals.mean_trip_count,
                base.conditionals.mean_trip_count,
            ),
        ];
        for (key, value, base_value) in fields {
            if value != base_value {
                sub.insert(key, Value::Float(value));
            }
        }
    }
    if p.backend != base.backend {
        let sub = table.insert_subtable("backend");
        let fields = [
            (
                "load_fraction",
                p.backend.load_fraction,
                base.backend.load_fraction,
            ),
            (
                "l1d_miss_rate",
                p.backend.l1d_miss_rate,
                base.backend.l1d_miss_rate,
            ),
            (
                "llc_miss_rate",
                p.backend.llc_miss_rate,
                base.backend.llc_miss_rate,
            ),
        ];
        for (key, value, base_value) in fields {
            if value != base_value {
                sub.insert(key, Value::Float(value));
            }
        }
        if p.backend.base_latency != base.backend.base_latency {
            sub.insert("base_latency", int_value(p.backend.base_latency));
        }
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPEC: &str = r#"
name = "demo"
description = "two-point sweep"
workloads = ["nutch", "db2"]
mechanisms = ["fdip", "boomerang", "boomerang:none"]
predictor = "tage"
seeds = [0, 7]

[run]
trace_blocks = 4000
warmup_blocks = 800

[[config]]
label = "table1"

[[config]]
label = "llc-18"
noc = 18
btb_entries = 4096
"#;

    #[test]
    fn parses_a_full_spec() {
        let spec = CampaignSpec::from_toml_str(SPEC).unwrap();
        assert_eq!(spec.name, "demo");
        assert_eq!(
            spec.workloads,
            vec![
                WorkloadPoint::preset(WorkloadKind::Nutch),
                WorkloadPoint::preset(WorkloadKind::Db2)
            ]
        );
        assert_eq!(spec.mechanisms.len(), 3);
        assert_eq!(spec.seeds, vec![0, 7]);
        assert_eq!(spec.run.trace_blocks, 4000);
        assert_eq!(spec.configs.len(), 2);
        assert_eq!(spec.cell_count(), 2 * 2 * 2 * 3);
        let cfg = spec.configs[1].build();
        assert_eq!(cfg.btb_entries, 4096);
        assert_eq!(cfg.llc_round_trip(), 18);
    }

    #[test]
    fn round_trips_losslessly() {
        let spec = CampaignSpec::from_toml_str(SPEC).unwrap();
        let text = spec.to_toml_string();
        let again = CampaignSpec::from_toml_str(&text).unwrap();
        assert_eq!(spec, again);
    }

    #[test]
    fn defaults_are_filled_in() {
        let spec = CampaignSpec::from_toml_str(
            "name = \"d\"\nworkloads = [\"all\"]\nmechanisms = [\"fdip\"]\n",
        )
        .unwrap();
        assert_eq!(spec.workloads.len(), 6);
        assert_eq!(spec.predictor, PredictorKind::Tage);
        assert_eq!(spec.seeds, vec![0]);
        assert_eq!(spec.run, RunLength::paper_default());
        assert_eq!(spec.configs, vec![ConfigPoint::table1("table1")]);
    }

    #[test]
    fn mechanism_tokens_round_trip() {
        for token in [
            "baseline",
            "next-line",
            "dip",
            "fdip",
            "pif",
            "shift",
            "confluence",
            "boomerang",
            "boomerang:none",
            "boomerang:8",
        ] {
            let m = parse_mechanism(token).unwrap();
            assert_eq!(mechanism_token(m), token, "token {token}");
        }
        assert!(parse_mechanism("warp-drive").is_err());
        assert!(parse_mechanism("boomerang:x").is_err());
        // boomerang:2 normalises to the paper-default token.
        assert_eq!(
            mechanism_token(parse_mechanism("boomerang:2").unwrap()),
            "boomerang"
        );
    }

    #[test]
    fn rejects_bad_specs() {
        let no_name = "workloads = [\"all\"]\nmechanisms = [\"fdip\"]\n";
        assert!(CampaignSpec::from_toml_str(no_name).is_err());
        let bad_workload = "name = \"x\"\nworkloads = [\"excel\"]\nmechanisms = [\"fdip\"]\n";
        assert!(CampaignSpec::from_toml_str(bad_workload).is_err());
        let unknown_key =
            "name = \"x\"\nworkloads = [\"all\"]\nmechanisms = [\"fdip\"]\nfrobs = 1\n";
        assert!(CampaignSpec::from_toml_str(unknown_key).is_err());
        let bad_cfg = "name = \"x\"\nworkloads = [\"all\"]\nmechanisms = [\"fdip\"]\n\n[[config]]\nlabel = \"a\"\nbtb_entries = 3000\n";
        assert!(
            CampaignSpec::from_toml_str(bad_cfg).is_err(),
            "non-power-of-two BTB must fail validation"
        );
        let dup_label = "name = \"x\"\nworkloads = [\"all\"]\nmechanisms = [\"fdip\"]\n\n[[config]]\nlabel = \"a\"\n\n[[config]]\nlabel = \"a\"\n";
        assert!(CampaignSpec::from_toml_str(dup_label).is_err());
    }

    #[test]
    fn rejects_subtables_on_run_and_config() {
        // Sub-tables are a [[workload]]-only construct; attaching one to
        // [run] or a [[config]] must be an error, not silently dropped.
        let run_sub = "name = \"x\"\nworkloads = [\"all\"]\nmechanisms = [\"fdip\"]\n\n[run]\ntrace_blocks = 2000\n\n[run.extra]\nfoo = 1\n";
        let err = CampaignSpec::from_toml_str(run_sub)
            .unwrap_err()
            .to_string();
        assert!(err.contains("[run.extra]"), "{err}");
        let config_sub = "name = \"x\"\nworkloads = [\"all\"]\nmechanisms = [\"fdip\"]\n\n[[config]]\nlabel = \"a\"\n\n[config.backend]\nl1d_miss_rate = 0.5\n";
        let err = CampaignSpec::from_toml_str(config_sub)
            .unwrap_err()
            .to_string();
        assert!(err.contains("[config.backend]"), "{err}");
    }

    const WORKLOAD_AXIS_SPEC: &str = r#"
name = "fp-sweep"
mechanisms = ["fdip"]

[run]
trace_blocks = 2000
warmup_blocks = 400

[[workload]]
label = "fp"
base = "nutch"
footprint_bytes = [262144, 1048576, 4194304]
service_roots = [32, 96]
hot_callee_fraction = 0.45

[workload.backend]
l1d_miss_rate = 0.06

[[workload]]
label = "tight"
base = "streaming"
mean_block_instructions = 9.5

[workload.terminators]
call = 0.06

[workload.conditionals]
bias_mean = 0.9
"#;

    #[test]
    fn workload_axis_expands_cartesianly() {
        let spec = CampaignSpec::from_toml_str(WORKLOAD_AXIS_SPEC).unwrap();
        // 3 footprints x 2 service-root counts + the scalar "tight" entry.
        assert_eq!(spec.workloads.len(), 7);
        let labels: Vec<&str> = spec.workloads.iter().map(|w| w.label.as_str()).collect();
        assert_eq!(
            labels,
            vec![
                "fp-262144-32",
                "fp-262144-96",
                "fp-1048576-32",
                "fp-1048576-96",
                "fp-4194304-32",
                "fp-4194304-96",
                "tight",
            ]
        );
        // Scalar overrides apply to every expanded point.
        for point in &spec.workloads[..6] {
            assert_eq!(point.profile.kind, WorkloadKind::Nutch);
            assert_eq!(point.profile.hot_callee_fraction, 0.45);
            assert_eq!(point.profile.backend.l1d_miss_rate, 0.06);
            assert!(!point.is_preset());
        }
        assert_eq!(spec.workloads[0].profile.footprint_bytes, 262_144);
        assert_eq!(spec.workloads[0].profile.service_roots, 32);
        assert_eq!(spec.workloads[5].profile.footprint_bytes, 4_194_304);
        assert_eq!(spec.workloads[5].profile.service_roots, 96);
        // Untouched fields keep the base preset's values.
        assert_eq!(
            spec.workloads[0].profile.max_call_depth,
            WorkloadKind::Nutch.profile().max_call_depth
        );
        let tight = &spec.workloads[6];
        assert_eq!(tight.profile.mean_block_instructions, 9.5);
        assert_eq!(tight.profile.terminators.call, 0.06);
        assert_eq!(tight.profile.conditionals.bias_mean, 0.9);
        assert_eq!(spec.cell_count(), 7);
    }

    #[test]
    fn workload_axis_round_trips() {
        let spec = CampaignSpec::from_toml_str(WORKLOAD_AXIS_SPEC).unwrap();
        let text = spec.to_toml_string();
        let again = CampaignSpec::from_toml_str(&text).unwrap();
        assert_eq!(spec, again);
        assert_eq!(text, again.to_toml_string());
        // The expanded points serialise as scalar [[workload]] tables with
        // sub-tables for the backend override.
        assert!(text.contains("[[workload]]"), "{text}");
        assert!(text.contains("[workload.backend]"), "{text}");
        assert!(!text.contains("workloads ="), "{text}");
    }

    const SUBTABLE_SWEEP_SPEC: &str = r#"
name = "mix-sweep"
mechanisms = ["fdip"]

[run]
trace_blocks = 2000
warmup_blocks = 400

[[workload]]
label = "mix"
base = "nutch"
footprint_bytes = [262144, 1048576]

[workload.terminators]
indirect_jump = [0.01, 0.05]

[workload.backend]
l1d_miss_rate = [0.02, 0.08]
load_fraction = 0.22
"#;

    #[test]
    fn subtable_fields_sweep_cartesianly() {
        let spec = CampaignSpec::from_toml_str(SUBTABLE_SWEEP_SPEC).unwrap();
        // 2 footprints x 2 indirect-jump weights x 2 l1d miss rates.
        assert_eq!(spec.workloads.len(), 8);
        let labels: Vec<&str> = spec.workloads.iter().map(|w| w.label.as_str()).collect();
        assert_eq!(
            labels,
            vec![
                "mix-262144-0.01-0.02",
                "mix-262144-0.01-0.08",
                "mix-262144-0.05-0.02",
                "mix-262144-0.05-0.08",
                "mix-1048576-0.01-0.02",
                "mix-1048576-0.01-0.08",
                "mix-1048576-0.05-0.02",
                "mix-1048576-0.05-0.08",
            ]
        );
        // Swept and scalar sub-table overrides land on the right fields.
        let first = &spec.workloads[0].profile;
        let last = &spec.workloads[7].profile;
        assert_eq!(first.terminators.indirect_jump, 0.01);
        assert_eq!(last.terminators.indirect_jump, 0.05);
        assert_eq!(first.backend.l1d_miss_rate, 0.02);
        assert_eq!(last.backend.l1d_miss_rate, 0.08);
        for point in &spec.workloads {
            assert_eq!(point.profile.backend.load_fraction, 0.22);
        }
    }

    #[test]
    fn subtable_sweeps_round_trip() {
        let spec = CampaignSpec::from_toml_str(SUBTABLE_SWEEP_SPEC).unwrap();
        let text = spec.to_toml_string();
        let again = CampaignSpec::from_toml_str(&text).unwrap();
        assert_eq!(spec, again);
        assert_eq!(text, again.to_toml_string());
    }

    #[test]
    fn invalid_swept_subtable_values_are_field_level_errors() {
        // A list element that produces an invalid profile fails validation
        // with the sub-table field named, at parse time.
        let e = CampaignSpec::from_toml_str(
            "name = \"x\"\nmechanisms = [\"fdip\"]\n\n[[workload]]\nlabel = \"bad\"\nbase = \"nutch\"\n\n[workload.backend]\nload_fraction = [0.2, 1.4]\n",
        )
        .unwrap_err()
        .to_string();
        assert!(e.contains("workload `bad"), "{e}");
        assert!(e.contains("load_fraction"), "{e}");
    }

    #[test]
    fn named_and_custom_workloads_mix() {
        let spec = CampaignSpec::from_toml_str(
            "name = \"mix\"\nworkloads = [\"nutch\"]\nmechanisms = [\"fdip\"]\n\n[[workload]]\nlabel = \"big\"\nbase = \"nutch\"\nfootprint_bytes = 4194304\n",
        )
        .unwrap();
        assert_eq!(spec.workloads.len(), 2);
        assert!(spec.workloads[0].is_preset());
        assert_eq!(spec.workloads[1].label, "big");
        let again = CampaignSpec::from_toml_str(&spec.to_toml_string()).unwrap();
        assert_eq!(spec, again);
    }

    #[test]
    fn preset_clone_normalises_to_the_name_array() {
        // A [[workload]] entry that is byte-for-byte a paper preset is the
        // same axis point as naming the workload.
        let explicit = CampaignSpec::from_toml_str(
            "name = \"x\"\nmechanisms = [\"fdip\"]\n\n[[workload]]\nlabel = \"Nutch\"\nbase = \"nutch\"\n",
        )
        .unwrap();
        let named = CampaignSpec::from_toml_str(
            "name = \"x\"\nworkloads = [\"nutch\"]\nmechanisms = [\"fdip\"]\n",
        )
        .unwrap();
        assert_eq!(explicit.workloads, named.workloads);
        assert_eq!(explicit, named);
        assert!(explicit
            .to_toml_string()
            .contains("workloads = [\"nutch\"]"));
    }

    #[test]
    fn workload_axis_rejects_bad_tables() {
        let base = "name = \"x\"\nmechanisms = [\"fdip\"]\n";
        // Missing base.
        let e = CampaignSpec::from_toml_str(&format!("{base}\n[[workload]]\nlabel = \"a\"\n"))
            .unwrap_err()
            .to_string();
        assert!(e.contains("base"), "{e}");
        // Unknown override key.
        let e = CampaignSpec::from_toml_str(&format!(
            "{base}\n[[workload]]\nlabel = \"a\"\nbase = \"nutch\"\nfrobs = 1\n"
        ))
        .unwrap_err()
        .to_string();
        assert!(e.contains("frobs"), "{e}");
        // Unknown sub-table.
        assert!(CampaignSpec::from_toml_str(&format!(
            "{base}\n[[workload]]\nlabel = \"a\"\nbase = \"nutch\"\n\n[workload.frontend]\nx = 1\n"
        ))
        .is_err());
        // Empty override list inside a sub-table, named by dotted path.
        let e = CampaignSpec::from_toml_str(&format!(
            "{base}\n[[workload]]\nlabel = \"a\"\nbase = \"nutch\"\n\n[workload.backend]\nload_fraction = []\n"
        ))
        .unwrap_err()
        .to_string();
        assert!(e.contains("backend.load_fraction"), "{e}");
        // Duplicate values within a sub-table override list.
        assert!(CampaignSpec::from_toml_str(&format!(
            "{base}\n[[workload]]\nlabel = \"a\"\nbase = \"nutch\"\n\n[workload.backend]\nload_fraction = [0.1, 0.1]\n"
        ))
        .is_err());
        // Mistyped sub-table list elements are field-level errors.
        let e = CampaignSpec::from_toml_str(&format!(
            "{base}\n[[workload]]\nlabel = \"a\"\nbase = \"nutch\"\n\n[workload.terminators]\ncall = [0.05, \"often\"]\n"
        ))
        .unwrap_err()
        .to_string();
        assert!(e.contains("terminators.call"), "{e}");
        // Empty override list.
        assert!(CampaignSpec::from_toml_str(&format!(
            "{base}\n[[workload]]\nlabel = \"a\"\nbase = \"nutch\"\nfootprint_bytes = []\n"
        ))
        .is_err());
        // Duplicate values within one override list.
        assert!(CampaignSpec::from_toml_str(&format!(
            "{base}\n[[workload]]\nlabel = \"a\"\nbase = \"nutch\"\nfootprint_bytes = [262144, 262144]\n"
        ))
        .is_err());
        // Both the canonical key and its deprecated alias.
        assert!(CampaignSpec::from_toml_str(&format!(
            "{base}\n[[workload]]\nlabel = \"a\"\nbase = \"nutch\"\nutility_fraction = 0.1\nhot_function_fraction = 0.1\n"
        ))
        .is_err());
    }

    #[test]
    fn deprecated_hot_function_fraction_alias_still_parses() {
        let spec = CampaignSpec::from_toml_str(
            "name = \"x\"\nmechanisms = [\"fdip\"]\n\n[[workload]]\nlabel = \"a\"\nbase = \"nutch\"\nhot_function_fraction = 0.2\n",
        )
        .unwrap();
        assert_eq!(spec.workloads[0].profile.utility_fraction, 0.2);
    }

    #[test]
    fn invalid_profile_values_are_field_level_spec_errors() {
        let e = CampaignSpec::from_toml_str(
            "name = \"x\"\nmechanisms = [\"fdip\"]\n\n[[workload]]\nlabel = \"bad\"\nbase = \"nutch\"\nfootprint_bytes = 0\n",
        )
        .unwrap_err()
        .to_string();
        assert!(e.contains("workload `bad`"), "{e}");
        assert!(e.contains("footprint_bytes"), "{e}");
        assert!(e.contains("got 0"), "{e}");

        let e = CampaignSpec::from_toml_str(
            "name = \"x\"\nmechanisms = [\"fdip\"]\n\n[[workload]]\nlabel = \"bad\"\nbase = \"db2\"\n\n[workload.conditionals]\nmean_trip_count = 1.0\n",
        )
        .unwrap_err()
        .to_string();
        assert!(e.contains("conditionals.mean_trip_count"), "{e}");

        // A root count no layout can plan fails at parse time, before any
        // generation reserves a table for it.
        let e = CampaignSpec::from_toml_str(
            "name = \"x\"\nmechanisms = [\"fdip\"]\n\n[[workload]]\nlabel = \"bad\"\nbase = \"nutch\"\nservice_roots = 1099511627776\n",
        )
        .unwrap_err()
        .to_string();
        assert!(e.contains("`service_roots`"), "{e}");
        assert!(e.contains("got 1099511627776"), "{e}");
    }

    #[test]
    fn duplicate_workload_labels_are_rejected() {
        // Across two [[workload]] tables.
        assert!(CampaignSpec::from_toml_str(
            "name = \"x\"\nmechanisms = [\"fdip\"]\n\n[[workload]]\nlabel = \"a\"\nbase = \"nutch\"\n\n[[workload]]\nlabel = \"a\"\nbase = \"db2\"\n"
        )
        .is_err());
        // Against a named preset (case-insensitive).
        assert!(CampaignSpec::from_toml_str(
            "name = \"x\"\nworkloads = [\"nutch\"]\nmechanisms = [\"fdip\"]\n\n[[workload]]\nlabel = \"nutch\"\nbase = \"db2\"\n"
        )
        .is_err());
        // Colliding expanded labels.
        assert!(CampaignSpec::from_toml_str(
            "name = \"x\"\nmechanisms = [\"fdip\"]\n\n[[workload]]\nlabel = \"a\"\nbase = \"nutch\"\nfootprint_bytes = [262144]\n\n[[workload]]\nlabel = \"a-262144\"\nbase = \"nutch\"\n"
        )
        .is_err());
    }

    #[test]
    fn workload_axis_expansion_is_capped() {
        // 9^4 = 6561 > MAX_WORKLOAD_POINTS.
        let list = "[131072, 262144, 393216, 524288, 655360, 786432, 917504, 1048576, 1179648]";
        let depths = "[4, 5, 6, 7, 8, 9, 10, 11, 12]";
        let roots = "[8, 9, 10, 11, 12, 13, 14, 15, 16]";
        let fractions = "[0.1, 0.11, 0.12, 0.13, 0.14, 0.15, 0.16, 0.17, 0.18]";
        let e = CampaignSpec::from_toml_str(&format!(
            "name = \"x\"\nmechanisms = [\"fdip\"]\n\n[[workload]]\nlabel = \"a\"\nbase = \"nutch\"\nfootprint_bytes = {list}\nmax_call_depth = {depths}\nservice_roots = {roots}\nhot_callee_fraction = {fractions}\n"
        ))
        .unwrap_err()
        .to_string();
        assert!(e.contains("max 512"), "{e}");
    }

    #[test]
    fn out_of_range_integers_are_rejected_not_truncated() {
        // Beyond i64: the TOML layer rejects the literal outright.
        let e = CampaignSpec::from_toml_str(
            "name = \"x\"\nworkloads = [\"all\"]\nmechanisms = [\"fdip\"]\n\n[[config]]\nlabel = \"a\"\nftq_entries = 9223372036854775808\n",
        )
        .unwrap_err()
        .to_string();
        assert!(e.contains("9223372036854775808"), "{e}");
        // Negative integers never reach a cast.
        assert!(CampaignSpec::from_toml_str(
            "name = \"x\"\nworkloads = [\"all\"]\nmechanisms = [\"fdip\"]\n\n[run]\ntrace_blocks = -5\n"
        )
        .is_err());
        // Large-but-representable values round-trip exactly instead of
        // wrapping (pre-fix, `u64 as i64` style casts corrupted them on the
        // way out and `u64 as usize` truncated them on 32-bit targets).
        let spec = CampaignSpec::from_toml_str(
            "name = \"x\"\nworkloads = [\"all\"]\nmechanisms = [\"fdip\"]\nseeds = [9223372036854775807]\n",
        )
        .unwrap();
        assert_eq!(spec.seeds, vec![i64::MAX as u64]);
        let again = CampaignSpec::from_toml_str(&spec.to_toml_string()).unwrap();
        assert_eq!(spec, again);
    }

    #[test]
    #[should_panic(expected = "exceeds TOML's i64 range")]
    fn hand_constructed_overflow_panics_instead_of_wrapping() {
        let mut spec = CampaignSpec::from_toml_str(
            "name = \"x\"\nworkloads = [\"all\"]\nmechanisms = [\"fdip\"]\n",
        )
        .unwrap();
        spec.seeds = vec![u64::MAX];
        let _ = spec.to_toml_string();
    }

    #[test]
    fn rejects_duplicate_axis_entries() {
        let dup_workload =
            "name = \"x\"\nworkloads = [\"nutch\", \"nutch\"]\nmechanisms = [\"fdip\"]\n";
        assert!(CampaignSpec::from_toml_str(dup_workload).is_err());
        let mixed_all = "name = \"x\"\nworkloads = [\"all\", \"nutch\"]\nmechanisms = [\"fdip\"]\n";
        assert!(CampaignSpec::from_toml_str(mixed_all).is_err());
        let dup_seed =
            "name = \"x\"\nworkloads = [\"all\"]\nmechanisms = [\"fdip\"]\nseeds = [3, 3]\n";
        assert!(CampaignSpec::from_toml_str(dup_seed).is_err());
        // boomerang and boomerang:2 normalise to the same mechanism value,
        // and so do boomerang:none and boomerang:0 (both prefetch nothing).
        for pair in [
            r#"["boomerang", "boomerang:2"]"#,
            r#"["boomerang:none", "boomerang:0"]"#,
        ] {
            let dup_mech = format!("name = \"x\"\nworkloads = [\"all\"]\nmechanisms = {pair}\n");
            let err = CampaignSpec::from_toml_str(&dup_mech)
                .unwrap_err()
                .to_string();
            assert!(err.contains("duplicate"), "{pair}: {err}");
        }
    }
}
