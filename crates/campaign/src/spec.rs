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
//! ([`MicroarchConfig::hpca17`]) and set named fields, so a spec states
//! only what it changes. The `[[config]]` keys are `btb_entries`,
//! `btb_ways`, `ftq_entries`, `l1i_bytes`, `fetch_width`, `rob_entries`,
//! `memory_latency_ns`, `prefetch_probes_per_cycle`, `noc` (`"mesh"`,
//! `"crossbar"` or a fixed LLC round trip in cycles), `perfect_l1i` and
//! `perfect_btb`.
//!
//! The workload axis is not limited to the six paper presets: `[[workload]]`
//! tables define *custom* workloads that start from a `base` preset and
//! override [`WorkloadProfile`] fields — top-level ones and, in the
//! `[workload.terminators]`/`[workload.conditionals]`/`[workload.backend]`
//! sub-tables, the nested ones.
//!
//! In either kind of table a list value sweeps its field: the listed keys
//! expand cartesianly into a family of points, each labelled with one
//! `-<value>` suffix per listed key, in document order:
//!
//! ```toml
//! [[config]]
//! label = "llc"
//! noc = [1, 10, 20, 30, 40, 50, 60, 70]
//!
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
//! expands into eight configuration points (`llc-1` … `llc-70`) and twelve
//! workload points (`nutch-fp-262144-32-0.02`, ...), each validated at parse
//! time. Each field is named once, in a field table ([`mod@sim_core::field`]):
//! `CONFIG_FIELDS` here, and [`workloads::PROFILE_FIELDS`] beside the
//! profile, which the artifact codec and key read too. The tables drive
//! parsing, writing, sweeps, labels and errors.

use crate::toml::{self, Document, Table, TomlError, Value};
use boomerang::{Mechanism, RunLength, ThrottlePolicy};
use branch_pred::PredictorKind;
use sim_core::field::{Access, Field};
use sim_core::{field, MicroarchConfig, NocModel};
use std::fmt;
use workloads::{WorkloadKind, WorkloadProfile, PROFILE_FIELDS};

/// The `[[config]]` keys: the [`MicroarchConfig`] fields a point may set.
#[rustfmt::skip]
static CONFIG_FIELDS: [Field<MicroarchConfig>; 11] = [
    field!("btb_entries", Integer, btb_entries),
    field!("btb_ways", Integer, btb_ways),
    field!("ftq_entries", Index, ftq_entries),
    field!("l1i_bytes", Integer, l1i_bytes),
    field!("fetch_width", Integer, fetch_width),
    field!("rob_entries", Integer, rob_entries),
    field!("memory_latency_ns", Number, memory_latency_ns),
    field!(
        "prefetch_probes_per_cycle",
        Integer,
        prefetch_probes_per_cycle
    ),
    field!("noc", Noc, noc),
    field!("perfect_l1i", Bool, perfect.perfect_l1i),
    field!("perfect_btb", Bool, perfect.perfect_btb),
];

/// Deprecated spellings of field keys, with the key each stands for.
const ALIASES: [(&str, &str); 1] = [("hot_function_fraction", "utility_fraction")];

/// A field table entry's TOML side. A number reads an integer as a float
/// and is written back as one; a `Noc` is `"mesh"`, `"crossbar"` (any
/// case) or a fixed LLC round trip in cycles.
trait TomlField<T> {
    /// Sets the field on `target` from a scalar TOML value. Errors are plain
    /// messages naming the key; the caller adds the point's context.
    fn read(&self, target: &mut T, value: &Value) -> Result<(), String>;
    /// The field's canonical TOML value on `target`.
    fn value(&self, target: &T) -> Value;
}

impl<T> TomlField<T> for Field<T> {
    fn read(&self, target: &mut T, value: &Value) -> Result<(), String> {
        let key = self.key;
        let must_be = |what: &str| format!("`{key}` must be {what}");
        let integer = || {
            value
                .as_u64()
                .ok_or_else(|| must_be("a non-negative integer"))
        };
        match self.access {
            Access::Integer(_, set) => set(target, integer()?),
            Access::Index(_, set) => {
                let v = integer()?;
                let v = usize::try_from(v).map_err(|_| {
                    format!("`{key}` value {v} exceeds this platform's usize range")
                })?;
                set(target, v)
            }
            Access::Number(_, set) => {
                set(target, value.as_f64().ok_or_else(|| must_be("a number"))?)
            }
            Access::Bool(_, set) => {
                set(target, value.as_bool().ok_or_else(|| must_be("a boolean"))?)
            }
            Access::Noc(_, set) => set(
                target,
                match value.as_str() {
                    Some(s) if s.eq_ignore_ascii_case("mesh") => NocModel::Mesh4x4,
                    Some(s) if s.eq_ignore_ascii_case("crossbar") => NocModel::Crossbar,
                    _ => NocModel::Fixed(value.as_u64().ok_or_else(|| {
                        must_be("\"mesh\", \"crossbar\", or a fixed cycle count")
                    })?),
                },
            ),
        }
        Ok(())
    }

    fn value(&self, target: &T) -> Value {
        match self.access {
            Access::Integer(get, _) => int_value(get(target)),
            Access::Index(get, _) => int_value(get(target) as u64),
            Access::Number(get, _) => Value::Float(get(target)),
            Access::Bool(get, _) => Value::Bool(get(target)),
            Access::Noc(get, _) => match get(target) {
                NocModel::Mesh4x4 => Value::Str("mesh".into()),
                NocModel::Crossbar => Value::Str("crossbar".into()),
                NocModel::Fixed(cycles) => int_value(cycles),
            },
        }
    }
}

/// Appends `key = value` to `table`, a dotted key to the sub-table it names.
/// Keys sharing a sub-table must arrive together, as they do in field-table
/// order.
fn put(table: &mut Table, key: &str, value: Value) {
    match key.split_once('.') {
        None => table.insert(key, value),
        Some((sub, key)) => match table.subtables.last_mut() {
            Some((name, last)) if name == sub => last.insert(key, value),
            _ => table.insert_subtable(sub).insert(key, value),
        },
    }
}

/// One configuration point of the sweep: a label plus the Table I fields
/// its `[[config]]` table sets.
#[derive(Clone, Debug, PartialEq)]
pub struct ConfigPoint {
    /// Label used in reports (e.g. `"table1"`, `"llc-18"`).
    pub label: String,
    /// [`MicroarchConfig::hpca17`] with this point's fields set.
    config: MicroarchConfig,
    /// Indices into `CONFIG_FIELDS` of the fields the spec set, in
    /// document order; they are written back as given, even at their
    /// Table I value.
    set: Vec<usize>,
}

impl ConfigPoint {
    /// The baseline Table I point, setting no field.
    pub fn table1(label: impl Into<String>) -> Self {
        ConfigPoint {
            label: label.into(),
            config: MicroarchConfig::hpca17(),
            set: Vec::new(),
        }
    }

    /// Materialises the [`MicroarchConfig`] this point describes.
    pub fn build(&self) -> MicroarchConfig {
        self.config.clone()
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

/// Upper bound on resolved workload-axis points, and on the points one
/// `[[config]]` or `[[workload]]` table expands into, so a typo'd list
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
        reject_duplicates(&named, "workloads", |w| w.name().to_string()).map_err(invalid)?;
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
        )
        .map_err(invalid)?;
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
        reject_duplicates(&mechanisms, "mechanisms", |&m| mechanism_token(m)).map_err(invalid)?;

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
                reject_duplicates(&seeds, "seeds", |s| s.to_string()).map_err(invalid)?;
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

        let mut configs = Vec::new();
        for table in doc.array("config") {
            configs.extend(parse_config_points(table)?);
        }
        if configs.is_empty() {
            configs.push(ConfigPoint::table1("table1"));
        }
        let labels: Vec<&str> = configs.iter().map(|c| c.label.as_str()).collect();
        reject_duplicates(&labels, "config label", |l| l.to_string()).map_err(invalid)?;
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
        // `[[workload]]` table. Parsing puts named workloads before
        // `[[workload]]` points, so this is the identity on parsed specs.
        // Points of both axes are written already expanded, one scalar table
        // per point.
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
            for &i in &point.set {
                put(
                    &mut table,
                    CONFIG_FIELDS[i].key,
                    CONFIG_FIELDS[i].value(&point.config),
                );
            }
            configs.push(table);
        }
        doc.arrays.push(("config".into(), configs));

        // A custom point writes `label`, `base`, and exactly the fields that
        // differ from its base preset.
        let mut custom = Vec::new();
        for point in &self.workloads[preset_prefix..] {
            let (profile, base) = (&point.profile, point.profile.kind.profile());
            let mut table = Table::default();
            table.insert("label", Value::Str(point.label.clone()));
            table.insert("base", Value::Str(profile.kind.name().to_ascii_lowercase()));
            if profile.description != base.description {
                table.insert("description", Value::Str(profile.description.clone()));
            }
            for field in &PROFILE_FIELDS {
                let value = field.value(profile);
                if value != field.value(&base) {
                    put(&mut table, field.key, value);
                }
            }
            custom.push(table);
        }
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

/// Parses one `[[config]]` table into its points: one, or one per
/// combination when a value is a list (see [`sweep`]).
fn parse_config_points(table: &Table) -> Result<Vec<ConfigPoint>, SpecError> {
    let label = req_str(table, "label")?;
    if label.is_empty() {
        return Err(invalid("config label must not be empty"));
    }
    if let Some((sub, _)) = table.subtables.first() {
        return Err(invalid(format!(
            "unknown sub-table [config.{sub}] for config `{label}` (sub-tables only apply to [[workload]])"
        )));
    }
    let context = |msg: String| invalid(format!("config `{label}`: {msg}"));
    let entries = table
        .entries
        .iter()
        .filter(|(key, _)| key != "label")
        .map(|(key, value)| (key.clone(), value));
    let entries = resolve(&CONFIG_FIELDS, "config", entries).map_err(context)?;
    let set: Vec<usize> = entries.iter().map(|&(_, i, _)| i).collect();
    let points = sweep(&CONFIG_FIELDS, &label, MicroarchConfig::hpca17(), &entries);
    Ok(points
        .map_err(context)?
        .into_iter()
        .map(|(label, config)| ConfigPoint {
            label,
            config,
            set: set.clone(),
        })
        .collect())
}

/// Parses one `[[workload]]` table into its points: one, or one per
/// combination when a value is a list (see [`sweep`]).
///
/// The table names a `base` preset and overrides profile fields on top of
/// it. Fields of the `[workload.terminators]` / `[workload.conditionals]` /
/// `[workload.backend]` sub-tables are named by dotted path (their sweep
/// axes, e.g. `backend.l1d_miss_rate = [0.02, 0.08]`, vary fastest, matching
/// document order), and errors name them the same way (`workload `x`:
/// `backend.l1d_miss_rate` must be a number`).
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

    let mut entries = Vec::new();
    for (key, value) in &table.entries {
        match key.as_str() {
            "label" | "base" => {}
            "description" => {
                profile.description = value
                    .as_str()
                    .ok_or_else(|| context("`description` must be a string".into()))?
                    .to_string();
            }
            _ => entries.push((key.clone(), value)),
        }
    }
    let mut subtables: Vec<&str> = PROFILE_FIELDS
        .iter()
        .filter_map(|f| Some(f.key.split_once('.')?.0))
        .collect();
    subtables.dedup();
    for (name, sub) in &table.subtables {
        if !subtables.contains(&name.as_str()) {
            return Err(context(format!(
                "unknown sub-table [workload.{name}] (expected one of {})",
                subtables.join(", ")
            )));
        }
        entries.extend(
            sub.entries
                .iter()
                .map(|(key, value)| (format!("{name}.{key}"), value)),
        );
    }
    let entries = resolve(&PROFILE_FIELDS, "workload", entries).map_err(context)?;
    let points = sweep(&PROFILE_FIELDS, &label, profile, &entries);
    Ok(points
        .map_err(context)?
        .into_iter()
        .map(|(label, profile)| WorkloadPoint { label, profile })
        .collect())
}

/// A table entry resolved against a field table: the key as written, the
/// index of its field, and its value.
type Entry<'a> = (String, usize, &'a Value);

/// Resolves a table's keys against `fields`, in document order. `what`
/// names the table (`config`, `workload`) in errors, which are plain
/// messages; the caller adds the table's context.
fn resolve<'a, T>(
    fields: &[Field<T>],
    what: &str,
    entries: impl IntoIterator<Item = (String, &'a Value)>,
) -> Result<Vec<Entry<'a>>, String> {
    let mut resolved: Vec<Entry<'a>> = Vec::new();
    for (shown, value) in entries {
        let key = ALIASES
            .iter()
            .find(|(alias, _)| *alias == shown)
            .map_or(shown.as_str(), |&(_, key)| key);
        let Some(i) = fields.iter().position(|f| f.key == key) else {
            let keys: Vec<&str> = fields.iter().map(|f| f.key).collect();
            return Err(format!(
                "unknown [[{what}]] key `{shown}` (overridable fields: {})",
                keys.join(", ")
            ));
        };
        if let Some((earlier, ..)) = resolved.iter().find(|&&(_, j, _)| j == i) {
            return Err(format!(
                "`{earlier}` and `{shown}` name the same field; give one, not both"
            ));
        }
        resolved.push((shown, i, value));
    }
    Ok(resolved)
}

/// Expands one table's resolved entries into its points, starting from
/// `start`. A scalar sets its field on every point. A *list* sweeps it:
/// every listed key expands cartesianly, earlier keys varying slowest, into
/// one point per combination, labelled `label` plus one `-<value>` suffix
/// per listed key. So `label = "fp"` with `footprint_bytes = [262144,
/// 1048576]` and `service_roots = [32, 96]` yields `fp-262144-32`,
/// `fp-262144-96`, `fp-1048576-32`, `fp-1048576-96`. Errors are plain
/// messages; the caller adds the table's context.
fn sweep<T: Clone>(
    fields: &[Field<T>],
    label: &str,
    mut start: T,
    entries: &[Entry<'_>],
) -> Result<Vec<(String, T)>, String> {
    let mut axes = Vec::new();
    for (shown, i, value) in entries {
        match value {
            Value::Array(items) => {
                if items.is_empty() {
                    return Err(format!("override list `{shown}` must not be empty"));
                }
                // Compare the values the items read into, not the items
                // as written: `"mesh"` and `"MESH"` are one point.
                let read = |item| {
                    let mut target = start.clone();
                    fields[*i].read(&mut target, item)?;
                    Ok(fields[*i].value(&target))
                };
                let values = items.iter().map(read).collect::<Result<Vec<_>, String>>()?;
                reject_duplicates(&values, shown, label_fragment)?;
                axes.push((&fields[*i], items));
            }
            scalar => fields[*i].read(&mut start, scalar)?,
        }
    }

    // Cap the cartesian size *before* materialising any points, so a typo'd
    // spec (six 40-value lists = 4e9 combinations) is an error, not an OOM.
    let combinations = axes
        .iter()
        .try_fold(1usize, |acc, (_, items)| acc.checked_mul(items.len()));
    if combinations.is_none_or(|n| n > MAX_WORKLOAD_POINTS) {
        let lens: Vec<String> = axes
            .iter()
            .map(|(_, items)| items.len().to_string())
            .collect();
        return Err(format!(
            "override lists expand to {} points (max {MAX_WORKLOAD_POINTS})",
            lens.join(" x ")
        ));
    }

    let mut points = vec![(label.to_string(), start)];
    for (field, items) in axes {
        let mut expanded = Vec::with_capacity(points.len() * items.len());
        for (label, target) in &points {
            for item in items {
                let mut target = target.clone();
                field.read(&mut target, item)?;
                expanded.push((format!("{label}-{}", label_fragment(item)), target));
            }
        }
        points = expanded;
    }
    Ok(points)
}

/// The label suffix a swept value contributes (`262144`, `0.3`, `mesh`).
fn label_fragment(value: &Value) -> String {
    match value {
        Value::Int(i) => i.to_string(),
        Value::Float(f) => format!("{f}"),
        Value::Str(s) => s.clone(),
        Value::Bool(b) => b.to_string(),
        Value::Array(_) => "list".to_string(),
    }
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
) -> Result<(), String> {
    for (i, item) in items.iter().enumerate() {
        if items[..i].contains(item) {
            return Err(format!("duplicate `{axis}` entry `{}`", describe(item)));
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

/// Parses an optional non-negative integer that must also fit this
/// platform's `usize`. On 32-bit targets a plain `as usize` cast would
/// silently truncate; this rejects the value instead.
fn opt_usize(table: &Table, key: &str) -> Result<Option<usize>, SpecError> {
    let Some(value) = table.get(key) else {
        return Ok(None);
    };
    let v = value
        .as_u64()
        .ok_or_else(|| invalid(format!("`{key}` must be a non-negative integer")))?;
    usize::try_from(v).map(Some).map_err(|_| {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::splitmix::SplitMix;

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
    fn config_lists_sweep_like_workload_lists() {
        let base = "name = \"x\"\nworkloads = [\"nutch\"]\nmechanisms = [\"fdip\"]\n\n[[config]]\n";
        let spec = CampaignSpec::from_toml_str(&format!(
            "{base}label = \"llc\"\nbtb_entries = [2048, 8192]\nnoc = [\"crossbar\", 40]\nperfect_l1i = true\n"
        ))
        .unwrap();
        let labels: Vec<&str> = spec.configs.iter().map(|c| c.label.as_str()).collect();
        assert_eq!(
            labels,
            [
                "llc-2048-crossbar",
                "llc-2048-40",
                "llc-8192-crossbar",
                "llc-8192-40"
            ]
        );
        let last = spec.configs[3].build();
        assert_eq!((last.btb_entries, last.llc_round_trip()), (8192, 40));
        assert!(spec.configs.iter().all(|c| c.build().perfect.perfect_l1i));
        // Each point is written as its own table, keys in document order,
        // the Table I value 2048 included.
        let text = spec.to_toml_string();
        assert!(
            text.contains(
                "label = \"llc-2048-40\"\nbtb_entries = 2048\nnoc = 40\nperfect_l1i = true\n"
            ),
            "{text}"
        );
        assert_eq!(CampaignSpec::from_toml_str(&text).unwrap(), spec);

        // Errors name the table and the field.
        let e = CampaignSpec::from_toml_str(&format!(
            "{base}label = \"a\"\nnoc = [\"mesh\", \"ring\"]\n"
        ))
        .unwrap_err()
        .to_string();
        assert!(e.contains("config `a`: `noc` must be"), "{e}");
        let e = CampaignSpec::from_toml_str(&format!("{base}label = \"a\"\nbtb_ways = []\n"))
            .unwrap_err()
            .to_string();
        assert!(
            e.contains("override list `btb_ways` must not be empty"),
            "{e}"
        );
        // An expanded label colliding with another table's label.
        let e = CampaignSpec::from_toml_str(&format!(
            "{base}label = \"a\"\nnoc = [1, 2]\n\n[[config]]\nlabel = \"a-2\"\n"
        ))
        .unwrap_err()
        .to_string();
        assert!(e.contains("duplicate `config label` entry `a-2`"), "{e}");
        // List items are compared as the values they read into, so two
        // spellings of one LLC (or one latency) are one point, not two.
        for (list, shown) in [
            ("noc = [\"mesh\", \"MESH\", 30]", "`noc` entry `mesh`"),
            (
                "memory_latency_ns = [60, 60.0]",
                "`memory_latency_ns` entry `60`",
            ),
        ] {
            let e = CampaignSpec::from_toml_str(&format!("{base}label = \"a\"\n{list}\n"))
                .unwrap_err()
                .to_string();
            assert!(e.contains(&format!("duplicate {shown}")), "{e}");
        }
    }

    /// A draw of `field`'s kind, `k` steps from its value on `base`, that
    /// keeps the target valid: numbers shrink (fractions stay fractions and
    /// means stay above their floors); integers grow, by doubling where
    /// `double` (Table I sizes must stay powers of two).
    fn draw<T>(field: &Field<T>, base: &T, k: u64, double: bool) -> Value {
        let from = field.value(base);
        match field.access {
            Access::Integer(..) | Access::Index(..) => {
                let v = from.as_u64().unwrap();
                int_value(if double { v << k } else { v + k })
            }
            Access::Number(..) => Value::Float(from.as_f64().unwrap() * (1.0 - k as f64 / 8.0)),
            Access::Bool(..) => Value::Bool(k % 2 == 1),
            Access::Noc(..) => match k {
                0 => Value::Str("mesh".into()),
                1 => Value::Str("crossbar".into()),
                _ => int_value(10 * k),
            },
        }
    }

    /// Fills `table` with random scalar and list values of random fields:
    /// at most two lists of two or three values, so a table stays small.
    /// Returns the number of lists.
    fn draw_table<T>(
        rng: &mut SplitMix,
        fields: &[&Field<T>],
        base: &T,
        double: bool,
        table: &mut Table,
    ) -> usize {
        let mut lists = 0;
        for &field in fields {
            if !rng.percent(30) {
                continue;
            }
            let key = match field.key {
                "utility_fraction" if rng.percent(50) => "hot_function_fraction",
                key => key,
            };
            let start = rng.below(2);
            let value = if lists < 2 && rng.percent(40) {
                lists += 1;
                let len = match field.access {
                    Access::Bool(..) => 2,
                    _ => 2 + rng.below(2),
                };
                Value::Array(
                    (0..len)
                        .map(|k| draw(field, base, (start + k) % 4, double))
                        .collect(),
                )
            } else {
                draw(field, base, start + rng.below(3), double)
            };
            put(table, key, value);
        }
        lists
    }

    #[test]
    fn random_field_tables_round_trip() {
        let mut rng = SplitMix(0x5bec_f1e1_d5ee);
        let mut lists = [0; 2];
        let mut subtables = 0;
        for case in 0..300 {
            let mut doc = Document::default();
            doc.root.insert("name", Value::Str("drawn".into()));
            doc.root
                .insert("workloads", Value::Array(vec![Value::Str("nutch".into())]));
            doc.root
                .insert("mechanisms", Value::Array(vec![Value::Str("fdip".into())]));
            // Config keys in a random order: a point keeps document order.
            let mut configs = Vec::new();
            for c in 0..rng.below(3) {
                let mut fields: Vec<&Field<MicroarchConfig>> = CONFIG_FIELDS.iter().collect();
                for i in (1..fields.len()).rev() {
                    fields.swap(i, rng.index(i + 1));
                }
                let mut table = Table::default();
                table.insert("label", Value::Str(format!("c{c}")));
                lists[0] += draw_table(
                    &mut rng,
                    &fields,
                    &MicroarchConfig::hpca17(),
                    true,
                    &mut table,
                );
                configs.push(table);
            }
            // Workload keys in field order, which keeps sub-tables whole.
            let mut workloads = Vec::new();
            for w in 0..rng.below(3) {
                let kind = WorkloadKind::ALL[rng.index(WorkloadKind::ALL.len())];
                let fields: Vec<&Field<WorkloadProfile>> = PROFILE_FIELDS.iter().collect();
                let mut table = Table::default();
                table.insert("label", Value::Str(format!("w{w}")));
                table.insert("base", Value::Str(kind.name().to_ascii_lowercase()));
                lists[1] += draw_table(&mut rng, &fields, &kind.profile(), false, &mut table);
                workloads.push(table);
            }
            doc.arrays.push(("config".into(), configs));
            doc.arrays.push(("workload".into(), workloads));
            let text = toml::write(&doc);

            let spec = CampaignSpec::from_toml_str(&text)
                .unwrap_or_else(|e| panic!("case {case}: {e}\n{text}"));
            let written = spec.to_toml_string();
            let again = CampaignSpec::from_toml_str(&written)
                .unwrap_or_else(|e| panic!("case {case}: {e}\n{written}"));
            assert_eq!(
                again, spec,
                "case {case}: parse(write(spec)) != spec\n{text}"
            );
            assert_eq!(
                again.to_toml_string(),
                written,
                "case {case}: write is not idempotent"
            );
            subtables += written.matches("[workload.").count();
        }
        // The draws reach list sweeps of both kinds and sub-table fields.
        assert!(lists[0] > 0 && lists[1] > 0 && subtables > 0);
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
