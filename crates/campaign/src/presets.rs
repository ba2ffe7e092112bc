//! Named campaign presets for the paper's figures.
//!
//! Each preset is a file under `specs/`, embedded in the binary, so
//! `boomerang-sim run --preset figure9` works without any files on disk,
//! runs exactly what `run specs/figure9.toml` runs, and the figure binaries
//! in `crates/bench` can share the exact same matrices.

use crate::spec::{CampaignSpec, SpecError};

/// A named, embedded campaign spec.
#[derive(Clone, Copy, Debug)]
pub struct Preset {
    /// Preset name (the `--preset` argument).
    pub name: &'static str,
    /// One-line description shown by `list-presets`.
    pub description: &'static str,
    /// The spec TOML.
    pub toml: &'static str,
}

impl Preset {
    /// Parses the embedded TOML.
    pub fn spec(&self) -> CampaignSpec {
        CampaignSpec::from_toml_str(self.toml)
            .unwrap_or_else(|e| panic!("embedded preset `{}` is invalid: {e}", self.name))
    }
}

/// The Figure 7 matrix: squashes per kilo-instruction for the six mechanisms
/// on all six workloads at the Table I configuration.
const FIGURE7: Preset = Preset {
    name: "figure7",
    description: "Fig. 7 — squash causes, six mechanisms, Table I config",
    toml: include_str!("../../../specs/figure7.toml"),
};

/// The Figure 9 matrix: speedup over the no-prefetch baseline.
const FIGURE9: Preset = Preset {
    name: "figure9",
    description: "Fig. 9 — speedup over no-prefetch baseline, Table I config",
    toml: include_str!("../../../specs/figure9.toml"),
};

/// The Figure 11 matrix: the crossbar (18-cycle LLC round trip) study.
const FIGURE11: Preset = Preset {
    name: "figure11",
    description: "Fig. 11 — speedup at the crossbar LLC latency",
    toml: include_str!("../../../specs/figure11.toml"),
};

/// The LLC-latency sensitivity sweep (the Figure 2/5/11 axis) on Apache.
const LLC_SWEEP: Preset = Preset {
    name: "llc-sweep",
    description: "LLC round-trip latency sweep, FDIP vs Boomerang on Apache",
    toml: include_str!("../../../specs/llc_sweep.toml"),
};

/// The instruction-footprint sensitivity sweep: a single `[[workload]]`
/// table expanding into a 3 footprints x 2 service-root-count family of
/// Nutch-based profiles, from comfortably L1-I/BTB-resident (256 KB) to the
/// multi-megabyte regime the paper's server workloads live in.
const FOOTPRINT_SWEEP: Preset = Preset {
    name: "footprint-sweep",
    description: "Footprint x service-roots profile sweep, FDIP vs Boomerang",
    toml: include_str!("../../../specs/footprint_sweep.toml"),
};

/// The interpreter/JIT dispatch scenario: a branch-mix sweep whose
/// `[[workload]]` tables crank the indirect-jump and indirect-call weights
/// far beyond the server profiles, emulating bytecode-interpreter dispatch
/// loops (computed-goto handler tables) and JIT-compiled polymorphic call
/// sites. Indirect branches carry no predecodable target, so this scenario
/// stresses the BTB and TAGE in exactly the way the figure9 workloads do
/// not: Boomerang's predecode-based prefill cannot resolve the dominant
/// discontinuities, and prediction leans on history alone.
const INTERPRETER_DISPATCH: Preset = Preset {
    name: "interpreter-dispatch",
    description: "Indirect-heavy interpreter/JIT dispatch branch-mix sweep",
    toml: include_str!("../../../specs/interpreter_dispatch.toml"),
};

/// All presets, in presentation order.
pub const PRESETS: [Preset; 6] = [
    FIGURE7,
    FIGURE9,
    FIGURE11,
    LLC_SWEEP,
    FOOTPRINT_SWEEP,
    INTERPRETER_DISPATCH,
];

/// Looks a preset up by name.
///
/// # Errors
///
/// Returns a [`SpecError`] naming the available presets if `name` is unknown.
pub fn find(name: &str) -> Result<CampaignSpec, SpecError> {
    PRESETS
        .iter()
        .find(|p| p.name.eq_ignore_ascii_case(name))
        .map(|p| p.spec())
        .ok_or_else(|| {
            SpecError::Invalid(format!(
                "unknown preset `{name}` (available: {})",
                PRESETS.map(|p| p.name).join(", ")
            ))
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use boomerang::Mechanism;

    #[test]
    fn every_preset_parses_and_round_trips() {
        for preset in PRESETS {
            let spec = preset.spec();
            assert_eq!(spec.name, preset.name.replace('_', "-"));
            let again = CampaignSpec::from_toml_str(&spec.to_toml_string()).unwrap();
            assert_eq!(spec, again, "preset {}", preset.name);
        }
    }

    #[test]
    fn figure_presets_match_the_paper_matrices() {
        let fig9 = find("figure9").unwrap();
        assert_eq!(fig9.workloads.len(), 6);
        assert_eq!(fig9.mechanisms.as_slice(), Mechanism::FIGURE7.as_slice());
        let fig11 = find("figure11").unwrap();
        assert_eq!(fig11.mechanisms.as_slice(), Mechanism::FIGURE11.as_slice());
        assert_eq!(fig11.configs[0].build().llc_round_trip(), 18);
        let sweep = find("llc-sweep").unwrap();
        assert_eq!(sweep.configs.len(), 8);
        assert_eq!(sweep.configs[7].build().llc_round_trip(), 70);
    }

    #[test]
    fn footprint_sweep_expands_the_workload_axis() {
        let sweep = find("footprint-sweep").unwrap();
        assert_eq!(sweep.workloads.len(), 6);
        assert!(sweep.workloads.iter().all(|w| !w.is_preset()));
        assert_eq!(sweep.workloads[0].label, "nutch-262144-32");
        assert_eq!(sweep.workloads[0].profile.footprint_bytes, 262_144);
        assert_eq!(sweep.workloads[5].label, "nutch-4194304-96");
        assert_eq!(sweep.workloads[5].profile.service_roots, 96);
        // 6 workloads x (2 mechanisms + implicit baseline).
        assert_eq!(crate::expand::expand(&sweep).len(), 18);
    }

    #[test]
    fn interpreter_dispatch_is_indirect_heavy() {
        let spec = find("interpreter-dispatch").unwrap();
        // 2 branch mixes x 2 footprints.
        assert_eq!(spec.workloads.len(), 4);
        assert_eq!(spec.workloads[0].label, "interp-1048576");
        assert_eq!(spec.workloads[3].label, "jit-4194304");
        let oracle = workloads::WorkloadKind::Oracle.profile();
        let interp = &spec.workloads[0].profile;
        let jit = &spec.workloads[2].profile;
        assert!(interp.terminators.indirect_jump >= 10.0 * oracle.terminators.indirect_jump);
        assert!(jit.terminators.indirect_call > 3.0 * oracle.terminators.indirect_call);
        // 4 workloads x (3 mechanisms + implicit baseline).
        assert_eq!(crate::expand::expand(&spec).len(), 16);
    }

    /// `[[config]]` keys in another order than the spec's field table.
    const SHUFFLED_CONFIG: &str = r#"
name = "shuffled"
workloads = ["nutch"]
mechanisms = ["fdip"]

[[config]]
label = "shuffled"
perfect_btb = true
noc = "crossbar"
memory_latency_ns = 60
ftq_entries = 16
btb_entries = 4096
"#;

    /// `[[config]]` keys set to their Table I values, which a spec still
    /// writes back as given.
    const TABLE1_VALUES: &str = r#"
name = "table1-values"
workloads = ["nutch"]
mechanisms = ["fdip"]

[[config]]
label = "explicit"
btb_entries = 2048
noc = "mesh"
"#;

    /// Every preset, every `specs/*.toml` and two hand-written specs,
    /// pinned by `spec_hash`. The hash covers the canonical TOML, so a
    /// change in how a spec is parsed or written moves a pin, and would
    /// orphan every journal and output directory written before it. A spec
    /// file named like a preset must also parse to that preset.
    #[test]
    fn spec_identity_is_pinned() {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../specs");
        let mut files: Vec<String> = std::fs::read_dir(&dir)
            .expect("specs/ must exist")
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        files.sort();
        let mut cases: Vec<(String, String)> = PRESETS
            .iter()
            .map(|p| (format!("preset {}", p.name), p.toml.to_string()))
            .collect();
        for file in files {
            let text = std::fs::read_to_string(dir.join(&file)).unwrap();
            cases.push((format!("specs/{file}"), text));
        }
        cases.push(("shuffled config keys".into(), SHUFFLED_CONFIG.into()));
        cases.push(("Table I values".into(), TABLE1_VALUES.into()));

        let mut hashes = Vec::new();
        for (id, text) in &cases {
            let spec = CampaignSpec::from_toml_str(text).unwrap_or_else(|e| panic!("{id}: {e}"));
            if id.starts_with("specs/") {
                if let Ok(preset) = find(&spec.name) {
                    assert_eq!(spec, preset, "{id} differs from preset {}", spec.name);
                }
            }
            hashes.push((id.as_str(), crate::spec_hash(&spec, spec.run, false)));
        }
        let pinned = [
            ("preset figure7", "fnv1a64:c63f1ccc285ae6d4"),
            ("preset figure9", "fnv1a64:bbc446fe7ed37b8f"),
            ("preset figure11", "fnv1a64:f5ed9f289a64b306"),
            ("preset llc-sweep", "fnv1a64:9ffc0b003cacaf02"),
            ("preset footprint-sweep", "fnv1a64:f76f776dde193751"),
            ("preset interpreter-dispatch", "fnv1a64:8eabeb97ac464f68"),
            ("specs/branch_mix_sweep.toml", "fnv1a64:1fc5e96d9dab1d63"),
            ("specs/figure11.toml", "fnv1a64:f5ed9f289a64b306"),
            ("specs/figure7.toml", "fnv1a64:c63f1ccc285ae6d4"),
            ("specs/figure9.toml", "fnv1a64:bbc446fe7ed37b8f"),
            ("specs/footprint_sweep.toml", "fnv1a64:f76f776dde193751"),
            (
                "specs/interpreter_dispatch.toml",
                "fnv1a64:8eabeb97ac464f68",
            ),
            ("specs/llc_sweep.toml", "fnv1a64:9ffc0b003cacaf02"),
            ("shuffled config keys", "fnv1a64:8c7b84144e49aef9"),
            ("Table I values", "fnv1a64:89c08e7ec2071ef2"),
        ];
        let pinned: Vec<(&str, String)> =
            pinned.iter().map(|&(id, h)| (id, h.to_string())).collect();
        assert_eq!(hashes, pinned);
    }

    #[test]
    fn unknown_preset_is_a_helpful_error() {
        let err = find("figure99").unwrap_err().to_string();
        assert!(err.contains("figure9"), "{err}");
    }
}
