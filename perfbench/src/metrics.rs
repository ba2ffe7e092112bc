//! The benchmark's metric catalogue and its one-line JSON result.
//!
//! Every per-layer metric names the end-to-end metric it should move and
//! the workloads it should move it on; `BENCHMARK.json` lists the same
//! names, which a test checks.

use std::fmt::Write as _;

/// Workload names, as `--workload` takes them.
pub const WORKLOADS: [&str; 3] = ["figure9", "dispatch-stall", "serve-loopback"];

/// End-to-end metrics (untraced runs): name and unit.
pub const END_TO_END: [(&str, &str); 5] = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("sim_minst_per_s", "Minst/s"),
    ("peak_rss_mb", "MB"),
    ("ok_row_frac", "frac"),
];

/// One per-layer metric (traced runs).
pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    /// The end-to-end metric a change in this one should move.
    pub moves: &'static str,
    /// The workloads it should move it on.
    pub on: &'static [&'static str],
}

const F9: &[&str] = &["figure9"];
const DS: &[&str] = &["dispatch-stall"];
const SL: &[&str] = &["serve-loopback"];
const SIM: &[&str] = &["figure9", "dispatch-stall"];
const ALL: &[&str] = &WORKLOADS;

const fn layer(
    name: &'static str,
    unit: &'static str,
    moves: &'static str,
    on: &'static [&'static str],
) -> Layer {
    Layer {
        name,
        unit,
        moves,
        on,
    }
}

/// Every per-layer metric a traced run prints, in output order.
pub const LAYERS: &[Layer] = &[
    layer("workloads.layout_ms", "ms", "setup_s", SIM),
    layer("workloads.trace_ms", "ms", "setup_s", SIM),
    layer("workloads.latency_classes_ms", "ms", "setup_s", SIM),
    layer("artifact.load_ms", "ms", "setup_s", SL),
    layer("artifact.store_ms", "ms", "setup_s", SL),
    layer("row_ms.baseline", "ms", "sim_minst_per_s", SIM),
    layer("row_ms.next-line", "ms", "sim_minst_per_s", F9),
    layer("row_ms.dip", "ms", "sim_minst_per_s", F9),
    layer("row_ms.fdip", "ms", "sim_minst_per_s", SIM),
    layer("row_ms.shift", "ms", "sim_minst_per_s", F9),
    layer("row_ms.confluence", "ms", "sim_minst_per_s", SIM),
    layer("row_ms.boomerang", "ms", "sim_minst_per_s", SIM),
    layer("row_ms.p50", "ms", "sim_minst_per_s", SIM),
    layer("row_ms.p90", "ms", "sim_minst_per_s", SIM),
    layer("row_ms.samples", "count", "sim_minst_per_s", SIM),
    layer("mech_overhead_ms.next-line", "ms", "sim_minst_per_s", F9),
    layer("mech_overhead_ms.dip", "ms", "sim_minst_per_s", F9),
    layer("mech_overhead_ms.fdip", "ms", "sim_minst_per_s", SIM),
    layer("mech_overhead_ms.shift", "ms", "sim_minst_per_s", F9),
    layer("mech_overhead_ms.confluence", "ms", "sim_minst_per_s", SIM),
    layer("mech_overhead_ms.boomerang", "ms", "sim_minst_per_s", SIM),
    layer("engine.stepped_cycles", "count", "sim_minst_per_s", SIM),
    layer("engine.trickled_cycles", "count", "sim_minst_per_s", DS),
    layer("engine.streamed_cycles", "count", "sim_minst_per_s", F9),
    layer("engine.skipped_cycles", "count", "sim_minst_per_s", DS),
    layer("engine.horizon_ms", "ms", "sim_minst_per_s", SIM),
    layer("engine.reference_ms", "ms", "sim_minst_per_s", SIM),
    layer("tage.ops", "count", "sim_minst_per_s", SIM),
    layer("tage.ns_per_op", "ns", "sim_minst_per_s", SIM),
    layer("btb.ops", "count", "sim_minst_per_s", SIM),
    layer("btb.ns_per_op", "ns", "sim_minst_per_s", SIM),
    layer("l1i.ops", "count", "sim_minst_per_s", SIM),
    layer("l1i.ns_per_op", "ns", "sim_minst_per_s", SIM),
    layer("backend.ops", "count", "sim_minst_per_s", SIM),
    layer("backend.ns_per_op", "ns", "sim_minst_per_s", SIM),
    layer("sim.unattributed_frac", "frac", "sim_minst_per_s", SIM),
    layer("model.instructions", "count", "sim_minst_per_s", ALL),
    layer("model.cycles", "count", "sim_minst_per_s", ALL),
    layer("model.btb_miss_rate", "frac", "sim_minst_per_s", ALL),
    layer("model.mispredict_rate", "frac", "sim_minst_per_s", ALL),
    layer(
        "model.boomerang_speedup_geomean",
        "ratio",
        "sim_minst_per_s",
        ALL,
    ),
    layer("pool.efficiency", "frac", "wall_s", F9),
    layer("sim.phase_ms", "ms", "wall_s", SIM),
    layer("sim.row_sum_ms", "ms", "wall_s", SIM),
    layer("self_ms.campaign", "ms", "wall_s", ALL),
    layer("self_ms.simulate", "ms", "wall_s", F9),
    layer("journal.append_us.p50", "us", "wall_s", SL),
    layer("journal.append_us.p90", "us", "wall_s", SL),
    layer("journal.replay_ms", "ms", "wall_s", SL),
    layer("sink.report_ms", "ms", "wall_s", SL),
    layer("proto.frame_rtt_us.p50", "us", "wall_s", SL),
    layer("serve.overhead_ms_per_row", "ms", "wall_s", SL),
    layer("trace.overhead_frac", "frac", "wall_s", ALL),
];

/// A metric name: one or more of `[A-Za-z0-9_.-]`, starting with a letter
/// or digit, at most 64 characters.
pub fn valid_name(name: &str) -> bool {
    let starts_well = name
        .chars()
        .next()
        .is_some_and(|c| c.is_ascii_alphanumeric());
    starts_well
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Measured values, keyed by catalogue name.
#[derive(Default)]
pub struct Values(Vec<(&'static str, f64)>);

impl Values {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.retain(|(n, _)| *n != name);
        self.0.push((name, value));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
    }
}

/// The outcome of one benchmark run.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub values: Values,
}

impl Outcome {
    /// The final JSON line. `catalogue` is the (name, unit) list the run
    /// must report. A catalogue metric that was not measured, or is not
    /// finite, is an error: the run printed no result.
    pub fn json_line(&self, catalogue: &[(&'static str, &'static str)]) -> Result<String, String> {
        let mut metrics = String::new();
        for (i, &(name, unit)) in catalogue.iter().enumerate() {
            if !valid_name(name) {
                return Err(format!("metric name `{name}` is outside [A-Za-z0-9_.-]"));
            }
            let value = self
                .values
                .get(name)
                .ok_or_else(|| format!("metric `{name}` was not measured"))?;
            if !value.is_finite() {
                return Err(format!("metric `{name}` is not finite ({value})"));
            }
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                metrics,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.correct, self.attempted, self.failed
        ))
    }
}

/// The (name, unit) list a traced run reports.
pub fn layer_catalogue() -> Vec<(&'static str, &'static str)> {
    LAYERS.iter().map(|l| (l.name, l.unit)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_use_the_allowed_charset() {
        assert!(valid_name("row_ms.next-line"));
        assert!(valid_name("9lives"));
        assert!(!valid_name(""));
        assert!(!valid_name(".hidden"));
        assert!(!valid_name("row ms"));
        assert!(!valid_name("rtt/us"));
        assert!(!valid_name(&"x".repeat(65)));
        let names = END_TO_END
            .iter()
            .map(|&(n, _)| n)
            .chain(LAYERS.iter().map(|l| l.name))
            .chain(WORKLOADS);
        let mut seen = std::collections::HashSet::new();
        for name in names {
            assert!(valid_name(name), "bad metric or workload name `{name}`");
            assert!(seen.insert(name), "`{name}` is used twice");
        }
    }

    #[test]
    fn every_layer_metric_names_what_it_moves_and_where() {
        for layer in LAYERS {
            assert!(
                END_TO_END.iter().any(|&(n, _)| n == layer.moves),
                "`{}` moves unknown end-to-end metric `{}`",
                layer.name,
                layer.moves
            );
            assert!(!layer.on.is_empty(), "`{}` names no workload", layer.name);
            for w in layer.on {
                assert!(
                    WORKLOADS.contains(w),
                    "`{}` names workload `{w}`",
                    layer.name
                );
            }
        }
        // Each end-to-end metric a layer can explain is explained on some
        // workload: setup, simulation speed and wall all have layers.
        for e2e in ["setup_s", "sim_minst_per_s", "wall_s"] {
            assert!(LAYERS.iter().any(|l| l.moves == e2e), "{e2e} has no layer");
        }
    }

    #[test]
    fn benchmark_json_lists_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        let listed = |name: &str| text.contains(&format!("\"name\": \"{name}\""));
        for (name, unit) in END_TO_END {
            assert!(listed(name), "BENCHMARK.json lacks end-to-end `{name}`");
            assert!(text.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")));
        }
        for layer in LAYERS {
            assert!(listed(layer.name), "BENCHMARK.json lacks `{}`", layer.name);
        }
        for w in WORKLOADS {
            assert!(listed(w), "BENCHMARK.json lacks workload `{w}`");
        }
        let entries = text.matches("\"name\":").count();
        assert_eq!(entries, END_TO_END.len() + LAYERS.len() + WORKLOADS.len());
    }

    #[test]
    fn json_line_has_exactly_the_contract_keys() {
        let mut values = Values::default();
        values.set("a", 1.5);
        values.set("b", 2.0);
        values.set("a", 1.25);
        let outcome = Outcome {
            correct: true,
            attempted: 3,
            failed: 0,
            values,
        };
        assert_eq!(
            outcome.json_line(&[("a", "s"), ("b", "count")]).unwrap(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"a\": {\"value\": 1.25, \"unit\": \"s\"}, \"b\": {\"value\": 2, \"unit\": \"count\"}}}"
        );
        assert!(outcome.json_line(&[("c", "s")]).is_err());
        let mut bad = Values::default();
        bad.set("a", f64::NAN);
        let outcome = Outcome {
            values: bad,
            ..outcome
        };
        assert!(outcome.json_line(&[("a", "s")]).is_err());
    }
}
