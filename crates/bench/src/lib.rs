//! Shared helpers for the figure binaries that regenerate the paper's
//! tables and figures.
//!
//! Figures without a campaign preset have a dedicated binary in `src/bin/`;
//! they share the workload-generation and table-printing helpers defined
//! here. Figures 9 and 11 are `boomerang-sim run --preset figure9|figure11`.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use boomerang::{Mechanism, RunLength, WorkloadData};
use sim_core::MicroarchConfig;
use workloads::WorkloadKind;

/// Run length used by the figure binaries. Override the number of measured
/// blocks with the `BOOMERANG_BLOCKS` environment variable (e.g.
/// `BOOMERANG_BLOCKS=20000` for a quick smoke run).
pub fn run_length() -> RunLength {
    run_length_from(std::env::var("BOOMERANG_BLOCKS").ok().as_deref())
}

/// The run length a `BOOMERANG_BLOCKS` value selects: `None` is the paper
/// default, a block count is floored at 1000 measured and 500 warmup
/// blocks, with warmup one sixth of the measured blocks above the floor.
///
/// An unparseable value is reported on stderr and ignored rather than
/// silently falling back to the paper-length run.
fn run_length_from(blocks: Option<&str>) -> RunLength {
    let Some(raw) = blocks else {
        return RunLength::paper_default();
    };
    match raw.parse::<usize>() {
        Ok(blocks) => RunLength {
            trace_blocks: blocks.max(1_000),
            warmup_blocks: (blocks / 6).max(500),
        },
        Err(err) => {
            eprintln!(
                "warning: ignoring unparseable BOOMERANG_BLOCKS={raw:?} ({err}); \
                 using the paper-default run length"
            );
            RunLength::paper_default()
        }
    }
}

/// Generates every paper workload with the harness run length, in parallel on
/// the [`sim_core::pool`] work-stealing pool.
pub fn all_workloads() -> Vec<WorkloadData> {
    let length = run_length();
    sim_core::pool::run_indexed(
        sim_core::pool::default_workers(),
        &WorkloadKind::ALL,
        |_, &kind| WorkloadData::generate(kind, length),
    )
}

/// The Table I configuration.
pub fn table1_config() -> MicroarchConfig {
    MicroarchConfig::hpca17()
}

/// Prints a per-workload table: one row per workload, one column per labelled
/// series, plus an average column computed with the arithmetic mean.
pub fn print_table(title: &str, workloads: &[String], series: &[(String, Vec<f64>)], unit: &str) {
    println!("\n=== {title} ===");
    print!("{:<14}", "workload");
    for (label, _) in series {
        print!("{label:>14}");
    }
    println!();
    for (row, workload) in workloads.iter().enumerate() {
        print!("{workload:<14}");
        for (_, values) in series {
            print!("{:>14.3}", values[row]);
        }
        println!();
    }
    print!("{:<14}", "Avg");
    for (_, values) in series {
        print!("{:>14.3}", sim_core::stats::arithmetic_mean(values));
    }
    println!("  [{unit}]");
}

/// Convenience: the standard mechanism label.
pub fn label(m: Mechanism) -> String {
    m.label().to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_length_env_override_floor() {
        let blocks = |trace_blocks, warmup_blocks| RunLength {
            trace_blocks,
            warmup_blocks,
        };
        assert_eq!(run_length_from(None), RunLength::paper_default());
        assert_eq!(run_length_from(Some("10")), blocks(1_000, 500));
        assert_eq!(run_length_from(Some("20000")), blocks(20_000, 3_333));
        assert_eq!(run_length_from(Some("abc")), RunLength::paper_default());
    }

    #[test]
    fn table_printer_does_not_panic() {
        print_table(
            "demo",
            &["Nutch".into(), "DB2".into()],
            &[("Boomerang".into(), vec![1.2, 1.3])],
            "speedup",
        );
        assert_eq!(label(Mechanism::Fdip), "FDIP");
    }
}
