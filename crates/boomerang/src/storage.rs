//! §VI-D: storage and complexity comparison.
//!
//! Boomerang's headline claim is not a performance win over Confluence but a
//! *cost* win at equal performance: 540 bytes of additional state versus
//! hundreds of kilobytes of prefetcher metadata (and, for hierarchical-BTB
//! designs, hundreds of kilobytes of second-level BTB). This module computes
//! the comparison table.

use crate::experiment::Mechanism;
use crate::mechanism::ThrottlePolicy;

/// One row of the storage comparison.
#[derive(Clone, Debug, PartialEq)]
pub struct StorageRow {
    /// Mechanism name.
    pub mechanism: String,
    /// Dedicated per-core metadata in bytes.
    pub metadata_bytes: u64,
    /// Whether the scheme needs system-level support (pinned LLC lines,
    /// reserved physical address space).
    pub needs_system_support: bool,
    /// Whether the scheme consumes shared LLC capacity for its metadata.
    pub consumes_llc_capacity: bool,
}

/// The full §VI-D comparison: every mechanism's metadata cost and complexity
/// flags.
pub fn comparison() -> Vec<StorageRow> {
    // (mechanism, needs system support, consumes LLC capacity)
    const ROWS: [(Mechanism, bool, bool); 7] = [
        (Mechanism::NextLine, false, false),
        (Mechanism::Dip, false, false),
        (Mechanism::Fdip, false, false),
        (Mechanism::Pif, false, false),
        (Mechanism::Shift, true, true),
        (Mechanism::Confluence, true, true),
        (
            Mechanism::Boomerang(ThrottlePolicy::PAPER_DEFAULT),
            false,
            false,
        ),
    ];
    ROWS.into_iter()
        .map(
            |(mechanism, needs_system_support, consumes_llc_capacity)| StorageRow {
                mechanism: mechanism.label().into(),
                metadata_bytes: mechanism.metadata_bytes(),
                needs_system_support,
                consumes_llc_capacity,
            },
        )
        .collect()
}

/// Renders the comparison as a plain-text table.
pub fn comparison_table() -> String {
    let rows = comparison();
    let mut out =
        String::from("mechanism     metadata (bytes)  system support  carves LLC capacity\n");
    for r in rows {
        out.push_str(&format!(
            "{:<13} {:>16}  {:<14}  {}\n",
            r.mechanism,
            r.metadata_bytes,
            if r.needs_system_support { "yes" } else { "no" },
            if r.consumes_llc_capacity { "yes" } else { "no" }
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn boomerang_is_orders_of_magnitude_cheaper_than_confluence() {
        let rows = comparison();
        let get = |name: &str| {
            rows.iter()
                .find(|r| r.mechanism == name)
                .unwrap_or_else(|| panic!("{name} missing"))
                .clone()
        };
        let boomerang = get("Boomerang");
        let confluence = get("Confluence");
        let pif = get("PIF");
        assert_eq!(boomerang.metadata_bytes, 540);
        assert!(confluence.metadata_bytes >= 200 * 1024);
        assert!(pif.metadata_bytes >= 200 * 1024);
        assert!(confluence.metadata_bytes / boomerang.metadata_bytes > 100);
        assert!(!boomerang.needs_system_support);
        assert!(confluence.needs_system_support);
    }

    #[test]
    fn table_renders_every_mechanism() {
        let table = comparison_table();
        for name in [
            "Next Line",
            "DIP",
            "FDIP",
            "PIF",
            "SHIFT",
            "Confluence",
            "Boomerang",
        ] {
            assert!(table.contains(name), "missing {name} in:\n{table}");
        }
    }
}
