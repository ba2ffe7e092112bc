//! Field tables: one static entry per tunable field of a struct, naming its
//! key and how to read and write it.
//!
//! A table is the one list of a struct's tunable fields. The campaign spec
//! parses, writes, sweeps and labels `[[config]]` and `[[workload]]` tables
//! through the [`MicroarchConfig`](crate::MicroarchConfig) and
//! `WorkloadProfile` tables, and the workload codec and the artifact key
//! encode a profile through its table, so adding a field is one entry.

use crate::NocModel;

/// How one field is read from and written to a target `T`: its value kind,
/// with a typed getter and setter.
pub enum Access<T> {
    /// A non-negative integer.
    Integer(fn(&T) -> u64, fn(&mut T, u64)),
    /// A non-negative integer that must also fit this platform's `usize`.
    Index(fn(&T) -> usize, fn(&mut T, usize)),
    /// A number.
    Number(fn(&T) -> f64, fn(&mut T, f64)),
    /// `true` or `false`.
    Bool(fn(&T) -> bool, fn(&mut T, bool)),
    /// An interconnect model.
    Noc(fn(&T) -> NocModel, fn(&mut T, NocModel)),
}

/// One tunable field of a target `T`: its key (a dotted path for a field
/// of a nested struct) and how to read and write it.
pub struct Field<T> {
    /// The field's name in specs, errors and labels.
    pub key: &'static str,
    /// How to read and write it.
    pub access: Access<T>,
}

/// A [`Field`] keyed `$key` of kind `$kind` (an [`Access`] variant) whose
/// getter and setter reach the target's `$path`.
#[macro_export]
macro_rules! field {
    ($key:literal, $kind:ident, $($path:ident).+) => {
        $crate::field::Field {
            key: $key,
            access: $crate::field::Access::$kind(|t| t.$($path).+, |t, v| t.$($path).+ = v),
        }
    };
}
