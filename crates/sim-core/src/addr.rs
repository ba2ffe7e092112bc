//! Instruction addresses and cache-line geometry.
//!
//! The simulator models an abstract RISC ISA with fixed-size instructions
//! ([`INSTRUCTION_BYTES`]) and power-of-two cache lines. All address
//! manipulation — alignment, line extraction, line distance (the metric of
//! Figure 4 of the paper) — lives here so that the rest of the code base never
//! does raw bit fiddling on `u64`s.

use std::fmt;

/// Size of one instruction in bytes (fixed-width RISC encoding, SPARC-like).
pub const INSTRUCTION_BYTES: u64 = 4;

/// A byte address in the instruction address space.
///
/// `Addr` is a transparent newtype over `u64`; it exists so that instruction
/// addresses, cache-line indices and plain integers cannot be confused.
///
/// # Example
///
/// ```
/// use sim_core::Addr;
/// let a = Addr::new(0x4000);
/// assert_eq!(a.offset(8).raw(), 0x4008);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Addr(u64);

impl Addr {
    /// Creates an address from a raw byte value.
    pub const fn new(raw: u64) -> Self {
        Addr(raw)
    }

    /// Returns the raw byte value.
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// Returns the address advanced by `bytes`.
    #[must_use]
    pub const fn offset(self, bytes: u64) -> Self {
        Addr(self.0 + bytes)
    }

    /// Returns the address of the `n`-th instruction after this one.
    #[must_use]
    pub const fn add_instructions(self, n: u64) -> Self {
        Addr(self.0 + n * INSTRUCTION_BYTES)
    }

    /// Absolute distance in bytes between two addresses.
    pub const fn distance(self, other: Addr) -> u64 {
        self.0.abs_diff(other.0)
    }

    /// Returns `true` if this address is aligned to instruction size.
    pub const fn is_instruction_aligned(self) -> bool {
        self.0.is_multiple_of(INSTRUCTION_BYTES)
    }
}

impl fmt::Debug for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Addr({:#x})", self.0)
    }
}

impl fmt::Display for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

impl fmt::LowerHex for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&self.0, f)
    }
}

impl From<u64> for Addr {
    fn from(raw: u64) -> Self {
        Addr(raw)
    }
}

impl From<Addr> for u64 {
    fn from(a: Addr) -> Self {
        a.0
    }
}

/// Index of a cache line (block) in the instruction address space.
///
/// Obtained from an [`Addr`] through a [`LineGeometry`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct CacheLine(pub u64);

impl CacheLine {
    /// The next sequential cache line.
    #[must_use]
    pub const fn next(self) -> Self {
        CacheLine(self.0 + 1)
    }

    /// The `n`-th sequential cache line after this one.
    #[must_use]
    pub const fn step(self, n: u64) -> Self {
        CacheLine(self.0 + n)
    }

    /// Absolute distance in lines between two cache lines — the x-axis of
    /// Figure 4 in the paper.
    pub const fn distance(self, other: CacheLine) -> u64 {
        self.0.abs_diff(other.0)
    }
}

impl fmt::Display for CacheLine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line#{}", self.0)
    }
}

/// Cache-line geometry: line size and the mapping from addresses to lines.
///
/// # Example
///
/// ```
/// use sim_core::{Addr, LineGeometry};
/// let geom = LineGeometry::new(64);
/// assert_eq!(geom.line_of(Addr::new(129)).0, 2);
/// assert_eq!(geom.line_base(geom.line_of(Addr::new(129))), Addr::new(128));
/// assert_eq!(geom.instructions_per_line(), 16);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LineGeometry {
    line_bytes: u64,
    shift: u32,
}

impl LineGeometry {
    /// Creates a geometry with the given line size in bytes.
    ///
    /// # Panics
    ///
    /// Panics if `line_bytes` is not a power of two or is smaller than one
    /// instruction.
    pub fn new(line_bytes: u64) -> Self {
        assert!(
            line_bytes.is_power_of_two() && line_bytes >= INSTRUCTION_BYTES,
            "cache line size must be a power of two >= {INSTRUCTION_BYTES} bytes, got {line_bytes}"
        );
        LineGeometry {
            line_bytes,
            shift: line_bytes.trailing_zeros(),
        }
    }

    /// Line size in bytes.
    pub const fn line_bytes(&self) -> u64 {
        self.line_bytes
    }

    /// Number of fixed-width instructions in one line.
    pub const fn instructions_per_line(&self) -> u64 {
        self.line_bytes / INSTRUCTION_BYTES
    }

    /// The cache line containing `addr`.
    pub const fn line_of(&self, addr: Addr) -> CacheLine {
        CacheLine(addr.raw() >> self.shift)
    }

    /// The first byte address of `line`.
    pub const fn line_base(&self, line: CacheLine) -> Addr {
        Addr::new(line.0 << self.shift)
    }

    /// Number of instructions from `addr` (inclusive) to the end of its
    /// cache line — the largest burst the fetch engine can take without
    /// another tag access.
    pub const fn instructions_left_in_line(&self, addr: Addr) -> u64 {
        (self.line_bytes - (addr.raw() & (self.line_bytes - 1))) / INSTRUCTION_BYTES
    }

    /// Distance between the lines of two addresses, in lines.
    pub const fn line_distance(&self, a: Addr, b: Addr) -> u64 {
        self.line_of(a).distance(self.line_of(b))
    }

    /// All distinct lines touched by `count` instructions starting at `start`.
    pub fn lines_spanned(&self, start: Addr, count: u64) -> impl Iterator<Item = CacheLine> {
        let first = self.line_of(start);
        let last = if count == 0 {
            first
        } else {
            self.line_of(start.add_instructions(count - 1))
        };
        (first.0..=last.0).map(CacheLine)
    }
}

impl Default for LineGeometry {
    /// 64-byte lines, matching Table I of the paper.
    fn default() -> Self {
        LineGeometry::new(64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn addr_arithmetic() {
        let a = Addr::new(100);
        assert_eq!(a.offset(28).raw(), 128);
        assert_eq!(a.add_instructions(3).raw(), 112);
        assert_eq!(a.distance(Addr::new(90)), 10);
        assert_eq!(Addr::new(90).distance(a), 10);
        assert!(Addr::new(96).is_instruction_aligned());
        assert!(!Addr::new(97).is_instruction_aligned());
    }

    #[test]
    fn addr_display_is_hex() {
        assert_eq!(format!("{}", Addr::new(0xdead)), "0xdead");
        assert_eq!(format!("{:?}", Addr::new(0x10)), "Addr(0x10)");
        assert_eq!(format!("{:x}", Addr::new(255)), "ff");
    }

    #[test]
    fn addr_conversions() {
        let a: Addr = 42u64.into();
        let raw: u64 = a.into();
        assert_eq!(raw, 42);
    }

    #[test]
    fn line_of_and_base() {
        let g = LineGeometry::new(64);
        assert_eq!(g.line_of(Addr::new(0)).0, 0);
        assert_eq!(g.line_of(Addr::new(63)).0, 0);
        assert_eq!(g.line_of(Addr::new(64)).0, 1);
        assert_eq!(g.line_base(CacheLine(3)), Addr::new(192));
        assert_eq!(g.instructions_per_line(), 16);
    }

    #[test]
    fn line_distance_matches_figure4_metric() {
        let g = LineGeometry::default();
        // A branch at 0x1000 whose target is 0x10f0 is 3 lines away.
        assert_eq!(g.line_distance(Addr::new(0x1000), Addr::new(0x10f0)), 3);
        // Backward distance is symmetric.
        assert_eq!(g.line_distance(Addr::new(0x10f0), Addr::new(0x1000)), 3);
        assert_eq!(g.line_distance(Addr::new(0x1000), Addr::new(0x103c)), 0);
    }

    #[test]
    fn lines_spanned_covers_straddling_blocks() {
        let g = LineGeometry::new(64);
        // 20 instructions (80 bytes) starting 8 bytes before a line boundary.
        let lines: Vec<_> = g.lines_spanned(Addr::new(56), 20).collect();
        assert_eq!(lines, vec![CacheLine(0), CacheLine(1), CacheLine(2)]);
        // Zero instructions still reports the line of the start address.
        let lines: Vec<_> = g.lines_spanned(Addr::new(56), 0).collect();
        assert_eq!(lines, vec![CacheLine(0)]);
    }

    #[test]
    fn cache_line_stepping() {
        let l = CacheLine(10);
        assert_eq!(l.next(), CacheLine(11));
        assert_eq!(l.step(4), CacheLine(14));
        assert_eq!(l.distance(CacheLine(7)), 3);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn geometry_rejects_non_power_of_two() {
        let _ = LineGeometry::new(48);
    }

    #[test]
    fn default_geometry_is_64_bytes() {
        assert_eq!(LineGeometry::default().line_bytes(), 64);
    }
}
