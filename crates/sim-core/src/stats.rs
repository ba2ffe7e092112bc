//! Lightweight statistics helpers used across the simulator.
//!
//! The paper reports three kinds of derived metrics, all of which are ratios
//! of event counters collected during simulation:
//!
//! * *front-end stall-cycle coverage* — stall cycles removed relative to a
//!   no-prefetch baseline,
//! * *squashes per kilo-instruction*,
//! * *speedup* — performance (instructions per cycle) relative to the
//!   baseline.
//!
//! [`Counter`] is a saturating event counter and [`Ratio`] a small utility for
//! the derived values; both are plain data and serialisable so the bench
//! harness can dump raw results.

use std::fmt;
use std::ops::AddAssign;

/// A monotonically increasing event counter.
///
/// # Example
///
/// ```
/// use sim_core::Counter;
/// let mut c = Counter::default();
/// c.add(10);
/// c.incr();
/// assert_eq!(c.get(), 11);
/// ```
#[derive(Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord)]
pub struct Counter(u64);

impl Counter {
    /// Creates a counter starting at `value`.
    pub const fn new(value: u64) -> Self {
        Counter(value)
    }

    /// Adds `n` events.
    pub fn add(&mut self, n: u64) {
        self.0 = self.0.saturating_add(n);
    }

    /// Adds a single event.
    pub fn incr(&mut self) {
        self.add(1);
    }

    /// Current value.
    pub const fn get(self) -> u64 {
        self.0
    }

    /// Value as `f64`, for ratio computations.
    pub const fn as_f64(self) -> f64 {
        self.0 as f64
    }

    /// Events per kilo-unit of `denominator` (e.g. squashes per
    /// kilo-instruction).
    pub fn per_kilo(self, denominator: Counter) -> f64 {
        Ratio::new(self.as_f64() * 1000.0, denominator.as_f64()).value()
    }
}

impl AddAssign<u64> for Counter {
    fn add_assign(&mut self, rhs: u64) {
        self.add(rhs);
    }
}

impl fmt::Debug for Counter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Counter({})", self.0)
    }
}

impl fmt::Display for Counter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(&self.0, f)
    }
}

/// A guarded ratio: `0` when the denominator is zero instead of `NaN`/`inf`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Ratio {
    numerator: f64,
    denominator: f64,
}

impl Ratio {
    /// Creates a ratio.
    pub const fn new(numerator: f64, denominator: f64) -> Self {
        Ratio {
            numerator,
            denominator,
        }
    }

    /// Ratio of two counters.
    pub fn of(numerator: Counter, denominator: Counter) -> Self {
        Ratio::new(numerator.as_f64(), denominator.as_f64())
    }

    /// The value of the ratio, or `0.0` if the denominator is zero.
    pub fn value(self) -> f64 {
        if self.denominator == 0.0 {
            0.0
        } else {
            self.numerator / self.denominator
        }
    }

    /// The value expressed as a percentage.
    pub fn percent(self) -> f64 {
        self.value() * 100.0
    }
}

impl fmt::Display for Ratio {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.4}", self.value())
    }
}

/// Coverage of a quantity relative to a baseline: `1 - value / baseline`,
/// clamped to `[0, 1]`. This is the paper's "fraction of stall cycles
/// covered" metric (Figures 2, 5, 8).
pub fn coverage(baseline: u64, with_mechanism: u64) -> f64 {
    if baseline == 0 {
        return 0.0;
    }
    let covered = baseline.saturating_sub(with_mechanism) as f64;
    (covered / baseline as f64).clamp(0.0, 1.0)
}

/// Speedup of a mechanism over a baseline given cycle counts for the same
/// instruction count (Figures 1, 9, 10, 11).
pub fn speedup(baseline_cycles: u64, mechanism_cycles: u64) -> f64 {
    if mechanism_cycles == 0 {
        return 0.0;
    }
    baseline_cycles as f64 / mechanism_cycles as f64
}

/// Geometric mean of a slice of positive values; `0` for an empty slice.
///
/// Used to average speedups across the six workloads.
pub fn geometric_mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = values.iter().map(|v| v.max(f64::MIN_POSITIVE).ln()).sum();
    (log_sum / values.len() as f64).exp()
}

/// Arithmetic mean of a slice; `0` for an empty slice.
pub fn arithmetic_mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_basics() {
        let mut c = Counter::default();
        assert_eq!(c.get(), 0);
        c.incr();
        c.add(9);
        c += 10;
        assert_eq!(c.get(), 20);
        assert_eq!(c.as_f64(), 20.0);
        assert_eq!(format!("{c}"), "20");
        assert_eq!(format!("{c:?}"), "Counter(20)");
    }

    #[test]
    fn counter_saturates() {
        let mut c = Counter::new(u64::MAX - 1);
        c.add(100);
        assert_eq!(c.get(), u64::MAX);
    }

    #[test]
    fn per_kilo_metric() {
        let squashes = Counter::new(25);
        let instructions = Counter::new(10_000);
        assert!((squashes.per_kilo(instructions) - 2.5).abs() < 1e-12);
        assert_eq!(squashes.per_kilo(Counter::new(0)), 0.0);
    }

    #[test]
    fn ratio_guards_zero_denominator() {
        assert_eq!(Ratio::new(5.0, 0.0).value(), 0.0);
        assert!((Ratio::new(1.0, 4.0).percent() - 25.0).abs() < 1e-12);
        assert_eq!(Ratio::of(Counter::new(3), Counter::new(6)).value(), 0.5);
        assert_eq!(format!("{}", Ratio::new(1.0, 3.0)), "0.3333");
    }

    #[test]
    fn coverage_metric() {
        assert_eq!(coverage(1000, 400), 0.6);
        assert_eq!(coverage(1000, 0), 1.0);
        assert_eq!(coverage(1000, 1000), 0.0);
        // A mechanism that *adds* stalls is clamped to zero coverage.
        assert_eq!(coverage(1000, 1500), 0.0);
        assert_eq!(coverage(0, 10), 0.0);
    }

    #[test]
    fn speedup_metric() {
        assert!((speedup(1500, 1000) - 1.5).abs() < 1e-12);
        assert_eq!(speedup(1000, 0), 0.0);
        assert_eq!(speedup(0, 10), 0.0);
    }

    #[test]
    fn means() {
        assert_eq!(geometric_mean(&[]), 0.0);
        assert!((geometric_mean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert!((arithmetic_mean(&[1.0, 2.0, 3.0]) - 2.0).abs() < 1e-12);
        assert_eq!(arithmetic_mean(&[]), 0.0);
    }
}
