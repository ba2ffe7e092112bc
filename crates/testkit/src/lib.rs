//! Test support shared by the workspace's fuzzers, explorers and storage
//! tests. It is a dev-dependency only: no library or binary links it.
//!
//! * [`SplitMix`] — the one seeded stream every fuzzer and explorer draws
//!   its choices from, so a failing seed replays exactly.
//! * Byte mutations — [`flip_bit`], [`truncate`], [`insert`],
//!   [`insert_token`], [`delete`] and [`forge`] — each applied in place and
//!   described, so a failing mutant is reported with what was done to it;
//!   [`mutant`] applies a few.
//! * [`temp_dir`] — a fresh, empty scratch directory per call.
//! * [`Counting`] — a counting global allocator, read with [`live`] and
//!   [`peak`]. A test binary installs it with
//!   `#[global_allocator] static A: testkit::Counting = testkit::Counting;`.

#![warn(missing_docs)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::ops::{Bound, RangeBounds};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

/// A SplitMix64 stream.
pub struct SplitMix(pub u64);

impl SplitMix {
    /// The next 64 bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        sim_core::rng::mix64(self.0)
    }

    /// A uniform draw from `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// A uniform index into a collection of `len` items.
    pub fn index(&mut self, len: usize) -> usize {
        self.below(len as u64) as usize
    }

    /// `true` with probability `p` percent.
    pub fn percent(&mut self, p: u64) -> bool {
        self.below(100) < p
    }

    /// A uniform pick from `from`.
    pub fn pick<T: Copy>(&mut self, from: &[T]) -> T {
        from[self.index(from.len())]
    }
}

/// Flips one bit of a byte in `range` and says which.
pub fn flip_bit(bytes: &mut [u8], range: impl RangeBounds<usize>, rng: &mut SplitMix) -> String {
    let range = (range.start_bound().cloned(), range.end_bound().cloned());
    let start = match range.0 {
        Bound::Included(start) => start,
        Bound::Excluded(before) => before + 1,
        Bound::Unbounded => 0,
    };
    let at = start + rng.index(bytes[range].len());
    let bit = rng.below(8);
    bytes[at] ^= 1 << bit;
    format!("flip bit {bit} of byte {at}")
}

/// Cuts `bytes` to a shorter length and says which.
pub fn truncate(bytes: &mut Vec<u8>, rng: &mut SplitMix) -> String {
    let len = rng.index(bytes.len());
    bytes.truncate(len);
    format!("truncate to {len} bytes")
}

/// Inserts `what` at `at` and says so.
pub fn insert(bytes: &mut Vec<u8>, at: usize, what: &[u8]) -> String {
    bytes.splice(at..at, what.iter().copied());
    format!("insert {:?} at {at}", String::from_utf8_lossy(what))
}

/// Byte strings worth inserting into text a decoder parses: quotes and
/// escapes (valid, invalid, a lone surrogate, cut short by a line end),
/// brackets, separators and comments, integers at and past the ends of
/// `i64` and `u64`, line breaks and broken UTF-8.
const TEXT_INSERTS: [&[u8]; 27] = [
    b"\"",
    b"\\",
    b"\\\"",
    b"\\\\",
    b"\\u",
    b"\\u00e9",
    b"\\ud800",
    b"\\x",
    b"\\u00\n",
    b"\"\\u\n",
    b"[[",
    b"[",
    b"]",
    b"{",
    b"=",
    b",",
    b":",
    b"#",
    b"\n",
    b"\n[[workload]]\n",
    b"9223372036854775807",
    b"9223372036854775808",
    b"18446744073709551616",
    b"-99999999999999999999",
    b"\xff",
    b"\xc3",
    b"\xe2\x82",
];

/// Inserts one of the `TEXT_INSERTS` and says so: anywhere if `after` is
/// empty, else just after a byte of `after`, where a text decoder is about
/// to read a key, a value or a name (at the start if no byte is one).
pub fn insert_token(text: &mut Vec<u8>, after: &[u8], rng: &mut SplitMix) -> String {
    let at = if after.is_empty() {
        rng.index(text.len() + 1)
    } else {
        let starts: Vec<usize> = (0..text.len())
            .filter(|&i| after.contains(&text[i]))
            .map(|i| i + 1)
            .collect();
        starts
            .get(rng.index(starts.len().max(1)))
            .copied()
            .unwrap_or(0)
    };
    insert(text, at, rng.pick(&TEXT_INSERTS))
}

/// Deletes the byte at `at` and says so.
pub fn delete(bytes: &mut Vec<u8>, at: usize) -> String {
    bytes.remove(at);
    format!("delete byte {at}")
}

/// Values worth forging into any length, count or header field: the
/// smallest, the largest, 32-bit and 2^24 boundaries (the frame payload
/// bound sits at 2^24), and counts no input can back.
const INTERESTING: [u64; 7] = [0, 1, u64::MAX, 0xffff_ffff, 1 << 32, 1 << 24, (1 << 24) + 1];

/// A value worth forging into a `width`-byte field holding `current`: an
/// interesting constant, a neighbour or double of `current`, a small value
/// or a random one, cut to the field's width.
fn forged(rng: &mut SplitMix, current: u64, width: usize) -> u64 {
    let value = match rng.below(12) {
        i @ 0..=6 => INTERESTING[i as usize],
        7 => current.wrapping_add(1),
        8 => current.wrapping_sub(1),
        9 => current.wrapping_mul(2),
        10 => rng.below(64),
        _ => rng.next_u64(),
    };
    value & (u64::MAX >> (64 - 8 * width))
}

/// Overwrites the little-endian `width`-byte field at `at` with a value
/// worth forging into it and says what it wrote.
pub fn forge(bytes: &mut [u8], rng: &mut SplitMix, what: &str, at: usize, width: usize) -> String {
    let Some(field) = bytes.get_mut(at..at + width) else {
        return format!("{what} at {at} truncated away");
    };
    let mut le = [0u8; 8];
    le[..width].copy_from_slice(field);
    let value = forged(rng, u64::from_le_bytes(le), width);
    field.copy_from_slice(&value.to_le_bytes()[..width]);
    format!("{what} at {at} := {value}")
}

/// A copy of `original` with one to `most` mutations applied, each drawn
/// by `mutate`, and what they were. Mutation stops once the copy is empty.
pub fn mutant(
    original: &[u8],
    most: u64,
    rng: &mut SplitMix,
    mut mutate: impl FnMut(&mut Vec<u8>, &mut SplitMix) -> String,
) -> (Vec<u8>, Vec<String>) {
    let mut bytes = original.to_vec();
    let mut what = Vec::new();
    for _ in 0..1 + rng.below(most) {
        if !bytes.is_empty() {
            what.push(mutate(&mut bytes, rng));
        }
    }
    (bytes, what)
}

/// A fresh, empty directory under the system temp directory, named for
/// `tag`, this process and the call, so no two calls share one.
pub fn temp_dir(tag: &str) -> PathBuf {
    static CALLS: AtomicUsize = AtomicUsize::new(0);
    let call = CALLS.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("boomerang-{tag}-{}-{call}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

thread_local! {
    /// Bytes the current thread has allocated and not yet freed. Each
    /// thread counts only its own allocations, so the test harness's other
    /// threads cannot move the measuring thread's count. A `const` `Cell`
    /// has no destructor to register, so reading it never allocates.
    static LIVE: Cell<isize> = const { Cell::new(0) };
    /// The most bytes [`LIVE`] has reached since the last [`reset_peak`].
    static PEAK: Cell<isize> = const { Cell::new(0) };
}

/// Bytes this thread has allocated and not yet freed.
pub fn live() -> isize {
    LIVE.with(Cell::get)
}

/// The most bytes [`live`] has reached since the last [`reset_peak`].
pub fn peak() -> isize {
    PEAK.with(Cell::get)
}

/// Starts a new peak at the current [`live`] count.
pub fn reset_peak() {
    PEAK.with(|peak| peak.set(live()));
}

fn grew(delta: isize) {
    let now = LIVE.with(|live| {
        live.set(live.get() + delta);
        live.get()
    });
    PEAK.with(|peak| peak.set(peak.get().max(now)));
}

/// The system allocator, counting each thread's live bytes.
pub struct Counting;

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grew(layout.size() as isize);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        grew(-(layout.size() as isize));
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        grew(new_size as isize - layout.size() as isize);
        System.realloc(ptr, layout, new_size)
    }
}
