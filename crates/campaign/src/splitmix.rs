//! SplitMix64, the single source of choices for this crate's seeded test
//! drivers: the serve schedule explorer and the frame fuzzer. A failing
//! seed replays exactly.

/// A SplitMix64 stream.
pub(crate) struct SplitMix(pub(crate) u64);

impl SplitMix {
    pub(crate) fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A uniform draw from `0..n`.
    pub(crate) fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    /// A uniform index into a collection of `len` items.
    pub(crate) fn index(&mut self, len: usize) -> usize {
        self.below(len as u64) as usize
    }

    /// `true` with probability `p` percent.
    pub(crate) fn percent(&mut self, p: u64) -> bool {
        self.below(100) < p
    }
}
