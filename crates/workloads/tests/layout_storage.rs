//! What a layout keeps, and what generating it costs on the way, measured by
//! a counting global allocator: every heap byte is seen, the per-block
//! tables, the id pool, the line index and the function table included.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};
use workloads::{CodeLayout, WorkloadKind};

/// Bytes currently allocated through the global allocator.
static LIVE: AtomicIsize = AtomicIsize::new(0);
/// The most bytes [`LIVE`] has reached since the last reset.
static PEAK: AtomicIsize = AtomicIsize::new(0);

struct Counting;

fn grew(delta: isize) {
    let now = LIVE.fetch_add(delta, Ordering::SeqCst) + delta;
    PEAK.fetch_max(now, Ordering::SeqCst);
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grew(layout.size() as isize);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as isize, Ordering::SeqCst);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        grew(new_size as isize - layout.size() as isize);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

// The only test in this binary, so no other thread allocates while it
// measures. It prints nothing: captured output is heap the test would count.
#[test]
fn layout_keeps_32_bytes_a_block_and_generation_peaks_at_1_5x_that() {
    for kind in [WorkloadKind::Oracle, WorkloadKind::Nutch] {
        let profile = kind.profile();
        let before = LIVE.load(Ordering::SeqCst);
        PEAK.store(before, Ordering::SeqCst);
        let layout = CodeLayout::generate(&profile);
        let kept = (LIVE.load(Ordering::SeqCst) - before) as f64;
        let peak = (PEAK.load(Ordering::SeqCst) - before) as f64;
        let per_block = kept / layout.num_blocks() as f64;
        assert!(per_block <= 32.0, "{kind}: {per_block:.2} bytes per block");
        assert!(
            peak <= 1.5 * kept,
            "{kind}: peak {peak} is {:.2}x the {kept} bytes kept",
            peak / kept
        );
        drop(layout);
        assert_eq!(
            LIVE.load(Ordering::SeqCst),
            before,
            "{kind}: a layout frees all it kept"
        );
    }
}
