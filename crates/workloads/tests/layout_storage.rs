//! What a layout keeps, and what generating it costs on the way, measured by
//! a counting global allocator: every heap byte is seen, the per-block
//! tables, the id pool, the line index and the function table included.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use workloads::{CodeLayout, WorkloadKind};

thread_local! {
    /// Bytes the current thread has allocated and not yet freed. Each
    /// thread counts only its own allocations, so the test harness's other
    /// threads cannot move the measuring thread's count. A `const` `Cell`
    /// has no destructor to register, so reading it never allocates.
    static LIVE: Cell<isize> = const { Cell::new(0) };
    /// The most bytes [`LIVE`] has reached since the last reset.
    static PEAK: Cell<isize> = const { Cell::new(0) };
}

fn live() -> isize {
    LIVE.with(Cell::get)
}

fn peak() -> isize {
    PEAK.with(Cell::get)
}

fn grew(delta: isize) {
    let now = LIVE.with(|live| {
        live.set(live.get() + delta);
        live.get()
    });
    PEAK.with(|peak| peak.set(peak.get().max(now)));
}

struct Counting;

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

#[global_allocator]
static ALLOCATOR: Counting = Counting;

// It prints nothing: captured output is heap the test would count.
#[test]
fn layout_keeps_32_bytes_a_block_and_generation_peaks_at_1_5x_that() {
    for kind in [WorkloadKind::Oracle, WorkloadKind::Nutch] {
        let profile = kind.profile();
        let before = live();
        PEAK.with(|peak| peak.set(before));
        let layout = CodeLayout::generate(&profile);
        let kept = (live() - before) as f64;
        let peak = (peak() - before) as f64;
        let per_block = kept / layout.num_blocks() as f64;
        assert!(per_block <= 32.0, "{kind}: {per_block:.2} bytes per block");
        assert!(
            peak <= 1.5 * kept,
            "{kind}: peak {peak} is {:.2}x the {kept} bytes kept",
            peak / kept
        );
        drop(layout);
        assert_eq!(live(), before, "{kind}: a layout frees all it kept");
    }
}
