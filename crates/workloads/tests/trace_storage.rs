//! A trace's heap storage is its block ids plus its taken bitset, with no
//! spare capacity: measured by a counting global allocator, so the test sees
//! every byte the trace keeps, not what its accessors report.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use workloads::{CodeLayout, Trace, WorkloadProfile};

thread_local! {
    /// Bytes the current thread has allocated and not yet freed. Each
    /// thread counts only its own allocations, so the test harness's other
    /// threads cannot move the measuring thread's count. A `const` `Cell`
    /// has no destructor to register, so reading it never allocates.
    static LIVE: Cell<isize> = const { Cell::new(0) };
}

fn live() -> isize {
    LIVE.with(Cell::get)
}

fn grew(delta: isize) {
    LIVE.with(|live| live.set(live.get() + delta));
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

#[test]
fn trace_heap_is_ids_plus_taken_bits() {
    let layout = CodeLayout::generate(&WorkloadProfile::tiny(3));
    for blocks in [100_003, 60_000] {
        let before = live();
        let trace = Trace::generate_blocks(&layout, blocks);
        let kept = (live() - before) as usize;
        assert_eq!(trace.len(), blocks);
        assert_eq!(kept, 4 * blocks + blocks.div_ceil(8), "{blocks} blocks");
        assert!(kept as f64 / blocks as f64 <= 4.2);
        drop(trace);
        assert_eq!(live(), before);
    }
}
