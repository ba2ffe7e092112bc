//! A trace's heap storage is its block ids plus its taken bitset, with no
//! spare capacity: measured by a counting global allocator, so the test sees
//! every byte the trace keeps, not what its accessors report.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};
use workloads::{CodeLayout, Trace, WorkloadProfile};

/// Bytes currently allocated through the global allocator.
static LIVE: AtomicIsize = AtomicIsize::new(0);

struct Counting;

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as isize, Ordering::SeqCst);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as isize, Ordering::SeqCst);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_add(new_size as isize - layout.size() as isize, Ordering::SeqCst);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

// The only test in this binary, so no other thread allocates while it
// measures.
#[test]
fn trace_heap_is_ids_plus_taken_bits() {
    let layout = CodeLayout::generate(&WorkloadProfile::tiny(3));
    for blocks in [100_003, 60_000] {
        let before = LIVE.load(Ordering::SeqCst);
        let trace = Trace::generate_blocks(&layout, blocks);
        let kept = (LIVE.load(Ordering::SeqCst) - before) as usize;
        assert_eq!(trace.len(), blocks);
        assert_eq!(kept, 4 * blocks + blocks.div_ceil(8), "{blocks} blocks");
        assert!(kept as f64 / blocks as f64 <= 4.2);
        drop(trace);
        assert_eq!(LIVE.load(Ordering::SeqCst), before);
    }
}
