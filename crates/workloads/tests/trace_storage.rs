//! A trace's heap storage is its block ids plus its taken bitset, with no
//! spare capacity: measured by a counting global allocator, so the test sees
//! every byte the trace keeps, not what its accessors report.

use testkit::live;
use workloads::{CodeLayout, Trace, WorkloadProfile};

#[global_allocator]
static ALLOCATOR: testkit::Counting = testkit::Counting;

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
