//! What a held workload point keeps for its layout on the
//! `interpreter-dispatch` preset's four profiles, the points whose memory
//! sets that campaign's peak: the same per-block bound that
//! `workloads/tests/layout_storage.rs` holds the six paper profiles to,
//! measured by a counting global allocator, for a point generated from
//! its profile and for one decoded from its artifact bytes.

use boomerang::{RunLength, WorkloadData};
use campaign::presets;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use workloads::codec;

thread_local! {
    /// Bytes the current thread has allocated and not yet freed. Each
    /// thread counts only its own allocations, so the test harness's other
    /// threads cannot move the measuring thread's count.
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

/// The most heap bytes per static block a held point keeps for its layout
/// beyond its trace and classes. The four profiles measure 9.02-9.04,
/// generated or decoded.
const POINT_LAYOUT_BYTES_PER_BLOCK: f64 = 10.0;

/// The heap bytes per static block that the point `build` returns keeps
/// for its layout, beyond its trace ids, taken bits and classes.
fn layout_bytes_per_block(build: impl FnOnce() -> WorkloadData) -> f64 {
    let before = live();
    let data = build();
    let kept = live() - before;
    assert!(!data.layout.has_control_flow());
    let trace = 4 * data.trace.len() + data.trace.len().div_ceil(8);
    let layout = kept - (trace + data.latency_classes().len()) as isize;
    let per_block = layout as f64 / data.layout.num_blocks() as f64;
    drop(data);
    assert_eq!(live(), before, "a point frees all it kept");
    per_block
}

// It prints nothing: captured output is heap the test would count.
#[test]
fn interpreter_dispatch_points_keep_at_most_10_bytes_a_block() {
    let spec = presets::find("interpreter-dispatch").expect("preset exists");
    assert_eq!(spec.workloads.len(), 4);
    let run = RunLength::smoke_test();
    let measured: Vec<_> = spec
        .workloads
        .iter()
        .map(|point| {
            let generated =
                layout_bytes_per_block(|| WorkloadData::generate_from_profile(&point.profile, run));
            let data = WorkloadData::generate_from_profile(&point.profile, run);
            let mut bytes = Vec::new();
            let classes = data.latency_classes();
            codec::encode_workload(&data.layout, &data.trace, classes, &mut bytes).expect("encode");
            drop(data);
            let decoded = layout_bytes_per_block(|| {
                let (layout, trace, classes) = codec::decode_workload(&bytes).expect("decode");
                WorkloadData::from_stored(layout, trace, classes, run)
            });
            (point.label.as_str(), generated, decoded)
        })
        .collect();
    assert!(
        measured.iter().all(|&(_, generated, decoded)| {
            generated <= POINT_LAYOUT_BYTES_PER_BLOCK && decoded <= POINT_LAYOUT_BYTES_PER_BLOCK
        }),
        "bytes per block over {POINT_LAYOUT_BYTES_PER_BLOCK}: {measured:.2?}"
    );
}
