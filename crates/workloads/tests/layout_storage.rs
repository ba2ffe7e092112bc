//! What a layout keeps, and what generating it costs on the way, measured by
//! a counting global allocator: every heap byte is seen, the per-block
//! tables, the id pool, the line index and the function table included.
//! A freshly generated layout keeps its control-flow tables; a workload
//! point, generated or decoded, keeps the simulation tables alone.

use boomerang::{RunLength, WorkloadData};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use workloads::{codec, CodeLayout, Trace, WorkloadKind};

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

/// The most heap bytes per static block a workload point keeps for its
/// layout: the 12-byte block records, the line index and the function
/// table. The six paper profiles measure 15.03-15.28, generated or
/// decoded; with the control-flow tables a point held 27.4.
const POINT_LAYOUT_BYTES_PER_BLOCK: f64 = 16.0;

/// Heap bytes of a trace: its block ids and its taken bitset.
fn trace_bytes(trace: &Trace) -> isize {
    (4 * trace.len() + trace.len().div_ceil(8)) as isize
}

/// Checks what the point built by `build` keeps for its layout, per block,
/// and that it holds no control-flow tables.
fn check_point(kind: WorkloadKind, build: impl FnOnce() -> WorkloadData) {
    let before = live();
    let data = build();
    let kept = live() - before;
    assert!(!data.layout.has_control_flow(), "{kind}");
    assert!(!data.trace.layout().has_control_flow(), "{kind}");
    let layout = kept - trace_bytes(&data.trace) - data.latency_classes().len() as isize;
    let per_block = layout as f64 / data.layout.num_blocks() as f64;
    assert!(
        per_block <= POINT_LAYOUT_BYTES_PER_BLOCK,
        "{kind}: {per_block:.2} bytes per block"
    );
    drop(data);
    assert_eq!(live(), before, "{kind}: a point frees all it kept");
}

#[test]
fn a_generated_point_keeps_only_the_simulation_tables() {
    for kind in [WorkloadKind::Oracle, WorkloadKind::Nutch] {
        let profile = kind.profile();
        check_point(kind, || {
            WorkloadData::generate_from_profile(&profile, RunLength::smoke_test())
        });
    }
}

#[test]
fn a_decoded_point_keeps_only_the_simulation_tables() {
    for kind in [WorkloadKind::Oracle, WorkloadKind::Nutch] {
        let run = RunLength::smoke_test();
        let data = WorkloadData::generate_from_profile(&kind.profile(), run);
        let mut bytes = Vec::new();
        let classes = data.latency_classes();
        codec::encode_workload(&data.layout, &data.trace, classes, &mut bytes).expect("encode");
        drop(data);
        check_point(kind, || {
            let (layout, trace, classes) = codec::decode_workload(&bytes).expect("decode");
            assert!(!layout.has_control_flow(), "{kind}");
            WorkloadData::from_stored(layout, trace, classes, run)
        });
    }
}
