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

/// The most heap bytes per static block a freshly generated layout keeps,
/// with its control-flow tables, and the most its generation may peak at,
/// as a multiple of what it keeps. The six paper profiles measure
/// 22.69-22.85 bytes and 1.09-1.13x; with 12-byte records, 20-byte
/// functions and a 4-byte line index entry a layout kept 28.4.
const LAYOUT_BYTES_PER_BLOCK: f64 = 25.0;
const GENERATION_PEAK: f64 = 1.5;

// It prints nothing: captured output is heap the test would count.
#[test]
fn layout_keeps_25_bytes_a_block_and_generation_peaks_at_1_5x_that() {
    let measured: Vec<_> = WorkloadKind::ALL
        .into_iter()
        .map(|kind| {
            let profile = kind.profile();
            let before = live();
            PEAK.with(|peak| peak.set(before));
            let layout = CodeLayout::generate(&profile);
            let kept = (live() - before) as f64;
            let peak = (peak() - before) as f64;
            let per_block = kept / layout.num_blocks() as f64;
            drop(layout);
            assert_eq!(live(), before, "{kind}: a layout frees all it kept");
            (kind, per_block, peak / kept)
        })
        .collect();
    assert!(
        measured
            .iter()
            .all(|&(_, b, peak)| b <= LAYOUT_BYTES_PER_BLOCK && peak <= GENERATION_PEAK),
        "bytes per block over {LAYOUT_BYTES_PER_BLOCK} or peak over {GENERATION_PEAK}x: \
         {measured:.2?}"
    );
}

/// The most heap bytes per static block a workload point keeps for its
/// layout: the 8-byte block records, the line index (a little over two
/// bytes a line) and the 4-byte function records. The six paper profiles
/// measure 9.02-9.33, generated or decoded; with 12-byte records, 20-byte
/// functions and four bytes a line a point held 15.03-15.28.
const POINT_LAYOUT_BYTES_PER_BLOCK: f64 = 10.0;

/// Heap bytes of a trace: its block ids and its taken bitset.
fn trace_bytes(trace: &Trace) -> isize {
    (4 * trace.len() + trace.len().div_ceil(8)) as isize
}

/// The heap bytes per static block that the point built by `build` keeps
/// for its layout, beyond its trace and classes; checks that it holds no
/// control-flow tables and frees all it kept.
fn point_layout_bytes_per_block(kind: WorkloadKind, build: impl FnOnce() -> WorkloadData) -> f64 {
    let before = live();
    let data = build();
    let kept = live() - before;
    assert!(!data.layout.has_control_flow(), "{kind}");
    assert!(!data.trace.layout().has_control_flow(), "{kind}");
    let layout = kept - trace_bytes(&data.trace) - data.latency_classes().len() as isize;
    let per_block = layout as f64 / data.layout.num_blocks() as f64;
    drop(data);
    assert_eq!(live(), before, "{kind}: a point frees all it kept");
    per_block
}

/// Checks every profile's bytes per block against the bound at once, so a
/// failure lists them all.
fn assert_within_bound(measured: &[(WorkloadKind, f64)]) {
    assert!(
        measured
            .iter()
            .all(|&(_, b)| b <= POINT_LAYOUT_BYTES_PER_BLOCK),
        "bytes per block over {POINT_LAYOUT_BYTES_PER_BLOCK}: {measured:.2?}"
    );
}

#[test]
fn a_generated_point_keeps_only_the_simulation_tables() {
    let measured: Vec<_> = WorkloadKind::ALL
        .into_iter()
        .map(|kind| {
            let profile = kind.profile();
            let per_block = point_layout_bytes_per_block(kind, || {
                WorkloadData::generate_from_profile(&profile, RunLength::smoke_test())
            });
            (kind, per_block)
        })
        .collect();
    assert_within_bound(&measured);
}

#[test]
fn a_decoded_point_keeps_only_the_simulation_tables() {
    let run = RunLength::smoke_test();
    let measured: Vec<_> = WorkloadKind::ALL
        .into_iter()
        .map(|kind| {
            let data = WorkloadData::generate_from_profile(&kind.profile(), run);
            let mut bytes = Vec::new();
            let classes = data.latency_classes();
            codec::encode_workload(&data.layout, &data.trace, classes, &mut bytes).expect("encode");
            drop(data);
            let per_block = point_layout_bytes_per_block(kind, || {
                let (layout, trace, classes) = codec::decode_workload(&bytes).expect("decode");
                assert!(!layout.has_control_flow(), "{kind}");
                WorkloadData::from_stored(layout, trace, classes, run)
            });
            (kind, per_block)
        })
        .collect();
    assert_within_bound(&measured);
}
