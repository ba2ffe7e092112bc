//! Generation is pinned apart from the artifact format: an FNV-1a over every
//! field of a `tiny(42)` layout's blocks and of its trace's dynamic records,
//! and another over the back end's latency class of each of its
//! instructions. A change to the `BMWL` codec or to how the classes are
//! packed must leave these digests alone, and a change to generation that
//! moves one moves every report digest too.

use sim_core::BranchKind;
use workloads::{latency_class, BranchBehavior, CodeLayout, ControlFlow, Trace, WorkloadProfile};

/// FNV-1a-64 over the little-endian bytes of the words fed to it.
struct Fnv(u64);

impl Fnv {
    fn word(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn kind(&mut self, kind: BranchKind) {
        let index = BranchKind::ALL.iter().position(|&k| k == kind);
        self.word(index.expect("every kind is in BranchKind::ALL") as u64);
    }
}

#[test]
fn tiny_workload_generation_is_pinned() {
    let layout = CodeLayout::generate(&WorkloadProfile::tiny(42));
    let trace = Trace::generate_blocks(&layout, 5_000);
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    for b in layout.blocks() {
        let t = b.terminator();
        h.word(u64::from(b.id.0));
        h.word(b.start().raw());
        h.word(b.block.instructions);
        h.word(t.pc.raw());
        h.kind(t.kind);
        h.word(t.target.map_or(u64::MAX, |a| a.raw()));
        h.kind(b.flow.kind());
        match b.flow {
            ControlFlow::Conditional { taken, behavior } => {
                h.word(u64::from(taken.0));
                match behavior {
                    BranchBehavior::Biased { p_taken } => h.word(p_taken.to_bits()),
                    BranchBehavior::Loop { trip_count } => h.word(u64::from(trip_count)),
                    BranchBehavior::Pattern { period, bits } => {
                        h.word(u64::from(period));
                        h.word(u64::from(bits));
                    }
                    BranchBehavior::DataDependent { p_taken } => h.word(!p_taken.to_bits()),
                }
            }
            ControlFlow::Jump { target } => h.word(u64::from(target.0)),
            ControlFlow::Call { callee } => h.word(u64::from(callee.0)),
            ControlFlow::IndirectJump { targets } => {
                h.word(targets.len() as u64);
                targets.iter().for_each(|id| h.word(u64::from(id.0)));
            }
            ControlFlow::IndirectCall { callees } => {
                h.word(callees.len() as u64);
                callees.iter().for_each(|id| h.word(u64::from(id.0)));
            }
            ControlFlow::Return => {}
        }
    }
    for f in layout.functions() {
        h.word(u64::from(f.first_block));
        h.word(u64::from(f.num_blocks));
        h.word(u64::from(f.is_hot));
    }
    for r in trace.iter() {
        h.word(r.block.start.raw());
        h.word(r.block.instructions);
        h.word(u64::from(r.outcome.taken));
        h.word(r.outcome.next_pc.raw());
    }
    assert_eq!(
        (
            layout.num_blocks(),
            trace.len(),
            trace.instructions(),
            format!("{:016x}", h.0)
        ),
        (1_954, 5_000, 35_062, "6e55cb77712bfd79".to_string())
    );
}

/// The back end's latency classes of the same point, one per trace
/// instruction, pinned by value apart from how they are packed or stored.
#[test]
fn tiny_workload_latency_classes_are_pinned() {
    let profile = WorkloadProfile::tiny(42);
    let layout = CodeLayout::generate(&profile);
    let trace = Trace::generate_blocks(&layout, 5_000);
    let n = trace.instructions() as usize;
    let packed = profile.backend.latency_classes(profile.seed, n);
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    let mut counts = [0usize; 4];
    for i in 0..n {
        let class = latency_class::get(&packed, i);
        h.word(u64::from(class));
        counts[usize::from(class)] += 1;
    }
    assert_eq!(
        (n, counts, format!("{:016x}", h.0)),
        (
            35_062,
            [25_969, 42, 394, 8_657],
            "a3f1e5d2e34c9786".to_string()
        )
    );
}
