//! Generation is pinned apart from the artifact format: an FNV-1a over every
//! field of a `tiny(42)` layout's blocks and of its trace's dynamic records.
//! A change to the `BMWL` codec must leave this digest alone, and a change
//! to generation that moves it moves every report digest too.

use sim_core::BranchKind;
use workloads::{BranchBehavior, CodeLayout, ControlFlow, Trace, WorkloadProfile};

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
