//! Property-based tests of workload generation invariants.
use proptest::prelude::*;
use sim_core::BranchKind;
use workloads::{CodeLayout, Trace, WorkloadProfile};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn layout_generation_invariants_hold_for_any_seed(seed in 0u64..1 << 32) {
        let layout = CodeLayout::generate(&WorkloadProfile::tiny(seed));
        // Blocks are contiguous, sorted and consistent with their functions.
        let mut expected = layout.code_base();
        for b in layout.blocks() {
            prop_assert_eq!(b.block.start, expected);
            expected = b.block.fall_through();
            prop_assert_eq!(b.terminator().kind, b.flow.kind());
        }
        prop_assert_eq!(expected, layout.code_end());
        // Every function's last block is a return or (dispatcher) jump.
        for f in layout.functions() {
            let last = layout.block(workloads::BlockId(f.first_block + f.num_blocks - 1));
            prop_assert!(matches!(last.flow.kind(), BranchKind::Return | BranchKind::DirectJump));
        }
    }

    #[test]
    fn traces_are_connected_paths_within_the_layout(seed in 0u64..1 << 32) {
        let layout = CodeLayout::generate(&WorkloadProfile::tiny(seed));
        let trace = Trace::generate_blocks(&layout, 3_000);
        let blocks: Vec<_> = trace.iter().collect();
        for pair in blocks.windows(2) {
            prop_assert_eq!(pair[1].start(), pair[0].next_start());
        }
        for d in &blocks {
            prop_assert!(layout.block_at(d.start()).is_some());
        }
    }
}
