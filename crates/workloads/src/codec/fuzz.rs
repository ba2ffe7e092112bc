//! A deterministic, structure-aware fuzzer for [`decode_workload`].
//!
//! One SplitMix64 stream mutates the encoded artifacts of several tiny
//! profiles: bit flips, truncations, forged column lengths, function block
//! counts (whose sum can end the code beyond what a block record
//! addresses), block sizes, target and trace ids and kind bytes written at
//! the offsets where the columns put those fields, function boundaries
//! moved by one block and padding bits set in the last latency-class byte.
//! Every mutant
//! must decode to a field-named error or to a workload that re-encodes to
//! the mutant's own bytes and whose trace the simulator can read back
//! through the layout; a panic fails the test with the mutant that caused
//! it.

use super::tests::classes_of;
use super::*;
use std::collections::BTreeMap;
use testkit::{flip_bit, forge, truncate, SplitMix};

/// Where one artifact's encoding puts the fields a forged value targets.
#[derive(Default)]
struct FieldMap {
    /// Column lengths and the trace's counts (8 bytes each).
    columns: Vec<usize>,
    /// Direct-target ids and the trace's ids (4 bytes each).
    ids: Vec<usize>,
    /// Size bytes, in block order.
    sizes: Vec<usize>,
    /// Kind bytes, in block order.
    kinds: Vec<usize>,
    /// Each function's block count (4 bytes each), in function order.
    function_sizes: Vec<usize>,
    /// The last taken-bit byte and its unused high bits, which decoding
    /// clears.
    taken_padding: (usize, u8),
    /// The last latency-class byte and its unused high bits, which must be
    /// zero.
    class_padding: (usize, u8),
}

impl FieldMap {
    /// Walks the encoding of `layout` and `trace` column by column.
    fn of(layout: &CodeLayout, trace: &Trace) -> Self {
        let mut map = FieldMap::default();
        let mut profile = Vec::new();
        encode_profile(layout.profile(), &mut profile);
        let (functions, blocks) = (layout.functions().len(), layout.num_blocks());
        // The profile, then the line size, then the columns.
        let mut at = profile.len() + 8;
        let sizes = map.column(&mut at, functions, 4);
        map.function_sizes = (0..functions).map(|i| sizes + 4 * i).collect();
        map.column(&mut at, functions, 1);
        let sizes = map.column(&mut at, blocks, 1);
        map.sizes = (0..blocks).map(|i| sizes + i).collect();
        let kinds = map.column(&mut at, blocks, 1);
        map.kinds = (0..blocks).map(|i| kinds + i).collect();
        let direct = layout
            .basic_blocks()
            .filter(|b| b.terminator.is_some_and(|t| t.target.is_some()))
            .count();
        let targets = map.column(&mut at, direct, 4);
        map.ids.extend((0..direct).map(|i| targets + 4 * i));
        // The trace: its block count, instruction count, final pc, ids,
        // taken bits.
        map.columns.push(at);
        map.columns.push(at + 8);
        at += 24;
        map.ids.extend((0..trace.len()).map(|i| at + 4 * i));
        at += 4 * trace.len() + trace.len().div_ceil(8);
        map.taken_padding = (at - 1, padding(trace.len() % 8, 1));
        // The latency classes, four to a byte.
        let classes = trace.instructions().div_ceil(4) as usize;
        map.column(&mut at, classes, 1);
        map.class_padding = (at - 1, padding(trace.instructions() as usize % 4, 2));
        map
    }

    /// A column at `*at`: its 8-byte length, then `n` elements of `width`
    /// bytes. Returns where the elements start and moves `at` past them.
    fn column(&mut self, at: &mut usize, n: usize, width: usize) -> usize {
        self.columns.push(*at);
        *at += 8 + n * width;
        *at - n * width
    }
}

/// The unused high bits of a last byte whose first `used` fields of `bits`
/// bits each are in use (none if `used` is 0: the byte is full).
fn padding(used: usize, bits: usize) -> u8 {
    match used {
        0 => 0,
        _ => 0xff << (used * bits),
    }
}

/// Applies one mutation to `bytes` and says what it was.
fn mutate(bytes: &mut Vec<u8>, map: &FieldMap, rng: &mut SplitMix) -> String {
    match rng.below(7) {
        0 => flip_bit(bytes, .., rng),
        1 => truncate(bytes, rng),
        2 => {
            // Columns half the time: the few of them are not lost among
            // the many function lengths.
            let (at, width) = match rng.below(2) {
                0 => (rng.pick(&map.columns), 8),
                _ => (rng.pick(&map.function_sizes), 4),
            };
            forge(bytes, rng, "length", at, width)
        }
        3 => {
            let at = rng.pick(&map.ids);
            forge(bytes, rng, "id", at, 4)
        }
        4 => {
            let (what, at) = match rng.below(2) {
                0 => ("kind", rng.pick(&map.kinds)),
                _ => ("size", rng.pick(&map.sizes)),
            };
            forge(bytes, rng, what, at, 1)
        }
        5 => {
            let (at, padding) = map.class_padding;
            if padding == 0 || at >= bytes.len() {
                return "no class padding to set".to_string();
            }
            let bit = 8 - 1 - rng.below(u64::from(padding.count_ones()));
            bytes[at] |= 1 << bit;
            format!("set class padding bit {bit} of byte {at}")
        }
        _ => {
            // Move one block across a function boundary: the block counts
            // still sum to the stored total, but another block ends a
            // function.
            let i = rng.index(map.function_sizes.len() - 1);
            let (a, b) = (map.function_sizes[i], map.function_sizes[i + 1]);
            if b + 4 > bytes.len() {
                return format!("boundary after function {i} truncated away");
            }
            let size = |bytes: &[u8], at: usize| u32::get(&bytes[at..at + 4]);
            let shift = if rng.below(2) == 0 { 1 } else { u32::MAX };
            let (left, right) = (
                size(bytes, a).wrapping_add(shift),
                size(bytes, b).wrapping_sub(shift),
            );
            bytes[a..a + 4].copy_from_slice(&left.to_le_bytes());
            bytes[b..b + 4].copy_from_slice(&right.to_le_bytes());
            format!("function {i} boundary moved to sizes {left}, {right}")
        }
    }
}

/// Field prefixes every decode error must name one of.
const FIELDS: [&str; 7] = [
    "profile",
    "layout.",
    "function.",
    "block.",
    "trace.",
    "classes",
    "payload",
];

/// The artifacts the fuzzer mutates: several tiny profiles, one of them
/// indirect-heavy, with traces whose lengths leave taken-bit padding.
fn artifacts() -> Vec<(CodeLayout, Trace)> {
    let mut indirect = WorkloadProfile::tiny(3).with_footprint_bytes(24 * 1024);
    indirect.terminators.indirect_jump = 0.2;
    indirect.terminators.indirect_call = 0.15;
    [
        (WorkloadProfile::tiny(1), 701),
        (WorkloadProfile::tiny(2).with_footprint_bytes(20 * 1024), 64),
        (indirect, 333),
    ]
    .into_iter()
    .map(|(profile, blocks)| {
        let layout = CodeLayout::generate(&profile);
        let trace = Trace::generate_blocks(&layout, blocks);
        (layout, trace)
    })
    .collect()
}

fn encode(layout: &CodeLayout, trace: &Trace, classes: &[u8]) -> Vec<u8> {
    let mut bytes = Vec::new();
    encode_workload(layout, trace, classes, &mut bytes).expect("encode");
    bytes
}

#[test]
fn encode_after_decode_is_the_identity() {
    let artifacts = artifacts();
    let (heavy, _) = &artifacts[2];
    let indirect = heavy
        .basic_blocks()
        .filter(|b| {
            matches!(
                b.terminator.unwrap().kind,
                BranchKind::IndirectJump | BranchKind::IndirectCall
            )
        })
        .count();
    assert!(
        indirect * 8 > heavy.num_blocks(),
        "{indirect} indirect blocks"
    );
    // Some trace leaves a partial last class byte, whose padding the
    // fuzzer sets.
    assert!(artifacts
        .iter()
        .any(|(_, trace)| trace.instructions() % 4 != 0));
    for (layout, trace) in artifacts {
        let classes = classes_of(&trace);
        let bytes = encode(&layout, &trace, &classes);
        let (decoded, decoded_trace, decoded_classes) = decode_workload(&bytes).expect("decode");
        assert!(decoded.basic_blocks().eq(layout.basic_blocks()));
        assert!(decoded.functions().eq(layout.functions()));
        assert_eq!(decoded_trace, trace);
        assert_eq!(decoded_classes, classes);
        assert_eq!(encode(&decoded, &decoded_trace, &decoded_classes), bytes);
    }
}

/// Reads every record of a decoded trace back through its layout the way
/// the simulator and its predecoder do.
fn read_back(layout: &CodeLayout, trace: &Trace) {
    let geometry = layout.geometry();
    for d in trace.iter() {
        let id = layout
            .block_at(d.start())
            .expect("a trace block starts a block");
        let line = geometry.line_of(d.block.last_instruction());
        assert!(layout.branches_in_line(line).contains(&id.0));
        assert_eq!(layout.next_branch_at_or_after(d.start()), Some(id));
        if let Some(target) = d.block.terminator.and_then(|t| t.target) {
            assert!(layout.block_at(target).is_some());
        }
    }
}

#[test]
fn mutated_artifacts_decode_to_field_errors_or_to_usable_workloads() {
    let mut rng = SplitMix(0x00de_c0de_f022);
    // Fields rejected for their value, not for running out of bytes.
    let mut errors: BTreeMap<&'static str, usize> = BTreeMap::new();
    let mut decoded = 0;
    for (index, (layout, trace)) in artifacts().into_iter().enumerate() {
        let bytes = encode(&layout, &trace, &classes_of(&trace));
        let map = FieldMap::of(&layout, &trace);
        assert_eq!(map.class_padding.0, bytes.len() - 1);
        // The map is right if every kind byte it names is its block's kind.
        assert!(map
            .kinds
            .iter()
            .zip(layout.basic_blocks())
            .all(|(&at, b)| BranchKind::ALL[usize::from(bytes[at])] == b.terminator.unwrap().kind));
        assert!(map
            .sizes
            .iter()
            .zip(layout.basic_blocks())
            .all(|(&at, b)| u64::from(bytes[at]) == b.instructions));
        for round in 0..1500 {
            let (mutant, what) =
                testkit::mutant(&bytes, 2, &mut rng, |m, rng| mutate(m, &map, rng));
            let outcome = std::panic::catch_unwind(|| decode_workload(&mutant))
                .unwrap_or_else(|_| panic!("artifact {index} round {round}: {what:?} panicked"));
            match outcome {
                Err(e) => {
                    assert!(
                        FIELDS.iter().any(|f| e.field.starts_with(f)),
                        "artifact {index} round {round}: {what:?} gave unnamed field {e}"
                    );
                    assert!(e.to_string().contains(e.field));
                    if !e.message.starts_with("truncated") {
                        *errors.entry(e.field).or_default() += 1;
                    }
                }
                Ok((layout, trace, classes)) => {
                    decoded += 1;
                    // Decoding clears the taken bitset's padding bits; every
                    // other byte re-encodes as it was.
                    let mut again = encode(&layout, &trace, &classes);
                    let (at, padding) = map.taken_padding;
                    if again.len() == mutant.len() {
                        again[at] |= mutant[at] & padding;
                    }
                    assert_eq!(
                        again, mutant,
                        "artifact {index} round {round}: {what:?} decoded but re-encodes differently"
                    );
                    // What decodes is a trace the simulator can read.
                    std::panic::catch_unwind(|| read_back(&layout, &trace)).unwrap_or_else(|_| {
                        panic!("artifact {index} round {round}: {what:?} decoded unreadable")
                    });
                }
            }
        }
    }
    // The structure-aware mutations reach every value check.
    for field in [
        "layout.functions.len",
        "layout.blocks.len",
        "layout.kinds.len",
        "layout.targets.len",
        "layout.code_end",
        "function.num_blocks",
        "block.instructions",
        "block.kind",
        "block.flow",
        "block.target",
        "trace.block_id",
        "trace.instructions",
        "classes.len",
        "classes.padding",
    ] {
        assert!(
            errors.contains_key(field),
            "no mutant failed the value check of {field}: {errors:?}"
        );
    }
    assert!(decoded > 0, "every mutant failed: {errors:?}");
}
