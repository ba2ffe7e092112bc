//! Binary serialization of generated workloads.
//!
//! The campaign layer's content-addressed artifact cache stores generated
//! [`CodeLayout`]s and [`Trace`]s on disk so that generation is paid once per
//! (profile, run length) across campaigns and worker processes. This module
//! is the codec for those artifacts: a compact little-endian byte format that
//! round-trips a layout and its dynamic trace exactly.
//!
//! The encoding exploits the layout invariants that generation guarantees
//! (and the layout tests assert):
//!
//! * blocks are laid out contiguously from [`crate::CODE_BASE`], so block start
//!   addresses are implied by the instruction counts;
//! * every function's blocks form one contiguous id range and its entry is
//!   its first block, so functions encode as `(num_blocks, is_hot)` pairs;
//! * every terminator's kind and direct target are determined by the block's
//!   [`ControlFlow`], so terminators are rebuilt rather than stored;
//! * a trace is a connected path (`next.start() == prev.next_start()`), so a
//!   dynamic block encodes as a static block id plus one taken bit, with only
//!   the final record's `next_pc` stored explicitly — the form a [`Trace`]
//!   already holds in memory, so encoding copies it and decoding validates
//!   it.
//!
//! Decoding never panics on malformed input: every read is bounds-checked
//! and every invariant is validated, reporting a [`CodecError`] that names
//! the offending field in the style of
//! [`ProfileError`](crate::profile::ProfileError).

use crate::layout::{BlockId, BranchBehavior, CodeLayout, ControlFlow, Function, FunctionId};
use crate::profile::{WorkloadKind, WorkloadProfile};
use crate::trace::Trace;
use sim_core::{Addr, LineGeometry, MAX_BASIC_BLOCK_INSTRUCTIONS};
use std::fmt;

/// A malformed-artifact error, naming the field that failed to decode.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CodecError {
    /// Dotted path of the field being decoded when the error was detected.
    pub field: &'static str,
    /// What was wrong with it.
    pub message: String,
}

impl CodecError {
    fn new(field: &'static str, message: impl Into<String>) -> Self {
        CodecError {
            field,
            message: message.into(),
        }
    }
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "workload artifact field `{}`: {}",
            self.field, self.message
        )
    }
}

impl std::error::Error for CodecError {}

/// Bounds-checked little-endian reader over an artifact payload.
#[derive(Clone, Debug)]
pub struct ByteReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// Creates a reader over `bytes`, positioned at the start.
    pub fn new(bytes: &'a [u8]) -> Self {
        ByteReader { bytes, pos: 0 }
    }

    /// Number of bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    fn take(&mut self, n: usize, field: &'static str) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError::new(
                field,
                format!("truncated: need {n} bytes, {} left", self.remaining()),
            ));
        }
        let slice = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Reads one byte.
    pub fn u8(&mut self, field: &'static str) -> Result<u8, CodecError> {
        Ok(self.take(1, field)?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self, field: &'static str) -> Result<u32, CodecError> {
        let b = self.take(4, field)?;
        Ok(u32::from_le_bytes(b.try_into().expect("4-byte slice")))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self, field: &'static str) -> Result<u64, CodecError> {
        let b = self.take(8, field)?;
        Ok(u64::from_le_bytes(b.try_into().expect("8-byte slice")))
    }

    /// Reads an `f64` stored as its IEEE-754 bit pattern.
    pub fn f64(&mut self, field: &'static str) -> Result<f64, CodecError> {
        Ok(f64::from_bits(self.u64(field)?))
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn string(&mut self, field: &'static str) -> Result<String, CodecError> {
        let len = self.u32(field)? as usize;
        let bytes = self.take(len, field)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|e| CodecError::new(field, format!("invalid UTF-8: {e}")))
    }

    /// Reads a `u64` that must fit the given inclusive range.
    fn u64_in(&mut self, field: &'static str, lo: u64, hi: u64) -> Result<u64, CodecError> {
        let v = self.u64(field)?;
        if v < lo || v > hi {
            return Err(CodecError::new(
                field,
                format!("value {v} outside [{lo}, {hi}]"),
            ));
        }
        Ok(v)
    }
}

fn put_u8(out: &mut Vec<u8>, v: u8) {
    out.push(v);
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(out: &mut Vec<u8>, v: f64) {
    put_u64(out, v.to_bits());
}

fn put_string(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

/// Canonical identity listing of a profile: every field that influences
/// generation, in declaration order, rendered deterministically.
///
/// The campaign artifact cache hashes this (together with the run length) to
/// form the content address of a generated workload. Any change to
/// [`WorkloadProfile`]'s fields must extend this listing *and* bump the
/// artifact format version in the campaign layer.
pub fn profile_fingerprint(profile: &WorkloadProfile) -> String {
    let t = &profile.terminators;
    let c = &profile.conditionals;
    let b = &profile.backend;
    format!(
        "workload-profile-v1 kind={} seed={} footprint_bytes={} \
         mean_block_instructions={:?} mean_function_blocks={:?} \
         terminators=({:?},{:?},{:?},{:?},{:?}) \
         conditionals=({:?},{:?},{:?},{:?},{:?}) \
         cond_target_mean_lines={:?} cond_backward_fraction={:?} \
         max_call_depth={} service_roots={} hot_callee_fraction={:?} \
         utility_fraction={:?} backend=({:?},{:?},{:?},{})",
        profile.kind.name(),
        profile.seed,
        profile.footprint_bytes,
        profile.mean_block_instructions,
        profile.mean_function_blocks,
        t.call,
        t.indirect_call,
        t.jump,
        t.indirect_jump,
        t.early_return,
        c.loop_backedge,
        c.pattern,
        c.data_dependent,
        c.bias_mean,
        c.mean_trip_count,
        profile.cond_target_mean_lines,
        profile.cond_backward_fraction,
        profile.max_call_depth,
        profile.service_roots,
        profile.hot_callee_fraction,
        profile.utility_fraction,
        b.load_fraction,
        b.l1d_miss_rate,
        b.llc_miss_rate,
        b.base_latency,
    )
}

fn encode_profile(profile: &WorkloadProfile, out: &mut Vec<u8>) {
    let kind_index = WorkloadKind::ALL
        .iter()
        .position(|&k| k == profile.kind)
        .expect("every workload kind is in WorkloadKind::ALL") as u8;
    put_u8(out, kind_index);
    put_string(out, &profile.description);
    put_u64(out, profile.seed);
    put_u64(out, profile.footprint_bytes);
    put_f64(out, profile.mean_block_instructions);
    put_f64(out, profile.mean_function_blocks);
    put_f64(out, profile.terminators.call);
    put_f64(out, profile.terminators.indirect_call);
    put_f64(out, profile.terminators.jump);
    put_f64(out, profile.terminators.indirect_jump);
    put_f64(out, profile.terminators.early_return);
    put_f64(out, profile.conditionals.loop_backedge);
    put_f64(out, profile.conditionals.pattern);
    put_f64(out, profile.conditionals.data_dependent);
    put_f64(out, profile.conditionals.bias_mean);
    put_f64(out, profile.conditionals.mean_trip_count);
    put_f64(out, profile.cond_target_mean_lines);
    put_f64(out, profile.cond_backward_fraction);
    put_u64(out, profile.max_call_depth as u64);
    put_u64(out, profile.service_roots as u64);
    put_f64(out, profile.hot_callee_fraction);
    put_f64(out, profile.utility_fraction);
    put_f64(out, profile.backend.load_fraction);
    put_f64(out, profile.backend.l1d_miss_rate);
    put_f64(out, profile.backend.llc_miss_rate);
    put_u64(out, profile.backend.base_latency);
}

fn decode_profile(r: &mut ByteReader<'_>) -> Result<WorkloadProfile, CodecError> {
    let kind_index = r.u8("profile.kind")? as usize;
    let kind = *WorkloadKind::ALL.get(kind_index).ok_or_else(|| {
        CodecError::new(
            "profile.kind",
            format!(
                "kind index {kind_index} out of range (have {})",
                WorkloadKind::ALL.len()
            ),
        )
    })?;
    let description = r.string("profile.description")?;
    let mut profile = kind.profile();
    profile.description = description;
    profile.seed = r.u64("profile.seed")?;
    profile.footprint_bytes = r.u64("profile.footprint_bytes")?;
    profile.mean_block_instructions = r.f64("profile.mean_block_instructions")?;
    profile.mean_function_blocks = r.f64("profile.mean_function_blocks")?;
    profile.terminators.call = r.f64("profile.terminators.call")?;
    profile.terminators.indirect_call = r.f64("profile.terminators.indirect_call")?;
    profile.terminators.jump = r.f64("profile.terminators.jump")?;
    profile.terminators.indirect_jump = r.f64("profile.terminators.indirect_jump")?;
    profile.terminators.early_return = r.f64("profile.terminators.early_return")?;
    profile.conditionals.loop_backedge = r.f64("profile.conditionals.loop_backedge")?;
    profile.conditionals.pattern = r.f64("profile.conditionals.pattern")?;
    profile.conditionals.data_dependent = r.f64("profile.conditionals.data_dependent")?;
    profile.conditionals.bias_mean = r.f64("profile.conditionals.bias_mean")?;
    profile.conditionals.mean_trip_count = r.f64("profile.conditionals.mean_trip_count")?;
    profile.cond_target_mean_lines = r.f64("profile.cond_target_mean_lines")?;
    profile.cond_backward_fraction = r.f64("profile.cond_backward_fraction")?;
    profile.max_call_depth = r.u64("profile.max_call_depth")? as usize;
    profile.service_roots = r.u64("profile.service_roots")? as usize;
    profile.hot_callee_fraction = r.f64("profile.hot_callee_fraction")?;
    profile.utility_fraction = r.f64("profile.utility_fraction")?;
    profile.backend.load_fraction = r.f64("profile.backend.load_fraction")?;
    profile.backend.l1d_miss_rate = r.f64("profile.backend.l1d_miss_rate")?;
    profile.backend.llc_miss_rate = r.f64("profile.backend.llc_miss_rate")?;
    profile.backend.base_latency = r.u64("profile.backend.base_latency")?;
    Ok(profile)
}

const FLOW_CONDITIONAL: u8 = 0;
const FLOW_JUMP: u8 = 1;
const FLOW_INDIRECT_JUMP: u8 = 2;
const FLOW_CALL: u8 = 3;
const FLOW_INDIRECT_CALL: u8 = 4;
const FLOW_RETURN: u8 = 5;

const BEHAVIOR_BIASED: u8 = 0;
const BEHAVIOR_LOOP: u8 = 1;
const BEHAVIOR_PATTERN: u8 = 2;
const BEHAVIOR_DATA_DEPENDENT: u8 = 3;

fn encode_flow(flow: &ControlFlow, out: &mut Vec<u8>) {
    match flow {
        ControlFlow::Conditional { taken, behavior } => {
            put_u8(out, FLOW_CONDITIONAL);
            put_u32(out, taken.0);
            match *behavior {
                BranchBehavior::Biased { p_taken } => {
                    put_u8(out, BEHAVIOR_BIASED);
                    put_f64(out, p_taken);
                }
                BranchBehavior::Loop { trip_count } => {
                    put_u8(out, BEHAVIOR_LOOP);
                    put_u32(out, trip_count);
                }
                BranchBehavior::Pattern { period, bits } => {
                    put_u8(out, BEHAVIOR_PATTERN);
                    put_u8(out, period);
                    put_u32(out, bits);
                }
                BranchBehavior::DataDependent { p_taken } => {
                    put_u8(out, BEHAVIOR_DATA_DEPENDENT);
                    put_f64(out, p_taken);
                }
            }
        }
        ControlFlow::Jump { target } => {
            put_u8(out, FLOW_JUMP);
            put_u32(out, target.0);
        }
        ControlFlow::IndirectJump { targets } => {
            put_u8(out, FLOW_INDIRECT_JUMP);
            put_u32(out, targets.len() as u32);
            for t in targets {
                put_u32(out, t.0);
            }
        }
        ControlFlow::Call { callee } => {
            put_u8(out, FLOW_CALL);
            put_u32(out, callee.0);
        }
        ControlFlow::IndirectCall { callees } => {
            put_u8(out, FLOW_INDIRECT_CALL);
            put_u32(out, callees.len() as u32);
            for c in callees {
                put_u32(out, c.0);
            }
        }
        ControlFlow::Return => put_u8(out, FLOW_RETURN),
    }
}

fn decode_flow(
    r: &mut ByteReader<'_>,
    num_blocks: u32,
    num_functions: u32,
) -> Result<ControlFlow, CodecError> {
    let block_id = |r: &mut ByteReader<'_>, field| -> Result<BlockId, CodecError> {
        let id = r.u32(field)?;
        if id >= num_blocks {
            return Err(CodecError::new(
                field,
                format!("block id {id} out of range (have {num_blocks})"),
            ));
        }
        Ok(BlockId(id))
    };
    let function_id = |r: &mut ByteReader<'_>, field| -> Result<FunctionId, CodecError> {
        let id = r.u32(field)?;
        if id >= num_functions {
            return Err(CodecError::new(
                field,
                format!("function id {id} out of range (have {num_functions})"),
            ));
        }
        Ok(FunctionId(id))
    };
    let tag = r.u8("block.flow.tag")?;
    match tag {
        FLOW_CONDITIONAL => {
            let taken = block_id(r, "block.flow.taken")?;
            let behavior = match r.u8("block.flow.behavior.tag")? {
                BEHAVIOR_BIASED => BranchBehavior::Biased {
                    p_taken: r.f64("block.flow.behavior.p_taken")?,
                },
                BEHAVIOR_LOOP => {
                    let trip_count = r.u32("block.flow.behavior.trip_count")?;
                    if trip_count < 2 {
                        return Err(CodecError::new(
                            "block.flow.behavior.trip_count",
                            format!("loop trip count must be >= 2, got {trip_count}"),
                        ));
                    }
                    BranchBehavior::Loop { trip_count }
                }
                BEHAVIOR_PATTERN => {
                    let period = r.u8("block.flow.behavior.period")?;
                    if period == 0 || period > 32 {
                        return Err(CodecError::new(
                            "block.flow.behavior.period",
                            format!("pattern period must be in 1..=32, got {period}"),
                        ));
                    }
                    BranchBehavior::Pattern {
                        period,
                        bits: r.u32("block.flow.behavior.bits")?,
                    }
                }
                BEHAVIOR_DATA_DEPENDENT => BranchBehavior::DataDependent {
                    p_taken: r.f64("block.flow.behavior.p_taken")?,
                },
                other => {
                    return Err(CodecError::new(
                        "block.flow.behavior.tag",
                        format!("unknown behavior tag {other}"),
                    ))
                }
            };
            Ok(ControlFlow::Conditional { taken, behavior })
        }
        FLOW_JUMP => Ok(ControlFlow::Jump {
            target: block_id(r, "block.flow.target")?,
        }),
        FLOW_INDIRECT_JUMP => {
            let n = r.u32("block.flow.targets.len")?;
            if n == 0 || n > 1024 {
                return Err(CodecError::new(
                    "block.flow.targets.len",
                    format!("indirect jump target count {n} outside 1..=1024"),
                ));
            }
            let targets = (0..n)
                .map(|_| block_id(r, "block.flow.targets"))
                .collect::<Result<Vec<_>, _>>()?;
            Ok(ControlFlow::IndirectJump { targets })
        }
        FLOW_CALL => Ok(ControlFlow::Call {
            callee: function_id(r, "block.flow.callee")?,
        }),
        FLOW_INDIRECT_CALL => {
            let n = r.u32("block.flow.callees.len")?;
            if n == 0 || n > 1024 {
                return Err(CodecError::new(
                    "block.flow.callees.len",
                    format!("indirect call callee count {n} outside 1..=1024"),
                ));
            }
            let callees = (0..n)
                .map(|_| function_id(r, "block.flow.callees"))
                .collect::<Result<Vec<_>, _>>()?;
            Ok(ControlFlow::IndirectCall { callees })
        }
        FLOW_RETURN => Ok(ControlFlow::Return),
        other => Err(CodecError::new(
            "block.flow.tag",
            format!("unknown control-flow tag {other}"),
        )),
    }
}

/// Serializes `layout` to `out`.
pub fn encode_layout(layout: &CodeLayout, out: &mut Vec<u8>) {
    encode_profile(layout.profile(), out);
    put_u64(out, layout.geometry().line_bytes());
    let functions = layout.functions();
    put_u64(out, functions.len() as u64);
    for f in functions {
        put_u32(out, f.num_blocks);
        put_u8(out, u8::from(f.is_hot));
    }
    let blocks = layout.blocks();
    put_u64(out, blocks.len() as u64);
    for b in blocks {
        put_u8(out, b.block.instructions as u8);
        encode_flow(&b.flow, out);
    }
    put_u32(out, layout.dispatcher().0);
    let roots = layout.service_roots();
    put_u32(out, roots.len() as u32);
    for root in roots {
        put_u32(out, root.0);
    }
}

/// Deserializes a layout encoded by [`encode_layout`], rebuilding the
/// derived indexes (block addresses, terminators, branch-per-line index)
/// from the stored structure.
pub fn decode_layout(r: &mut ByteReader<'_>) -> Result<CodeLayout, CodecError> {
    let profile = decode_profile(r)?;
    let line_bytes = r.u64("layout.line_bytes")?;
    if !line_bytes.is_power_of_two() || !(16..=4096).contains(&line_bytes) {
        return Err(CodecError::new(
            "layout.line_bytes",
            format!("cache-line size {line_bytes} is not a power of two in 16..=4096"),
        ));
    }
    let geometry = LineGeometry::new(line_bytes);

    let num_functions = r.u64_in("layout.functions.len", 1, u32::MAX as u64)? as u32;
    // Reservations are bounded by the bytes present (5 per function, at
    // least 2 per block, 4 per trace id): a forged length is a truncation
    // error, not an allocation the process cannot survive.
    let mut functions = Vec::with_capacity((num_functions as usize).min(r.remaining() / 5));
    let mut first_block = 0u32;
    for id in 0..num_functions {
        let num_blocks = r.u32("function.num_blocks")?;
        if num_blocks == 0 {
            return Err(CodecError::new(
                "function.num_blocks",
                format!("function {id} has zero blocks"),
            ));
        }
        let is_hot = match r.u8("function.is_hot")? {
            0 => false,
            1 => true,
            other => {
                return Err(CodecError::new(
                    "function.is_hot",
                    format!("flag must be 0 or 1, got {other}"),
                ))
            }
        };
        functions.push(Function {
            id: FunctionId(id),
            entry: BlockId(first_block),
            first_block,
            num_blocks,
            is_hot,
        });
        first_block = first_block.checked_add(num_blocks).ok_or_else(|| {
            CodecError::new("function.num_blocks", "total block count overflows u32")
        })?;
    }
    let expected_blocks = first_block;

    let num_blocks = r.u64_in("layout.blocks.len", 1, u32::MAX as u64)? as u32;
    if num_blocks != expected_blocks {
        return Err(CodecError::new(
            "layout.blocks.len",
            format!("{num_blocks} blocks stored but functions cover {expected_blocks}"),
        ));
    }
    let mut raw = Vec::with_capacity((num_blocks as usize).min(r.remaining() / 2));
    for _ in 0..num_blocks {
        let instructions = u64::from(r.u8("block.instructions")?);
        if !(1..=MAX_BASIC_BLOCK_INSTRUCTIONS).contains(&instructions) {
            return Err(CodecError::new(
                "block.instructions",
                format!(
                    "block size must be in 1..={MAX_BASIC_BLOCK_INSTRUCTIONS}, got {instructions}"
                ),
            ));
        }
        let flow = decode_flow(r, num_blocks, num_functions)?;
        raw.push((instructions, flow));
    }

    let dispatcher = r.u32("layout.dispatcher")?;
    if dispatcher >= num_functions {
        return Err(CodecError::new(
            "layout.dispatcher",
            format!("function id {dispatcher} out of range (have {num_functions})"),
        ));
    }
    let num_roots = r.u32("layout.service_roots.len")?;
    if num_roots == 0 || num_roots > num_functions {
        return Err(CodecError::new(
            "layout.service_roots.len",
            format!("service-root count {num_roots} outside 1..={num_functions}"),
        ));
    }
    let mut service_roots = Vec::with_capacity(num_roots as usize);
    for _ in 0..num_roots {
        let root = r.u32("layout.service_roots")?;
        if root >= num_functions {
            return Err(CodecError::new(
                "layout.service_roots",
                format!("function id {root} out of range (have {num_functions})"),
            ));
        }
        service_roots.push(FunctionId(root));
    }

    CodeLayout::from_parts(
        profile,
        geometry,
        raw,
        functions,
        service_roots,
        FunctionId(dispatcher),
    )
}

/// Serializes `trace` (generated over `layout`) to `out`: its stored ids,
/// taken bits and final successor pc, as they are held in memory.
///
/// Returns an error if the trace walks a different layout — which would
/// indicate a caller bug, not a malformed file.
pub fn encode_trace(
    layout: &CodeLayout,
    trace: &Trace,
    out: &mut Vec<u8>,
) -> Result<(), CodecError> {
    if !trace.layout().shares_tables(layout) {
        return Err(CodecError::new(
            "trace.layout",
            "the trace walks a different layout than the one encoded",
        ));
    }
    put_u64(out, trace.len() as u64);
    put_u64(out, trace.instructions());
    put_u64(out, trace.final_next_pc().raw());
    out.reserve(4 * trace.len() + trace.taken_bits().len());
    for id in trace.ids() {
        put_u32(out, id.0);
    }
    out.extend_from_slice(trace.taken_bits());
    Ok(())
}

/// Deserializes a trace encoded by [`encode_trace`] against the same layout:
/// every id is checked against the layout and the stored instruction count
/// against the ids, without expanding a single dynamic record.
pub fn decode_trace(layout: &CodeLayout, r: &mut ByteReader<'_>) -> Result<Trace, CodecError> {
    let num_blocks = r.u64_in("trace.blocks.len", 0, 1 << 32)? as usize;
    let instructions = r.u64("trace.instructions")?;
    let final_next_pc = Addr::new(r.u64("trace.final_next_pc")?);
    let blocks = layout.blocks();
    let layout_blocks = blocks.len() as u32;
    let mut ids = Vec::with_capacity(num_blocks.min(r.remaining() / 4));
    let mut summed = 0u64;
    for _ in 0..num_blocks {
        let id = r.u32("trace.block_id")?;
        if id >= layout_blocks {
            return Err(CodecError::new(
                "trace.block_id",
                format!("block id {id} out of range (have {layout_blocks})"),
            ));
        }
        summed += blocks[id as usize].block.instructions;
        ids.push(BlockId(id));
    }
    let bits = r.take(num_blocks.div_ceil(8), "trace.taken_bits")?;
    if summed != instructions {
        return Err(CodecError::new(
            "trace.instructions",
            format!("stored instruction count {instructions} disagrees with blocks ({summed})"),
        ));
    }
    Ok(Trace::from_stored(
        layout,
        ids.into_boxed_slice(),
        bits.into(),
        final_next_pc,
        instructions,
    ))
}

/// Serializes a full generated workload (layout + trace) to `out`.
pub fn encode_workload(
    layout: &CodeLayout,
    trace: &Trace,
    out: &mut Vec<u8>,
) -> Result<(), CodecError> {
    encode_layout(layout, out);
    encode_trace(layout, trace, out)
}

/// Deserializes a workload encoded by [`encode_workload`].
pub fn decode_workload(bytes: &[u8]) -> Result<(CodeLayout, Trace), CodecError> {
    let mut r = ByteReader::new(bytes);
    let layout = decode_layout(&mut r)?;
    let trace = decode_trace(&layout, &mut r)?;
    if r.remaining() != 0 {
        return Err(CodecError::new(
            "payload",
            format!("{} trailing bytes after the trace", r.remaining()),
        ));
    }
    Ok((layout, trace))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::WorkloadProfile;

    fn roundtrip(profile: &WorkloadProfile, trace_blocks: usize) -> (CodeLayout, Trace) {
        let layout = CodeLayout::generate(profile);
        let trace = Trace::generate_blocks(&layout, trace_blocks);
        let mut bytes = Vec::new();
        encode_workload(&layout, &trace, &mut bytes).expect("encode");
        decode_workload(&bytes).expect("decode")
    }

    #[test]
    fn workload_roundtrips_exactly() {
        let profile = WorkloadProfile::tiny(42);
        let layout = CodeLayout::generate(&profile);
        let trace = Trace::generate_blocks(&layout, 5_000);
        let (layout2, trace2) = roundtrip(&profile, 5_000);

        assert_eq!(layout.profile(), layout2.profile());
        assert_eq!(layout.geometry(), layout2.geometry());
        assert_eq!(layout.blocks(), layout2.blocks());
        assert_eq!(layout.functions(), layout2.functions());
        assert_eq!(layout.service_roots(), layout2.service_roots());
        assert_eq!(layout.dispatcher(), layout2.dispatcher());
        assert_eq!(layout.code_end(), layout2.code_end());
        assert_eq!(trace, trace2);
    }

    #[test]
    fn line_index_is_rebuilt_identically() {
        let profile = WorkloadProfile::tiny(7);
        let (layout2, _) = roundtrip(&profile, 1_000);
        let layout = CodeLayout::generate(&profile);
        let geom = layout.geometry();
        for b in layout.blocks() {
            let line = geom.line_of(b.branch_pc());
            assert_eq!(
                layout.branches_in_line(line),
                layout2.branches_in_line(line)
            );
        }
        for b in layout.blocks().iter().step_by(11) {
            assert_eq!(
                layout.next_branch_at_or_after(b.start()),
                layout2.next_branch_at_or_after(b.start())
            );
        }
    }

    #[test]
    fn truncated_payload_is_rejected_with_the_field_name() {
        let profile = WorkloadProfile::tiny(3);
        let layout = CodeLayout::generate(&profile);
        let trace = Trace::generate_blocks(&layout, 500);
        let mut bytes = Vec::new();
        encode_workload(&layout, &trace, &mut bytes).expect("encode");
        for cut in [0, 1, 8, bytes.len() / 2, bytes.len() - 1] {
            let err = decode_workload(&bytes[..cut]).expect_err("truncation must fail");
            assert!(!err.field.is_empty());
            assert!(err.to_string().contains(err.field));
        }
    }

    #[test]
    fn corrupt_flow_tag_is_rejected_not_panicking() {
        let profile = WorkloadProfile::tiny(5);
        let layout = CodeLayout::generate(&profile);
        let trace = Trace::generate_blocks(&layout, 500);
        let mut bytes = Vec::new();
        encode_workload(&layout, &trace, &mut bytes).expect("encode");
        // Flip bytes across the payload; every outcome must be a clean error
        // or an exact roundtrip (a flip in trace padding bits can be silent).
        for pos in (0..bytes.len()).step_by(97) {
            let mut copy = bytes.clone();
            copy[pos] ^= 0xff;
            let _ = decode_workload(&copy);
        }
    }

    /// A forged length field is a truncation error, never a reservation
    /// sized by the field: a `u32::MAX`-element `Vec` would abort the
    /// process on allocation failure instead of returning an error.
    #[test]
    fn forged_lengths_are_rejected_without_reserving_them() {
        let profile = WorkloadProfile::tiny(11);
        let layout = CodeLayout::generate(&profile);
        let trace = Trace::generate_blocks(&layout, 300);
        let mut bytes = Vec::new();
        encode_workload(&layout, &trace, &mut bytes).expect("encode");
        let mut header = Vec::new();
        encode_profile(&profile, &mut header);
        let functions_len = header.len() + 8;
        let forge = |at: usize, value: &[u8]| {
            let mut copy = bytes[..at + value.len()].to_vec();
            copy[at..].copy_from_slice(value);
            decode_workload(&copy).expect_err("a forged length must fail")
        };
        let err = forge(functions_len, &u64::from(u32::MAX).to_le_bytes());
        assert_eq!(err.field, "function.num_blocks");
        // One function covering u32::MAX blocks, and a matching block count.
        let mut one = 1u64.to_le_bytes().to_vec();
        one.extend_from_slice(&u32::MAX.to_le_bytes());
        one.push(0);
        one.extend_from_slice(&u64::from(u32::MAX).to_le_bytes());
        let err = forge(functions_len, &one);
        assert_eq!(err.field, "block.instructions");
        let mut laid_out = Vec::new();
        encode_layout(&layout, &mut laid_out);
        let err = forge(laid_out.len(), &(1u64 << 32).to_le_bytes());
        assert_eq!(err.field, "trace.instructions");
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let profile = WorkloadProfile::tiny(9);
        let layout = CodeLayout::generate(&profile);
        let trace = Trace::generate_blocks(&layout, 200);
        let mut bytes = Vec::new();
        encode_workload(&layout, &trace, &mut bytes).expect("encode");
        bytes.push(0);
        let err = decode_workload(&bytes).expect_err("trailing bytes must fail");
        assert_eq!(err.field, "payload");
    }

    /// FNV-1a-64, the digest the campaign layer pins reports with.
    fn fnv1a64(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    /// The `BMWL` payload bytes of a `tiny` workload are pinned: a change to
    /// the trace's in-memory form must not move a single artifact byte
    /// without a format bump.
    #[test]
    fn encoded_workload_bytes_are_pinned() {
        let layout = CodeLayout::generate(&WorkloadProfile::tiny(42));
        let trace = Trace::generate_blocks(&layout, 5_000);
        let mut bytes = Vec::new();
        encode_workload(&layout, &trace, &mut bytes).expect("encode");
        assert_eq!(
            (bytes.len(), format!("{:016x}", fnv1a64(&bytes))),
            (44_664, "94bfbdef39a44267".to_string())
        );
    }

    #[test]
    fn fingerprint_distinguishes_profiles() {
        let a = profile_fingerprint(&WorkloadProfile::tiny(1));
        let b = profile_fingerprint(&WorkloadProfile::tiny(2));
        let c = profile_fingerprint(&WorkloadProfile::tiny(1).with_footprint_bytes(128 * 1024));
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(a, profile_fingerprint(&WorkloadProfile::tiny(1)));
    }
}
