//! Binary serialization of generated workloads.
//!
//! The campaign layer's content-addressed artifact cache stores generated
//! [`CodeLayout`]s and [`Trace`]s on disk so that generation is paid once per
//! (profile, run length) across campaigns and worker processes. This module
//! is the codec for those artifacts: a little-endian byte format that
//! round-trips a layout and its dynamic trace exactly.
//!
//! The payload opens with the profile: its kind's index in
//! [`WorkloadKind::ALL`] (one byte), its description (a `u32` byte count,
//! then UTF-8), then every [`PROFILE_FIELDS`] value in table order, an
//! integer as a `u64` and a number as its `f64` bits. Those fields are read
//! and written through the table, and the artifact key hashes the same
//! section without the description ([`encode_profile_key`]), so the stored
//! bytes and their address cover one list of fields.
//!
//! After the profile and the line size, the payload holds the layout's
//! simulation tables as columns, each a `u64` element count followed by its
//! elements (B blocks, F functions, D direct branches: conditionals, jumps
//! and calls):
//!
//! | column | elements | what each element is |
//! |---|---|---|
//! | function sizes | F × `u32` | the function's block count |
//! | hot flags | F × `u8` | 1 if the function is hot, else 0 |
//! | block sizes | B × `u8` | instructions, branch included |
//! | kinds | B × `u8` | index in [`BranchKind::ALL`] |
//! | direct targets | D × `u32` | the id of the block each direct branch targets, in block order |
//!
//! then the trace: its block count, instruction count and final `next_pc`
//! (`u64` each), its block ids (`u32` each) and its taken bits (one per
//! block, packed eight to a byte) — the form a [`Trace`] holds in memory —
//! and last the back end's latency classes, a column over the trace's I
//! instructions:
//!
//! | column | elements | what each element is |
//! |---|---|---|
//! | classes | ⌈I/4⌉ × `u8` | four 2-bit classes: instruction `i`'s in bits `2·(i mod 4)` of byte `⌊i/4⌋`; the last byte's unused high bits are zero |
//!
//! This is the stream
//! [`BackendProfile::latency_classes`](crate::BackendProfile::latency_classes)
//! returns, stored so that a load makes no RNG pass.
//!
//! The layout's control-flow tables (flows, behaviours, indirect id lists,
//! the dispatcher and the service roots) are not stored: only trace
//! generation walks them, and the stored trace is already walked. A
//! decoded layout has none (see [`CodeLayout`]).
//!
//! Decoding reads each column with one bounds check, validates it in passes
//! over its contiguous elements and writes the layout's packed simulation
//! tables from it. It *validates* every stored field — the profile,
//! lengths, sizes, a code end within the
//! [`MAX_CODE_INSTRUCTIONS`] a block record addresses, kinds, target ids, a
//! fall-through successor for every conditional and call, the trace's ids
//! and instruction count, the class column's length and padding — and
//! *derives* the rest: block starts, direct-target addresses and the
//! branch-per-line index. The class values are not checked against the
//! profile on decode (every 2-bit value is a class); the campaign layer's
//! offline audit recomputes them.
//!
//! Decoding never panics on malformed input: every read is bounds-checked
//! and every invariant is validated, reporting a [`CodecError`] that names
//! the offending field in the style of
//! [`ProfileError`](crate::profile::ProfileError). A structure-aware fuzzer
//! in the tests holds it to that.

use crate::layout::{BlockId, CodeLayout, Columns, MAX_CODE_INSTRUCTIONS};
use crate::profile::{WorkloadKind, WorkloadProfile, PROFILE_FIELDS};
use crate::trace::Trace;
use sim_core::field::Access;
use sim_core::{Addr, BasicBlock, BranchKind, LineGeometry, MAX_BASIC_BLOCK_INSTRUCTIONS};
use std::fmt;
use std::marker::PhantomData;

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

/// A decoded value, or the error naming the field that failed.
type Decoded<T> = Result<T, CodecError>;

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

    fn take(&mut self, n: usize, field: &'static str) -> Decoded<&'a [u8]> {
        let left = self.remaining();
        ensure(left >= n, field, || {
            format!("truncated: need {n} bytes, {left} left")
        })?;
        let slice = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Reads one little-endian element.
    fn get<T: Le>(&mut self, field: &'static str) -> Decoded<T> {
        Ok(T::get(self.take(T::WIDTH, field)?))
    }

    /// Reads one byte.
    pub fn u8(&mut self, field: &'static str) -> Result<u8, CodecError> {
        self.get(field)
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self, field: &'static str) -> Result<u32, CodecError> {
        self.get(field)
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self, field: &'static str) -> Result<u64, CodecError> {
        self.get(field)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn string(&mut self, field: &'static str) -> Result<String, CodecError> {
        let len = self.u32(field)? as usize;
        let bytes = self.take(len, field)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|e| CodecError::new(field, format!("invalid UTF-8: {e}")))
    }

    /// Reads a column: a `u64` element count of at most `max`, then the
    /// elements.
    fn column<T: Le>(&mut self, field: &'static str, max: u64) -> Decoded<Column<'a, T>> {
        let n = self.u64(field)?;
        ensure(n <= max, field, || format!("{n} entries, more than {max}"))?;
        self.elements(field, n)
    }

    /// Reads a column whose element count must be `n`.
    fn column_of<T: Le>(&mut self, field: &'static str, n: u32) -> Decoded<Column<'a, T>> {
        let stored = self.u64(field)?;
        ensure(stored == u64::from(n), field, || {
            format!("{stored} entries stored, {n} expected")
        })?;
        self.elements(field, stored)
    }

    /// Takes `n` little-endian elements with one bounds check: a forged
    /// count is a truncation error, never a reservation the process cannot
    /// survive.
    fn elements<T: Le>(&mut self, field: &'static str, n: u64) -> Decoded<Column<'a, T>> {
        let len = usize::try_from(n).map_or(usize::MAX, |n| n.saturating_mul(T::WIDTH));
        Ok(Column {
            bytes: self.take(len, field)?,
            element: PhantomData,
        })
    }
}

/// `Ok(())` if `ok`; otherwise an error naming `field`, with the message
/// `why` builds.
fn ensure<M: Into<String>>(ok: bool, field: &'static str, why: impl FnOnce() -> M) -> Decoded<()> {
    if ok {
        Ok(())
    } else {
        Err(CodecError::new(field, why()))
    }
}

/// A fixed-width little-endian element of the format.
trait Le: Copy + Default + 'static {
    const WIDTH: usize;
    fn put(self, out: &mut Vec<u8>);
    /// Reads the element from exactly [`WIDTH`](Self::WIDTH) bytes.
    fn get(bytes: &[u8]) -> Self;
}

macro_rules! le {
    ($($t:ty),*) => {$(
        impl Le for $t {
            const WIDTH: usize = std::mem::size_of::<$t>();
            fn put(self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }
            fn get(bytes: &[u8]) -> Self {
                <$t>::from_le_bytes(bytes.try_into().expect("one element's bytes"))
            }
        }
    )*};
}

le!(u8, u32, u64);

/// One column read by [`ByteReader::column`]: its elements' bytes.
struct Column<'a, T> {
    bytes: &'a [u8],
    element: PhantomData<T>,
}

impl<'a, T: Le> Column<'a, T> {
    fn len(&self) -> usize {
        self.bytes.len() / T::WIDTH
    }

    /// Element `i`, or 0 past the end.
    fn get(&self, i: usize) -> T {
        self.bytes
            .get(i * T::WIDTH..(i + 1) * T::WIDTH)
            .map_or(T::default(), T::get)
    }

    /// The elements, decoded as they are iterated.
    fn iter(&self) -> impl ExactSizeIterator<Item = T> + Clone + 'a {
        self.bytes.chunks_exact(T::WIDTH).map(T::get)
    }
}

/// Writes a column: its element count `n`, then its `n` elements.
fn put_column<T: Le>(out: &mut Vec<u8>, n: usize, values: impl Iterator<Item = T>) {
    (n as u64).put(out);
    out.reserve(n * T::WIDTH);
    values.for_each(|v| v.put(out));
}

fn put_string(out: &mut Vec<u8>, s: &str) {
    (s.len() as u32).put(out);
    out.extend_from_slice(s.as_bytes());
}

/// Writes the profile as the artifact key reads it: its kind's index in
/// [`WorkloadKind::ALL`] (one byte), then every [`PROFILE_FIELDS`] value in
/// table order, an integer as a `u64` and a number as its `f64` bits. It is
/// the stored profile section without the description, which generation
/// does not read.
pub fn encode_profile_key(profile: &WorkloadProfile, out: &mut Vec<u8>) {
    kind_index(profile.kind).put(out);
    put_fields(profile, out);
}

/// The profile section: the kind, the description, then the fields.
fn encode_profile(profile: &WorkloadProfile, out: &mut Vec<u8>) {
    kind_index(profile.kind).put(out);
    put_string(out, &profile.description);
    put_fields(profile, out);
}

fn kind_index(kind: WorkloadKind) -> u8 {
    let index = WorkloadKind::ALL.iter().position(|&k| k == kind);
    index.expect("every workload kind is in WorkloadKind::ALL") as u8
}

fn put_fields(profile: &WorkloadProfile, out: &mut Vec<u8>) {
    for field in &PROFILE_FIELDS {
        match field.access {
            Access::Integer(get, _) => get(profile).put(out),
            Access::Index(get, _) => (get(profile) as u64).put(out),
            Access::Number(get, _) => get(profile).to_bits().put(out),
            Access::Bool(..) | Access::Noc(..) => {
                unreachable!("`{}` is no integer or number", field.key)
            }
        }
    }
}

/// Reads the profile section [`encode_profile`] writes. A table field's
/// error is a `profile` error naming its key, as a validation error is.
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
    let mut profile = kind.profile();
    profile.description = r.string("profile.description")?;
    for field in &PROFILE_FIELDS {
        let named = |why: String| CodecError::new("profile", format!("`{}` {why}", field.key));
        let v = r.u64("profile").map_err(|e| named(e.message))?;
        match field.access {
            Access::Integer(_, set) => set(&mut profile, v),
            Access::Index(_, set) => set(
                &mut profile,
                usize::try_from(v).map_err(|_| named(format!("{v} exceeds usize")))?,
            ),
            Access::Number(_, set) => set(&mut profile, f64::from_bits(v)),
            Access::Bool(..) | Access::Noc(..) => {
                unreachable!("`{}` is no integer or number", field.key)
            }
        }
    }
    Ok(profile)
}

/// Serializes `layout` to `out`: the profile, the line size, then the
/// layout's simulation tables as columns (see the module docs). Each
/// direct target is stored as the id of the block it starts, which
/// [`CodeLayout::block_at`] recovers from the target address.
pub fn encode_layout(layout: &CodeLayout, out: &mut Vec<u8>) {
    encode_profile(layout.profile(), out);
    layout.geometry().line_bytes().put(out);
    let n = layout.functions().len();
    put_column(out, n, layout.functions().map(|f| f.num_blocks));
    put_column(out, n, layout.functions().map(|f| u8::from(f.is_hot)));
    let n = layout.num_blocks();
    let blocks = layout.basic_blocks();
    put_column(out, n, blocks.clone().map(|b| b.instructions as u8));
    let kind = |b: BasicBlock| b.terminator.expect("every block ends in a branch").kind;
    let kinds = blocks.clone().map(|b| {
        let index = BranchKind::ALL.iter().position(|&k| k == kind(b));
        index.expect("every kind is in BranchKind::ALL") as u8
    });
    put_column(out, n, kinds);
    let targets = blocks.filter_map(|b| b.terminator?.target);
    let ids = targets.clone().map(|addr| {
        let id = layout.block_at(addr);
        id.expect("a direct target starts a block").0
    });
    put_column(out, targets.count(), ids);
}

/// Deserializes a layout encoded by [`encode_layout`]: each column is read
/// with one bounds check and validated in passes over its contiguous
/// elements, then the layout's packed simulation tables are written from
/// it; block addresses, direct-target addresses and the branch-per-line
/// index are derived, not stored. The layout has no control-flow tables.
pub fn decode_layout(r: &mut ByteReader<'_>) -> Result<CodeLayout, CodecError> {
    let profile = decode_profile(r)?;
    if let Err(e) = profile.validate() {
        return Err(CodecError::new("profile", e.to_string()));
    }
    let line_bytes = r.u64("layout.line_bytes")?;
    let line_ok = line_bytes.is_power_of_two() && (16..=4096).contains(&line_bytes);
    ensure(line_ok, "layout.line_bytes", || {
        format!("cache-line size {line_bytes} is not a power of two in 16..=4096")
    })?;
    let geometry = LineGeometry::new(line_bytes);

    let function_sizes = r.column::<u32>("layout.functions.len", u64::from(u32::MAX))?;
    let num_functions = function_sizes.len() as u32;
    ensure(num_functions > 0, "layout.functions.len", || "no function")?;
    let hot = r.column_of::<u8>("layout.hot_flags.len", num_functions)?;
    for (id, (num_blocks, is_hot)) in (0..).zip(function_sizes.iter().zip(hot.iter())) {
        ensure(num_blocks > 0, "function.num_blocks", || {
            format!("function {id} has zero blocks")
        })?;
        ensure(is_hot <= 1, "function.is_hot", || {
            format!("flag {is_hot} is not 0 or 1")
        })?;
    }
    // Every block holds an instruction, so the block count alone can place
    // the code end beyond what a block record addresses.
    let num_blocks: u64 = function_sizes.iter().map(u64::from).sum();
    ensure(
        num_blocks <= MAX_CODE_INSTRUCTIONS,
        "layout.code_end",
        || format!("{num_blocks} blocks end past instruction {MAX_CODE_INSTRUCTIONS}"),
    )?;
    let num_blocks = num_blocks as u32;
    let sizes = r.column_of::<u8>("layout.blocks.len", num_blocks)?.bytes;
    let kinds = r.column_of::<u8>("layout.kinds.len", num_blocks)?.bytes;

    // Each check is one pass over contiguous columns that branches only on
    // a failure, which it then names at its first offending block.
    let max = MAX_BASIC_BLOCK_INSTRUCTIONS;
    if let Some(idx) = first_failing(sizes.iter(), |&s| (1..=max).contains(&u64::from(s))) {
        let why = format!("block {idx}: size {} outside 1..={max}", sizes[idx]);
        return Err(CodecError::new("block.instructions", why));
    }
    let text: u64 = sizes.iter().map(|&s| u64::from(s)).sum();
    ensure(text <= MAX_CODE_INSTRUCTIONS, "layout.code_end", || {
        format!("blocks of {text} instructions end past instruction {MAX_CODE_INSTRUCTIONS}")
    })?;
    if let Some(idx) = first_failing(kinds.iter(), |&b| usize::from(b) < BranchKind::ALL.len()) {
        let why = format!("block {idx}: {} is no branch kind", kinds[idx]);
        return Err(CodecError::new("block.kind", why));
    }
    let kind = |idx: usize| BranchKind::ALL[usize::from(kinds[idx])];
    // Conditional and call blocks fall through to the next block of their
    // function (a not-taken branch, a return from the callee), so none may
    // end one: the generator never lays one out there.
    let mut end = 0;
    for num_blocks in function_sizes.iter() {
        end += num_blocks as usize;
        let idx = end - 1;
        let k = kind(idx);
        let falls_through = matches!(
            k,
            BranchKind::Conditional | BranchKind::Call | BranchKind::IndirectCall
        );
        ensure(!falls_through, "block.flow", || {
            format!("block {idx} of kind {k} ends its function but needs a fall-through successor")
        })?;
    }
    // One target per direct branch, each a block's id.
    let direct = (0..kinds.len()).filter(|&idx| !kind(idx).target_is_indirect());
    let targets = r.column_of::<u32>("layout.targets.len", direct.clone().count() as u32)?;
    if let Some(i) = first_failing(targets.iter(), |t| t < num_blocks) {
        let idx = direct.clone().nth(i).unwrap_or_default();
        let why = format!(
            "block {idx}: target block id {} out of range (have {num_blocks})",
            targets.get(i)
        );
        return Err(CodecError::new("block.target", why));
    }

    let mut columns = Columns::with_capacity(sizes.len(), num_functions as usize);
    for (num_blocks, is_hot) in function_sizes.iter().zip(hot.iter()) {
        columns.push_function(num_blocks, is_hot == 1);
    }
    let blocks = sizes.iter().zip(kinds);
    columns.extend_records(
        blocks.map(|(&size, &k)| (u64::from(size), BranchKind::ALL[usize::from(k)])),
    );
    let mut targets = targets.iter();
    columns.set_targets(|_, _| targets.next().unwrap_or_default());
    Ok(columns.finish(profile, geometry))
}

/// The index of the first item that fails `ok`: one pass over every item
/// without an early exit (and so without a branch per item), then a second
/// pass that stops at the failure, only when there is one.
fn first_failing<I: Iterator + Clone>(items: I, ok: impl Fn(I::Item) -> bool) -> Option<usize> {
    if items.clone().fold(true, |all, item| all & ok(item)) {
        None
    } else {
        items.into_iter().position(|item| !ok(item))
    }
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
    ensure(trace.layout().shares_tables(layout), "trace.layout", || {
        "the trace walks a different layout than the one encoded"
    })?;
    (trace.len() as u64).put(out);
    trace.instructions().put(out);
    trace.final_next_pc().raw().put(out);
    out.reserve(4 * trace.len() + trace.taken_bits().len());
    trace.ids().iter().for_each(|id| id.0.put(out));
    out.extend_from_slice(trace.taken_bits());
    Ok(())
}

/// Deserializes a trace encoded by [`encode_trace`] against the same layout:
/// every id is checked against the layout and the stored instruction count
/// against the ids, without expanding a single dynamic record.
pub fn decode_trace(layout: &CodeLayout, r: &mut ByteReader<'_>) -> Result<Trace, CodecError> {
    let num_blocks = r.u64("trace.blocks.len")?;
    ensure(num_blocks <= 1 << 32, "trace.blocks.len", || {
        "more than 2^32 blocks"
    })?;
    let instructions = r.u64("trace.instructions")?;
    let final_next_pc = Addr::new(r.u64("trace.final_next_pc")?);
    let layout_blocks = layout.num_blocks() as u32;
    let stored = r.elements::<u32>("trace.block_id", num_blocks)?;
    let mut ids = Vec::with_capacity(stored.len());
    let mut summed = 0u64;
    for id in stored.iter() {
        ensure(id < layout_blocks, "trace.block_id", || {
            format!("block id {id} out of range (have {layout_blocks})")
        })?;
        summed += layout.basic_block(BlockId(id)).instructions;
        ids.push(BlockId(id));
    }
    let bits = r.take(ids.len().div_ceil(8), "trace.taken_bits")?;
    ensure(summed == instructions, "trace.instructions", || {
        format!("stored instruction count {instructions} disagrees with blocks ({summed})")
    })?;
    let ids = ids.into_boxed_slice();
    Ok(Trace::from_stored(
        layout,
        ids,
        bits.into(),
        final_next_pc,
        instructions,
    ))
}

/// Serializes the back-end latency classes of `trace`'s instructions,
/// packed four to a byte as [`crate::BackendProfile::latency_classes`]
/// returns them: a `u64` byte count, then the bytes.
///
/// Returns an error if `classes` is not one packed class per instruction
/// of `trace` — a caller bug, not a malformed file.
pub fn encode_classes(trace: &Trace, classes: &[u8], out: &mut Vec<u8>) -> Result<(), CodecError> {
    let expected = trace.instructions().div_ceil(4);
    ensure(classes.len() as u64 == expected, "classes.len", || {
        format!("{} bytes, {expected} expected", classes.len())
    })?;
    (classes.len() as u64).put(out);
    out.extend_from_slice(classes);
    Ok(())
}

/// Deserializes the latency classes encoded by [`encode_classes`] for a
/// decoded `trace`: the byte count must be `ceil(instructions / 4)` and
/// the unused high bits of the last byte must be zero. The class values
/// themselves are not checked against the profile here (every 2-bit value
/// is a class); the offline audit recomputes them.
pub fn decode_classes(trace: &Trace, r: &mut ByteReader<'_>) -> Result<Vec<u8>, CodecError> {
    let instructions = trace.instructions();
    let expected = instructions.div_ceil(4);
    let stored = r.u64("classes.len")?;
    ensure(stored == expected, "classes.len", || {
        format!("{stored} bytes stored, {expected} expected for {instructions} instructions")
    })?;
    let bytes = r.elements::<u8>("classes", stored)?.bytes;
    let padding = match (bytes.last(), instructions % 4) {
        (Some(&last), used @ 1..) => last >> (2 * used),
        _ => 0,
    };
    ensure(padding == 0, "classes.padding", || {
        format!("unused high bits {padding:#x} of the last byte are set")
    })?;
    Ok(bytes.to_vec())
}

/// Serializes a full generated workload (layout, trace and packed latency
/// classes) to `out`.
pub fn encode_workload(
    layout: &CodeLayout,
    trace: &Trace,
    classes: &[u8],
    out: &mut Vec<u8>,
) -> Result<(), CodecError> {
    encode_layout(layout, out);
    encode_trace(layout, trace, out)?;
    encode_classes(trace, classes, out)
}

/// Deserializes a workload encoded by [`encode_workload`]: its layout, its
/// trace and its packed latency classes.
pub fn decode_workload(bytes: &[u8]) -> Result<(CodeLayout, Trace, Vec<u8>), CodecError> {
    let mut r = ByteReader::new(bytes);
    let layout = decode_layout(&mut r)?;
    let trace = decode_trace(&layout, &mut r)?;
    let classes = decode_classes(&trace, &mut r)?;
    let left = r.remaining();
    ensure(left == 0, "payload", || {
        format!("{left} trailing bytes after the latency classes")
    })?;
    Ok((layout, trace, classes))
}

#[cfg(test)]
mod fuzz;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::WorkloadProfile;

    /// The `tiny(seed)` workload with a `blocks`-block trace, and its bytes.
    fn encoded(seed: u64, blocks: usize) -> (CodeLayout, Trace, Vec<u8>) {
        let layout = CodeLayout::generate(&WorkloadProfile::tiny(seed));
        let trace = Trace::generate_blocks(&layout, blocks);
        let mut bytes = Vec::new();
        encode_workload(&layout, &trace, &classes_of(&trace), &mut bytes).expect("encode");
        (layout, trace, bytes)
    }

    /// The packed latency classes of `trace`'s instructions.
    fn classes_of(trace: &Trace) -> Vec<u8> {
        let profile = trace.layout().profile();
        let n = trace.instructions() as usize;
        profile.backend.latency_classes(profile.seed, n)
    }

    #[test]
    fn workload_roundtrips_exactly() {
        let (layout, trace, bytes) = encoded(42, 5_000);
        let (layout2, trace2, classes2) = decode_workload(&bytes).expect("decode");
        assert_eq!(classes2, classes_of(&trace));

        assert_eq!(layout.profile(), layout2.profile());
        assert_eq!(layout.geometry(), layout2.geometry());
        assert!(layout.basic_blocks().eq(layout2.basic_blocks()));
        assert!(layout.functions().eq(layout2.functions()));
        assert_eq!(layout.code_end(), layout2.code_end());
        assert_eq!(trace, trace2);
        // A decoded layout holds the simulation tables alone, and its trace
        // walks it.
        assert!(!layout2.has_control_flow());
        assert!(trace2.layout().shares_tables(&layout2));
    }

    #[test]
    fn line_index_is_rebuilt_identically() {
        let (layout, _, bytes) = encoded(7, 1_000);
        let (layout2, _, _) = decode_workload(&bytes).expect("decode");
        let geom = layout.geometry();
        for b in layout.blocks() {
            let line = geom.line_of(b.branch_pc());
            assert_eq!(
                layout.branches_in_line(line),
                layout2.branches_in_line(line)
            );
        }
        for b in layout.blocks().step_by(11) {
            assert_eq!(
                layout.next_branch_at_or_after(b.start()),
                layout2.next_branch_at_or_after(b.start())
            );
        }
    }

    #[test]
    fn truncated_payload_is_rejected_with_the_field_name() {
        let (_, _, bytes) = encoded(3, 500);
        for cut in [0, 1, 8, bytes.len() / 2, bytes.len() - 1] {
            let err = decode_workload(&bytes[..cut]).expect_err("truncation must fail");
            assert!(!err.field.is_empty());
            assert!(err.to_string().contains(err.field));
        }
    }

    #[test]
    fn corrupt_flow_tag_is_rejected_not_panicking() {
        let (_, _, bytes) = encoded(5, 500);
        // Flip bytes across the payload; every outcome must be a clean error
        // or an exact roundtrip (a flip in trace padding bits can be silent).
        for pos in (0..bytes.len()).step_by(97) {
            let mut copy = bytes.clone();
            copy[pos] ^= 0xff;
            let _ = decode_workload(&copy);
        }
    }

    /// A forged length field is an error, never a reservation sized by the
    /// field: a `u32::MAX`-element `Vec` would abort the process on
    /// allocation failure instead of returning an error.
    #[test]
    fn forged_lengths_are_rejected_without_reserving_them() {
        let (layout, trace, bytes) = encoded(11, 300);
        let forge = |at: usize, value: &[u8]| {
            let mut copy = bytes[..at + value.len()].to_vec();
            copy[at..].copy_from_slice(value);
            decode_workload(&copy).expect_err("a forged length must fail")
        };
        // Every column length, at its offset after the profile and line size.
        let mut at = {
            let mut header = Vec::new();
            encode_profile(layout.profile(), &mut header);
            header.len() + 8
        };
        let none = CodecError::new("layout.functions.len", "no function");
        assert_eq!(forge(at, &[0; 8]), none);
        let (f, b) = (layout.functions().len(), layout.num_blocks());
        let direct = layout
            .basic_blocks()
            .filter(|b| b.terminator.unwrap().target.is_some());
        for (field, n, width) in [
            ("layout.functions.len", f, 4),
            ("layout.hot_flags.len", f, 1),
            ("layout.blocks.len", b, 1),
            ("layout.kinds.len", b, 1),
            ("layout.targets.len", direct.count(), 4),
        ] {
            for forged in [u64::from(u32::MAX), 1 << 32] {
                assert_eq!(forge(at, &forged.to_le_bytes()).field, field);
            }
            at += 8 + n * width;
        }
        let mut laid_out = Vec::new();
        encode_layout(&layout, &mut laid_out);
        let err = forge(laid_out.len(), &(1u64 << 32).to_le_bytes());
        assert_eq!(err.field, "trace.instructions");
        // The class column's byte count, after the trace.
        let classes = bytes.len() - 8 - trace.instructions().div_ceil(4) as usize;
        for forged in [u64::from(u32::MAX), 1 << 32] {
            assert_eq!(forge(classes, &forged.to_le_bytes()).field, "classes.len");
        }
    }

    /// A stored layout whose code would end beyond the 28-bit instruction
    /// offset a block record holds is a field error, whether its function
    /// sizes alone place the end there or its block sizes do; a layout
    /// ending at the last offset passes that check.
    #[test]
    fn a_code_end_beyond_the_packed_range_is_rejected() {
        let mut header = Vec::new();
        encode_profile(&WorkloadProfile::tiny(11), &mut header);
        64u64.put(&mut header);
        let code_end = |functions: &[u32], sizes: &[u8]| {
            let mut bytes = header.clone();
            put_column(&mut bytes, functions.len(), functions.iter().copied());
            put_column(&mut bytes, functions.len(), functions.iter().map(|_| 0u8));
            put_column(&mut bytes, sizes.len(), sizes.iter().copied());
            let returns = sizes.iter().map(|_| BranchKind::Return as u8);
            put_column(&mut bytes, sizes.len(), returns);
            decode_layout(&mut ByteReader::new(&bytes)).unwrap_err()
        };
        let max = MAX_CODE_INSTRUCTIONS;
        let err = code_end(&[2, max as u32], &[]);
        assert_eq!(err.field, "layout.code_end", "{err}");
        assert!(
            err.to_string().contains(&format!("{} blocks", max + 2)),
            "{err}"
        );
        // The most blocks of the most instructions, the last one shortened
        // to end the code at the last offset, and then one longer.
        let full = MAX_BASIC_BLOCK_INSTRUCTIONS;
        let mut sizes = vec![full as u8; (max / full + 1) as usize];
        *sizes.last_mut().unwrap() = (max % full) as u8;
        let n = sizes.len() as u32;
        let err = code_end(&[n], &sizes);
        assert_eq!(err.field, "layout.targets.len", "{err}");
        *sizes.last_mut().unwrap() += 1;
        let err = code_end(&[n], &sizes);
        assert_eq!(err.field, "layout.code_end", "{err}");
        assert!(
            err.to_string()
                .contains(&format!("{} instructions", max + 1)),
            "{err}"
        );
    }

    /// The class column must hold one packed class per trace instruction,
    /// with the last byte's unused high bits clear.
    #[test]
    fn class_column_length_and_padding_are_checked() {
        let (_, trace, bytes) = (300..)
            .map(|blocks| encoded(13, blocks))
            .find(|(_, trace, _)| trace.instructions() % 4 != 0)
            .expect("some trace length leaves a partial class byte");
        let used = (trace.instructions() % 4) as u32;
        let len_at = bytes.len() - 8 - trace.instructions().div_ceil(4) as usize;
        let stored = u64::from_le_bytes(bytes[len_at..len_at + 8].try_into().unwrap());
        assert_eq!(stored, trace.instructions().div_ceil(4));
        for wrong in [stored - 1, stored + 1, 0] {
            let mut copy = bytes.clone();
            copy[len_at..len_at + 8].copy_from_slice(&wrong.to_le_bytes());
            let err = decode_workload(&copy).expect_err("a wrong class count must fail");
            assert_eq!(err.field, "classes.len", "{wrong} bytes: {err}");
        }
        for bit in 2 * used..8 {
            let mut copy = bytes.clone();
            *copy.last_mut().unwrap() |= 1 << bit;
            let err = decode_workload(&copy).expect_err("a set padding bit must fail");
            assert_eq!(err.field, "classes.padding", "bit {bit}");
        }
        // A used bit of the last byte is a class value, not padding.
        let mut copy = bytes.clone();
        *copy.last_mut().unwrap() ^= 1 << (2 * used - 1);
        let (_, _, classes) = decode_workload(&copy).expect("a class flip decodes");
        assert_eq!(classes.last(), copy.last());
        // A truncated class column is named too.
        let err = decode_workload(&bytes[..bytes.len() - 1]).unwrap_err();
        assert_eq!(err.field, "classes");
        // Encoding refuses a stream of the wrong length.
        let mut out = Vec::new();
        let err = encode_classes(&trace, &[0; 3], &mut out).unwrap_err();
        assert_eq!(err.field, "classes.len");
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let (_, _, mut bytes) = encoded(9, 200);
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
    /// the trace's in-memory form or to the class packing must not move a
    /// single artifact byte without a format bump.
    #[test]
    fn encoded_workload_bytes_are_pinned() {
        let (_, _, bytes) = encoded(42, 5_000);
        assert_eq!(
            (bytes.len(), format!("{:016x}", fnv1a64(&bytes))),
            (41_153, "44538a5c8bd4f376".to_string())
        );
    }
}
