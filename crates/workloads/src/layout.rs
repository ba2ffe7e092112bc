//! Static code layout generation.
//!
//! A [`CodeLayout`] is the synthetic analogue of the text segment of a server
//! software stack: a few thousand functions, each made of basic blocks laid
//! out contiguously in the instruction address space, with a control-flow
//! graph connecting them (conditional branches, jumps, calls, indirect
//! branches and returns). The layout is produced deterministically from a
//! [`WorkloadProfile`] and a seed.
//!
//! The layout is consumed in three places:
//!
//! * [`crate::trace::TraceGenerator`] walks it to produce the dynamic
//!   instruction stream;
//! * the front-end simulator's *predecoder* asks which branches live in a
//!   given cache line ([`CodeLayout::branches_in_line`]) to model
//!   Boomerang's and Confluence's BTB prefill;
//! * the analysis module measures static/dynamic properties such as the
//!   branch-target distance distribution of Figure 4.
//!
//! A layout keeps fixed-width per-block tables rather than one record per
//! block object, in two parts:
//!
//! * the *simulation tables*: one 8-byte word per block with what
//!   rebuilding its [`BasicBlock`] reads (start, size, kind, direct-target
//!   address), the branch-per-line index, one 4-byte word per function
//!   (its block count and hot flag), the profile, the line geometry and the
//!   end of the code. The simulator, the predecoder and a trace's rebuild
//!   of its dynamic records read nothing else;
//! * the *control-flow tables*: each block's flow target id, a
//!   conditional's behaviour, whether the block ends its function, one
//!   shared pool of indirect-branch id lists, each function's entry block,
//!   the dispatcher and the service roots. Only trace generation walks them.
//!
//! [`CodeLayout::generate`] fills both. A [`Trace`](crate::Trace) keeps a
//! handle on the simulation tables alone
//! ([`CodeLayout::without_control_flow`]), and so does a held workload
//! point, whose control-flow tables are freed once its trace exists; a
//! layout decoded from an artifact never had them. [`CodeLayout::block`]
//! assembles a [`StaticBlock`] by value from both parts; its
//! [`ControlFlow`] borrows the pool.

use crate::profile::WorkloadProfile;
use sim_core::rng::SimRng;
use sim_core::{
    Addr, BasicBlock, BranchInfo, BranchKind, CacheLine, LineGeometry, MAX_BASIC_BLOCK_INSTRUCTIONS,
};
use std::fmt;
use std::marker::PhantomData;
use std::ops::Range;
use std::sync::Arc;

/// Base address at which the synthetic text segment is laid out.
pub const CODE_BASE: Addr = Addr::new(0x0040_0000);

/// Index of a static basic block inside a [`CodeLayout`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct BlockId(pub u32);

impl From<u32> for BlockId {
    fn from(id: u32) -> Self {
        BlockId(id)
    }
}

/// Index of a function inside a [`CodeLayout`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct FunctionId(pub u32);

impl From<u32> for FunctionId {
    fn from(id: u32) -> Self {
        FunctionId(id)
    }
}

/// Dynamic behaviour assigned to a static conditional branch.
///
/// The trace generator keeps per-branch state (loop counters, pattern
/// positions) so that the same static branch behaves consistently across its
/// dynamic executions — which is what lets history-based predictors such as
/// TAGE do well on loops and patterns.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum BranchBehavior {
    /// Taken with a fixed probability.
    Biased {
        /// Probability of taking the branch.
        p_taken: f64,
    },
    /// Loop back-edge: taken `trip_count - 1` times, then not taken once.
    Loop {
        /// Loop trip count (>= 2).
        trip_count: u32,
    },
    /// Repeating taken/not-taken pattern of the given period.
    Pattern {
        /// Pattern period (2..=24).
        period: u8,
        /// Bit `i` gives the outcome of the `i`-th execution within a period.
        bits: u32,
    },
    /// Effectively data-dependent: close to 50/50 and unpredictable.
    DataDependent {
        /// Probability of taking the branch.
        p_taken: f64,
    },
}

impl BranchBehavior {
    /// The behaviour as a 2-bit tag and a 64-bit payload, the form the
    /// layout's behaviour column stores (every bit of `p_taken` is kept).
    fn to_bits(self) -> (u8, u64) {
        match self {
            BranchBehavior::Biased { p_taken } => (0, p_taken.to_bits()),
            BranchBehavior::Loop { trip_count } => (1, u64::from(trip_count)),
            BranchBehavior::Pattern { period, bits } => {
                (2, u64::from(period) << 32 | u64::from(bits))
            }
            BranchBehavior::DataDependent { p_taken } => (3, p_taken.to_bits()),
        }
    }

    /// Inverse of [`to_bits`](Self::to_bits).
    fn from_bits(tag: u8, payload: u64) -> Self {
        match tag {
            0 => BranchBehavior::Biased {
                p_taken: f64::from_bits(payload),
            },
            1 => BranchBehavior::Loop {
                trip_count: payload as u32,
            },
            2 => BranchBehavior::Pattern {
                period: (payload >> 32) as u8,
                bits: payload as u32,
            },
            _ => BranchBehavior::DataDependent {
                p_taken: f64::from_bits(payload),
            },
        }
    }
}

/// Control-flow successor information for a static basic block.
///
/// Indirect target lists borrow the layout's shared id pool, so a flow is a
/// small `Copy` value.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ControlFlow<'a> {
    /// Conditional branch: taken goes to `taken`, not-taken falls through to
    /// the next block in layout order.
    Conditional {
        /// Block executed when the branch is taken.
        taken: BlockId,
        /// Dynamic behaviour of the branch.
        behavior: BranchBehavior,
    },
    /// Unconditional direct jump.
    Jump {
        /// Jump target block.
        target: BlockId,
    },
    /// Indirect jump through a register (e.g. a switch statement).
    IndirectJump {
        /// Possible target blocks; chosen with uniform probability.
        targets: Ids<'a, BlockId>,
    },
    /// Direct call; control returns to the fall-through block afterwards.
    Call {
        /// Callee function.
        callee: FunctionId,
    },
    /// Indirect call (virtual dispatch, function pointers).
    IndirectCall {
        /// Possible callee functions; chosen with uniform probability.
        callees: Ids<'a, FunctionId>,
    },
    /// Return to the caller.
    Return,
}

impl ControlFlow<'_> {
    /// The [`BranchKind`] corresponding to this control flow.
    pub fn kind(&self) -> BranchKind {
        match self {
            ControlFlow::Conditional { .. } => BranchKind::Conditional,
            ControlFlow::Jump { .. } => BranchKind::DirectJump,
            ControlFlow::IndirectJump { .. } => BranchKind::IndirectJump,
            ControlFlow::Call { .. } => BranchKind::Call,
            ControlFlow::IndirectCall { .. } => BranchKind::IndirectCall,
            ControlFlow::Return => BranchKind::Return,
        }
    }
}

/// A list of block or function ids held in a layout's shared id pool: an
/// indirect jump's targets or an indirect call's callees.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Ids<'a, T> {
    raw: &'a [u32],
    id: PhantomData<fn() -> T>,
}

impl<'a, T: From<u32>> Ids<'a, T> {
    /// A list over raw ids.
    pub(crate) fn new(raw: &'a [u32]) -> Self {
        Ids {
            raw,
            id: PhantomData,
        }
    }

    /// Number of ids.
    pub fn len(&self) -> usize {
        self.raw.len()
    }

    /// `true` if the list holds no id.
    pub fn is_empty(&self) -> bool {
        self.raw.is_empty()
    }

    /// The id at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.len()`.
    pub fn get(&self, index: usize) -> T {
        T::from(self.raw[index])
    }

    /// The ids in stored order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = T> + 'a
    where
        T: 'a,
    {
        self.raw.iter().map(|&id| T::from(id))
    }
}

/// One static basic block together with its control-flow successor
/// information, assembled by value from a layout's tables.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct StaticBlock<'a> {
    /// Identifier of this block.
    pub id: BlockId,
    /// Address range and terminating branch.
    pub block: BasicBlock,
    /// Successor information.
    pub flow: ControlFlow<'a>,
}

impl StaticBlock<'_> {
    /// Start address of the block.
    pub fn start(&self) -> Addr {
        self.block.start
    }

    /// Address of the terminating branch instruction.
    pub fn branch_pc(&self) -> Addr {
        self.block.last_instruction()
    }

    /// The terminating branch description.
    ///
    /// # Panics
    ///
    /// Panics if the block has no terminator; layout generation always
    /// produces one.
    pub fn terminator(&self) -> BranchInfo {
        self.block
            .terminator
            .expect("generated blocks always have a terminator")
    }
}

/// A function: a contiguous run of basic blocks with a single entry.
///
/// A layout holds each function as one packed word (its block count and
/// hot flag) and assembles this view by value: the id is its position and
/// the first block is the sum of the block counts before it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Function {
    /// Identifier of this function.
    pub id: FunctionId,
    /// Entry block.
    pub entry: BlockId,
    /// Index of the first block (same as `entry`).
    pub first_block: u32,
    /// Number of blocks in the function.
    pub num_blocks: u32,
    /// Whether this function belongs to the "hot" set that call sites prefer.
    pub is_hot: bool,
}

impl Function {
    /// Iterator over the block ids of this function, in layout order.
    pub fn block_ids(&self) -> impl Iterator<Item = BlockId> {
        (self.first_block..self.first_block + self.num_blocks).map(BlockId)
    }
}

/// Summary statistics of a generated layout.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LayoutSummary {
    /// Number of functions.
    pub functions: usize,
    /// Number of basic blocks.
    pub blocks: usize,
    /// Total instructions.
    pub instructions: u64,
    /// Footprint in bytes.
    pub footprint_bytes: u64,
    /// Number of static conditional branches.
    pub conditional_branches: usize,
    /// Number of static unconditional branches (jumps, calls, returns).
    pub unconditional_branches: usize,
}

impl fmt::Display for LayoutSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} functions, {} blocks, {} instructions ({} KB)",
            self.functions,
            self.blocks,
            self.instructions,
            self.footprint_bytes / 1024
        )
    }
}

/// The synthetic text segment: functions, blocks, and indexes over them.
///
/// A layout is immutable once built, so each part of its tables (see the
/// module docs) lives behind one [`Arc`]: a clone is a pointer copy. A
/// [`Trace`](crate::Trace) keeps a handle on the simulation tables and
/// rebuilds its dynamic blocks from block ids through it.
#[derive(Clone, Debug)]
pub struct CodeLayout {
    tables: Arc<LayoutTables>,
    /// The control-flow tables: present on a freshly generated layout and
    /// its clones, absent from a handle made by
    /// [`without_control_flow`](Self::without_control_flow) and from a
    /// decoded layout.
    control: Option<Arc<ControlFlowTables>>,
}

/// The simulation tables of a [`CodeLayout`]: one entry per block in each
/// per-block column, in layout order.
#[derive(Debug)]
struct LayoutTables {
    profile: WorkloadProfile,
    geometry: LineGeometry,
    /// The packed record of each block.
    records: Box<[BlockRecord]>,
    /// The packed record of each function, in layout order.
    functions: Box<[FunctionRecord]>,
    lines: LineIndex,
    code_end: Addr,
}

/// The branch-per-line index as id ranges. Blocks are laid out
/// contiguously, so branch PCs are strictly increasing with the block id
/// and every cache line's branches form one contiguous id range: line
/// `first_line + l` holds the blocks `start(l) .. start(l + 1)`.
///
/// A start is held in two parts, so a line costs a little over two bytes
/// rather than four: a `u32` base for each group of `1 << group_shift`
/// lines (the first start of the group) and a `u16` offset from that base
/// for each line and for one past the last. A group spans at most 65,536
/// instructions, so no offset overflows.
#[derive(Debug)]
struct LineIndex {
    first_line: CacheLine,
    group_shift: u32,
    bases: Box<[u32]>,
    offsets: Box<[u16]>,
}

/// The most lines one [`LineIndex`] base covers: 64, for lines of up to
/// 1,024 instructions (4 KB).
const MAX_LINE_GROUP_SHIFT: u32 = 6;

impl LineIndex {
    /// Builds the index: one counting pass over the records (branch PCs
    /// are strictly increasing with the block id), then one pass over the
    /// lines that sums the counts into starts and splits each start into
    /// its group's base and an offset.
    fn build(geometry: LineGeometry, records: &[BlockRecord], code_end: Addr) -> Self {
        let first_line = geometry.line_of(CODE_BASE);
        let last_line = if code_end > CODE_BASE {
            geometry.line_of(Addr::new(code_end.raw() - 1))
        } else {
            first_line
        };
        let num_lines = (last_line.0 - first_line.0 + 1) as usize;
        // `counts[l + 1]` is the number of branches in line `l`.
        let mut counts = vec![0u32; num_lines + 1];
        for r in records {
            counts[(geometry.line_of(r.branch_pc()).0 - first_line.0) as usize + 1] += 1;
        }
        // A group of `1 << shift` lines holds at most `1 << 16` instructions,
        // and so at most that many branches.
        let line_shift = geometry.instructions_per_line().trailing_zeros();
        let group_shift = 16u32.saturating_sub(line_shift).min(MAX_LINE_GROUP_SHIFT);
        let mut bases = Vec::with_capacity((num_lines >> group_shift) + 1);
        let mut offsets = Vec::with_capacity(num_lines + 1);
        let (mut start, mut base) = (0, 0);
        for (l, count) in counts.into_iter().enumerate() {
            start += count;
            if l & ((1 << group_shift) - 1) == 0 {
                base = start;
                bases.push(base);
            }
            let offset = u16::try_from(start - base);
            offsets.push(offset.expect("a line group spans at most 2^16 branches"));
        }
        LineIndex {
            first_line,
            group_shift,
            bases: bases.into_boxed_slice(),
            offsets: offsets.into_boxed_slice(),
        }
    }

    /// The id of the first block whose branch lies in line `first_line + l`
    /// or later, if `l` is at most the number of lines.
    #[inline]
    fn start(&self, l: usize) -> Option<u32> {
        let offset = *self.offsets.get(l)?;
        Some(self.bases[l >> self.group_shift] + u32::from(offset))
    }

    /// The ids of the blocks whose branch lies in `line`; empty outside the
    /// text segment.
    #[inline]
    fn ids(&self, line: CacheLine) -> Range<u32> {
        let ids = |l: u64| Some(self.start(l as usize)?..self.start(l as usize + 1)?);
        line.0
            .checked_sub(self.first_line.0)
            .and_then(ids)
            .unwrap_or(0..0)
    }
}

/// The control-flow tables of a generated [`CodeLayout`]: what only trace
/// generation walks, one entry per block in each per-block column.
#[derive(Debug)]
struct ControlFlowTables {
    /// The flow's target id: a conditional's taken block, a jump's target
    /// block, a call's callee, the offset of an indirect branch's id list in
    /// `pool`, and 0 for a return.
    flow: Box<[u32]>,
    /// Each block's tag byte: a conditional's behaviour tag
    /// ([`BranchBehavior::to_bits`]) in the [`BEHAVIOR_TAG`] bits, and
    /// [`LAST_IN_FUNCTION`].
    tags: Box<[u8]>,
    /// A conditional's behaviour payload, 0 for every other kind.
    behavior: Box<[u64]>,
    /// The indirect branches' id lists, each its length followed by its ids:
    /// one arena instead of a heap allocation per indirect block.
    pool: Box<[u32]>,
    /// Each function's entry block, in function order: where a call lands.
    entries: Box<[u32]>,
    service_roots: Vec<FunctionId>,
    dispatcher: FunctionId,
}

/// The bits of a behaviour tag in [`ControlFlowTables::tags`].
const BEHAVIOR_TAG: u8 = 0b11;

/// Tag bit: the block is the last of its function (it has no fall-through
/// successor).
const LAST_IN_FUNCTION: u8 = 1 << 2;

/// Bits of a block record's start and target fields, each an instruction
/// offset from [`CODE_BASE`].
const OFFSET_BITS: u32 = 28;
/// Bits of a block record's size field: instructions, branch included.
const SIZE_BITS: u32 = 5;
const TARGET_SHIFT: u32 = OFFSET_BITS;
const SIZE_SHIFT: u32 = 2 * OFFSET_BITS;
const KIND_SHIFT: u32 = SIZE_SHIFT + SIZE_BITS;
const OFFSET_MASK: u64 = (1 << OFFSET_BITS) - 1;

/// The most instructions a layout's text segment holds (1 GiB of code): its
/// end, as an instruction offset from [`CODE_BASE`], fits the 28 bits a
/// block record gives a start or a target.
/// [`WorkloadProfile::validate`] bounds the most code a profile can lay
/// out by it, and the artifact decoder rejects a stored layout that ends
/// beyond it (`layout.code_end`).
pub const MAX_CODE_INSTRUCTIONS: u64 = OFFSET_MASK;

/// The most blocks the planner gives one function, and the most
/// instructions it can span.
pub(crate) const MAX_FUNCTION_BLOCKS: u64 = 96;
pub(crate) const MAX_FUNCTION_INSTRUCTIONS: u64 =
    MAX_FUNCTION_BLOCKS * MAX_BASIC_BLOCK_INSTRUCTIONS;
/// The most instructions of one dispatcher call block, and of the
/// dispatcher's closing jump.
pub(crate) const MAX_DISPATCH_CALL_INSTRUCTIONS: u64 = 8;
pub(crate) const MAX_DISPATCH_JUMP_INSTRUCTIONS: u64 = 4;

/// The kind stored in a record's top three bits: its index in
/// [`BranchKind::ALL`]. The two unused codes never occur; they pad the
/// table to eight entries so that decoding a kind needs no bounds check.
const KIND_OF_CODE: [BranchKind; 8] = [
    BranchKind::ALL[0],
    BranchKind::ALL[1],
    BranchKind::ALL[2],
    BranchKind::ALL[3],
    BranchKind::ALL[4],
    BranchKind::ALL[5],
    BranchKind::Return,
    BranchKind::Return,
];

const _: () = assert!(KIND_SHIFT + 3 == u64::BITS);
// A kind's discriminant is its index in `BranchKind::ALL`, its stored code.
const _: () = {
    let mut i = 0;
    while i < BranchKind::ALL.len() {
        assert!(BranchKind::ALL[i] as usize == i);
        i += 1;
    }
};
const _: () = assert!(MAX_BASIC_BLOCK_INSTRUCTIONS < 1 << SIZE_BITS);
const _: () = assert!(std::mem::size_of::<BlockRecord>() == 8);
const _: () = assert!(std::mem::size_of::<FunctionRecord>() == 4);

/// The packed record of one block: exactly what rebuilding its
/// [`BasicBlock`] reads, in one word, so a rebuild touches 8 bytes. The
/// basic-block BTB entry of the paper holds the same facts.
///
/// | bits | field |
/// |---|---|
/// | 0..28 | start, an instruction offset from [`CODE_BASE`] |
/// | 28..56 | direct-target start, the same way; 0 for indirect branches and returns |
/// | 56..61 | instructions, branch included (1..=31) |
/// | 61..64 | kind of the terminating branch, its index in [`BranchKind::ALL`] |
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct BlockRecord(u64);

impl BlockRecord {
    /// A record starting `offset` instructions past [`CODE_BASE`], with no
    /// target yet.
    fn new(offset: u64, size: u64, kind: BranchKind) -> Self {
        debug_assert!(offset <= OFFSET_MASK);
        debug_assert!((1..=MAX_BASIC_BLOCK_INSTRUCTIONS).contains(&size));
        BlockRecord(offset | size << SIZE_SHIFT | (kind as u64) << KIND_SHIFT)
    }

    /// This record pointing at the block that starts `offset` instructions
    /// past [`CODE_BASE`].
    fn with_target(self, offset: u64) -> Self {
        debug_assert!(offset <= OFFSET_MASK);
        let cleared = self.0 & !(OFFSET_MASK << TARGET_SHIFT);
        BlockRecord(cleared | offset << TARGET_SHIFT)
    }

    /// The start, as an instruction offset from [`CODE_BASE`].
    fn offset(self) -> u64 {
        self.0 & OFFSET_MASK
    }

    fn start(self) -> Addr {
        CODE_BASE.add_instructions(self.offset())
    }

    fn target(self) -> Addr {
        CODE_BASE.add_instructions(self.0 >> TARGET_SHIFT & OFFSET_MASK)
    }

    /// Instructions, including the terminating branch.
    fn size(self) -> u64 {
        self.0 >> SIZE_SHIFT & ((1 << SIZE_BITS) - 1)
    }

    fn kind(self) -> BranchKind {
        KIND_OF_CODE[(self.0 >> KIND_SHIFT) as usize]
    }

    fn branch_pc(self) -> Addr {
        self.start().add_instructions(self.size() - 1)
    }

    #[inline]
    fn basic_block(self) -> BasicBlock {
        let pc = self.branch_pc();
        let kind = self.kind();
        let terminator = if kind.target_is_indirect() {
            BranchInfo::indirect(pc, kind)
        } else {
            BranchInfo::direct(pc, kind, self.target())
        };
        BasicBlock {
            start: self.start(),
            instructions: self.size(),
            terminator: Some(terminator),
        }
    }
}

/// The packed record of one function: its block count, with the hot flag
/// in the top bit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct FunctionRecord(u32);

/// [`FunctionRecord`]'s hot flag.
const HOT: u32 = 1 << 31;

impl FunctionRecord {
    fn new(num_blocks: u32, is_hot: bool) -> Self {
        debug_assert!(num_blocks < HOT);
        FunctionRecord(num_blocks | if is_hot { HOT } else { 0 })
    }

    fn num_blocks(self) -> u32 {
        self.0 & !HOT
    }

    fn is_hot(self) -> bool {
        self.0 & HOT != 0
    }
}

/// The functions `records` hold, in layout order, each assembled with its
/// id and first block.
fn assemble_functions(
    records: &[FunctionRecord],
) -> impl ExactSizeIterator<Item = Function> + Clone + '_ {
    let mut first_block = 0;
    records.iter().enumerate().map(move |(id, f)| {
        let function = Function {
            id: FunctionId(id as u32),
            entry: BlockId(first_block),
            first_block,
            num_blocks: f.num_blocks(),
            is_hot: f.is_hot(),
        };
        first_block += f.num_blocks();
        function
    })
}

impl CodeLayout {
    /// `true` if `other` is a clone of this layout, or a handle on its
    /// simulation tables: both rebuild blocks from the same tables.
    pub fn shares_tables(&self, other: &CodeLayout) -> bool {
        Arc::ptr_eq(&self.tables, &other.tables)
    }

    /// A handle on this layout's simulation tables alone: what a trace and
    /// a held workload point keep. The control-flow tables are freed once
    /// no handle that has them is left.
    pub fn without_control_flow(&self) -> CodeLayout {
        CodeLayout {
            tables: Arc::clone(&self.tables),
            control: None,
        }
    }

    /// `true` if this handle holds the control-flow tables, which only
    /// [`CodeLayout::generate`]'s result and its clones do.
    pub fn has_control_flow(&self) -> bool {
        self.control.is_some()
    }

    /// The control-flow tables.
    ///
    /// # Panics
    ///
    /// Panics if this handle holds none (see
    /// [`has_control_flow`](Self::has_control_flow)).
    fn control(&self) -> &ControlFlowTables {
        self.control.as_deref().expect(
            "missing control-flow tables: only a freshly generated layout has them, \
             not a trace's, a held workload point's or a decoded one",
        )
    }

    /// Generates the layout for `profile` with 64-byte cache lines.
    ///
    /// Generation is deterministic: the same profile (including its seed)
    /// always produces the same layout.
    pub fn generate(profile: &WorkloadProfile) -> Self {
        Self::generate_with_geometry(profile, LineGeometry::default())
    }

    /// Generates the layout for `profile` using a specific cache-line
    /// geometry.
    ///
    /// # Panics
    ///
    /// Panics if the profile fails [`WorkloadProfile::validate`]. Callers
    /// accepting user-authored profiles (the campaign spec parser) validate
    /// at parse time, so a panic here indicates a programming error, and the
    /// message names the offending field.
    pub fn generate_with_geometry(profile: &WorkloadProfile, geometry: LineGeometry) -> Self {
        if let Err(e) = profile.validate() {
            panic!("invalid workload profile: {e}");
        }
        Builder::new(profile.clone(), geometry).build()
    }

    /// The profile this layout was generated from.
    pub fn profile(&self) -> &WorkloadProfile {
        &self.tables.profile
    }

    /// Cache-line geometry the layout was generated for.
    pub fn geometry(&self) -> LineGeometry {
        self.tables.geometry
    }

    /// Number of static blocks.
    pub fn num_blocks(&self) -> usize {
        self.tables.records.len()
    }

    /// All static blocks in layout (address) order, assembled one at a time.
    ///
    /// # Panics
    ///
    /// Panics if this handle holds no control-flow tables.
    pub fn blocks(&self) -> impl ExactSizeIterator<Item = StaticBlock<'_>> + '_ {
        (0..self.num_blocks() as u32).map(move |id| self.block(BlockId(id)))
    }

    /// The address range and terminating branch of every block, in layout
    /// order: the simulation tables' view of [`blocks`](Self::blocks).
    pub fn basic_blocks(&self) -> impl ExactSizeIterator<Item = BasicBlock> + Clone + '_ {
        self.tables.records.iter().map(|r| r.basic_block())
    }

    /// All functions in layout order, assembled one at a time from their
    /// packed records.
    pub fn functions(&self) -> impl ExactSizeIterator<Item = Function> + Clone + '_ {
        assemble_functions(&self.tables.functions)
    }

    /// The block with the given id: address range, terminator and flow.
    ///
    /// # Panics
    ///
    /// Panics if this handle holds no control-flow tables.
    pub fn block(&self, id: BlockId) -> StaticBlock<'_> {
        StaticBlock {
            id,
            block: self.basic_block(id),
            flow: self.flow(id),
        }
    }

    /// The address range and terminating branch of block `id`, read from its
    /// packed record alone: what rebuilding a dynamic block and predecoding
    /// a cache line need.
    #[inline]
    pub fn basic_block(&self, id: BlockId) -> BasicBlock {
        self.tables.records[id.0 as usize].basic_block()
    }

    /// The control flow of block `id`, read from the control-flow tables.
    pub(crate) fn flow(&self, id: BlockId) -> ControlFlow<'_> {
        let c = self.control();
        let i = id.0 as usize;
        let target = c.flow[i];
        match self.tables.records[i].kind() {
            BranchKind::Conditional => ControlFlow::Conditional {
                taken: BlockId(target),
                behavior: BranchBehavior::from_bits(c.tags[i] & BEHAVIOR_TAG, c.behavior[i]),
            },
            BranchKind::DirectJump => ControlFlow::Jump {
                target: BlockId(target),
            },
            BranchKind::IndirectJump => ControlFlow::IndirectJump {
                targets: c.pooled(target),
            },
            BranchKind::Call => ControlFlow::Call {
                callee: FunctionId(target),
            },
            BranchKind::IndirectCall => ControlFlow::IndirectCall {
                callees: c.pooled(target),
            },
            BranchKind::Return => ControlFlow::Return,
        }
    }

    /// The function with the given id. Its first block is read from the
    /// control-flow tables' entry column.
    ///
    /// # Panics
    ///
    /// Panics if this handle holds no control-flow tables.
    pub fn function(&self, id: FunctionId) -> Function {
        let i = id.0 as usize;
        let f = self.tables.functions[i];
        let first_block = self.control().entries[i];
        Function {
            id,
            entry: BlockId(first_block),
            first_block,
            num_blocks: f.num_blocks(),
            is_hot: f.is_hot(),
        }
    }

    /// The dispatcher function that drives the workload's service loop.
    ///
    /// # Panics
    ///
    /// Panics if this handle holds no control-flow tables.
    pub fn dispatcher(&self) -> FunctionId {
        self.control().dispatcher
    }

    /// The dispatcher's entry block: the point where trace generation starts
    /// and where control resumes when the call stack unwinds completely.
    ///
    /// # Panics
    ///
    /// Panics if this handle holds no control-flow tables.
    pub fn entry_block(&self) -> BlockId {
        let c = self.control();
        BlockId(c.entries[c.dispatcher.0 as usize])
    }

    /// The service-root functions the dispatcher cycles through.
    ///
    /// # Panics
    ///
    /// Panics if this handle holds no control-flow tables.
    pub fn service_roots(&self) -> &[FunctionId] {
        &self.control().service_roots
    }

    /// First byte address of the text segment.
    pub fn code_base(&self) -> Addr {
        CODE_BASE
    }

    /// One-past-the-end address of the text segment.
    pub fn code_end(&self) -> Addr {
        self.tables.code_end
    }

    /// The block that starts exactly at `addr`, if any.
    pub fn block_at(&self, addr: Addr) -> Option<BlockId> {
        // Blocks are sorted by start address, so a binary search replaces
        // the start-address hash map the layout used to build.
        let records = &self.tables.records;
        let idx = records.partition_point(|r| r.start() < addr);
        records
            .get(idx)
            .filter(|r| r.start() == addr)
            .map(|_| BlockId(idx as u32))
    }

    /// The block containing `addr`, if `addr` lies inside the text segment.
    pub fn block_containing(&self, addr: Addr) -> Option<BlockId> {
        if addr < CODE_BASE || addr >= self.tables.code_end {
            return None;
        }
        let records = &self.tables.records;
        let idx = records
            .partition_point(|r| r.start() <= addr)
            .checked_sub(1)?;
        records[idx]
            .basic_block()
            .contains(addr)
            .then_some(BlockId(idx as u32))
    }

    /// The first block whose terminating branch lies at or after `addr`.
    ///
    /// This is what a hardware predecoder effectively computes when it scans
    /// forward from a fetch address looking for the next branch. Branch PCs
    /// are strictly increasing with the block id, so the line index answers
    /// this in O(1): scan the (few) branches of `addr`'s own cache line,
    /// then fall through to the first branch of any later line — no binary
    /// search over the block table (Boomerang pays this on every BTB-miss
    /// probe).
    pub fn next_branch_at_or_after(&self, addr: Addr) -> Option<BlockId> {
        if addr >= self.tables.code_end {
            return None;
        }
        if addr < CODE_BASE {
            return Some(BlockId(0));
        }
        let in_line = self.branches_in_line(self.tables.geometry.line_of(addr));
        // No branch at or after `addr` in its own line: the next branch is
        // the first one of any later line, which is exactly where this
        // line's id range ends.
        let next = in_line.end;
        for id in in_line {
            if self.tables.records[id as usize].branch_pc() >= addr {
                return Some(BlockId(id));
            }
        }
        ((next as usize) < self.num_blocks()).then_some(BlockId(next))
    }

    /// The ids of the blocks whose terminating branch instruction lies in
    /// `line`, in address order. Used by the predecoder to extract branches
    /// from a fetched cache block (Boomerang and Confluence BTB prefill).
    pub fn branches_in_line(&self, line: CacheLine) -> Range<u32> {
        self.tables.lines.ids(line)
    }

    /// The fall-through successor of `id`: the next block in layout order
    /// within the same function, if any. Only trace generation follows it,
    /// so whether a block ends its function is a control-flow bit.
    ///
    /// # Panics
    ///
    /// Panics if this handle holds no control-flow tables.
    pub fn fall_through(&self, id: BlockId) -> Option<BlockId> {
        let last = self.control().tags[id.0 as usize] & LAST_IN_FUNCTION != 0;
        (!last).then_some(BlockId(id.0 + 1))
    }

    /// Summary statistics.
    pub fn summary(&self) -> LayoutSummary {
        let records = &self.tables.records;
        let instructions: u64 = records.iter().map(|r| r.size()).sum();
        let conditional = records
            .iter()
            .filter(|r| r.kind() == BranchKind::Conditional)
            .count();
        LayoutSummary {
            functions: self.tables.functions.len(),
            blocks: records.len(),
            instructions,
            footprint_bytes: self.tables.code_end.raw() - CODE_BASE.raw(),
            conditional_branches: conditional,
            unconditional_branches: records.len() - conditional,
        }
    }
}

impl ControlFlowTables {
    /// The id list stored at `offset` in the pool.
    fn pooled<T: From<u32>>(&self, offset: u32) -> Ids<'_, T> {
        let at = offset as usize + 1;
        Ids::new(&self.pool[at..at + self.pool[at - 1] as usize])
    }
}

/// The simulation tables of a layout under construction, in their packed
/// form, appended in layout order. Generation pushes every function's and
/// block's record, then resolves the direct targets once every block's flow
/// is drawn; the artifact decoder pushes the records of its validated
/// columns. Both set the targets with [`set_targets`](Self::set_targets)
/// and end in [`finish`](Self::finish).
pub(crate) struct Columns {
    records: Vec<BlockRecord>,
    functions: Vec<FunctionRecord>,
    /// Where the next block starts: an instruction offset from
    /// [`CODE_BASE`].
    end: u64,
}

impl Columns {
    /// Empty tables with room for `blocks` blocks and `functions`
    /// functions.
    pub(crate) fn with_capacity(blocks: usize, functions: usize) -> Self {
        Columns {
            records: Vec::with_capacity(blocks),
            functions: Vec::with_capacity(functions),
            end: 0,
        }
    }

    /// Number of block records pushed.
    pub(crate) fn len(&self) -> usize {
        self.records.len()
    }

    /// Lays out the next block: `size` instructions where the last one
    /// ended, ending in a `kind` branch.
    ///
    /// # Panics
    ///
    /// Panics if the block ends beyond [`MAX_CODE_INSTRUCTIONS`]: a valid
    /// profile never lays out that much code, and the decoder checks a
    /// stored layout's end first.
    pub(crate) fn push_record(&mut self, size: u64, kind: BranchKind) {
        self.extend_records(std::iter::once((size, kind)));
    }

    /// Lays out the next blocks, each `(size, kind)` as
    /// [`push_record`](Self::push_record) does: one bulk append, which is
    /// how the decoder writes its validated columns.
    ///
    /// # Panics
    ///
    /// Panics as [`push_record`](Self::push_record) does.
    pub(crate) fn extend_records(&mut self, blocks: impl Iterator<Item = (u64, BranchKind)>) {
        let mut end = self.end;
        self.records.extend(blocks.map(|(size, kind)| {
            let record = BlockRecord::new(end, size, kind);
            end += size;
            record
        }));
        assert!(
            end <= MAX_CODE_INSTRUCTIONS,
            "the text segment ends within {MAX_CODE_INSTRUCTIONS} instructions"
        );
        self.end = end;
    }

    /// Closes the next function: the `num_blocks` blocks pushed since the
    /// last one closed.
    pub(crate) fn push_function(&mut self, num_blocks: u32, is_hot: bool) {
        self.functions.push(FunctionRecord::new(num_blocks, is_hot));
    }

    /// The functions closed so far, in layout order.
    fn functions(&self) -> impl ExactSizeIterator<Item = Function> + Clone + '_ {
        assemble_functions(&self.functions)
    }

    /// Points each direct branch (a conditional, a jump or a call) at the
    /// start of the block `target(idx, kind)` names: a gather over the start
    /// column, since a forward target is laid out after its branch.
    /// `target` is called once per direct branch, in block order, and must
    /// return a block's id.
    pub(crate) fn set_targets(&mut self, mut target: impl FnMut(usize, BranchKind) -> u32) {
        for idx in 0..self.records.len() {
            let record = self.records[idx];
            let kind = record.kind();
            if !kind.target_is_indirect() {
                let id = target(idx, kind) as usize;
                self.records[idx] = record.with_target(self.records[id].offset());
            }
        }
    }

    /// The finished layout's simulation tables, with no control-flow tables:
    /// builds the line index.
    pub(crate) fn finish(self, profile: WorkloadProfile, geometry: LineGeometry) -> CodeLayout {
        let code_end = CODE_BASE.add_instructions(self.end);
        let lines = LineIndex::build(geometry, &self.records, code_end);
        CodeLayout {
            tables: Arc::new(LayoutTables {
                profile,
                geometry,
                records: self.records.into_boxed_slice(),
                functions: self.functions.into_boxed_slice(),
                lines,
                code_end,
            }),
            control: None,
        }
    }
}

/// The control-flow tables of a layout under construction: generation
/// stores each block's flow as it is drawn, in layout order.
struct FlowColumns {
    flow: Vec<u32>,
    tags: Vec<u8>,
    behavior: Vec<u64>,
    pool: Vec<u32>,
}

impl FlowColumns {
    fn with_capacity(blocks: usize) -> Self {
        FlowColumns {
            flow: Vec::with_capacity(blocks),
            tags: Vec::with_capacity(blocks),
            behavior: Vec::with_capacity(blocks),
            pool: Vec::new(),
        }
    }

    /// Stores the control flow of the next block; `last` marks the last
    /// block of its function.
    fn push(&mut self, flow: ControlFlow<'_>, last: bool) {
        let (target, (tag, payload)) = match flow {
            ControlFlow::Conditional { taken, behavior } => (taken.0, behavior.to_bits()),
            ControlFlow::Jump { target } => (target.0, (0, 0)),
            ControlFlow::IndirectJump { targets } => (self.push_list(targets.raw), (0, 0)),
            ControlFlow::Call { callee } => (callee.0, (0, 0)),
            ControlFlow::IndirectCall { callees } => (self.push_list(callees.raw), (0, 0)),
            ControlFlow::Return => (0, (0, 0)),
        };
        self.flow.push(target);
        self.tags
            .push(if last { tag | LAST_IN_FUNCTION } else { tag });
        self.behavior.push(payload);
    }

    /// Appends an id list to the pool and returns its offset.
    fn push_list(&mut self, ids: &[u32]) -> u32 {
        let offset = u32::try_from(self.pool.len()).expect("the id pool stays below 4 Gi entries");
        self.pool.push(ids.len() as u32);
        self.pool.extend_from_slice(ids);
        offset
    }

    fn finish(
        self,
        entries: Vec<u32>,
        service_roots: Vec<FunctionId>,
        dispatcher: FunctionId,
    ) -> ControlFlowTables {
        ControlFlowTables {
            flow: self.flow.into_boxed_slice(),
            tags: self.tags.into_boxed_slice(),
            behavior: self.behavior.into_boxed_slice(),
            pool: self.pool.into_boxed_slice(),
            entries: entries.into_boxed_slice(),
            service_roots,
            dispatcher,
        }
    }
}

/// Internal layout builder.
struct Builder {
    profile: WorkloadProfile,
    geometry: LineGeometry,
    rng: SimRng,
}

/// Layer a function belongs to in the synthetic software stack.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Role {
    /// The request loop (function 0).
    Dispatcher,
    /// Request-handling code owned by one service root.
    Service(u32),
    /// Shared leaf-like helper code callable from every service.
    Utility,
}

/// Output of the planning pass: every block's and function's record, no
/// flows yet.
struct Plan {
    columns: Columns,
    /// Each function's entry block, in function order.
    entries: Vec<u32>,
    roles: Vec<Role>,
    service_roots: Vec<FunctionId>,
}

impl Builder {
    fn new(profile: WorkloadProfile, geometry: LineGeometry) -> Self {
        let rng = SimRng::seeded(profile.seed ^ 0xc0de_1a0f_f00d_0001);
        Builder {
            profile,
            geometry,
            rng,
        }
    }

    fn build(mut self) -> CodeLayout {
        let Plan {
            mut columns,
            entries,
            roles,
            service_roots,
        } = self.plan_blocks();
        let utilities: Vec<FunctionId> = (0..)
            .zip(&roles)
            .filter(|&(_, &role)| role == Role::Utility)
            .map(|(id, _)| FunctionId(id))
            .collect();
        let flows = self.draw_flows(&columns, &entries, &roles, &service_roots, &utilities);
        // A call's target is its callee's entry block.
        columns.set_targets(|idx, kind| match kind {
            BranchKind::Call => entries[flows.flow[idx] as usize],
            _ => flows.flow[idx],
        });
        let layout = columns.finish(self.profile, self.geometry);
        let control = flows.finish(entries, service_roots, FunctionId(0));
        CodeLayout {
            control: Some(Arc::new(control)),
            ..layout
        }
    }

    /// First pass: decide the function/block structure, sizes, addresses and
    /// terminator kinds, but not targets.
    ///
    /// The text segment is organised the way a layered server stack is:
    ///
    /// * function 0 is the *dispatcher* (request loop),
    /// * each service root owns a contiguous group of *service* functions —
    ///   the code one request type exercises,
    /// * the tail of the layout is a shared *utility* layer (allocator,
    ///   libc-like helpers) that every service calls into.
    fn plan_blocks(&mut self) -> Plan {
        let target_instructions = self.profile.footprint_bytes / sim_core::INSTRUCTION_BYTES;
        let num_roots = self.profile.service_roots;
        // A valid profile leaves every root's subtree at least
        // `MIN_SUBTREE_INSTRUCTIONS`, so the layout does not overshoot the
        // footprint to make room for it.
        let per_subtree_instructions = self
            .profile
            .subtree_instructions(self.profile.footprint_bytes);

        // Pre-size from the profile's means (with ~15% headroom): a
        // multi-megabyte layout plans hundreds of thousands of blocks, and
        // growth reallocations were a visible slice of generation time.
        let est_blocks = (target_instructions as f64
            / self.profile.mean_block_instructions.max(1.0)
            * 1.15) as usize
            + 64;
        let est_functions =
            (est_blocks as f64 / self.profile.mean_function_blocks.max(2.0) * 1.3) as usize + 16;
        let mut columns = Columns::with_capacity(est_blocks, est_functions);
        let mut entries: Vec<u32> = Vec::with_capacity(est_functions);
        let mut roles: Vec<Role> = Vec::with_capacity(est_functions);
        let mut service_roots: Vec<FunctionId> = Vec::with_capacity(num_roots);
        let mut total_instructions: u64 = 0;

        // Function 0: the dispatcher. One call block per service root plus a
        // jump back to the entry, modelling the server's request loop.
        {
            for _ in 0..num_roots {
                let len = self.rng.geometric(3.0, MAX_DISPATCH_CALL_INSTRUCTIONS);
                columns.push_record(len, BranchKind::Call);
                total_instructions += len;
            }
            let len = self.rng.geometric(2.0, MAX_DISPATCH_JUMP_INSTRUCTIONS);
            columns.push_record(len, BranchKind::DirectJump);
            total_instructions += len;
            columns.push_function(num_roots as u32 + 1, true);
            entries.push(0);
            roles.push(Role::Dispatcher);
        }

        // Service subtrees: one contiguous group of functions per root.
        for subtree in 0..num_roots as u32 {
            let budget_end = total_instructions + per_subtree_instructions;
            let mut first_of_subtree = true;
            while total_instructions < budget_end {
                if first_of_subtree {
                    service_roots.push(FunctionId(roles.len() as u32));
                    first_of_subtree = false;
                }
                total_instructions +=
                    self.plan_function(Role::Service(subtree), &mut columns, &mut entries);
                roles.push(Role::Service(subtree));
            }
        }

        // Shared utility layer at the end of the layout.
        while total_instructions < target_instructions {
            total_instructions += self.plan_function(Role::Utility, &mut columns, &mut entries);
            roles.push(Role::Utility);
        }
        // Guarantee the utility layer exists even for tiny footprints, so
        // every service call site always has a valid lower layer to call.
        if !roles.contains(&Role::Utility) {
            self.plan_function(Role::Utility, &mut columns, &mut entries);
            roles.push(Role::Utility);
        }

        Plan {
            columns,
            entries,
            roles,
            service_roots,
        }
    }

    /// Plans one function's blocks and records its entry in `entries`;
    /// returns the instructions it occupies.
    fn plan_function(&mut self, role: Role, columns: &mut Columns, entries: &mut Vec<u32>) -> u64 {
        // Utility functions are leaf-like helpers: shorter and call-free, so
        // the layered call graph terminates there.
        let (mean_blocks, allow_calls) = match role {
            Role::Utility => (self.profile.mean_function_blocks * 0.6, false),
            _ => (self.profile.mean_function_blocks, true),
        };
        let num_blocks = self.rng.geometric(mean_blocks, MAX_FUNCTION_BLOCKS).max(2) as u32;
        let first_block = columns.len() as u32;
        let mut instructions = 0;

        for i in 0..num_blocks {
            let len = self
                .rng
                .geometric(
                    self.profile.mean_block_instructions,
                    MAX_BASIC_BLOCK_INSTRUCTIONS,
                )
                .max(1);
            let kind = if i == num_blocks - 1 {
                BranchKind::Return
            } else {
                self.draw_terminator_kind(allow_calls)
            };
            columns.push_record(len, kind);
            instructions += len;
        }

        columns.push_function(num_blocks, role == Role::Utility);
        entries.push(first_block);
        instructions
    }

    fn draw_terminator_kind(&mut self, allow_calls: bool) -> BranchKind {
        let t = &self.profile.terminators;
        let weights = [
            if allow_calls { t.call } else { 0.0 },
            if allow_calls { t.indirect_call } else { 0.0 },
            t.jump,
            t.indirect_jump,
            t.early_return,
            t.conditional()
                + if allow_calls {
                    0.0
                } else {
                    t.call + t.indirect_call
                },
        ];
        match self.rng.weighted_index(&weights) {
            0 => BranchKind::Call,
            1 => BranchKind::IndirectCall,
            2 => BranchKind::DirectJump,
            3 => BranchKind::IndirectJump,
            4 => BranchKind::Return,
            _ => BranchKind::Conditional,
        }
    }

    /// Second pass: assign targets and behaviours now that every block and
    /// function exists, storing each block's flow as it is drawn. The draw
    /// sequence — every RNG draw of this pass, in layout order — is the
    /// contract that keeps generation byte-identical for a fixed seed.
    fn draw_flows(
        &mut self,
        columns: &Columns,
        entries: &[u32],
        roles: &[Role],
        service_roots: &[FunctionId],
        utilities: &[FunctionId],
    ) -> FlowColumns {
        let mut flows = FlowColumns::with_capacity(columns.len());
        let mut dispatcher_call_index = 0usize;
        // One reusable buffer for an indirect branch's drawn ids, which the
        // columns copy into their pool.
        let mut ids: Vec<u32> = Vec::new();
        for func in columns.functions() {
            let role = roles[func.id.0 as usize];
            let last = func.first_block + func.num_blocks - 1;
            for id in func.block_ids() {
                let idx = id.0 as usize;
                ids.clear();
                let flow = match columns.records[idx].kind() {
                    BranchKind::Return => ControlFlow::Return,
                    BranchKind::Call if role == Role::Dispatcher => {
                        // The dispatcher's call sites cycle through the
                        // service roots; this is what sweeps the instruction
                        // working set the way a stream of distinct server
                        // requests does.
                        let callee = service_roots[dispatcher_call_index % service_roots.len()];
                        dispatcher_call_index += 1;
                        ControlFlow::Call { callee }
                    }
                    BranchKind::Call => ControlFlow::Call {
                        callee: self.pick_callee(func.id, role, roles, utilities),
                    },
                    BranchKind::IndirectCall => {
                        let n = 2 + self.rng.index(3);
                        for _ in 0..n {
                            ids.push(self.pick_callee(func.id, role, roles, utilities).0);
                        }
                        ControlFlow::IndirectCall {
                            callees: Ids::new(&ids),
                        }
                    }
                    BranchKind::DirectJump => {
                        let target = if role == Role::Dispatcher {
                            // The dispatcher's closing jump loops back to its
                            // entry.
                            func.entry
                        } else if role != Role::Utility && self.rng.chance(0.10) {
                            // Tail call: jump to a lower layer's entry.
                            let callee = self.pick_callee(func.id, role, roles, utilities);
                            BlockId(entries[callee.0 as usize])
                        } else {
                            // Intra-function jumps are strictly forward so
                            // that a chain of unconditional jumps can never
                            // form a cycle the trace generator could not
                            // leave.
                            self.pick_forward_target(&func, idx)
                        };
                        ControlFlow::Jump { target }
                    }
                    BranchKind::IndirectJump => {
                        // Like direct jumps, indirect jump targets (switch
                        // arms) are strictly forward so that unconditional
                        // control flow alone can never form a cycle.
                        let n = 2 + self.rng.index(5);
                        for _ in 0..n {
                            ids.push(self.pick_forward_target(&func, idx).0);
                        }
                        ControlFlow::IndirectJump {
                            targets: Ids::new(&ids),
                        }
                    }
                    BranchKind::Conditional => {
                        let behavior = self.draw_conditional_behavior();
                        let backward = matches!(behavior, BranchBehavior::Loop { .. })
                            || self.rng.chance(self.profile.cond_backward_fraction);
                        // A strongly taken-biased *backward* conditional is
                        // an implicit unbounded loop; real code bounds its
                        // loops, so backward biased branches are made
                        // not-taken-biased and explicit looping is left to
                        // `BranchBehavior::Loop`.
                        let behavior = match behavior {
                            BranchBehavior::Biased { p_taken } if backward && p_taken > 0.3 => {
                                BranchBehavior::Biased {
                                    p_taken: (1.0 - p_taken).clamp(0.02, 0.3),
                                }
                            }
                            other => other,
                        };
                        let taken =
                            self.pick_conditional_target(&columns.records, &func, idx, backward);
                        ControlFlow::Conditional { taken, behavior }
                    }
                };
                flows.push(flow, id.0 == last);
            }
        }
        flows
    }

    /// Picks a callee for a call site in `caller`.
    ///
    /// The synthetic call graph is layered and acyclic: a service function
    /// calls either a deeper function of its *own* service subtree (strictly
    /// larger id) or a shared utility function; utility functions do not call
    /// at all. The acyclic structure keeps the dynamic call depth naturally
    /// bounded the way layered server stacks are, without recursion traps.
    fn pick_callee(
        &mut self,
        caller: FunctionId,
        role: Role,
        roles: &[Role],
        utilities: &[FunctionId],
    ) -> FunctionId {
        debug_assert!(!utilities.is_empty(), "the utility layer is never empty");
        fn pick_utility(rng: &mut SimRng, utilities: &[FunctionId]) -> FunctionId {
            utilities[rng.index(utilities.len())]
        }
        match role {
            Role::Dispatcher | Role::Utility => pick_utility(&mut self.rng, utilities),
            Role::Service(subtree) => {
                if self.rng.chance(self.profile.hot_callee_fraction) {
                    return pick_utility(&mut self.rng, utilities);
                }
                // Deeper functions of the same subtree have strictly larger
                // ids and are contiguous in the layout.
                let lo = caller.0 as usize + 1;
                let mut end = lo;
                while end < roles.len() && roles[end] == Role::Service(subtree) {
                    end += 1;
                }
                if lo < end {
                    FunctionId(self.rng.range_u64(lo as u64, end as u64) as u32)
                } else {
                    pick_utility(&mut self.rng, utilities)
                }
            }
        }
    }

    /// Picks a strictly-forward target block within the same function,
    /// skipping a geometrically distributed number of blocks.
    fn pick_forward_target(&mut self, func: &Function, from_idx: usize) -> BlockId {
        let last = (func.first_block + func.num_blocks - 1) as usize;
        debug_assert!(
            from_idx < last,
            "forward jumps cannot originate from the last block"
        );
        let remaining = (last - from_idx) as u64;
        let skip = self.rng.geometric(3.0, remaining.max(1));
        BlockId((from_idx as u64 + skip) as u32)
    }

    fn pick_conditional_target(
        &mut self,
        records: &[BlockRecord],
        func: &Function,
        from_idx: usize,
        backward: bool,
    ) -> BlockId {
        // Figure 4: ~92 % of taken conditional branches land within four
        // cache blocks; the geometric draw (mean ~1.5-1.9 lines) produces
        // that head, and the explicit far-target tail produces the rest.
        let distance_lines = if self.rng.chance(0.05) {
            4 + self.rng.range_u64(1, 24)
        } else {
            self.rng.geometric(self.profile.cond_target_mean_lines, 8) - 1
        };
        self.block_near(records, func, from_idx, distance_lines, backward)
    }

    /// Finds a block of `func` whose start address is roughly `distance_lines`
    /// cache lines away from the terminator of block `from_idx`, in the given
    /// direction. Falls back to the nearest valid block of the function.
    fn block_near(
        &mut self,
        records: &[BlockRecord],
        func: &Function,
        from_idx: usize,
        distance_lines: u64,
        backward: bool,
    ) -> BlockId {
        let from_pc = records[from_idx].branch_pc();
        let line_bytes = self.geometry.line_bytes();
        let offset = distance_lines * line_bytes + self.rng.range_u64(0, line_bytes);
        let desired = if backward {
            Addr::new(from_pc.raw().saturating_sub(offset))
        } else {
            from_pc.offset(offset)
        };

        let first = func.first_block as usize;
        let last = (func.first_block + func.num_blocks - 1) as usize;
        // The block of this function whose start is closest to the desired
        // address is the first one at or after it, or the one before.
        let lo = first + records[first..last].partition_point(|r| r.start() < desired);
        let candidates = [lo.saturating_sub(1).max(first), lo.min(last)];
        let best = candidates
            .iter()
            .copied()
            .min_by_key(|&i| records[i].start().distance(desired))
            .unwrap_or(first);
        // Avoid a self-loop where a conditional branch targets its own block
        // start with zero distance unless it genuinely is a tight loop.
        if best == from_idx && func.num_blocks > 1 {
            if best > first {
                return BlockId((best - 1) as u32);
            }
            return BlockId((best + 1) as u32);
        }
        BlockId(best as u32)
    }

    fn draw_conditional_behavior(&mut self) -> BranchBehavior {
        let mix = &self.profile.conditionals;
        let weights = [
            mix.loop_backedge,
            mix.pattern,
            mix.data_dependent,
            mix.biased(),
        ];
        match self.rng.weighted_index(&weights) {
            0 => {
                let trips = 2 + self.rng.geometric(mix.mean_trip_count.max(2.0) - 1.0, 24) as u32;
                BranchBehavior::Loop { trip_count: trips }
            }
            1 => {
                let period = 2 + self.rng.index(7) as u8;
                let bits = self.rng.range_u64(1, (1 << period) - 1) as u32;
                BranchBehavior::Pattern { period, bits }
            }
            2 => BranchBehavior::DataDependent {
                p_taken: 0.35 + 0.3 * self.rng.unit(),
            },
            _ => {
                // Biased branches: slightly more are not-taken-biased, which
                // is what dominates real code (error paths, assertions).
                let strong = mix.bias_mean + 0.12 * self.rng.unit();
                let p_taken = if self.rng.chance(0.45) {
                    strong.min(0.98)
                } else {
                    (1.0 - strong).max(0.02)
                };
                BranchBehavior::Biased { p_taken }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::{WorkloadKind, WorkloadProfile};

    fn tiny_layout() -> CodeLayout {
        CodeLayout::generate(&WorkloadProfile::tiny(7))
    }

    /// The function block `id` belongs to.
    fn owner(layout: &CodeLayout, id: BlockId) -> FunctionId {
        let after = layout.functions().filter(|f| f.first_block <= id.0);
        FunctionId(after.count() as u32 - 1)
    }

    #[test]
    fn generation_is_deterministic() {
        let a = CodeLayout::generate(&WorkloadProfile::tiny(3));
        let b = CodeLayout::generate(&WorkloadProfile::tiny(3));
        assert_eq!(a.summary(), b.summary());
        assert!(a.blocks().eq(b.blocks()));
    }

    #[test]
    fn different_seeds_differ() {
        let a = CodeLayout::generate(&WorkloadProfile::tiny(3));
        let b = CodeLayout::generate(&WorkloadProfile::tiny(4));
        assert!(!a.blocks().eq(b.blocks()));
    }

    #[test]
    fn footprint_close_to_target() {
        let profile = WorkloadProfile::tiny(11);
        let layout = CodeLayout::generate(&profile);
        let summary = layout.summary();
        let target = profile.footprint_bytes;
        assert!(summary.footprint_bytes >= target);
        assert!(
            summary.footprint_bytes < target + 64 * 1024,
            "footprint {} overshoots target {target}",
            summary.footprint_bytes
        );
        assert_eq!(
            summary.footprint_bytes,
            layout.code_end().raw() - layout.code_base().raw()
        );
    }

    #[test]
    fn blocks_are_contiguous_and_sorted() {
        let layout = tiny_layout();
        let mut expected = CODE_BASE;
        for b in layout.blocks() {
            assert_eq!(
                b.block.start, expected,
                "blocks must be laid out contiguously"
            );
            expected = b.block.fall_through();
        }
        assert_eq!(expected, layout.code_end());
    }

    #[test]
    fn every_block_terminates_in_a_branch_consistent_with_flow() {
        let layout = tiny_layout();
        for b in layout.blocks() {
            let term = b.terminator();
            assert_eq!(term.kind, b.flow.kind());
            assert_eq!(term.pc, b.branch_pc());
            match b.flow {
                ControlFlow::Conditional { taken, .. } => {
                    assert_eq!(term.target, Some(layout.block(taken).start()));
                }
                ControlFlow::Jump { target } => {
                    assert_eq!(term.target, Some(layout.block(target).start()));
                }
                ControlFlow::Call { callee } => {
                    let entry = layout.function(callee).entry;
                    assert_eq!(term.target, Some(layout.block(entry).start()));
                }
                ControlFlow::IndirectJump { targets } => {
                    assert!(term.target.is_none());
                    assert!(!targets.is_empty());
                }
                ControlFlow::IndirectCall { callees } => {
                    assert!(term.target.is_none());
                    assert!(!callees.is_empty());
                }
                ControlFlow::Return => assert!(term.target.is_none()),
            }
        }
    }

    #[test]
    fn conditional_and_call_blocks_have_fall_through() {
        let layout = tiny_layout();
        for b in layout.blocks() {
            match b.flow {
                ControlFlow::Conditional { .. }
                | ControlFlow::Call { .. }
                | ControlFlow::IndirectCall { .. } => {
                    let ft = layout.fall_through(b.id);
                    assert!(
                        ft.is_some(),
                        "block {:?} of kind {:?} must have a fall-through successor",
                        b.id,
                        b.flow.kind()
                    );
                    let ft = layout.block(ft.unwrap());
                    assert_eq!(ft.start(), b.block.fall_through());
                    assert_eq!(owner(&layout, ft.id), owner(&layout, b.id));
                }
                _ => {}
            }
        }
    }

    #[test]
    fn last_block_of_every_function_returns_or_jumps() {
        let layout = tiny_layout();
        for f in layout.functions() {
            let last = BlockId(f.first_block + f.num_blocks - 1);
            let kind = layout.block(last).flow.kind();
            assert!(
                matches!(kind, BranchKind::Return | BranchKind::DirectJump),
                "function {:?} ends in {kind}",
                f.id
            );
        }
    }

    #[test]
    fn block_lookup_by_address() {
        let layout = tiny_layout();
        for b in layout.blocks().step_by(7) {
            assert_eq!(layout.block_at(b.start()), Some(b.id));
            assert_eq!(layout.block_containing(b.start()), Some(b.id));
            assert_eq!(layout.block_containing(b.branch_pc()), Some(b.id));
            if b.block.instructions > 1 {
                assert_eq!(
                    layout.block_containing(b.start().add_instructions(1)),
                    Some(b.id)
                );
            }
        }
        assert_eq!(layout.block_containing(Addr::new(0)), None);
        assert_eq!(layout.block_containing(layout.code_end()), None);
    }

    #[test]
    fn next_branch_lookup_walks_forward() {
        let layout = tiny_layout();
        let first = layout.block(BlockId(0));
        assert_eq!(
            layout.next_branch_at_or_after(first.start()),
            Some(first.id)
        );
        // Just past the first block's branch, the next branch is block 1's.
        let after = first.branch_pc().add_instructions(1);
        assert_eq!(layout.next_branch_at_or_after(after), Some(BlockId(1)));
        assert_eq!(layout.next_branch_at_or_after(layout.code_end()), None);
    }

    #[test]
    fn branches_by_line_index_is_complete_and_sorted() {
        let layout = tiny_layout();
        let geom = layout.geometry();
        let mut total = 0;
        for b in layout.blocks() {
            let line = geom.line_of(b.branch_pc());
            assert!(
                layout.branches_in_line(line).contains(&b.id.0),
                "branch of block {:?} missing from line index",
                b.id
            );
        }
        // Every indexed branch really lives in that line, in address order.
        let mut line_ids: Vec<_> = layout
            .blocks()
            .map(|b| geom.line_of(b.branch_pc()))
            .collect();
        line_ids.sort_unstable();
        line_ids.dedup();
        for line in line_ids {
            let ids = layout.branches_in_line(line);
            total += ids.len();
            let mut prev = None;
            for id in ids {
                let pc = layout.block(BlockId(id)).branch_pc();
                assert_eq!(geom.line_of(pc), line);
                if let Some(p) = prev {
                    assert!(pc > p, "line index must be sorted by branch pc");
                }
                prev = Some(pc);
            }
        }
        assert_eq!(total, layout.blocks().len());
        assert!(layout.branches_in_line(CacheLine(1)).is_empty());
    }

    /// The two-part line index answers every line exactly, whatever lines
    /// its groups span: 64 lines of 4 or 16 instructions, 32 lines of 2,048
    /// instructions, or one line alone when a line holds more than 2^16.
    #[test]
    fn line_index_is_exact_for_every_line_size() {
        let profile = WorkloadProfile::tiny(9).with_footprint_bytes(96 * 1024);
        for (line_bytes, group_shift) in [(16, 6), (64, 6), (8192, 5), (1 << 20, 0)] {
            let geometry = LineGeometry::new(line_bytes);
            let layout = CodeLayout::generate_with_geometry(&profile, geometry);
            assert_eq!(layout.tables.lines.group_shift, group_shift, "{line_bytes}");
            let first = geometry.line_of(CODE_BASE).0;
            let last = geometry.line_of(layout.code_end()).0;
            for line in (first.saturating_sub(2)..last + 3).map(CacheLine) {
                let expected: Vec<u32> = (0..layout.num_blocks() as u32)
                    .filter(|&id| {
                        geometry.line_of(layout.basic_block(BlockId(id)).last_instruction()) == line
                    })
                    .collect();
                let ids: Vec<u32> = layout.branches_in_line(line).collect();
                assert_eq!(ids, expected, "{line_bytes}-byte line {line:?}");
            }
        }
    }

    #[test]
    fn dispatcher_calls_service_roots_and_loops() {
        let layout = tiny_layout();
        let dispatcher = layout.function(layout.dispatcher());
        assert!(dispatcher.is_hot);
        assert!(!layout.service_roots().is_empty());
        let ids: Vec<_> = dispatcher.block_ids().collect();
        let last = layout.block(*ids.last().unwrap());
        match last.flow {
            ControlFlow::Jump { target } => assert_eq!(target, dispatcher.entry),
            other => panic!("dispatcher must close with a jump, got {other:?}"),
        }
        let n_calls = ids
            .iter()
            .filter(|&&id| matches!(layout.block(id).flow, ControlFlow::Call { .. }))
            .count();
        assert_eq!(n_calls, ids.len() - 1);
        for &root in layout.service_roots() {
            assert_ne!(root, layout.dispatcher());
        }
    }

    #[test]
    fn calls_never_target_the_dispatcher() {
        let layout = tiny_layout();
        for b in layout.blocks() {
            match b.flow {
                ControlFlow::Call { callee } => assert_ne!(callee.0, 0),
                ControlFlow::IndirectCall { callees } => {
                    assert!(callees.iter().all(|c| c.0 != 0))
                }
                _ => {}
            }
        }
    }

    #[test]
    fn conditional_targets_stay_within_the_function() {
        let layout = tiny_layout();
        for b in layout.blocks() {
            if let ControlFlow::Conditional { taken, .. } = b.flow {
                assert_eq!(owner(&layout, taken), owner(&layout, b.id));
            }
        }
    }

    /// A handle without the control-flow tables reads the same simulation
    /// tables, and the control-flow tables are freed with the last handle
    /// that has them.
    #[test]
    fn a_handle_without_control_flow_shares_the_simulation_tables() {
        let layout = tiny_layout();
        let sim = layout.without_control_flow();
        assert!(layout.has_control_flow() && !sim.has_control_flow());
        assert!(sim.shares_tables(&layout));
        assert!(sim.basic_blocks().eq(layout.blocks().map(|b| b.block)));
        let control = Arc::downgrade(layout.control.as_ref().unwrap());
        drop(layout);
        assert!(control.upgrade().is_none());
        assert_eq!(sim.num_blocks(), sim.basic_blocks().len());
    }

    #[test]
    #[should_panic(expected = "missing control-flow tables")]
    fn reading_a_flow_without_control_flow_tables_panics() {
        tiny_layout().without_control_flow().block(BlockId(0));
    }

    /// A record keeps every field at its extremes: start and target at the
    /// largest 28-bit offset, sizes 1 and 31, every kind.
    #[test]
    fn a_block_record_round_trips_at_the_field_extremes() {
        let top = MAX_CODE_INSTRUCTIONS;
        assert_eq!(top, (1 << 28) - 1);
        let at = |offset| CODE_BASE.add_instructions(offset);
        for kind in BranchKind::ALL {
            for size in [1, MAX_BASIC_BLOCK_INSTRUCTIONS] {
                for (start, target) in [(0, 0), (0, top), (top, 0), (top, top)] {
                    let record = BlockRecord::new(start, size, kind).with_target(target);
                    assert_eq!(
                        (record.offset(), record.size(), record.kind()),
                        (start, size, kind)
                    );
                    assert_eq!((record.start(), record.target()), (at(start), at(target)));
                    // Re-targeting replaces the target and nothing else.
                    let moved = record.with_target(top - target);
                    assert_eq!(moved.target(), at(top - target));
                    assert_eq!(moved.with_target(target), record);
                    let block = record.basic_block();
                    let pc = at(start + size - 1);
                    let terminator = if kind.target_is_indirect() {
                        BranchInfo::indirect(pc, kind)
                    } else {
                        BranchInfo::direct(pc, kind, at(target))
                    };
                    assert_eq!(
                        block,
                        BasicBlock {
                            start: at(start),
                            instructions: size,
                            terminator: Some(terminator),
                        }
                    );
                }
            }
        }
    }

    /// A function record keeps its block count beside the hot flag.
    #[test]
    fn a_function_record_round_trips_its_count_and_hot_flag() {
        for num_blocks in [1, 2, MAX_CODE_INSTRUCTIONS as u32, HOT - 1] {
            for is_hot in [false, true] {
                let record = FunctionRecord::new(num_blocks, is_hot);
                assert_eq!((record.num_blocks(), record.is_hot()), (num_blocks, is_hot));
            }
        }
        let records = [FunctionRecord::new(3, true), FunctionRecord::new(2, false)];
        let functions: Vec<_> = assemble_functions(&records).collect();
        assert_eq!(functions[1].first_block, 3);
        assert_eq!(functions[1].entry, BlockId(3));
        assert_eq!(functions[1].id, FunctionId(1));
        assert!(functions[0].is_hot && !functions[1].is_hot);
    }

    /// A generated layout assembles the same functions from its packed
    /// words as from its control-flow tables' entry column.
    #[test]
    fn functions_agree_with_their_entries() {
        let layout = tiny_layout();
        for f in layout.functions() {
            assert_eq!(layout.function(f.id), f);
            let last = BlockId(f.first_block + f.num_blocks - 1);
            assert_eq!(layout.fall_through(last), None);
            for id in f.block_ids().filter(|&id| id != last) {
                assert_eq!(layout.fall_through(id), Some(BlockId(id.0 + 1)));
            }
        }
    }

    #[test]
    #[should_panic(expected = "the text segment ends within")]
    fn a_block_past_the_packed_range_is_refused() {
        let mut columns = Columns::with_capacity(1, 0);
        columns.end = MAX_CODE_INSTRUCTIONS - 30;
        columns.push_record(30, BranchKind::Return);
        columns.push_record(1, BranchKind::Return);
    }

    #[test]
    fn larger_profiles_generate_more_blocks() {
        let small = CodeLayout::generate(&WorkloadProfile::tiny(5));
        let big = CodeLayout::generate(&WorkloadProfile::tiny(5).with_footprint_bytes(160 * 1024));
        assert!(big.blocks().len() > small.blocks().len());
        assert!(big.summary().instructions > small.summary().instructions);
    }

    #[test]
    fn full_profile_generation_reaches_multi_mb_footprints() {
        // Keep this test moderate: Nutch at 1.6 MB is the smallest full
        // profile and still exercises the multi-thousand-function path.
        let layout = CodeLayout::generate(&WorkloadKind::Nutch.profile());
        let summary = layout.summary();
        assert!(summary.footprint_bytes >= 1_600 * 1024);
        assert!(summary.functions > 1000);
        assert!(summary.conditional_branches > 10_000);
        assert!(format!("{summary}").contains("functions"));
    }
}
