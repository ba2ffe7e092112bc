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
//! * the *simulation tables*: a packed 12-byte record per block with what
//!   rebuilding its [`BasicBlock`] reads (start, size, kind, direct-target
//!   address), the branch-per-line index, the functions, the profile, the
//!   line geometry and the end of the code. The simulator, the predecoder
//!   and a trace's rebuild of its dynamic records read nothing else;
//! * the *control-flow tables*: each block's flow target id, a
//!   conditional's behaviour, one shared pool of indirect-branch id lists,
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
#[derive(Clone, Debug, PartialEq)]
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
    functions: Box<[Function]>,
    /// The branch-per-line index as id ranges. Blocks are laid out
    /// contiguously, so branch PCs are strictly increasing with the block id
    /// and every cache line's branches form one contiguous id range: line
    /// `first_line + l` holds the blocks `line_offsets[l] .. line_offsets[l+1]`.
    first_line: CacheLine,
    line_offsets: Box<[u32]>,
    code_end: Addr,
}

/// The control-flow tables of a generated [`CodeLayout`]: what only trace
/// generation walks, one entry per block in each per-block column.
#[derive(Debug)]
struct ControlFlowTables {
    /// The flow's target id: a conditional's taken block, a jump's target
    /// block, a call's callee, the offset of an indirect branch's id list in
    /// `pool`, and 0 for a return.
    flow: Box<[u32]>,
    /// A conditional's behaviour tag and payload
    /// ([`BranchBehavior::to_bits`]), 0 for every other kind.
    tags: Box<[u8]>,
    behavior: Box<[u64]>,
    /// The indirect branches' id lists, each its length followed by its ids:
    /// one arena instead of a heap allocation per indirect block.
    pool: Box<[u32]>,
    service_roots: Vec<FunctionId>,
    dispatcher: FunctionId,
}

/// Flag bit: the block is the last of its function (it has no
/// fall-through successor).
const LAST_IN_FUNCTION: u8 = 1;

/// The packed record of one block: exactly what rebuilding its
/// [`BasicBlock`] reads, so a rebuild touches one record. The byte that
/// alignment would pad holds the flag bits.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct BlockRecord {
    /// Address of the first instruction (the text segment lies below 4 GiB;
    /// see [`crate::MAX_FOOTPRINT_BYTES`]).
    start: u32,
    /// Direct-target address; 0 for indirect branches and returns.
    target: u32,
    /// Instructions, including the terminating branch.
    size: u8,
    /// Kind of the terminating branch.
    kind: BranchKind,
    /// [`LAST_IN_FUNCTION`].
    flags: u8,
}

const _: () = assert!(std::mem::size_of::<BlockRecord>() == 12);

impl BlockRecord {
    fn start(self) -> Addr {
        Addr::new(u64::from(self.start))
    }

    fn branch_pc(self) -> Addr {
        self.start().add_instructions(u64::from(self.size) - 1)
    }

    #[inline]
    fn basic_block(self) -> BasicBlock {
        let pc = self.branch_pc();
        let terminator = if self.kind.target_is_indirect() {
            BranchInfo::indirect(pc, self.kind)
        } else {
            BranchInfo::direct(pc, self.kind, Addr::new(u64::from(self.target)))
        };
        BasicBlock {
            start: self.start(),
            instructions: u64::from(self.size),
            terminator: Some(terminator),
        }
    }
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

    /// All functions in layout order.
    pub fn functions(&self) -> &[Function] {
        &self.tables.functions
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
        match self.tables.records[i].kind {
            BranchKind::Conditional => ControlFlow::Conditional {
                taken: BlockId(target),
                behavior: BranchBehavior::from_bits(c.tags[i], c.behavior[i]),
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

    /// The function with the given id.
    pub fn function(&self, id: FunctionId) -> &Function {
        &self.tables.functions[id.0 as usize]
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
        self.function(self.dispatcher()).entry
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
        let offsets = &self.tables.line_offsets;
        let ids = |l: u64| Some(*offsets.get(l as usize)?..*offsets.get(l as usize + 1)?);
        line.0
            .checked_sub(self.tables.first_line.0)
            .and_then(ids)
            .unwrap_or(0..0)
    }

    /// The fall-through successor of `id`: the next block in layout order
    /// within the same function, if any.
    pub fn fall_through(&self, id: BlockId) -> Option<BlockId> {
        let last = self.tables.records[id.0 as usize].flags & LAST_IN_FUNCTION != 0;
        (!last).then_some(BlockId(id.0 + 1))
    }

    /// Summary statistics.
    pub fn summary(&self) -> LayoutSummary {
        let records = &self.tables.records;
        let instructions: u64 = records.iter().map(|r| u64::from(r.size)).sum();
        let conditional = records
            .iter()
            .filter(|r| r.kind == BranchKind::Conditional)
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

/// The per-block records of a layout under construction, appended in layout
/// order. Generation pushes every block's record, then resolves the direct
/// targets once every block's flow is drawn; the artifact decoder builds
/// the records from its validated columns in one go
/// ([`from_stored`](Self::from_stored)). Both set the targets with
/// [`set_targets`](Self::set_targets) and end in [`finish`](Self::finish).
pub(crate) struct Columns {
    records: Vec<BlockRecord>,
    end: Addr,
}

impl Columns {
    /// Empty tables with room for `blocks` blocks.
    pub(crate) fn with_capacity(blocks: usize) -> Self {
        Columns {
            records: Vec::with_capacity(blocks),
            end: CODE_BASE,
        }
    }

    /// Number of records pushed.
    pub(crate) fn len(&self) -> usize {
        self.records.len()
    }

    /// Lays out the next block: `size` instructions where the last one
    /// ended, ending in a `kind` branch; `last` marks the last block of its
    /// function.
    ///
    /// # Panics
    ///
    /// Panics if the block would start at or above 4 GiB.
    pub(crate) fn push_record(&mut self, size: u64, kind: BranchKind, last: bool) {
        debug_assert!((1..=MAX_BASIC_BLOCK_INSTRUCTIONS).contains(&size));
        let start = u32::try_from(self.end.raw()).expect("the text segment lies below 4 GiB");
        self.records.push(BlockRecord {
            start,
            target: 0,
            size: size as u8,
            kind,
            flags: if last { LAST_IN_FUNCTION } else { 0 },
        });
        self.end = self.end.add_instructions(size);
    }

    /// The records of stored columns the artifact decoder has validated:
    /// each block's size and kind, in layout order and covering `functions`
    /// (the text segment below 4 GiB). Block starts and last-in-function
    /// bits are derived; the targets are set by
    /// [`set_targets`](Self::set_targets).
    pub(crate) fn from_stored(
        functions: &[Function],
        blocks: impl Iterator<Item = (u8, BranchKind)>,
    ) -> Self {
        let mut end = CODE_BASE;
        let mut records: Vec<BlockRecord> = blocks
            .map(|(size, kind)| {
                let start = end.raw() as u32;
                end = end.add_instructions(u64::from(size));
                BlockRecord {
                    start,
                    target: 0,
                    size,
                    kind,
                    flags: 0,
                }
            })
            .collect();
        for f in functions {
            records[(f.first_block + f.num_blocks - 1) as usize].flags |= LAST_IN_FUNCTION;
        }
        Columns { records, end }
    }

    /// Points each direct branch (a conditional, a jump or a call) at the
    /// start of the block `target(idx, kind)` names: a gather over the start
    /// column, since a forward target is laid out after its branch.
    /// `target` is called once per direct branch, in block order, and must
    /// return a block's id.
    pub(crate) fn set_targets(&mut self, mut target: impl FnMut(usize, BranchKind) -> u32) {
        for idx in 0..self.records.len() {
            let kind = self.records[idx].kind;
            if !kind.target_is_indirect() {
                let id = target(idx, kind) as usize;
                self.records[idx].target = self.records[id].start;
            }
        }
    }

    /// The finished layout's simulation tables, with no control-flow tables:
    /// builds the line index.
    pub(crate) fn finish(
        self,
        profile: WorkloadProfile,
        geometry: LineGeometry,
        functions: Vec<Function>,
    ) -> CodeLayout {
        let (first_line, line_offsets) = build_line_index(geometry, &self.records, self.end);
        CodeLayout {
            tables: Arc::new(LayoutTables {
                profile,
                geometry,
                records: self.records.into_boxed_slice(),
                functions: functions.into_boxed_slice(),
                first_line,
                line_offsets,
                code_end: self.end,
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

    /// Stores the control flow of the next block.
    fn push(&mut self, flow: ControlFlow<'_>) {
        let (target, (tag, payload)) = match flow {
            ControlFlow::Conditional { taken, behavior } => (taken.0, behavior.to_bits()),
            ControlFlow::Jump { target } => (target.0, (0, 0)),
            ControlFlow::IndirectJump { targets } => (self.push_list(targets.raw), (0, 0)),
            ControlFlow::Call { callee } => (callee.0, (0, 0)),
            ControlFlow::IndirectCall { callees } => (self.push_list(callees.raw), (0, 0)),
            ControlFlow::Return => (0, (0, 0)),
        };
        self.flow.push(target);
        self.tags.push(tag);
        self.behavior.push(payload);
    }

    /// Appends an id list to the pool and returns its offset.
    fn push_list(&mut self, ids: &[u32]) -> u32 {
        let offset = u32::try_from(self.pool.len()).expect("the id pool stays below 4 Gi entries");
        self.pool.push(ids.len() as u32);
        self.pool.extend_from_slice(ids);
        offset
    }

    fn finish(self, service_roots: Vec<FunctionId>, dispatcher: FunctionId) -> ControlFlowTables {
        ControlFlowTables {
            flow: self.flow.into_boxed_slice(),
            tags: self.tags.into_boxed_slice(),
            behavior: self.behavior.into_boxed_slice(),
            pool: self.pool.into_boxed_slice(),
            service_roots,
            dispatcher,
        }
    }
}

/// Builds the branch-per-line index (see the field docs on
/// [`LayoutTables`]): branch PCs are strictly increasing with the block id,
/// so one counting pass suffices.
fn build_line_index(
    geometry: LineGeometry,
    records: &[BlockRecord],
    code_end: Addr,
) -> (CacheLine, Box<[u32]>) {
    let first_line = geometry.line_of(CODE_BASE);
    let last_line = if code_end > CODE_BASE {
        geometry.line_of(Addr::new(code_end.raw() - 1))
    } else {
        first_line
    };
    let num_lines = (last_line.0 - first_line.0 + 1) as usize;
    let mut offsets = vec![0u32; num_lines + 1];
    for r in records {
        let l = (geometry.line_of(r.branch_pc()).0 - first_line.0) as usize;
        offsets[l + 1] += 1;
    }
    for l in 0..num_lines {
        offsets[l + 1] += offsets[l];
    }
    (first_line, offsets.into_boxed_slice())
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

/// Output of the planning pass: every block's record, no flows yet.
struct Plan {
    columns: Columns,
    functions: Vec<Function>,
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
            functions,
            roles,
            service_roots,
        } = self.plan_blocks();
        let utilities: Vec<FunctionId> = functions
            .iter()
            .filter(|f| roles[f.id.0 as usize] == Role::Utility)
            .map(|f| f.id)
            .collect();
        let flows = self.draw_flows(&columns, &functions, &roles, &service_roots, &utilities);
        // A call's target is its callee's entry block.
        columns.set_targets(|idx, kind| match kind {
            BranchKind::Call => functions[flows.flow[idx] as usize].entry.0,
            _ => flows.flow[idx],
        });
        let layout = columns.finish(self.profile, self.geometry, functions);
        CodeLayout {
            control: Some(Arc::new(flows.finish(service_roots, FunctionId(0)))),
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
        let mut columns = Columns::with_capacity(est_blocks);
        let mut functions: Vec<Function> = Vec::with_capacity(est_functions);
        let mut roles: Vec<Role> = Vec::with_capacity(est_functions);
        let mut service_roots: Vec<FunctionId> = Vec::with_capacity(num_roots);
        let mut total_instructions: u64 = 0;

        // Function 0: the dispatcher. One call block per service root plus a
        // jump back to the entry, modelling the server's request loop.
        {
            for _ in 0..num_roots {
                let len = self.rng.geometric(3.0, 8);
                columns.push_record(len, BranchKind::Call, false);
                total_instructions += len;
            }
            let len = self.rng.geometric(2.0, 4);
            columns.push_record(len, BranchKind::DirectJump, true);
            total_instructions += len;
            functions.push(Function {
                id: FunctionId(0),
                entry: BlockId(0),
                first_block: 0,
                num_blocks: num_roots as u32 + 1,
                is_hot: true,
            });
            roles.push(Role::Dispatcher);
        }

        // Service subtrees: one contiguous group of functions per root.
        for subtree in 0..num_roots as u32 {
            let budget_end = total_instructions + per_subtree_instructions;
            let mut first_of_subtree = true;
            while total_instructions < budget_end {
                let fid = FunctionId(functions.len() as u32);
                if first_of_subtree {
                    service_roots.push(fid);
                    first_of_subtree = false;
                }
                total_instructions +=
                    self.plan_function(fid, Role::Service(subtree), &mut columns, &mut functions);
                roles.push(Role::Service(subtree));
            }
        }

        // Shared utility layer at the end of the layout.
        while total_instructions < target_instructions {
            let fid = FunctionId(functions.len() as u32);
            total_instructions +=
                self.plan_function(fid, Role::Utility, &mut columns, &mut functions);
            roles.push(Role::Utility);
        }
        // Guarantee the utility layer exists even for tiny footprints, so
        // every service call site always has a valid lower layer to call.
        if !roles.contains(&Role::Utility) {
            let fid = FunctionId(functions.len() as u32);
            self.plan_function(fid, Role::Utility, &mut columns, &mut functions);
            roles.push(Role::Utility);
        }

        Plan {
            columns,
            functions,
            roles,
            service_roots,
        }
    }

    /// Plans one function's blocks; returns the instructions it occupies.
    fn plan_function(
        &mut self,
        fid: FunctionId,
        role: Role,
        columns: &mut Columns,
        functions: &mut Vec<Function>,
    ) -> u64 {
        // Utility functions are leaf-like helpers: shorter and call-free, so
        // the layered call graph terminates there.
        let (mean_blocks, allow_calls) = match role {
            Role::Utility => (self.profile.mean_function_blocks * 0.6, false),
            _ => (self.profile.mean_function_blocks, true),
        };
        let num_blocks = self.rng.geometric(mean_blocks, 96).max(2) as u32;
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
            let last = i == num_blocks - 1;
            let kind = if last {
                BranchKind::Return
            } else {
                self.draw_terminator_kind(allow_calls)
            };
            columns.push_record(len, kind, last);
            instructions += len;
        }

        functions.push(Function {
            id: fid,
            entry: BlockId(first_block),
            first_block,
            num_blocks,
            is_hot: role == Role::Utility,
        });
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
        functions: &[Function],
        roles: &[Role],
        service_roots: &[FunctionId],
        utilities: &[FunctionId],
    ) -> FlowColumns {
        let mut flows = FlowColumns::with_capacity(columns.len());
        let mut dispatcher_call_index = 0usize;
        // One reusable buffer for an indirect branch's drawn ids, which the
        // columns copy into their pool.
        let mut ids: Vec<u32> = Vec::new();
        for func in functions {
            let role = roles[func.id.0 as usize];
            for id in func.block_ids() {
                let idx = id.0 as usize;
                ids.clear();
                let flow = match columns.records[idx].kind {
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
                            functions[callee.0 as usize].entry
                        } else {
                            // Intra-function jumps are strictly forward so
                            // that a chain of unconditional jumps can never
                            // form a cycle the trace generator could not
                            // leave.
                            self.pick_forward_target(func, idx)
                        };
                        ControlFlow::Jump { target }
                    }
                    BranchKind::IndirectJump => {
                        // Like direct jumps, indirect jump targets (switch
                        // arms) are strictly forward so that unconditional
                        // control flow alone can never form a cycle.
                        let n = 2 + self.rng.index(5);
                        for _ in 0..n {
                            ids.push(self.pick_forward_target(func, idx).0);
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
                            self.pick_conditional_target(&columns.records, func, idx, backward);
                        ControlFlow::Conditional { taken, behavior }
                    }
                };
                flows.push(flow);
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
        let after = layout
            .functions()
            .partition_point(|f| f.first_block <= id.0);
        FunctionId(after as u32 - 1)
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
