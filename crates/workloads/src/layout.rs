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

use crate::profile::WorkloadProfile;
use sim_core::rng::SimRng;
use sim_core::{
    Addr, BasicBlock, BranchInfo, BranchKind, CacheLine, LineGeometry, MAX_BASIC_BLOCK_INSTRUCTIONS,
};
use std::fmt;
use std::sync::Arc;

/// Base address at which the synthetic text segment is laid out.
pub const CODE_BASE: Addr = Addr::new(0x0040_0000);

/// Index of a static basic block inside a [`CodeLayout`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct BlockId(pub u32);

/// Index of a function inside a [`CodeLayout`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct FunctionId(pub u32);

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

/// Control-flow successor information for a static basic block.
#[derive(Clone, Debug, PartialEq)]
pub enum ControlFlow {
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
        targets: Vec<BlockId>,
    },
    /// Direct call; control returns to the fall-through block afterwards.
    Call {
        /// Callee function.
        callee: FunctionId,
    },
    /// Indirect call (virtual dispatch, function pointers).
    IndirectCall {
        /// Possible callee functions; chosen with uniform probability.
        callees: Vec<FunctionId>,
    },
    /// Return to the caller.
    Return,
}

impl ControlFlow {
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

/// One static basic block together with its control-flow successor
/// information.
#[derive(Clone, Debug, PartialEq)]
pub struct StaticBlock {
    /// Identifier of this block.
    pub id: BlockId,
    /// Function this block belongs to.
    pub function: FunctionId,
    /// Address range and terminating branch.
    pub block: BasicBlock,
    /// Successor information.
    pub flow: ControlFlow,
}

impl StaticBlock {
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
/// A layout is immutable once built, so its tables live behind one [`Arc`]:
/// a clone is a pointer copy. A [`Trace`](crate::Trace) keeps such a handle
/// and rebuilds its dynamic blocks from block ids through it.
#[derive(Clone, Debug)]
pub struct CodeLayout {
    tables: Arc<LayoutTables>,
}

/// The tables of a [`CodeLayout`].
#[derive(Debug)]
struct LayoutTables {
    profile: WorkloadProfile,
    geometry: LineGeometry,
    blocks: Vec<StaticBlock>,
    functions: Vec<Function>,
    /// The branch-per-line index in CSR form. Blocks are laid out
    /// contiguously, so branch PCs are strictly increasing with the block id
    /// and every cache line's branches form one contiguous id range:
    /// line `first_line + l` holds the blocks
    /// `line_branch_ids[line_branch_offsets[l] .. line_branch_offsets[l+1]]`,
    /// where `line_branch_ids` is simply the identity (kept materialised so
    /// [`CodeLayout::branches_in_line`] can hand out slices). Replaces a
    /// per-line hash map of `Vec`s: no hashing on the predecode hot path and
    /// no per-line allocations at generation time.
    first_line: CacheLine,
    line_branch_offsets: Box<[u32]>,
    line_branch_ids: Box<[BlockId]>,
    service_roots: Vec<FunctionId>,
    dispatcher: FunctionId,
    code_end: Addr,
}

impl CodeLayout {
    fn from_tables(tables: LayoutTables) -> Self {
        CodeLayout {
            tables: Arc::new(tables),
        }
    }

    /// `true` if `other` is a clone of this layout (the same tables).
    pub fn shares_tables(&self, other: &CodeLayout) -> bool {
        Arc::ptr_eq(&self.tables, &other.tables)
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

    /// All static blocks in layout (address) order.
    pub fn blocks(&self) -> &[StaticBlock] {
        &self.tables.blocks
    }

    /// All functions in layout order.
    pub fn functions(&self) -> &[Function] {
        &self.tables.functions
    }

    /// The block with the given id.
    pub fn block(&self, id: BlockId) -> &StaticBlock {
        &self.tables.blocks[id.0 as usize]
    }

    /// The function with the given id.
    pub fn function(&self, id: FunctionId) -> &Function {
        &self.tables.functions[id.0 as usize]
    }

    /// The dispatcher function that drives the workload's service loop.
    pub fn dispatcher(&self) -> FunctionId {
        self.tables.dispatcher
    }

    /// The dispatcher's entry block: the point where trace generation starts
    /// and where control resumes when the call stack unwinds completely.
    pub fn entry_block(&self) -> BlockId {
        self.tables.functions[self.tables.dispatcher.0 as usize].entry
    }

    /// The service-root functions the dispatcher cycles through.
    pub fn service_roots(&self) -> &[FunctionId] {
        &self.tables.service_roots
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
        let idx = self.tables.blocks.partition_point(|b| b.block.start < addr);
        self.tables
            .blocks
            .get(idx)
            .filter(|b| b.block.start == addr)
            .map(|b| b.id)
    }

    /// The block containing `addr`, if `addr` lies inside the text segment.
    pub fn block_containing(&self, addr: Addr) -> Option<BlockId> {
        if addr < CODE_BASE || addr >= self.tables.code_end {
            return None;
        }
        let idx = self
            .tables
            .blocks
            .partition_point(|b| b.block.start <= addr)
            .checked_sub(1)?;
        let candidate = &self.tables.blocks[idx];
        candidate.block.contains(addr).then_some(candidate.id)
    }

    /// The first block whose terminating branch lies at or after `addr`.
    ///
    /// This is what a hardware predecoder effectively computes when it scans
    /// forward from a fetch address looking for the next branch. Branch PCs
    /// are strictly increasing with the block id, so the line index answers
    /// this in O(1): scan the (few) branches of `addr`'s own cache line,
    /// then fall through to the first branch of any later line — no binary
    /// search over the block array (Boomerang pays this on every BTB-miss
    /// probe).
    pub fn next_branch_at_or_after(&self, addr: Addr) -> Option<BlockId> {
        if addr >= self.tables.code_end {
            return None;
        }
        if addr < CODE_BASE {
            return self.tables.blocks.first().map(|b| b.id);
        }
        let line = self.tables.geometry.line_of(addr);
        for &id in self.branches_in_line(line) {
            if self.block(id).branch_pc() >= addr {
                return Some(id);
            }
        }
        // No branch at or after `addr` in its own line: the next branch is
        // the first one of any later line, which is exactly the id the CSR
        // offset one past this line points at.
        let l = (line.0 - self.tables.first_line.0) as usize;
        let next = self.tables.line_branch_offsets[l + 1] as usize;
        self.tables.line_branch_ids.get(next).copied()
    }

    /// Blocks whose terminating branch instruction lies in `line`, in address
    /// order. Used by the predecoder to extract branches from a fetched cache
    /// block (Boomerang and Confluence BTB prefill).
    pub fn branches_in_line(&self, line: CacheLine) -> &[BlockId] {
        let Some(l) = line.0.checked_sub(self.tables.first_line.0) else {
            return &[];
        };
        let l = l as usize;
        if l + 1 >= self.tables.line_branch_offsets.len() {
            return &[];
        }
        let lo = self.tables.line_branch_offsets[l] as usize;
        let hi = self.tables.line_branch_offsets[l + 1] as usize;
        &self.tables.line_branch_ids[lo..hi]
    }

    /// The fall-through successor of `id`: the next block in layout order
    /// within the same function, if any.
    pub fn fall_through(&self, id: BlockId) -> Option<BlockId> {
        let block = self.block(id);
        let func = self.function(block.function);
        let next = id.0 + 1;
        (next < func.first_block + func.num_blocks).then_some(BlockId(next))
    }

    /// Summary statistics.
    pub fn summary(&self) -> LayoutSummary {
        let instructions: u64 = self
            .tables
            .blocks
            .iter()
            .map(|b| b.block.instructions)
            .sum();
        let conditional = self
            .tables
            .blocks
            .iter()
            .filter(|b| b.flow.kind() == BranchKind::Conditional)
            .count();
        LayoutSummary {
            functions: self.tables.functions.len(),
            blocks: self.tables.blocks.len(),
            instructions,
            footprint_bytes: self.tables.code_end.raw() - CODE_BASE.raw(),
            conditional_branches: conditional,
            unconditional_branches: self.tables.blocks.len() - conditional,
        }
    }
}

/// Builds the branch-per-line index in CSR form (see the field docs on
/// [`CodeLayout`]): branch PCs are strictly increasing with the block id, so
/// one counting pass suffices. Shared by generation and by the artifact
/// decode path, which rebuilds the index instead of storing it.
fn build_line_index(
    geometry: LineGeometry,
    blocks: &[StaticBlock],
    code_end: Addr,
) -> (CacheLine, Box<[u32]>, Box<[BlockId]>) {
    let first_line = geometry.line_of(CODE_BASE);
    let last_line = if code_end > CODE_BASE {
        geometry.line_of(Addr::new(code_end.raw() - 1))
    } else {
        first_line
    };
    let num_lines = (last_line.0 - first_line.0 + 1) as usize;
    let mut line_branch_offsets = vec![0u32; num_lines + 1];
    for b in blocks {
        let l = (geometry.line_of(b.branch_pc()).0 - first_line.0) as usize;
        line_branch_offsets[l + 1] += 1;
    }
    for l in 0..num_lines {
        line_branch_offsets[l + 1] += line_branch_offsets[l];
    }
    let line_branch_ids: Box<[BlockId]> = (0..blocks.len() as u32).map(BlockId).collect();
    (
        first_line,
        line_branch_offsets.into_boxed_slice(),
        line_branch_ids,
    )
}

impl CodeLayout {
    /// Reassembles a layout from decoded parts (the artifact-cache decode
    /// path; see [`crate::codec`]): one `(instructions, flow)` pair per
    /// block in layout order, plus the function table, service roots and
    /// dispatcher. Every derived structure — block addresses, terminators,
    /// the branch-per-line index, `code_end` — is rebuilt from the layout
    /// invariants rather than stored.
    ///
    /// Returns a field-level error instead of panicking on inputs that
    /// violate those invariants (the decode path feeds this untrusted bytes).
    pub(crate) fn from_parts(
        profile: WorkloadProfile,
        geometry: LineGeometry,
        raw: Vec<(u64, ControlFlow)>,
        functions: Vec<Function>,
        service_roots: Vec<FunctionId>,
        dispatcher: FunctionId,
    ) -> Result<Self, crate::codec::CodecError> {
        use crate::codec::CodecError;
        let err = |field, message: String| Err(CodecError { field, message });
        if let Err(e) = profile.validate() {
            return err("profile", e.to_string());
        }
        if raw.is_empty() {
            return err("layout.blocks.len", "layout has no blocks".to_string());
        }
        let covered: u64 = functions.iter().map(|f| u64::from(f.num_blocks)).sum();
        if covered != raw.len() as u64 {
            return err(
                "layout.functions",
                format!(
                    "functions cover {covered} blocks but {} are stored",
                    raw.len()
                ),
            );
        }

        // Block addresses follow from contiguity; owners from the function
        // table's contiguous ranges.
        let mut starts = Vec::with_capacity(raw.len());
        let mut cursor = CODE_BASE;
        for (instructions, _) in &raw {
            starts.push(cursor);
            cursor = cursor.add_instructions(*instructions);
        }
        let code_end = cursor;
        let mut owners: Vec<FunctionId> = Vec::with_capacity(raw.len());
        for f in &functions {
            owners.extend(std::iter::repeat_n(f.id, f.num_blocks as usize));
        }

        // Conditional and call blocks need a fall-through successor inside
        // the same function; the trace generator relies on it.
        for (idx, (_, flow)) in raw.iter().enumerate() {
            if matches!(
                flow,
                ControlFlow::Conditional { .. }
                    | ControlFlow::Call { .. }
                    | ControlFlow::IndirectCall { .. }
            ) {
                let func = &functions[owners[idx].0 as usize];
                if idx as u32 == func.first_block + func.num_blocks - 1 {
                    return err(
                        "block.flow",
                        format!(
                            "block {idx} of kind {} is the last block of its function \
                             but needs a fall-through successor",
                            flow.kind()
                        ),
                    );
                }
            }
        }

        let blocks: Vec<StaticBlock> = raw
            .into_iter()
            .enumerate()
            .map(|(idx, (instructions, flow))| {
                let start = starts[idx];
                let branch_pc = start.add_instructions(instructions - 1);
                let kind = flow.kind();
                let target_addr = match &flow {
                    ControlFlow::Conditional { taken, .. } => Some(starts[taken.0 as usize]),
                    ControlFlow::Jump { target } => Some(starts[target.0 as usize]),
                    ControlFlow::Call { callee } => {
                        Some(starts[functions[callee.0 as usize].entry.0 as usize])
                    }
                    _ => None,
                };
                let terminator = match target_addr {
                    Some(t) => BranchInfo::direct(branch_pc, kind, t),
                    None => BranchInfo::indirect(branch_pc, kind),
                };
                StaticBlock {
                    id: BlockId(idx as u32),
                    function: owners[idx],
                    block: BasicBlock::new(start, instructions, terminator),
                    flow,
                }
            })
            .collect();

        let (first_line, line_branch_offsets, line_branch_ids) =
            build_line_index(geometry, &blocks, code_end);
        Ok(CodeLayout::from_tables(LayoutTables {
            profile,
            geometry,
            blocks,
            functions,
            first_line,
            line_branch_offsets,
            line_branch_ids,
            service_roots,
            dispatcher,
            code_end,
        }))
    }
}

/// Internal layout builder.
struct Builder {
    profile: WorkloadProfile,
    geometry: LineGeometry,
    rng: SimRng,
}

/// Per-block plan produced in the first pass, before targets are known.
struct PlannedBlock {
    function: FunctionId,
    start: Addr,
    instructions: u64,
    kind: BranchKind,
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

/// Output of the planning pass.
struct Plan {
    planned: Vec<PlannedBlock>,
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
        let plan = self.plan_blocks();
        let Plan {
            planned,
            functions,
            roles,
            service_roots,
        } = plan;
        let utilities: Vec<FunctionId> = functions
            .iter()
            .filter(|f| roles[f.id.0 as usize] == Role::Utility)
            .map(|f| f.id)
            .collect();

        // Pass 2a (sequential): every RNG draw, in the exact order the
        // previous single-pass implementation made them, deciding each
        // block's control flow. Keeping the draw order byte-for-byte is what
        // keeps generated layouts identical for a fixed seed.
        let flows = self.draw_flows(&planned, &functions, &roles, &service_roots, &utilities);

        // Pass 2b (sharded): assembling the `StaticBlock`s from (plan, flow)
        // is a pure per-block function, so independent runs of whole
        // functions build in parallel on the work-stealing pool.
        let blocks = Self::assemble_blocks(&planned, &functions, flows);

        let code_end = blocks
            .last()
            .map(|b| b.block.fall_through())
            .unwrap_or(CODE_BASE);

        let (first_line, line_branch_offsets, line_branch_ids) =
            build_line_index(self.geometry, &blocks, code_end);

        CodeLayout::from_tables(LayoutTables {
            profile: self.profile,
            geometry: self.geometry,
            blocks,
            functions,
            first_line,
            line_branch_offsets,
            line_branch_ids,
            service_roots,
            dispatcher: FunctionId(0),
            code_end,
        })
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
        let utility_fraction = self.profile.utility_fraction.clamp(0.03, 0.4);
        let service_instructions = (target_instructions as f64 * (1.0 - utility_fraction)) as u64;
        let num_roots = self.profile.service_roots.max(1);
        let per_subtree_instructions = (service_instructions / num_roots as u64).max(256);

        // Pre-size from the profile's means (with ~15% headroom): a
        // multi-megabyte layout plans hundreds of thousands of blocks, and
        // growth reallocations were a visible slice of generation time.
        let est_blocks = (target_instructions as f64
            / self.profile.mean_block_instructions.max(1.0)
            * 1.15) as usize
            + 64;
        let est_functions =
            (est_blocks as f64 / self.profile.mean_function_blocks.max(2.0) * 1.3) as usize + 16;
        let mut planned: Vec<PlannedBlock> = Vec::with_capacity(est_blocks);
        let mut functions: Vec<Function> = Vec::with_capacity(est_functions);
        let mut roles: Vec<Role> = Vec::with_capacity(est_functions);
        let mut service_roots: Vec<FunctionId> = Vec::with_capacity(num_roots);
        let mut cursor = CODE_BASE;
        let mut total_instructions: u64 = 0;

        // Function 0: the dispatcher. One call block per service root plus a
        // jump back to the entry, modelling the server's request loop.
        {
            let first_block = 0u32;
            for _ in 0..num_roots {
                let len = self.rng.geometric(3.0, 8);
                planned.push(PlannedBlock {
                    function: FunctionId(0),
                    start: cursor,
                    instructions: len,
                    kind: BranchKind::Call,
                });
                cursor = cursor.add_instructions(len);
                total_instructions += len;
            }
            let len = self.rng.geometric(2.0, 4);
            planned.push(PlannedBlock {
                function: FunctionId(0),
                start: cursor,
                instructions: len,
                kind: BranchKind::DirectJump,
            });
            cursor = cursor.add_instructions(len);
            total_instructions += len;
            functions.push(Function {
                id: FunctionId(0),
                entry: BlockId(first_block),
                first_block,
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
                total_instructions += self.plan_function(
                    fid,
                    Role::Service(subtree),
                    &mut planned,
                    &mut functions,
                    &mut cursor,
                );
                roles.push(Role::Service(subtree));
            }
        }

        // Shared utility layer at the end of the layout.
        while total_instructions < target_instructions {
            let fid = FunctionId(functions.len() as u32);
            total_instructions += self.plan_function(
                fid,
                Role::Utility,
                &mut planned,
                &mut functions,
                &mut cursor,
            );
            roles.push(Role::Utility);
        }
        // Guarantee the utility layer exists even for tiny footprints, so
        // every service call site always has a valid lower layer to call.
        if !roles.contains(&Role::Utility) {
            let fid = FunctionId(functions.len() as u32);
            self.plan_function(
                fid,
                Role::Utility,
                &mut planned,
                &mut functions,
                &mut cursor,
            );
            roles.push(Role::Utility);
        }

        Plan {
            planned,
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
        planned: &mut Vec<PlannedBlock>,
        functions: &mut Vec<Function>,
        cursor: &mut Addr,
    ) -> u64 {
        // Utility functions are leaf-like helpers: shorter and call-free, so
        // the layered call graph terminates there.
        let (mean_blocks, allow_calls) = match role {
            Role::Utility => (self.profile.mean_function_blocks * 0.6, false),
            _ => (self.profile.mean_function_blocks, true),
        };
        let num_blocks = self.rng.geometric(mean_blocks, 96).max(2) as u32;
        let first_block = planned.len() as u32;
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
            planned.push(PlannedBlock {
                function: fid,
                start: *cursor,
                instructions: len,
                kind,
            });
            *cursor = cursor.add_instructions(len);
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

    /// Second pass, draw stage: assign targets and behaviours now that every
    /// block and function exists. This stage makes every RNG draw of the
    /// second pass, in layout order, and nothing else — the draw sequence is
    /// the contract that keeps generation byte-identical for a fixed seed,
    /// while the draw-free assembly of the `StaticBlock`s shards across the
    /// pool in [`assemble_blocks`](Self::assemble_blocks).
    fn draw_flows(
        &mut self,
        planned: &[PlannedBlock],
        functions: &[Function],
        roles: &[Role],
        service_roots: &[FunctionId],
        utilities: &[FunctionId],
    ) -> Vec<ControlFlow> {
        let mut flows = Vec::with_capacity(planned.len());
        let mut dispatcher_call_index = 0usize;
        for (idx, plan) in planned.iter().enumerate() {
            let func = &functions[plan.function.0 as usize];
            let role = roles[plan.function.0 as usize];

            let flow = match plan.kind {
                BranchKind::Return => ControlFlow::Return,
                BranchKind::Call if role == Role::Dispatcher => {
                    // The dispatcher's call sites cycle through the service
                    // roots; this is what sweeps the instruction working set
                    // the way a stream of distinct server requests does.
                    let callee = service_roots[dispatcher_call_index % service_roots.len()];
                    dispatcher_call_index += 1;
                    ControlFlow::Call { callee }
                }
                BranchKind::Call => ControlFlow::Call {
                    callee: self.pick_callee(plan.function, role, roles, utilities),
                },
                BranchKind::IndirectCall => {
                    let n = 2 + self.rng.index(3);
                    let callees = (0..n)
                        .map(|_| self.pick_callee(plan.function, role, roles, utilities))
                        .collect();
                    ControlFlow::IndirectCall { callees }
                }
                BranchKind::DirectJump => {
                    let target = if role == Role::Dispatcher {
                        // The dispatcher's closing jump loops back to its entry.
                        func.entry
                    } else if role != Role::Utility && self.rng.chance(0.10) {
                        // Tail call: jump to a lower layer's entry.
                        let callee = self.pick_callee(plan.function, role, roles, utilities);
                        functions[callee.0 as usize].entry
                    } else {
                        // Intra-function jumps are strictly forward so that a
                        // chain of unconditional jumps can never form a cycle
                        // the trace generator could not leave.
                        self.pick_forward_target(func, idx)
                    };
                    ControlFlow::Jump { target }
                }
                BranchKind::IndirectJump => {
                    // Like direct jumps, indirect jump targets (switch arms)
                    // are strictly forward so that unconditional control flow
                    // alone can never form a cycle.
                    let n = 2 + self.rng.index(5);
                    let targets = (0..n)
                        .map(|_| self.pick_forward_target(func, idx))
                        .collect();
                    ControlFlow::IndirectJump { targets }
                }
                BranchKind::Conditional => {
                    let behavior = self.draw_conditional_behavior();
                    let backward = matches!(behavior, BranchBehavior::Loop { .. })
                        || self.rng.chance(self.profile.cond_backward_fraction);
                    // A strongly taken-biased *backward* conditional is an
                    // implicit unbounded loop; real code bounds its loops, so
                    // backward biased branches are made not-taken-biased and
                    // explicit looping is left to `BranchBehavior::Loop`.
                    let behavior = match behavior {
                        BranchBehavior::Biased { p_taken } if backward && p_taken > 0.3 => {
                            BranchBehavior::Biased {
                                p_taken: (1.0 - p_taken).clamp(0.02, 0.3),
                            }
                        }
                        other => other,
                    };
                    let taken = self.pick_conditional_target(planned, func, idx, backward);
                    ControlFlow::Conditional { taken, behavior }
                }
            };
            flows.push(flow);
        }
        flows
    }

    /// Second pass, assembly stage: build each [`StaticBlock`] from its plan
    /// and drawn control flow. Pure per-block work — no RNG — so whole
    /// functions assemble independently, sharded through [`sim_core::pool`]
    /// on function-aligned chunks (inline on a single worker).
    fn assemble_blocks(
        planned: &[PlannedBlock],
        functions: &[Function],
        flows: Vec<ControlFlow>,
    ) -> Vec<StaticBlock> {
        /// Shard granularity in blocks: large enough to amortise pool
        /// dispatch, small enough to spread a multi-megabyte layout over
        /// every core.
        const CHUNK_BLOCKS: usize = 8192;
        let workers = sim_core::pool::default_workers();
        if workers <= 1 || planned.len() <= CHUNK_BLOCKS {
            return planned
                .iter()
                .enumerate()
                .zip(flows)
                .map(|((idx, plan), flow)| Self::assemble_one(planned, functions, idx, plan, flow))
                .collect();
        }

        // Chunk boundaries aligned to function starts, so each task
        // assembles a run of whole functions.
        let mut bounds = vec![0usize];
        for f in functions {
            let end = (f.first_block + f.num_blocks) as usize;
            if end - bounds.last().expect("bounds is never empty") >= CHUNK_BLOCKS {
                bounds.push(end);
            }
        }
        if *bounds.last().expect("bounds is never empty") != planned.len() {
            bounds.push(planned.len());
        }

        // Hand each task ownership of its chunk's flows (no clones): split
        // the flow vector at the chunk bounds, back to front, and let each
        // pool task take its chunk out of a cell.
        type FlowChunk = std::sync::Mutex<Option<(usize, Vec<ControlFlow>)>>;
        let mut rest = flows;
        let mut chunks: Vec<FlowChunk> = Vec::with_capacity(bounds.len() - 1);
        for w in bounds.windows(2).rev() {
            let tail = rest.split_off(w[0]);
            chunks.push(std::sync::Mutex::new(Some((w[0], tail))));
        }
        chunks.reverse();

        let shards = sim_core::pool::run_indexed(workers, &chunks, |_, cell| {
            let (base, chunk_flows) = cell
                .lock()
                .expect("a sibling assembly task panicked")
                .take()
                .expect("each chunk is assembled exactly once");
            chunk_flows
                .into_iter()
                .enumerate()
                .map(|(i, flow)| {
                    let idx = base + i;
                    Self::assemble_one(planned, functions, idx, &planned[idx], flow)
                })
                .collect::<Vec<StaticBlock>>()
        });
        let mut blocks = Vec::with_capacity(planned.len());
        for shard in shards {
            blocks.extend(shard);
        }
        blocks
    }

    /// Assembles one block: resolve the terminator's target address and wrap
    /// plan + flow into the final [`StaticBlock`].
    fn assemble_one(
        planned: &[PlannedBlock],
        functions: &[Function],
        idx: usize,
        plan: &PlannedBlock,
        flow: ControlFlow,
    ) -> StaticBlock {
        let branch_pc = plan.start.add_instructions(plan.instructions - 1);
        let kind = flow.kind();
        let target_addr = match &flow {
            ControlFlow::Conditional { taken, .. } => Some(planned[taken.0 as usize].start),
            ControlFlow::Jump { target } => Some(planned[target.0 as usize].start),
            ControlFlow::Call { callee } => {
                let entry = functions[callee.0 as usize].entry;
                Some(planned[entry.0 as usize].start)
            }
            _ => None,
        };
        let terminator = match target_addr {
            Some(t) => BranchInfo::direct(branch_pc, kind, t),
            None => BranchInfo::indirect(branch_pc, kind),
        };
        StaticBlock {
            id: BlockId(idx as u32),
            function: plan.function,
            block: BasicBlock::new(plan.start, plan.instructions, terminator),
            flow,
        }
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
        planned: &[PlannedBlock],
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
        self.block_near(planned, func, from_idx, distance_lines, backward)
    }

    /// Finds a block of `func` whose start address is roughly `distance_lines`
    /// cache lines away from the terminator of block `from_idx`, in the given
    /// direction. Falls back to the nearest valid block of the function.
    fn block_near(
        &mut self,
        planned: &[PlannedBlock],
        func: &Function,
        from_idx: usize,
        distance_lines: u64,
        backward: bool,
    ) -> BlockId {
        let from_pc = planned[from_idx]
            .start
            .add_instructions(planned[from_idx].instructions - 1);
        let line_bytes = self.geometry.line_bytes();
        let offset = distance_lines * line_bytes + self.rng.range_u64(0, line_bytes);
        let desired = if backward {
            Addr::new(from_pc.raw().saturating_sub(offset))
        } else {
            from_pc.offset(offset)
        };

        let first = func.first_block as usize;
        let last = (func.first_block + func.num_blocks - 1) as usize;
        // Binary search for the block of this function whose start is closest
        // to the desired address.
        let mut lo = first;
        let mut hi = last;
        while lo < hi {
            let mid = (lo + hi) / 2;
            if planned[mid].start < desired {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        let candidates = [lo.saturating_sub(1).max(first), lo.min(last)];
        let best = candidates
            .iter()
            .copied()
            .min_by_key(|&i| planned[i].start.distance(desired))
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

    #[test]
    fn generation_is_deterministic() {
        let a = CodeLayout::generate(&WorkloadProfile::tiny(3));
        let b = CodeLayout::generate(&WorkloadProfile::tiny(3));
        assert_eq!(a.summary(), b.summary());
        assert_eq!(a.blocks().len(), b.blocks().len());
        for (x, y) in a.blocks().iter().zip(b.blocks().iter()) {
            assert_eq!(x.block, y.block);
            assert_eq!(x.flow, y.flow);
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = CodeLayout::generate(&WorkloadProfile::tiny(3));
        let b = CodeLayout::generate(&WorkloadProfile::tiny(4));
        let differs = a.blocks().len() != b.blocks().len()
            || a.blocks()
                .iter()
                .zip(b.blocks().iter())
                .any(|(x, y)| x.flow != y.flow || x.block != y.block);
        assert!(differs);
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
            match &b.flow {
                ControlFlow::Conditional { taken, .. } => {
                    assert_eq!(term.target, Some(layout.block(*taken).start()));
                }
                ControlFlow::Jump { target } => {
                    assert_eq!(term.target, Some(layout.block(*target).start()));
                }
                ControlFlow::Call { callee } => {
                    let entry = layout.function(*callee).entry;
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
                    assert_eq!(ft.function, b.function);
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
        for b in layout.blocks().iter().step_by(7) {
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
        let first = &layout.blocks()[0];
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
                layout.branches_in_line(line).contains(&b.id),
                "branch of block {:?} missing from line index",
                b.id
            );
        }
        // Every indexed branch really lives in that line, in address order.
        let mut line_ids: Vec<_> = layout
            .blocks()
            .iter()
            .map(|b| geom.line_of(b.branch_pc()))
            .collect();
        line_ids.sort_unstable();
        line_ids.dedup();
        for line in line_ids {
            let ids = layout.branches_in_line(line);
            total += ids.len();
            let mut prev = None;
            for &id in ids {
                let pc = layout.block(id).branch_pc();
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
        match &last.flow {
            ControlFlow::Jump { target } => assert_eq!(*target, dispatcher.entry),
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
            match &b.flow {
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
            if let ControlFlow::Conditional { taken, .. } = &b.flow {
                assert_eq!(layout.block(*taken).function, b.function);
            }
        }
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
