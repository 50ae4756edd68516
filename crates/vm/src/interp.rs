//! The interpreter: executes a verified module, optionally recording a trace
//! and optionally flipping one bit somewhere along the way.

use ftkr_ir::decode::{DInst, DOperand, DOperandKind, DecodedFunction, DecodedModule, FUSED_TAIL};
use ftkr_ir::inst::Intrinsic;
use ftkr_ir::verify::verify_executable;
use ftkr_ir::{
    BinKind, BlockId, CastKind, CmpKind, FunctionId, Module, Op, Operand, ValueId, VerifyError,
};

use crate::fault::{FaultSpec, FaultTarget};
use crate::location::Location;
use crate::memory::{MemError, Memory};
use crate::output::ProgramOutput;
use crate::snapshot::{SnapshotImage, VmSnapshot};
use crate::trace::{EventKind, LocationId, MarkerKind, MarkerRecord, ReadSpan, Trace, TraceEvent};
use crate::value::{flip_mask, Value};
use crate::visitor::{EventCtx, TraceVisitor, WalkEnd};

/// Reasons a run can abort; all of them map to the paper's *Crashed*
/// manifestation (crash or hang).
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum TrapKind {
    /// Load or store outside valid memory (the segmentation faults that
    /// dominate KMEANS input-location injections in the paper).
    OutOfBounds,
    /// Integer division or remainder by zero.
    DivisionByZero,
    /// The dynamic step limit was exceeded (proxy for a hang).
    StepLimit,
    /// The call-depth limit was exceeded.
    CallDepth,
    /// An `alloca` exceeded the memory limit.
    OutOfMemory,
    /// An operand had the wrong runtime kind (e.g. a float used as address).
    TypeMismatch,
    /// A register was read before being defined.
    UninitializedRegister,
}

impl std::fmt::Display for TrapKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            TrapKind::OutOfBounds => "out-of-bounds memory access",
            TrapKind::DivisionByZero => "integer division by zero",
            TrapKind::StepLimit => "dynamic step limit exceeded (hang)",
            TrapKind::CallDepth => "call depth limit exceeded",
            TrapKind::OutOfMemory => "allocation limit exceeded",
            TrapKind::TypeMismatch => "operand kind mismatch",
            TrapKind::UninitializedRegister => "read of an undefined register",
        };
        f.write_str(s)
    }
}

/// How a run ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum RunOutcome {
    /// The program ran to completion (its verification phase decides whether
    /// the result is acceptable).
    Completed,
    /// The program crashed or hung.
    Trapped(TrapKind),
}

impl RunOutcome {
    /// True when the program completed.
    pub fn is_completed(&self) -> bool {
        matches!(self, RunOutcome::Completed)
    }
}

/// Which part of the run a tracing interpreter records.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum TraceScope {
    /// Record every dynamic instruction (the default).
    Full,
    /// Record only the dynamic steps in `[start, end)` — the region-scoped
    /// mode used by per-region analyses (Figures 5/6): dynamic indices are
    /// transferable between runs of a deterministic program, so the event
    /// range of a region instance in a full reference trace selects the same
    /// instructions here, at a fraction of the recording cost.  The produced
    /// trace's [`Trace::base_step`] equals `start`.
    Window {
        /// First dynamic step recorded.
        start: u64,
        /// Past-the-end dynamic step.
        end: u64,
    },
}

impl TraceScope {
    /// True when the given dynamic step should be recorded.
    pub fn contains(self, step: u64) -> bool {
        match self {
            TraceScope::Full => true,
            TraceScope::Window { start, end } => step >= start && step < end,
        }
    }

    /// Number of steps recorded, if bounded.
    pub fn len(self) -> Option<u64> {
        match self {
            TraceScope::Full => None,
            TraceScope::Window { start, end } => Some(end.saturating_sub(start)),
        }
    }

    /// True when the scope records nothing.
    pub fn is_empty(self) -> bool {
        self.len() == Some(0)
    }
}

/// Recording options orthogonal to *which* steps are traced (that is
/// [`TraceScope`]): what gets written per recorded step.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceOpts {
    /// Elide loop marker events (`LoopBegin`/`LoopIter`/`LoopEnd`) from the
    /// event stream at record time, logging them in the compact out-of-band
    /// marker table instead ([`Trace::markers`]).  Markers carry no dataflow,
    /// so taint/DDDG analyses are unaffected, and the code-region partitioner
    /// falls back to the marker table plus the module's static loop info —
    /// but event indices no longer equal dynamic steps (use
    /// [`Trace::step_of`]), and marker-elided traces must not be mixed with
    /// ordinary ones in index-aligned faulty/clean comparisons.
    pub skip_markers: bool,
}

/// Interpreter configuration.
#[derive(Debug, Clone, Copy)]
pub struct VmConfig {
    /// Record a dynamic trace (needed for analysis runs, not for campaign
    /// runs).
    pub record_trace: bool,
    /// Which dynamic steps to record when tracing (full run by default).
    pub trace_scope: TraceScope,
    /// Per-step recording options (marker elision).
    pub trace_opts: TraceOpts,
    /// Expected dynamic step count of the run (usually the step count of a
    /// prior untraced run).  Used to pre-size the trace's event and operand
    /// buffers so a tracing run performs O(1) vector allocations.
    pub trace_hint: Option<u64>,
    /// Optional single-bit fault to inject.
    pub fault: Option<FaultSpec>,
    /// Maximum dynamic instructions before the run is declared hung.
    pub max_steps: u64,
    /// Maximum memory cells (globals + stack).
    pub max_memory_cells: u64,
    /// Maximum call depth.
    pub max_call_depth: u32,
}

impl Default for VmConfig {
    fn default() -> Self {
        VmConfig {
            record_trace: false,
            trace_scope: TraceScope::Full,
            trace_opts: TraceOpts::default(),
            trace_hint: None,
            fault: None,
            max_steps: 200_000_000,
            max_memory_cells: 1 << 24,
            max_call_depth: 512,
        }
    }
}

impl VmConfig {
    /// Configuration for an analysis run: tracing on, no fault.
    pub fn tracing() -> Self {
        VmConfig {
            record_trace: true,
            ..Default::default()
        }
    }

    /// Tracing configuration pre-sized for a run of about `steps` dynamic
    /// instructions (typically the step count of a prior untraced run).
    pub fn tracing_sized(steps: u64) -> Self {
        VmConfig {
            record_trace: true,
            trace_hint: Some(steps),
            ..Default::default()
        }
    }

    /// Region-scoped tracing: record only the dynamic steps in
    /// `[start, end)`.  See [`TraceScope::Window`].
    pub fn tracing_region(start: u64, end: u64) -> Self {
        VmConfig {
            record_trace: true,
            trace_scope: TraceScope::Window { start, end },
            ..Default::default()
        }
    }

    /// Configuration for a faulty run without tracing (campaign run).
    pub fn with_fault(fault: FaultSpec) -> Self {
        VmConfig {
            fault: Some(fault),
            ..Default::default()
        }
    }

    /// Configuration for a faulty run *with* tracing (fine-grained analysis
    /// of one injection, e.g. the paper's Figure 7).
    pub fn tracing_with_fault(fault: FaultSpec) -> Self {
        VmConfig {
            record_trace: true,
            fault: Some(fault),
            ..Default::default()
        }
    }

    /// Builder form: set the expected step count used to pre-size trace
    /// buffers.
    pub fn with_trace_hint(mut self, steps: u64) -> Self {
        self.trace_hint = Some(steps);
        self
    }

    /// Builder form: restrict tracing to the given scope.
    pub fn scoped(mut self, scope: TraceScope) -> Self {
        self.trace_scope = scope;
        self
    }

    /// Builder form: elide loop marker events from the recorded stream
    /// (see [`TraceOpts::skip_markers`]).
    pub fn without_markers(mut self) -> Self {
        self.trace_opts.skip_markers = true;
        self
    }
}

/// Everything a run produces.  `PartialEq` compares outcome, step count,
/// outputs, memory image and trace — the full observable state, which is
/// what the snapshot/restore equivalence tests assert on.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// How the run ended.
    pub outcome: RunOutcome,
    /// Number of dynamic instructions executed.
    pub steps: u64,
    /// The program's output stream.
    pub outputs: ProgramOutput,
    /// Final memory image (used by application verification phases).
    pub memory: Memory,
    /// The dynamic trace, when tracing was enabled.
    pub trace: Option<Trace>,
}

impl RunResult {
    /// Convenience: final contents of a global as floats.
    pub fn global_f64(&self, name: &str) -> Option<Vec<f64>> {
        self.memory.read_global_f64(name)
    }

    /// Convenience: final contents of a global as integers.
    pub fn global_i64(&self, name: &str) -> Option<Vec<i64>> {
        self.memory.read_global_i64(name)
    }
}

/// The interpreter.
#[derive(Debug, Clone)]
pub struct Vm {
    config: VmConfig,
}

/// One live call frame.  `Clone` (and `pub(crate)`) so [`VmSnapshot`] can
/// capture and restore the whole frame stack.
#[derive(Debug, Clone)]
pub(crate) struct Frame {
    func: FunctionId,
    frame_id: u32,
    block: BlockId,
    ip: usize,
    regs: Vec<Option<Value>>,
    /// Interned [`LocationId`] of each register (lazy, `NO_ID` = not yet
    /// interned).  Allocated only when tracing.
    reg_ids: Vec<u32>,
    args: Vec<Value>,
    arg_locs: Vec<Option<LocationId>>,
    stack_mark: u64,
    /// Register of the *caller* that receives this frame's return value.
    ret_dest: Option<(usize, ValueId)>,
}

/// Sentinel for "location not interned yet" in the dense id tables.
const NO_ID: u32 = u32::MAX;

/// Resolve a decoded operand to a value plus (when recording) the interned id
/// of the location read — the decoded counterpart of [`Interp::resolve`]: same
/// interning, same trap conditions, with constants and globals coming from
/// the decoded tables.  A free function over the split borrows of
/// [`Interp::dispatch`], so the loop's held frame reference is the only frame
/// access per read; with `RECORD` off it reduces to the value lookup.
#[inline(always)]
fn read_operand<const RECORD: bool>(
    frame: &mut Frame,
    df: &DecodedFunction,
    global_bases: &[u64],
    trace: &mut Trace,
    operand: DOperand,
    intern: bool,
) -> Result<(Value, Option<LocationId>), TrapKind> {
    match operand.unpack() {
        DOperandKind::Value(v) => {
            let val = frame.regs[v.index()].ok_or(TrapKind::UninitializedRegister)?;
            let loc = (RECORD && intern).then(|| intern_reg(trace, frame, v));
            Ok((val, loc))
        }
        DOperandKind::Arg(i) => {
            let val = *frame
                .args
                .get(i as usize)
                .ok_or(TrapKind::UninitializedRegister)?;
            let loc = if RECORD {
                frame.arg_locs.get(i as usize).copied().flatten()
            } else {
                None
            };
            Ok((val, loc))
        }
        DOperandKind::ConstI(i) => Ok((Value::I(df.consts_i[i as usize]), None)),
        DOperandKind::ConstF(i) => Ok((Value::F(df.consts_f[i as usize]), None)),
        DOperandKind::Global(g) => Ok((Value::P(global_bases[g as usize]), None)),
    }
}

/// The per-step state of [`Interp::dispatch`] that changes only at a
/// boundary step.
struct Boundary {
    /// The next step at which this state must be re-evaluated.
    next: u64,
    /// Whether steps record (inside the scope window).
    record: bool,
    /// The bit mask a result fault flips in this step's result (zero when
    /// no result fault strikes): XOR-ing it in unconditionally keeps the
    /// dispatch loop free of a per-result branch.
    flip: u64,
}

impl Boundary {
    /// Evaluate the boundary state at `step` (below the step limit): strike
    /// a memory fault due now, arm a result fault for this step only, and
    /// find the next step at which the fault, the step limit or a scope
    /// window edge changes the state again.
    #[cold]
    #[inline(never)]
    fn at(config: &VmConfig, memory: &mut Memory, step: u64) -> Boundary {
        let mut next = config.max_steps;
        let mut flip = 0;
        if let Some(fault) = config.fault {
            if fault.at_step == step {
                match fault.target {
                    FaultTarget::MemoryCell { addr } => {
                        if let Some(v) = memory.peek(addr) {
                            memory.poke(addr, v.flip_bit(fault.bit));
                        }
                    }
                    FaultTarget::InstructionResult => flip = flip_mask(fault.bit),
                }
                next = step + 1;
            } else if fault.at_step > step {
                next = next.min(fault.at_step);
            }
        }
        if let TraceScope::Window { start, end } = config.trace_scope {
            for edge in [start, end] {
                if edge > step {
                    next = next.min(edge);
                }
            }
        }
        Boundary {
            next,
            record: config.record_trace && config.trace_scope.contains(step),
            flip,
        }
    }
}

/// Hand the events buffered in `trace` to the visitors, then drop them, so a
/// streaming run never retains more than one dispatch's events.
fn deliver(
    trace: &mut Trace,
    event_steps: &mut Vec<u64>,
    visitors: &mut [&mut dyn TraceVisitor],
    wants_reads: &[bool],
    emitted: &mut usize,
) {
    let Some(first) = trace.events.first() else {
        return;
    };
    debug_assert_eq!(event_steps.len(), trace.events.len());
    let pool_start = first.reads.offset as usize;
    for (event, &step) in trace.events.iter().zip(event_steps.iter()) {
        let ctx = EventCtx {
            index: *emitted,
            step,
            event,
            reads: &trace.pool[event.reads.range()],
            locations: &trace.locations,
        };
        for (v, &wants) in visitors.iter_mut().zip(wants_reads) {
            v.on_event(&ctx);
            if wants {
                for (nth, &(id, value)) in ctx.reads.iter().enumerate() {
                    v.on_operand_read(&ctx, nth, id, value);
                }
            }
        }
        *emitted += 1;
    }
    trace.events.clear();
    event_steps.clear();
    trace.pool.truncate(pool_start);
}

/// Intern a register location through the frame's dense per-register table:
/// O(1), no hashing — the hot path of trace recording.
fn intern_reg(trace: &mut Trace, frame: &mut Frame, v: ValueId) -> LocationId {
    let slot = &mut frame.reg_ids[v.index()];
    if *slot == NO_ID {
        *slot = u32::try_from(trace.locations.len()).expect("≤ 2^32 locations per trace");
        trace
            .locations
            .push(Location::reg(frame.func, frame.frame_id, v));
    }
    LocationId(*slot)
}

/// Intern a memory-cell location through the address-indexed dense table.
fn intern_mem(trace: &mut Trace, mem_ids: &mut Vec<u32>, addr: u64) -> LocationId {
    let a = addr as usize;
    if a >= mem_ids.len() {
        mem_ids.resize(a + 1, NO_ID);
    }
    let slot = &mut mem_ids[a];
    if *slot == NO_ID {
        *slot = u32::try_from(trace.locations.len()).expect("≤ 2^32 locations per trace");
        trace.locations.push(Location::mem(addr));
    }
    LocationId(*slot)
}

impl Vm {
    /// Create an interpreter with the given configuration.
    pub fn new(config: VmConfig) -> Self {
        Vm { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &VmConfig {
        &self.config
    }

    /// Execute the module's `main` function.
    pub fn run(&self, module: &Module) -> Result<RunResult, VerifyError> {
        verify_executable(module)?;
        let (entry, _) = module
            .function_by_name("main")
            .expect("verify_executable guarantees main");
        Ok(self.execute(module, entry, Vec::new()))
    }

    /// Execute an arbitrary entry function with arguments (used by tests and
    /// by the MPI driver, which runs one entry per rank).
    pub fn run_function(
        &self,
        module: &Module,
        entry: &str,
        args: Vec<Value>,
    ) -> Result<RunResult, VerifyError> {
        ftkr_ir::verify::verify_module(module)?;
        let (fid, f) = module.function_by_name(entry).ok_or(VerifyError::NoMain)?;
        assert_eq!(
            f.num_args as usize,
            args.len(),
            "entry function argument count mismatch"
        );
        Ok(self.execute(module, fid, args))
    }

    fn execute(&self, module: &Module, entry: FunctionId, args: Vec<Value>) -> RunResult {
        Interp::new(module, &self.config, false).run(entry, args)
    }

    /// Execute the module's `main` function, streaming every dynamic event to
    /// `visitors` **without materializing a trace**: the run keeps only the
    /// interned location table and a one-event scratch buffer, so analyses
    /// ride along in O(locations) memory instead of O(events) — the
    /// no-materialization path campaign executors use to classify outcomes
    /// and detect patterns per injection (see [`crate::visitor`]).
    ///
    /// Visitors observe exactly the events a materialized trace with the same
    /// configuration would contain (same order, same operand reads, same
    /// interned ids); [`RunResult::trace`] is always `None`.  The fault,
    /// scope and limit configuration of the [`Vm`] apply unchanged.
    pub fn run_with_visitors(
        &self,
        module: &Module,
        visitors: &mut [&mut dyn TraceVisitor],
    ) -> Result<RunResult, VerifyError> {
        verify_executable(module)?;
        let (entry, _) = module
            .function_by_name("main")
            .expect("verify_executable guarantees main");
        let mut config = self.config;
        config.record_trace = true;
        Ok(Interp::new(module, &config, true).run_with_visitors(entry, Vec::new(), visitors))
    }

    /// Execute the prefix `[0, step)` of the module's `main` function and
    /// capture the complete interpreter state as a [`VmSnapshot`], without
    /// materializing a trace.  The instruction at `step` has **not** executed
    /// when the snapshot is taken, so a fault at `at_step == step` lands
    /// correctly in a resumed run.
    ///
    /// The prefix is executed with trace recording forced on (streamed and
    /// discarded), so the snapshot's interning tables are exactly those a
    /// cold recording run builds over the same prefix — the property that
    /// keeps resumed traces and streamed event indices bit-identical to cold
    /// runs.  The [`Vm`]'s fault, scope and limit configuration apply to the
    /// prefix unchanged (campaign executors capture with a fault-free
    /// configuration).
    ///
    /// Returns `Ok(None)` when the run finishes or traps before reaching
    /// `step` (including via `max_steps`): state past the end of the program
    /// does not exist. `step == 0` captures the initial state with the entry
    /// frame pushed.
    pub fn snapshot_at(
        &self,
        module: &Module,
        step: u64,
    ) -> Result<Option<VmSnapshot>, VerifyError> {
        verify_executable(module)?;
        let (entry, _) = module
            .function_by_name("main")
            .expect("verify_executable guarantees main");
        let mut config = self.config;
        config.record_trace = true;
        let mut interp = Interp::new(module, &config, true);
        let frame = interp.make_frame(entry, Vec::new(), Vec::new(), None);
        interp.frames.push(frame);
        let mut emitted = 0u64;
        while interp.steps < step {
            if interp.steps >= config.max_steps {
                return Ok(None);
            }
            let flow = interp.step();
            // Discard the streamed event, keeping only the cursor: the
            // snapshot records *how many* events the prefix delivered, not
            // the events themselves.
            if let Some(event) = interp.trace.events.pop() {
                interp.trace.pool.truncate(event.reads.offset as usize);
                interp.event_steps.clear();
                emitted += 1;
            }
            match flow {
                StepFlow::Continue => {}
                StepFlow::Finished | StepFlow::Trap(_) => return Ok(None),
            }
        }
        Ok(Some(interp.capture(emitted)))
    }

    /// Resume execution from a snapshot and run to completion, exactly as if
    /// the capturing run had continued past the fork point.  Deterministic
    /// programs make the composition `snapshot_at(s)` + `resume_from` equal
    /// to one uninterrupted run — outputs, final memory, outcome and step
    /// count — with one exception the campaign executors exploit: the
    /// [`Vm`]'s fault applies to the *resumed* steps, so a fault with
    /// `at_step >= snapshot.step()` strikes identically to a cold faulty
    /// run while the prefix is never re-executed.
    ///
    /// `max_steps` counts absolute steps (the prefix included), so hang
    /// detection behaves as in a cold run.  The memory-cell limit is the
    /// capturing run's (the image carries it); tracing follows this [`Vm`]'s
    /// configuration and records only resumed steps — the produced trace's
    /// `base_step` starts at the fork point (or the scope window, if later).
    pub fn resume_from(
        &self,
        module: &Module,
        snapshot: &VmSnapshot,
    ) -> Result<RunResult, VerifyError> {
        verify_executable(module)?;
        Ok(Interp::from_snapshot(module, &self.config, false, snapshot)
            .run_loop(None, snapshot.events_emitted() as usize))
    }

    /// Resume execution from a snapshot, streaming every resumed event to
    /// `visitors` without materializing a trace (the fork-point analogue of
    /// [`Vm::run_with_visitors`]).  Event indices continue from
    /// [`VmSnapshot::events_emitted`] and the location table from the
    /// snapshot's interned prefix, so visitors observe exactly the suffix of
    /// the event stream a cold streamed run would deliver — prefix-primed
    /// consumers (e.g. streaming pattern detectors) compose bit-identically.
    pub fn resume_with_visitors(
        &self,
        module: &Module,
        snapshot: &VmSnapshot,
        visitors: &mut [&mut dyn TraceVisitor],
    ) -> Result<RunResult, VerifyError> {
        verify_executable(module)?;
        let mut config = self.config;
        config.record_trace = true;
        Ok(Interp::from_snapshot(module, &config, true, snapshot)
            .run_loop(Some(visitors), snapshot.events_emitted() as usize))
    }

    /// [`Vm::run`] through the pre-decoded dispatch tables: dense flat code,
    /// packed operands and fused compare-branch superinstructions instead of
    /// the per-step `match` over heap [`Op`] enums.  Bit-identical to the
    /// legacy path in every observable (outcome, steps, outputs, memory,
    /// trace), several times faster on loop-dominated programs.
    ///
    /// `decoded` must be [`DecodedModule::decode`] of this `module`.
    pub fn run_decoded(
        &self,
        module: &Module,
        decoded: &DecodedModule,
    ) -> Result<RunResult, VerifyError> {
        verify_executable(module)?;
        let (entry, _) = module
            .function_by_name("main")
            .expect("verify_executable guarantees main");
        let mut interp = Interp::new(module, &self.config, false);
        interp.attach_decoded(decoded);
        Ok(interp.run(entry, Vec::new()))
    }

    /// [`Vm::run_with_visitors`] through the pre-decoded dispatch tables.
    pub fn run_with_visitors_decoded(
        &self,
        module: &Module,
        decoded: &DecodedModule,
        visitors: &mut [&mut dyn TraceVisitor],
    ) -> Result<RunResult, VerifyError> {
        verify_executable(module)?;
        let (entry, _) = module
            .function_by_name("main")
            .expect("verify_executable guarantees main");
        let mut config = self.config;
        config.record_trace = true;
        let mut interp = Interp::new(module, &config, true);
        interp.attach_decoded(decoded);
        Ok(interp.run_with_visitors(entry, Vec::new(), visitors))
    }

    /// [`Vm::resume_from`] through the pre-decoded dispatch tables.
    /// Snapshots are interchangeable between the legacy and decoded paths:
    /// frames keep their original `(block, ip)` program counters, and a
    /// snapshot captured between the two halves of a fused pair resumes by
    /// executing the branch half alone.
    pub fn resume_from_decoded(
        &self,
        module: &Module,
        decoded: &DecodedModule,
        snapshot: &VmSnapshot,
    ) -> Result<RunResult, VerifyError> {
        verify_executable(module)?;
        let mut interp = Interp::from_snapshot(module, &self.config, false, snapshot);
        interp.attach_decoded(decoded);
        Ok(interp.run_loop(None, snapshot.events_emitted() as usize))
    }

    /// [`Vm::resume_with_visitors`] through the pre-decoded dispatch tables.
    pub fn resume_with_visitors_decoded(
        &self,
        module: &Module,
        decoded: &DecodedModule,
        snapshot: &VmSnapshot,
        visitors: &mut [&mut dyn TraceVisitor],
    ) -> Result<RunResult, VerifyError> {
        verify_executable(module)?;
        let mut config = self.config;
        config.record_trace = true;
        let mut interp = Interp::from_snapshot(module, &config, true, snapshot);
        interp.attach_decoded(decoded);
        Ok(interp.run_loop(Some(visitors), snapshot.events_emitted() as usize))
    }
}

struct Interp<'m> {
    module: &'m Module,
    config: VmConfig,
    memory: Memory,
    outputs: ProgramOutput,
    trace: Trace,
    /// Interned [`LocationId`] per memory cell (lazy, `NO_ID` sentinel).
    mem_ids: Vec<u32>,
    frames: Vec<Frame>,
    steps: u64,
    next_frame_id: u32,
    /// Stream events to visitors instead of materializing them: each recorded
    /// event is handed over and immediately discarded, so `trace` never grows
    /// beyond the location table plus a one-event scratch buffer.
    streaming: bool,
    /// Pre-decoded dispatch tables: when set, the run loop executes in
    /// [`Interp::dispatch`] (dense flat code, fused superinstructions)
    /// instead of stepping the legacy per-`Op` match.  Semantics are
    /// bit-identical.
    decoded: Option<&'m DecodedModule>,
    /// Absolute source lines per function, materialized from the decoded
    /// delta streams — only when a decoded run records a trace.
    dlines: Vec<Vec<u32>>,
    /// Dynamic step of each event currently in `trace.events`, kept only in
    /// streaming mode: a fused dispatch can emit two events at once, so the
    /// visitors cannot derive event steps from the step counter alone.
    event_steps: Vec<u64>,
    /// Base address per [`GlobalId`], resolved once when decoded tables are
    /// attached.  Globals are laid out at construction and never move, so
    /// decoded operand resolution skips the name-keyed extent scan the
    /// legacy path performs per read.
    global_bases: Vec<u64>,
}

enum StepFlow {
    Continue,
    Finished,
    Trap(TrapKind),
}

impl<'m> Interp<'m> {
    fn new(module: &'m Module, config: &VmConfig, streaming: bool) -> Self {
        // Pre-size the trace from the expected step count (clamped to the
        // scope window and the step limit): tracing then allocates O(1)
        // vectors instead of growing them geometrically.  A scope window's
        // length is an exact event count, so it serves as the hint when no
        // explicit one is given.  Streaming runs retain no events, so they
        // never pre-size.
        let trace = if config.record_trace && !streaming {
            let hint = match (config.trace_hint, config.trace_scope.len()) {
                (Some(h), Some(w)) => Some(h.min(w)),
                (Some(h), None) => Some(h),
                (None, Some(w)) => Some(w),
                (None, None) => None,
            }
            .map(|h| h.min(config.max_steps));
            match hint {
                Some(h) => {
                    let h = usize::try_from(h).unwrap_or(usize::MAX);
                    Trace::with_capacity(h, 2 * h)
                }
                None => Trace::new(),
            }
        } else {
            Trace::new()
        };
        let mut interp = Interp {
            module,
            config: *config,
            memory: Memory::for_module(module, config.max_memory_cells),
            outputs: ProgramOutput::default(),
            trace,
            mem_ids: Vec::new(),
            frames: Vec::new(),
            steps: 0,
            next_frame_id: 0,
            streaming,
            decoded: None,
            dlines: Vec::new(),
            event_steps: Vec::new(),
            global_bases: Vec::new(),
        };
        if let TraceScope::Window { start, .. } = config.trace_scope {
            interp.trace.base_step = start;
        }
        interp
    }

    /// Switch this interpreter to decoded dispatch.  Recording runs
    /// materialize the per-function source-line tables once, up front
    /// (O(static instructions)); untraced runs never touch lines.
    fn attach_decoded(&mut self, decoded: &'m DecodedModule) {
        if self.config.record_trace {
            self.dlines = decoded
                .functions
                .iter()
                .map(DecodedFunction::materialize_lines)
                .collect();
        }
        self.global_bases = self
            .module
            .globals
            .iter()
            .map(|g| {
                self.memory
                    .global_extent(&g.name)
                    .expect("verified global must be laid out")
                    .0
            })
            .collect();
        self.decoded = Some(decoded);
    }

    /// Capture the complete current state as a snapshot image.  `emitted` is
    /// the streamed-event cursor of the capturing prefix run.
    fn capture(&self, emitted: u64) -> VmSnapshot {
        VmSnapshot::new(SnapshotImage {
            step: self.steps,
            events_emitted: emitted,
            next_frame_id: self.next_frame_id,
            memory: self.memory.clone(),
            frames: self.frames.clone(),
            outputs: self.outputs.clone(),
            locations: self.trace.locations.clone(),
            mem_ids: self.mem_ids.clone(),
        })
    }

    /// Rebuild an interpreter from a snapshot: every mutable slab is copied
    /// out of the shared image (copy-on-restore), so restores never alias.
    /// When the resumed configuration does not record, the interning tables
    /// are dropped instead of copied — a plain campaign resume pays for the
    /// memory image and frames only.
    fn from_snapshot(
        module: &'m Module,
        config: &VmConfig,
        streaming: bool,
        snapshot: &VmSnapshot,
    ) -> Self {
        let img = snapshot.image();
        let recording = config.record_trace;
        let mut trace = Trace::new();
        // Resumed recording continues the prefix's interned location table,
        // so ids stay identical to a cold run's first-touch order.
        if recording {
            trace.locations = img.locations.clone();
        }
        // A resumed trace can only contain resumed steps: its base starts at
        // the fork point, or at the scope window if that opens later.
        trace.base_step = match config.trace_scope {
            TraceScope::Full => img.step,
            TraceScope::Window { start, .. } => start.max(img.step),
        };
        let frames = img
            .frames
            .iter()
            .map(|f| {
                let mut f = f.clone();
                if !recording {
                    f.reg_ids = Vec::new();
                } else if f.reg_ids.is_empty() {
                    f.reg_ids = vec![NO_ID; module.function(f.func).num_insts()];
                }
                f
            })
            .collect();
        Interp {
            module,
            config: *config,
            memory: img.memory.clone(),
            outputs: img.outputs.clone(),
            trace,
            mem_ids: if recording {
                img.mem_ids.clone()
            } else {
                Vec::new()
            },
            frames,
            steps: img.step,
            next_frame_id: img.next_frame_id,
            streaming,
            decoded: None,
            dlines: Vec::new(),
            event_steps: Vec::new(),
            global_bases: Vec::new(),
        }
    }

    fn run(self, entry: FunctionId, args: Vec<Value>) -> RunResult {
        self.run_core(entry, args, None)
    }

    /// The streaming run: every recorded event is dispatched to the visitors
    /// and immediately discarded; `on_finish` carries the run outcome.
    fn run_with_visitors(
        self,
        entry: FunctionId,
        args: Vec<Value>,
        visitors: &mut [&mut dyn TraceVisitor],
    ) -> RunResult {
        self.run_core(entry, args, Some(visitors))
    }

    fn run_core(
        mut self,
        entry: FunctionId,
        args: Vec<Value>,
        visitors: Option<&mut [&mut dyn TraceVisitor]>,
    ) -> RunResult {
        let frame = self.make_frame(entry, args, Vec::new(), None);
        self.frames.push(frame);
        self.run_loop(visitors, 0)
    }

    /// The interpreter main loop, shared by cold runs (`emitted_start == 0`)
    /// and snapshot-resumed runs (`emitted_start` = the fork point's streamed
    /// event cursor, so visitor indices continue absolutely).  Runs with
    /// decoded tables execute in [`Interp::dispatch`]; the others step the
    /// legacy per-`Op` interpreter.
    fn run_loop(
        mut self,
        mut visitors: Option<&mut [&mut dyn TraceVisitor]>,
        emitted_start: usize,
    ) -> RunResult {
        let mut emitted = emitted_start;
        // Per-operand delivery is opt-in and constant per visitor: query it
        // once instead of once per dynamic instruction.
        let wants_reads: Vec<bool> = visitors
            .as_deref()
            .map(|vs| vs.iter().map(|v| v.wants_operand_reads()).collect())
            .unwrap_or_default();

        let outcome = match self.decoded {
            Some(dm) if self.config.record_trace => {
                self.dispatch::<true>(dm, visitors.as_deref_mut(), &wants_reads, &mut emitted)
            }
            Some(dm) => self.dispatch::<false>(dm, None, &wants_reads, &mut emitted),
            None => loop {
                if self.steps >= self.config.max_steps {
                    break RunOutcome::Trapped(TrapKind::StepLimit);
                }
                let flow = self.step();
                // Deliver the step's event before acting on the flow, so a
                // final `Ret` still reaches the visitors.
                if let Some(vs) = visitors.as_deref_mut() {
                    deliver(
                        &mut self.trace,
                        &mut self.event_steps,
                        vs,
                        &wants_reads,
                        &mut emitted,
                    );
                }
                match flow {
                    StepFlow::Continue => {}
                    StepFlow::Finished => break RunOutcome::Completed,
                    StepFlow::Trap(t) => break RunOutcome::Trapped(t),
                }
            },
        };

        if let Some(vs) = visitors {
            // The decoded loop returns with its last dispatch's events
            // still buffered.
            deliver(
                &mut self.trace,
                &mut self.event_steps,
                vs,
                &wants_reads,
                &mut emitted,
            );
            let end = WalkEnd {
                events: emitted,
                locations: &self.trace.locations,
                outcome: Some(outcome),
            };
            for v in vs.iter_mut() {
                v.on_finish(&end);
            }
        }

        // A trap can abort a step after its operand reads were pooled but
        // before the event was pushed; drop that dangling tail so the pool
        // length always equals the sum of the event spans.
        let pool_end = self.trace.events.last().map_or(0, |e| e.reads.range().end);
        self.trace.pool.truncate(pool_end);

        RunResult {
            outcome,
            steps: self.steps,
            outputs: self.outputs,
            memory: self.memory,
            trace: if self.config.record_trace && !self.streaming {
                Some(self.trace)
            } else {
                None
            },
        }
    }

    fn make_frame(
        &mut self,
        func: FunctionId,
        args: Vec<Value>,
        arg_locs: Vec<Option<LocationId>>,
        ret_dest: Option<(usize, ValueId)>,
    ) -> Frame {
        let f = self.module.function(func);
        let frame_id = self.next_frame_id;
        self.next_frame_id += 1;
        Frame {
            func,
            frame_id,
            block: f.entry(),
            ip: 0,
            regs: vec![None; f.num_insts()],
            reg_ids: if self.config.record_trace {
                vec![NO_ID; f.num_insts()]
            } else {
                Vec::new()
            },
            args,
            arg_locs,
            stack_mark: self.memory.stack_mark(),
            ret_dest,
        }
    }

    /// Resolve an operand to a value plus (when recording) the interned id of
    /// the location read.
    fn resolve(
        &mut self,
        frame_idx: usize,
        operand: Operand,
        record: bool,
    ) -> Result<(Value, Option<LocationId>), TrapKind> {
        match operand {
            Operand::Value(v) => {
                let frame = &mut self.frames[frame_idx];
                let val = frame.regs[v.index()].ok_or(TrapKind::UninitializedRegister)?;
                let loc = record.then(|| intern_reg(&mut self.trace, frame, v));
                Ok((val, loc))
            }
            Operand::Arg(i) => {
                let frame = &self.frames[frame_idx];
                let val = *frame
                    .args
                    .get(i as usize)
                    .ok_or(TrapKind::UninitializedRegister)?;
                Ok((val, frame.arg_locs.get(i as usize).copied().flatten()))
            }
            Operand::ConstI(c) => Ok((Value::I(c), None)),
            Operand::ConstF(c) => Ok((Value::F(c), None)),
            Operand::Global(g) => {
                let name = &self.module.global(g).name;
                let (base, _) = self
                    .memory
                    .global_extent(name)
                    .expect("verified global must be laid out");
                Ok((Value::P(base), None))
            }
        }
    }

    /// A memory-cell fault strikes *before* the instruction at `at_step`.
    /// Called at the top of every legacy step (the decoded loop strikes it
    /// at its fault boundary instead).
    #[inline]
    fn memory_fault_hook(&mut self) {
        if let Some(fault) = self.config.fault {
            if fault.at_step == self.steps {
                if let FaultTarget::MemoryCell { addr } = fault.target {
                    if let Some(v) = self.memory.peek(addr) {
                        self.memory.poke(addr, v.flip_bit(fault.bit));
                    }
                }
            }
        }
    }

    #[allow(clippy::too_many_lines)]
    fn step(&mut self) -> StepFlow {
        self.memory_fault_hook();

        let frame_idx = self.frames.len() - 1;
        let (func_id, frame_id, inst_id) = {
            let frame = &self.frames[frame_idx];
            let f = self.module.function(frame.func);
            let block = f.block(frame.block);
            let inst_id = block.insts[frame.ip];
            (frame.func, frame.frame_id, inst_id)
        };
        let func = self.module.function(func_id);
        let inst = func.inst(inst_id);
        let line = inst.line;

        // Record this step only when tracing is on *and* the step falls
        // inside the configured scope (always true for TraceScope::Full).
        let record = self.config.record_trace && self.config.trace_scope.contains(self.steps);
        let pool_start = self.trace.pool.len();
        let mut write: Option<(LocationId, Value)> = None;

        // Most instructions simply advance ip; control flow overrides this.
        self.frames[frame_idx].ip += 1;

        macro_rules! resolve {
            ($operand:expr) => {{
                match self.resolve(frame_idx, $operand, record) {
                    Ok((v, loc)) => {
                        // `loc` can be Some even when not recording (argument
                        // ids are interned for the whole tracing run so scope
                        // windows resolve outer-frame arguments); only pool
                        // reads of recorded events.
                        if record {
                            if let Some(l) = loc {
                                self.trace.pool.push((l, v));
                            }
                        }
                        v
                    }
                    Err(t) => return StepFlow::Trap(t),
                }
            }};
        }

        // Record a write to the result register of the current instruction.
        macro_rules! record_result {
            ($value:expr) => {
                if record {
                    let id = intern_reg(&mut self.trace, &mut self.frames[frame_idx], inst_id);
                    write = Some((id, $value));
                }
            };
        }

        let faulty_result = match self.config.fault {
            Some(FaultSpec {
                at_step,
                bit,
                target: FaultTarget::InstructionResult,
            }) if at_step == self.steps => Some(bit),
            _ => None,
        };
        let apply_fault = |v: Value| -> Value {
            match faulty_result {
                Some(bit) => v.flip_bit(bit),
                None => v,
            }
        };

        let mut kind = EventKind::Nop;
        let mut flow = StepFlow::Continue;

        match &inst.op {
            Op::Bin { kind: bk, lhs, rhs } => {
                let a = resolve!(*lhs);
                let b = resolve!(*rhs);
                let result = match eval_bin(*bk, a, b) {
                    Ok(v) => v,
                    Err(t) => return StepFlow::Trap(t),
                };
                let result = apply_fault(result);
                self.frames[frame_idx].regs[inst_id.index()] = Some(result);
                kind = EventKind::Bin(*bk);
                record_result!(result);
            }
            Op::Cmp {
                kind: ck,
                float,
                lhs,
                rhs,
            } => {
                let a = resolve!(*lhs);
                let b = resolve!(*rhs);
                let result = match eval_cmp(*ck, *float, a, b) {
                    Ok(v) => v,
                    Err(t) => return StepFlow::Trap(t),
                };
                let result = apply_fault(Value::I(result as i64));
                self.frames[frame_idx].regs[inst_id.index()] = Some(result);
                kind = EventKind::Cmp {
                    kind: *ck,
                    float: *float,
                    result: result.is_truthy(),
                };
                record_result!(result);
            }
            Op::Cast { kind: ck, src } => {
                let v = resolve!(*src);
                let result = match eval_cast(*ck, v) {
                    Ok(v) => v,
                    Err(t) => return StepFlow::Trap(t),
                };
                let result = apply_fault(result);
                self.frames[frame_idx].regs[inst_id.index()] = Some(result);
                kind = EventKind::Cast(*ck);
                record_result!(result);
            }
            Op::Select {
                cond,
                then_v,
                else_v,
            } => {
                let c = resolve!(*cond);
                let a = resolve!(*then_v);
                let b = resolve!(*else_v);
                let result = apply_fault(if c.is_truthy() { a } else { b });
                self.frames[frame_idx].regs[inst_id.index()] = Some(result);
                kind = EventKind::Select;
                record_result!(result);
            }
            Op::Load { addr } => {
                let a = resolve!(*addr);
                let Some(addr) = a.as_ptr() else {
                    return StepFlow::Trap(TrapKind::TypeMismatch);
                };
                let loaded = match self.memory.load(addr) {
                    Ok(v) => v,
                    Err(MemError::OutOfBounds { .. }) => {
                        return StepFlow::Trap(TrapKind::OutOfBounds)
                    }
                };
                if record {
                    let id = intern_mem(&mut self.trace, &mut self.mem_ids, addr);
                    self.trace.pool.push((id, loaded));
                }
                let result = apply_fault(loaded);
                self.frames[frame_idx].regs[inst_id.index()] = Some(result);
                kind = EventKind::Load;
                record_result!(result);
            }
            Op::Store { addr, value } => {
                let a = resolve!(*addr);
                let v = resolve!(*value);
                let Some(addr) = a.as_ptr() else {
                    return StepFlow::Trap(TrapKind::TypeMismatch);
                };
                let stored = apply_fault(v);
                if let Err(MemError::OutOfBounds { .. }) = self.memory.store(addr, stored) {
                    return StepFlow::Trap(TrapKind::OutOfBounds);
                }
                kind = EventKind::Store;
                if record {
                    let id = intern_mem(&mut self.trace, &mut self.mem_ids, addr);
                    write = Some((id, stored));
                }
            }
            Op::Alloca { size, .. } => {
                let Some(base) = self.memory.alloca(*size as u64) else {
                    return StepFlow::Trap(TrapKind::OutOfMemory);
                };
                let result = Value::P(base);
                self.frames[frame_idx].regs[inst_id.index()] = Some(result);
                kind = EventKind::Alloca {
                    base,
                    size: *size as u64,
                };
                record_result!(result);
            }
            Op::Gep { base, index } => {
                let b = resolve!(*base);
                let i = resolve!(*index);
                let (Some(base), Some(idx)) = (b.as_ptr(), i.as_i64()) else {
                    return StepFlow::Trap(TrapKind::TypeMismatch);
                };
                let addr = (base as i64).wrapping_add(idx) as u64;
                let result = apply_fault(Value::P(addr));
                self.frames[frame_idx].regs[inst_id.index()] = Some(result);
                kind = EventKind::Gep;
                record_result!(result);
            }
            Op::Call { callee, args } => {
                if self.frames.len() as u32 >= self.config.max_call_depth {
                    return StepFlow::Trap(TrapKind::CallDepth);
                }
                let (callee_id, _) = self
                    .module
                    .function_by_name(callee)
                    .expect("verified callee exists");
                let mut arg_vals = Vec::with_capacity(args.len());
                let mut arg_locs = Vec::with_capacity(args.len());
                for a in args {
                    // Intern argument locations whenever tracing is on (not
                    // just inside the scope window) so frames entered before
                    // a window still resolve their argument reads inside it.
                    let (v, loc) = match self.resolve(frame_idx, *a, self.config.record_trace) {
                        Ok(x) => x,
                        Err(t) => return StepFlow::Trap(t),
                    };
                    if record {
                        if let Some(l) = loc {
                            self.trace.pool.push((l, v));
                        }
                    }
                    arg_vals.push(v);
                    arg_locs.push(loc);
                }
                kind = EventKind::Call { callee: callee_id };
                let new_frame =
                    self.make_frame(callee_id, arg_vals, arg_locs, Some((frame_idx, inst_id)));
                self.frames.push(new_frame);
            }
            Op::CallIntrinsic { intrinsic, args } => {
                let mut vals = Vec::with_capacity(args.len());
                for a in args {
                    vals.push(resolve!(*a));
                }
                let result = match eval_intrinsic(*intrinsic, &vals) {
                    Ok(v) => v,
                    Err(t) => return StepFlow::Trap(t),
                };
                let result = apply_fault(result);
                self.frames[frame_idx].regs[inst_id.index()] = Some(result);
                kind = EventKind::Intrinsic;
                record_result!(result);
            }
            Op::Ret { value } => {
                let ret_val = match value {
                    Some(v) => Some(resolve!(*v)),
                    None => None,
                };
                kind = EventKind::Ret;
                let frame = self.frames.pop().expect("at least one frame");
                self.memory.release_to(frame.stack_mark);
                match frame.ret_dest {
                    Some((caller_idx, dest)) => {
                        let ret_val = apply_fault(ret_val.unwrap_or(Value::I(0)));
                        let caller = &mut self.frames[caller_idx];
                        caller.regs[dest.index()] = Some(ret_val);
                        if record {
                            let id = intern_reg(&mut self.trace, caller, dest);
                            write = Some((id, ret_val));
                        }
                    }
                    None => {
                        flow = StepFlow::Finished;
                    }
                }
            }
            Op::Br { target } => {
                let frame = &mut self.frames[frame_idx];
                frame.block = *target;
                frame.ip = 0;
                kind = EventKind::Br;
            }
            Op::CondBr {
                cond,
                then_b,
                else_b,
            } => {
                let c = resolve!(*cond);
                let taken = c.is_truthy();
                let frame = &mut self.frames[frame_idx];
                frame.block = if taken { *then_b } else { *else_b };
                frame.ip = 0;
                kind = EventKind::CondBr { taken };
            }
            Op::Output { value, format } => {
                let v = resolve!(*value);
                self.outputs.emit(v, *format);
                kind = EventKind::Output { format: *format };
            }
            Op::LoopBegin {
                id,
                depth,
                kind: lk,
                ..
            } => {
                kind = EventKind::LoopBegin {
                    id: *id,
                    depth: *depth,
                    kind: *lk,
                };
            }
            Op::LoopEnd { id } => {
                kind = EventKind::LoopEnd { id: *id };
            }
            Op::LoopIter { id } => {
                kind = EventKind::LoopIter { id: *id };
            }
            Op::Nop => {}
        }

        if record {
            // Marker elision: loop markers carry no dataflow, so under
            // `skip_markers` they go to the compact out-of-band table instead
            // of the event stream.
            let elide = self.config.trace_opts.skip_markers && kind.is_marker();
            if elide {
                // Streaming runs retain no trace, so there is nothing for a
                // marker record to annotate — and `events.len()` (always ~0
                // there) could not position it anyway.  Drop the marker.
                if !self.streaming {
                    let marker = match kind {
                        EventKind::LoopBegin { id, depth, kind } => {
                            MarkerKind::Begin { id, depth, kind }
                        }
                        EventKind::LoopEnd { id } => MarkerKind::End { id },
                        EventKind::LoopIter { id } => MarkerKind::Iter { id },
                        _ => unreachable!("is_marker covers exactly the loop markers"),
                    };
                    self.trace.markers.push(MarkerRecord {
                        at_event: u32::try_from(self.trace.events.len())
                            .expect("≤ 2^32 events per trace"),
                        func: func_id,
                        frame: frame_id,
                        kind: marker,
                    });
                }
            } else {
                let len = (self.trace.pool.len() - pool_start) as u32;
                let offset = u32::try_from(pool_start).expect("≤ 2^32 operand reads per trace");
                self.trace.events.push(TraceEvent {
                    func: func_id,
                    frame: frame_id,
                    inst: inst_id,
                    line,
                    kind,
                    reads: ReadSpan { offset, len },
                    write,
                });
                if self.streaming {
                    self.event_steps.push(self.steps);
                }
            }
        }
        self.steps += 1;
        flow
    }

    /// The decoded dispatch loop: runs until the program finishes, traps or
    /// reaches the step limit.  One body serves every decoded run,
    /// monomorphized on `RECORD` (= `config.record_trace`): the untraced
    /// instance compiles without any recording code, while the recording
    /// instance interns locations, pools operand reads and pushes events
    /// (marker records under `skip_markers`), streaming them to `visitors`
    /// when set.
    ///
    /// The loop holds split borrows of the interpreter's fields and counts
    /// steps in a local.  Per step it makes one compare, against the next
    /// *boundary*: the step limit, the fault's step, or an edge of the scope
    /// window.  A boundary re-evaluates that state — it traps on the limit,
    /// strikes a memory fault or arms a result fault for exactly one step,
    /// and switches recording on or off.  A fused [`DInst::CmpBr`] runs both
    /// of its halves (two dynamic steps) in one dispatch unless a boundary
    /// falls between them; then only the compare half runs, leaving the
    /// program counter on the [`FUSED_TAIL`] branch half, which the next
    /// dispatch runs alone exactly as it does after a mid-pair snapshot
    /// restore.  Bit-identical to [`Interp::step`] in every observable:
    /// traces, interning order, faults, traps, outputs and step accounting.
    ///
    /// Kept out of line: inlined into [`Interp::run_loop`], the untraced
    /// instance measured several percent slower per step.
    #[allow(clippy::too_many_lines)]
    #[inline(never)]
    fn dispatch<const RECORD: bool>(
        &mut self,
        dm: &DecodedModule,
        mut visitors: Option<&mut [&mut dyn TraceVisitor]>,
        wants_reads: &[bool],
        emitted: &mut usize,
    ) -> RunOutcome {
        let Interp {
            module,
            config,
            memory,
            outputs,
            trace,
            mem_ids,
            frames,
            steps,
            next_frame_id,
            streaming,
            dlines,
            event_steps,
            global_bases,
            ..
        } = self;
        let mut frame_idx = frames.len() - 1;
        let mut df = dm.function(frames[frame_idx].func);
        let mut nsteps = *steps;
        // Boundary state, first evaluated before the first step.
        let (mut next, mut record, mut flip) = (nsteps, false, 0);
        loop {
            if RECORD {
                if let Some(vs) = visitors.as_deref_mut() {
                    deliver(trace, event_steps, vs, wants_reads, emitted);
                }
            }
            if nsteps >= next {
                if nsteps >= config.max_steps {
                    *steps = nsteps;
                    return RunOutcome::Trapped(TrapKind::StepLimit);
                }
                Boundary { next, record, flip } = Boundary::at(config, memory, nsteps);
            }

            let frame = &mut frames[frame_idx];
            let (func_id, frame_id) = (frame.func, frame.frame_id);
            let mut lin = df.lin(frame.block, frame.ip);
            let packed = df.flat_map[lin];
            let dinst = df.code[(packed & !FUSED_TAIL) as usize];
            let mut iid = ValueId(df.lin_iids[lin]);
            // Most instructions simply advance ip; control flow overrides this.
            frame.ip += 1;
            let mut pool_start = trace.pool.len();
            let mut write: Option<(LocationId, Value)> = None;

            macro_rules! bail {
                ($trap:expr) => {{
                    *steps = nsteps;
                    return RunOutcome::Trapped($trap);
                }};
            }
            macro_rules! read {
                ($operand:expr) => {{
                    match read_operand::<RECORD>(frame, df, global_bases, trace, $operand, record) {
                        Ok((v, loc)) => {
                            if RECORD && record {
                                if let Some(l) = loc {
                                    trace.pool.push((l, v));
                                }
                            }
                            v
                        }
                        Err(t) => bail!(t),
                    }
                }};
            }
            macro_rules! faulted {
                ($value:expr) => {{
                    let v: Value = $value;
                    v.with_bits(v.bits() ^ flip)
                }};
            }
            // Write the current instruction's result register.
            macro_rules! set {
                ($value:expr) => {{
                    let v = $value;
                    frame.regs[iid.index()] = Some(v);
                    if RECORD && record {
                        write = Some((intern_reg(trace, frame, iid), v));
                    }
                    v
                }};
            }
            macro_rules! emit {
                ($kind:expr) => {
                    if RECORD && record {
                        let kind = $kind;
                        // Marker elision: loop markers carry no dataflow, so
                        // under `skip_markers` they go to the compact
                        // out-of-band table instead of the event stream.  A
                        // streaming run retains no trace for a marker record
                        // to annotate, so it drops the marker.
                        if config.trace_opts.skip_markers && kind.is_marker() {
                            if !*streaming {
                                let marker = match kind {
                                    EventKind::LoopBegin { id, depth, kind } => {
                                        MarkerKind::Begin { id, depth, kind }
                                    }
                                    EventKind::LoopEnd { id } => MarkerKind::End { id },
                                    EventKind::LoopIter { id } => MarkerKind::Iter { id },
                                    _ => unreachable!("is_marker covers exactly the loop markers"),
                                };
                                trace.markers.push(MarkerRecord {
                                    at_event: u32::try_from(trace.events.len())
                                        .expect("≤ 2^32 events per trace"),
                                    func: func_id,
                                    frame: frame_id,
                                    kind: marker,
                                });
                            }
                        } else {
                            let len = (trace.pool.len() - pool_start) as u32;
                            let offset = u32::try_from(pool_start)
                                .expect("≤ 2^32 operand reads per trace");
                            trace.events.push(TraceEvent {
                                func: func_id,
                                frame: frame_id,
                                inst: iid,
                                line: dlines[func_id.index()][lin],
                                kind,
                                reads: ReadSpan { offset, len },
                                write,
                            });
                            if *streaming {
                                event_steps.push(nsteps);
                            }
                        }
                    }
                };
            }
            // The branch half of a fused pair, on its condition: the register
            // the compare half wrote.
            macro_rules! branch_half {
                ($cond:expr) => {{
                    let DInst::CmpBr { then_b, else_b, .. } = dinst else {
                        unreachable!("FUSED_TAIL only marks CmpBr branch halves");
                    };
                    let taken = $cond.is_truthy();
                    frame.block = BlockId(if taken { then_b } else { else_b });
                    frame.ip = 0;
                    EventKind::CondBr { taken }
                }};
            }

            let kind = if packed & FUSED_TAIL != 0 {
                branch_half!(read!(DOperand::reg(ValueId(df.lin_iids[lin - 1]))))
            } else {
                match dinst {
                    DInst::Bin { kind, lhs, rhs } => {
                        let a = read!(lhs);
                        let b = read!(rhs);
                        match eval_bin(kind, a, b) {
                            Ok(v) => set!(faulted!(v)),
                            Err(t) => bail!(t),
                        };
                        EventKind::Bin(kind)
                    }
                    DInst::Cmp {
                        kind,
                        float,
                        lhs,
                        rhs,
                    }
                    | DInst::CmpBr {
                        kind,
                        float,
                        lhs,
                        rhs,
                        ..
                    } => {
                        let a = read!(lhs);
                        let b = read!(rhs);
                        let result = match eval_cmp(kind, float, a, b) {
                            Ok(r) => set!(faulted!(Value::I(r as i64))),
                            Err(t) => bail!(t),
                        };
                        let cmp = EventKind::Cmp {
                            kind,
                            float,
                            result: result.is_truthy(),
                        };
                        if let DInst::Cmp { .. } = dinst {
                            cmp
                        } else {
                            // Fused pair: the compare half is a step of its
                            // own; the branch half follows in this dispatch
                            // unless a boundary falls between the two.
                            emit!(cmp);
                            nsteps += 1;
                            if nsteps >= next {
                                continue;
                            }
                            let cond = DOperand::reg(iid);
                            lin += 1;
                            iid = ValueId(df.lin_iids[lin]);
                            pool_start = trace.pool.len();
                            write = None;
                            // Untraced, the condition is the compare result
                            // just written; recording reads the register.
                            branch_half!(if RECORD { read!(cond) } else { result })
                        }
                    }
                    DInst::Cast { kind, src } => {
                        let v = read!(src);
                        match eval_cast(kind, v) {
                            Ok(v) => set!(faulted!(v)),
                            Err(t) => bail!(t),
                        };
                        EventKind::Cast(kind)
                    }
                    DInst::Select {
                        cond,
                        then_v,
                        else_v,
                    } => {
                        let c = read!(cond);
                        let a = read!(then_v);
                        let b = read!(else_v);
                        set!(faulted!(if c.is_truthy() { a } else { b }));
                        EventKind::Select
                    }
                    DInst::Load { addr } => {
                        let Some(addr) = read!(addr).as_ptr() else {
                            bail!(TrapKind::TypeMismatch);
                        };
                        let loaded = match memory.load(addr) {
                            Ok(v) => v,
                            Err(MemError::OutOfBounds { .. }) => bail!(TrapKind::OutOfBounds),
                        };
                        if RECORD && record {
                            let id = intern_mem(trace, mem_ids, addr);
                            trace.pool.push((id, loaded));
                        }
                        set!(faulted!(loaded));
                        EventKind::Load
                    }
                    DInst::Store { addr, value } => {
                        let a = read!(addr);
                        let v = read!(value);
                        let Some(addr) = a.as_ptr() else {
                            bail!(TrapKind::TypeMismatch);
                        };
                        let stored = faulted!(v);
                        if let Err(MemError::OutOfBounds { .. }) = memory.store(addr, stored) {
                            bail!(TrapKind::OutOfBounds);
                        }
                        if RECORD && record {
                            write = Some((intern_mem(trace, mem_ids, addr), stored));
                        }
                        EventKind::Store
                    }
                    DInst::Alloca { size } => {
                        let Some(base) = memory.alloca(u64::from(size)) else {
                            bail!(TrapKind::OutOfMemory);
                        };
                        set!(Value::P(base));
                        EventKind::Alloca {
                            base,
                            size: u64::from(size),
                        }
                    }
                    DInst::Gep { base, index } => {
                        let b = read!(base);
                        let i = read!(index);
                        let (Some(base), Some(idx)) = (b.as_ptr(), i.as_i64()) else {
                            bail!(TrapKind::TypeMismatch);
                        };
                        set!(faulted!(Value::P((base as i64).wrapping_add(idx) as u64)));
                        EventKind::Gep
                    }
                    DInst::Call { callee, args } => {
                        // The top frame is always `frame_idx`, so the depth
                        // check stays ahead of operand resolution (the legacy
                        // trap order) without touching `frames`.
                        if (frame_idx + 1) as u32 >= config.max_call_depth {
                            bail!(TrapKind::CallDepth);
                        }
                        let n = args.len as usize;
                        let mut arg_vals = Vec::with_capacity(n);
                        let mut arg_locs = Vec::with_capacity(n);
                        for k in args.range() {
                            // Intern argument locations whenever tracing is on
                            // (not just inside the scope window) so frames
                            // entered before a window still resolve their
                            // argument reads inside it.
                            let (v, loc) = match read_operand::<RECORD>(
                                frame,
                                df,
                                global_bases,
                                trace,
                                df.args_pool[k],
                                true,
                            ) {
                                Ok(x) => x,
                                Err(t) => bail!(t),
                            };
                            if RECORD && record {
                                if let Some(l) = loc {
                                    trace.pool.push((l, v));
                                }
                            }
                            arg_vals.push(v);
                            arg_locs.push(loc);
                        }
                        let f = module.function(callee);
                        frames.push(Frame {
                            func: callee,
                            frame_id: *next_frame_id,
                            block: f.entry(),
                            ip: 0,
                            regs: vec![None; f.num_insts()],
                            reg_ids: if RECORD {
                                vec![NO_ID; f.num_insts()]
                            } else {
                                Vec::new()
                            },
                            args: arg_vals,
                            arg_locs,
                            stack_mark: memory.stack_mark(),
                            ret_dest: Some((frame_idx, iid)),
                        });
                        *next_frame_id += 1;
                        frame_idx += 1;
                        df = dm.function(callee);
                        EventKind::Call { callee }
                    }
                    DInst::CallIntrinsic { intrinsic, args } => {
                        let mut vals = Vec::with_capacity(args.len as usize);
                        for k in args.range() {
                            vals.push(read!(df.args_pool[k]));
                        }
                        match eval_intrinsic(intrinsic, &vals) {
                            Ok(v) => set!(faulted!(v)),
                            Err(t) => bail!(t),
                        };
                        EventKind::Intrinsic
                    }
                    DInst::Ret { value } => {
                        let ret_val = match value {
                            Some(v) => Some(read!(v)),
                            None => None,
                        };
                        let done = frames.pop().expect("at least one frame");
                        memory.release_to(done.stack_mark);
                        let Some((caller_idx, dest)) = done.ret_dest else {
                            emit!(EventKind::Ret);
                            *steps = nsteps + 1;
                            return RunOutcome::Completed;
                        };
                        let v = faulted!(ret_val.unwrap_or(Value::I(0)));
                        let caller = &mut frames[caller_idx];
                        caller.regs[dest.index()] = Some(v);
                        if RECORD && record {
                            write = Some((intern_reg(trace, caller, dest), v));
                        }
                        frame_idx -= 1;
                        df = dm.function(frames[frame_idx].func);
                        EventKind::Ret
                    }
                    DInst::Br { target } => {
                        frame.block = BlockId(target);
                        frame.ip = 0;
                        EventKind::Br
                    }
                    DInst::CondBr {
                        cond,
                        then_b,
                        else_b,
                    } => {
                        let taken = read!(cond).is_truthy();
                        frame.block = BlockId(if taken { then_b } else { else_b });
                        frame.ip = 0;
                        EventKind::CondBr { taken }
                    }
                    DInst::Output { value, format } => {
                        outputs.emit(read!(value), format);
                        EventKind::Output { format }
                    }
                    DInst::LoopBegin { id, depth, kind } => {
                        EventKind::LoopBegin { id, depth, kind }
                    }
                    DInst::LoopEnd { id } => EventKind::LoopEnd { id },
                    DInst::LoopIter { id } => EventKind::LoopIter { id },
                    DInst::Nop => EventKind::Nop,
                }
            };
            emit!(kind);
            nsteps += 1;
        }
    }
}

fn eval_bin(kind: BinKind, a: Value, b: Value) -> Result<Value, TrapKind> {
    use BinKind::*;
    if kind.is_float() {
        let (Some(x), Some(y)) = (a.as_f64(), b.as_f64()) else {
            return Err(TrapKind::TypeMismatch);
        };
        let r = match kind {
            FAdd => x + y,
            FSub => x - y,
            FMul => x * y,
            FDiv => x / y,
            FMin => x.min(y),
            FMax => x.max(y),
            _ => unreachable!("float op"),
        };
        return Ok(Value::F(r));
    }
    let (Some(x), Some(y)) = (a.as_i64(), b.as_i64()) else {
        return Err(TrapKind::TypeMismatch);
    };
    let r = match kind {
        Add => x.wrapping_add(y),
        Sub => x.wrapping_sub(y),
        Mul => x.wrapping_mul(y),
        SDiv => {
            if y == 0 {
                return Err(TrapKind::DivisionByZero);
            }
            x.wrapping_div(y)
        }
        SRem => {
            if y == 0 {
                return Err(TrapKind::DivisionByZero);
            }
            x.wrapping_rem(y)
        }
        And => x & y,
        Or => x | y,
        Xor => x ^ y,
        Shl => ((x as u64) << (y as u64 & 63)) as i64,
        LShr => ((x as u64) >> (y as u64 & 63)) as i64,
        AShr => x >> (y as u64 & 63),
        SMin => x.min(y),
        SMax => x.max(y),
        _ => unreachable!("integer op"),
    };
    Ok(Value::I(r))
}

fn eval_cmp(kind: CmpKind, float: bool, a: Value, b: Value) -> Result<bool, TrapKind> {
    if float {
        let (Some(x), Some(y)) = (a.as_f64(), b.as_f64()) else {
            return Err(TrapKind::TypeMismatch);
        };
        Ok(match kind {
            CmpKind::Eq => x == y,
            CmpKind::Ne => x != y,
            CmpKind::Lt => x < y,
            CmpKind::Le => x <= y,
            CmpKind::Gt => x > y,
            CmpKind::Ge => x >= y,
        })
    } else {
        // Integer compares also accept pointers (address comparisons).
        let x = match a {
            Value::I(v) => v,
            Value::P(v) => v as i64,
            Value::F(_) => return Err(TrapKind::TypeMismatch),
        };
        let y = match b {
            Value::I(v) => v,
            Value::P(v) => v as i64,
            Value::F(_) => return Err(TrapKind::TypeMismatch),
        };
        Ok(match kind {
            CmpKind::Eq => x == y,
            CmpKind::Ne => x != y,
            CmpKind::Lt => x < y,
            CmpKind::Le => x <= y,
            CmpKind::Gt => x > y,
            CmpKind::Ge => x >= y,
        })
    }
}

fn eval_cast(kind: CastKind, v: Value) -> Result<Value, TrapKind> {
    match kind {
        CastKind::FpToSi => {
            let Some(x) = v.as_f64() else {
                return Err(TrapKind::TypeMismatch);
            };
            Ok(Value::I(x as i64))
        }
        CastKind::SiToFp => {
            let Some(x) = v.as_i64() else {
                return Err(TrapKind::TypeMismatch);
            };
            Ok(Value::F(x as f64))
        }
        CastKind::TruncI32 => {
            let Some(x) = v.as_i64() else {
                return Err(TrapKind::TypeMismatch);
            };
            Ok(Value::I((x as i32) as i64))
        }
        CastKind::FpRound32 => {
            let Some(x) = v.as_f64() else {
                return Err(TrapKind::TypeMismatch);
            };
            Ok(Value::F((x as f32) as f64))
        }
        CastKind::BitcastFtoI => {
            let Some(x) = v.as_f64() else {
                return Err(TrapKind::TypeMismatch);
            };
            Ok(Value::I(x.to_bits() as i64))
        }
        CastKind::BitcastItoF => {
            let Some(x) = v.as_i64() else {
                return Err(TrapKind::TypeMismatch);
            };
            Ok(Value::F(f64::from_bits(x as u64)))
        }
    }
}

fn eval_intrinsic(intrinsic: Intrinsic, args: &[Value]) -> Result<Value, TrapKind> {
    let get = |i: usize| -> Result<f64, TrapKind> {
        args.get(i)
            .and_then(|v| v.as_f64())
            .ok_or(TrapKind::TypeMismatch)
    };
    let r = match intrinsic {
        Intrinsic::Sqrt => get(0)?.sqrt(),
        Intrinsic::Fabs => get(0)?.abs(),
        Intrinsic::Pow => get(0)?.powf(get(1)?),
        Intrinsic::Exp => get(0)?.exp(),
        Intrinsic::Log => get(0)?.ln(),
        Intrinsic::Cos => get(0)?.cos(),
        Intrinsic::Sin => get(0)?.sin(),
    };
    Ok(Value::F(r))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftkr_ir::prelude::*;
    use ftkr_ir::Global;

    /// sum = 0; for i in 0..10 { sum += i }; store to global; output sum.
    fn sum_module() -> Module {
        let mut m = Module::new("sum");
        let g = m.add_global(Global::zeroed_i64("sum", 1));
        let mut b = FunctionBuilder::new("main");
        let acc = b.alloca("acc", 1);
        let zero = b.const_i64(0);
        b.store(acc, zero);
        let ten = b.const_i64(10);
        b.main_for("main_loop", zero, ten, |b, i| {
            let cur = b.load(acc);
            let next = b.add(cur, i);
            b.store(acc, next);
        });
        let total = b.load(acc);
        let gaddr = b.global_addr(g);
        b.store(gaddr, total);
        b.output(total, OutputFormat::Integer);
        b.ret(None);
        m.add_function(b.finish());
        m
    }

    #[test]
    fn sum_program_computes_45() {
        let r = Vm::new(VmConfig::default()).run(&sum_module()).unwrap();
        assert!(r.outcome.is_completed());
        assert_eq!(r.global_i64("sum").unwrap(), vec![45]);
        assert_eq!(r.outputs.records[0].text, "45");
        assert!(r.trace.is_none());
    }

    #[test]
    fn tracing_records_every_dynamic_instruction() {
        let r = Vm::new(VmConfig::tracing()).run(&sum_module()).unwrap();
        let trace = r.trace.unwrap();
        assert_eq!(trace.len() as u64, r.steps);
        assert_eq!(trace.base_step(), 0);
        // 10 iterations => 10 LoopIter markers.
        let iters = trace
            .events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::LoopIter { .. }))
            .count();
        assert_eq!(iters, 10);
        // Every store event writes a memory location.
        assert!(trace
            .iter_views()
            .filter(|(_, v)| matches!(v.event().kind, EventKind::Store))
            .all(|(_, v)| v.written_location().map(|l| l.is_mem()).unwrap_or(false)));
        // The operand pool is exactly covered by the event spans.
        let span_sum: usize = trace.events.iter().map(|e| e.num_reads()).sum();
        assert_eq!(span_sum, trace.num_operands());
    }

    #[test]
    fn presized_tracing_produces_the_same_trace() {
        let module = sum_module();
        let untraced = Vm::new(VmConfig::default()).run(&module).unwrap();
        let plain = Vm::new(VmConfig::tracing()).run(&module).unwrap();
        let sized = Vm::new(VmConfig::tracing_sized(untraced.steps))
            .run(&module)
            .unwrap();
        let a = plain.trace.unwrap();
        let b = sized.trace.unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn region_scoped_tracing_matches_the_full_trace_window() {
        let module = sum_module();
        let full = Vm::new(VmConfig::tracing())
            .run(&module)
            .unwrap()
            .trace
            .unwrap();
        let (start, end) = (5u64, 25u64);
        let scoped = Vm::new(VmConfig::tracing_region(start, end))
            .run(&module)
            .unwrap()
            .trace
            .unwrap();
        assert_eq!(scoped.base_step(), start);
        assert_eq!(scoped.len() as u64, end - start);
        // Every windowed event resolves to the same instruction, locations
        // and values as the corresponding event of the full trace.
        for i in 0..scoped.len() {
            let s = scoped.resolved(i);
            let f = full.resolved(start as usize + i);
            assert_eq!(s, f, "event {i} differs");
        }
    }

    #[test]
    fn region_scoped_tracing_resolves_arguments_of_outer_frames() {
        // A function call made *before* the window starts must still resolve
        // argument reads inside the window.
        let mut m = Module::new("m");
        let mut callee = FunctionBuilder::with_args("work", 1);
        let x = callee.arg(0);
        let mut last = x;
        for _ in 0..8 {
            last = callee.fadd(last, x);
        }
        callee.ret(Some(last));
        m.add_function(callee.finish());
        let mut main = FunctionBuilder::new("main");
        let three = main.const_f64(3.0);
        let r = main.call("work", vec![three]);
        main.output(r, OutputFormat::Full);
        main.ret(None);
        m.add_function(main.finish());

        let full = Vm::new(VmConfig::tracing()).run(&m).unwrap().trace.unwrap();
        let scoped = Vm::new(VmConfig::tracing_region(3, 8))
            .run(&m)
            .unwrap()
            .trace
            .unwrap();
        for i in 0..scoped.len() {
            assert_eq!(scoped.resolved(i), full.resolved(3 + i));
        }
        // Argument reads outside the window must not leak orphan entries
        // into the operand pool: the pool is exactly the event spans.
        let span_sum: usize = scoped.events.iter().map(|e| e.num_reads()).sum();
        assert_eq!(span_sum, scoped.num_operands());
    }

    #[test]
    fn function_calls_return_values_and_release_allocas() {
        let mut m = Module::new("m");
        let mut callee = FunctionBuilder::with_args("square", 1);
        let x = callee.arg(0);
        let sq = callee.fmul(x, x);
        let tmp = callee.alloca("tmp", 16);
        callee.store(tmp, sq);
        let back = callee.load(tmp);
        callee.ret(Some(back));
        m.add_function(callee.finish());

        let mut main = FunctionBuilder::new("main");
        let three = main.const_f64(3.0);
        let nine = main.call("square", vec![three]);
        main.output(nine, OutputFormat::Full);
        main.ret(None);
        m.add_function(main.finish());

        let r = Vm::new(VmConfig::default()).run(&m).unwrap();
        assert!(r.outcome.is_completed());
        assert_eq!(r.outputs.records[0].value.as_f64().unwrap(), 9.0);
        // The alloca made inside `square` is released: only globals remain.
        assert_eq!(r.memory.valid_len(), r.memory.globals_len());
    }

    #[test]
    fn division_by_zero_traps() {
        let mut m = Module::new("m");
        let mut b = FunctionBuilder::new("main");
        let one = b.const_i64(1);
        let zero = b.const_i64(0);
        b.sdiv(one, zero);
        b.ret(None);
        m.add_function(b.finish());
        let r = Vm::new(VmConfig::default()).run(&m).unwrap();
        assert_eq!(r.outcome, RunOutcome::Trapped(TrapKind::DivisionByZero));
    }

    #[test]
    fn out_of_bounds_store_traps() {
        let mut m = Module::new("m");
        m.add_global(Global::zeroed_f64("g", 2));
        let mut b = FunctionBuilder::new("main");
        let gaddr = b.global_addr(GlobalId(0));
        let idx = b.const_i64(100);
        let v = b.const_f64(1.0);
        b.store_idx(gaddr, idx, v);
        b.ret(None);
        m.add_function(b.finish());
        let r = Vm::new(VmConfig::default()).run(&m).unwrap();
        assert_eq!(r.outcome, RunOutcome::Trapped(TrapKind::OutOfBounds));
    }

    #[test]
    fn infinite_loop_hits_step_limit() {
        let mut m = Module::new("m");
        let mut b = FunctionBuilder::new("main");
        let one = b.const_i64(1);
        b.while_loop(
            "forever",
            LoopKind::Main,
            |_b| one,
            |b| {
                b.add(one, one);
            },
        );
        b.ret(None);
        m.add_function(b.finish());
        let config = VmConfig {
            max_steps: 10_000,
            ..Default::default()
        };
        let r = Vm::new(config).run(&m).unwrap();
        assert_eq!(r.outcome, RunOutcome::Trapped(TrapKind::StepLimit));
    }

    #[test]
    fn result_fault_changes_the_computation() {
        let module = sum_module();
        // Find a dynamic add instruction in a fault-free traced run.
        let clean = Vm::new(VmConfig::tracing()).run(&module).unwrap();
        let trace = clean.trace.unwrap();
        let (step, _) = trace
            .iter()
            .find(|(_, e)| matches!(e.kind, EventKind::Bin(BinKind::Add)))
            .expect("sum program performs additions");
        let fault = FaultSpec::in_result(step as u64, 5);
        let faulty = Vm::new(VmConfig::with_fault(fault)).run(&module).unwrap();
        assert!(faulty.outcome.is_completed());
        assert_ne!(faulty.global_i64("sum").unwrap(), vec![45]);
    }

    #[test]
    fn memory_fault_at_step_zero_corrupts_initial_global() {
        let module = sum_module();
        // Global `sum` occupies cell 0; flipping bit 3 before any instruction
        // gives it the value 8, but the program overwrites it => final value
        // is still 45 (the paper's Data Overwriting pattern).
        let fault = FaultSpec::in_memory(0, 0, 3);
        let r = Vm::new(VmConfig::with_fault(fault)).run(&module).unwrap();
        assert!(r.outcome.is_completed());
        assert_eq!(r.global_i64("sum").unwrap(), vec![45]);
    }

    #[test]
    fn faulty_and_clean_runs_have_identical_step_counts_when_completed() {
        let module = sum_module();
        let clean = Vm::new(VmConfig::default()).run(&module).unwrap();
        // A fault in a value that does not steer control flow keeps the step
        // count identical, which is what makes dynamic indices transferable
        // between runs.
        let fault = FaultSpec::in_result(20, 1);
        let faulty = Vm::new(VmConfig::with_fault(fault)).run(&module).unwrap();
        if faulty.outcome.is_completed() {
            assert_eq!(clean.steps, faulty.steps);
        }
    }

    #[test]
    fn run_function_with_args() {
        let mut m = Module::new("m");
        let mut f = FunctionBuilder::with_args("axpy", 2);
        let a = f.arg(0);
        let x = f.arg(1);
        let r = f.fmul(a, x);
        f.ret(Some(r));
        m.add_function(f.finish());
        let res = Vm::new(VmConfig::default())
            .run_function(&m, "axpy", vec![Value::F(2.0), Value::F(4.0)])
            .unwrap();
        assert!(res.outcome.is_completed());
    }

    #[test]
    fn intrinsics_evaluate() {
        let mut m = Module::new("m");
        let mut b = FunctionBuilder::new("main");
        let four = b.const_f64(4.0);
        let s = b.sqrt(four);
        b.output(s, OutputFormat::Full);
        let neg = b.const_f64(-3.5);
        let abs = b.fabs(neg);
        b.output(abs, OutputFormat::Full);
        let p = b.pow(b.const_f64(2.0), b.const_f64(10.0));
        b.output(p, OutputFormat::Full);
        b.ret(None);
        m.add_function(b.finish());
        let r = Vm::new(VmConfig::default()).run(&m).unwrap();
        let vals: Vec<f64> = r
            .outputs
            .values()
            .iter()
            .map(|v| v.as_f64().unwrap())
            .collect();
        assert_eq!(vals, vec![2.0, 3.5, 1024.0]);
    }

    #[test]
    fn verification_error_is_propagated() {
        let m = Module::new("empty");
        assert!(Vm::new(VmConfig::default()).run(&m).is_err());
    }

    /// A visitor that re-materializes the streamed events, for equivalence
    /// checks against ordinary tracing.
    #[derive(Default)]
    struct Rebuild {
        events: Vec<crate::ResolvedEvent>,
        steps: Vec<u64>,
        outcome: Option<RunOutcome>,
    }

    impl crate::TraceVisitor for Rebuild {
        fn on_event(&mut self, ctx: &crate::EventCtx<'_>) {
            self.steps.push(ctx.step);
            self.events.push(crate::ResolvedEvent {
                func: ctx.event.func,
                frame: ctx.event.frame,
                inst: ctx.event.inst,
                line: ctx.event.line,
                kind: ctx.event.kind.clone(),
                reads: ctx
                    .reads
                    .iter()
                    .map(|&(id, v)| (ctx.location(id), v))
                    .collect(),
                write: ctx.event.write.map(|(id, v)| (ctx.location(id), v)),
            });
        }
        fn on_finish(&mut self, end: &crate::WalkEnd<'_>) {
            self.outcome = end.outcome;
        }
    }

    #[test]
    fn streaming_visitors_see_exactly_the_materialized_trace() {
        let module = sum_module();
        let traced = Vm::new(VmConfig::tracing()).run(&module).unwrap();
        let trace = traced.trace.unwrap();

        let mut rebuild = Rebuild::default();
        let streamed = Vm::new(VmConfig::default())
            .run_with_visitors(&module, &mut [&mut rebuild])
            .unwrap();

        assert!(streamed.trace.is_none(), "streaming must not materialize");
        assert_eq!(streamed.steps, traced.steps);
        assert_eq!(rebuild.outcome, Some(RunOutcome::Completed));
        assert_eq!(rebuild.events.len(), trace.len());
        for (i, got) in rebuild.events.iter().enumerate() {
            assert_eq!(got, &trace.resolved(i), "event {i} differs");
            assert_eq!(rebuild.steps[i], i as u64);
        }
        // The memory image and outputs match an untraced run's.
        assert_eq!(streamed.global_i64("sum").unwrap(), vec![45]);
    }

    #[test]
    fn streaming_respects_faults_and_scope_windows() {
        let module = sum_module();
        let fault = FaultSpec::in_result(20, 1);
        let traced = Vm::new(VmConfig::tracing_with_fault(fault))
            .run(&module)
            .unwrap();
        let trace = traced.trace.unwrap();

        let config = VmConfig {
            fault: Some(fault),
            trace_scope: TraceScope::Window { start: 5, end: 30 },
            ..VmConfig::default()
        };
        let mut rebuild = Rebuild::default();
        Vm::new(config)
            .run_with_visitors(&module, &mut [&mut rebuild])
            .unwrap();
        assert_eq!(rebuild.events.len(), 25);
        for (i, got) in rebuild.events.iter().enumerate() {
            assert_eq!(got, &trace.resolved(5 + i), "window event {i} differs");
            assert_eq!(rebuild.steps[i], 5 + i as u64);
        }
    }

    #[test]
    fn streaming_reports_traps_through_on_finish() {
        let mut m = Module::new("m");
        let mut b = FunctionBuilder::new("main");
        let one = b.const_i64(1);
        let zero = b.const_i64(0);
        b.sdiv(one, zero);
        b.ret(None);
        m.add_function(b.finish());
        let mut rebuild = Rebuild::default();
        let r = Vm::new(VmConfig::default())
            .run_with_visitors(&m, &mut [&mut rebuild])
            .unwrap();
        assert_eq!(r.outcome, RunOutcome::Trapped(TrapKind::DivisionByZero));
        assert_eq!(
            rebuild.outcome,
            Some(RunOutcome::Trapped(TrapKind::DivisionByZero))
        );
        // The trapping instruction itself records no event (constants are
        // operands, so the division is the very first instruction).
        assert_eq!(rebuild.events.len(), 0);
    }

    // -- snapshot/restore --------------------------------------------------

    /// The call module of `function_calls_return_values_and_release_allocas`:
    /// steps 1..=5 execute inside the `square` frame.
    fn call_module() -> Module {
        let mut m = Module::new("m");
        let mut callee = FunctionBuilder::with_args("square", 1);
        let x = callee.arg(0);
        let sq = callee.fmul(x, x);
        let tmp = callee.alloca("tmp", 16);
        callee.store(tmp, sq);
        let back = callee.load(tmp);
        callee.ret(Some(back));
        m.add_function(callee.finish());
        let mut main = FunctionBuilder::new("main");
        let three = main.const_f64(3.0);
        let nine = main.call("square", vec![three]);
        main.output(nine, OutputFormat::Full);
        main.ret(None);
        m.add_function(main.finish());
        m
    }

    #[test]
    fn snapshot_at_step_zero_resumes_the_whole_run() {
        let module = sum_module();
        let vm = Vm::new(VmConfig::default());
        let cold = vm.run(&module).unwrap();
        let snap = vm.snapshot_at(&module, 0).unwrap().expect("step 0 exists");
        assert_eq!(snap.step(), 0);
        assert_eq!(snap.events_emitted(), 0);
        assert_eq!(snap.frame_depth(), 1, "entry frame is pushed");
        let resumed = vm.resume_from(&module, &snap).unwrap();
        assert_eq!(resumed, cold);
    }

    #[test]
    fn snapshot_at_the_final_step_executes_one_instruction() {
        let module = sum_module();
        let vm = Vm::new(VmConfig::default());
        let cold = vm.run(&module).unwrap();
        let last = cold.steps - 1;
        let snap = vm
            .snapshot_at(&module, last)
            .unwrap()
            .expect("final step exists");
        assert_eq!(snap.step(), last);
        let resumed = vm.resume_from(&module, &snap).unwrap();
        assert_eq!(resumed, cold);
        // One past the final step: the program completes first.
        assert!(vm.snapshot_at(&module, cold.steps).unwrap().is_none());
        assert!(vm.snapshot_at(&module, u64::MAX).unwrap().is_none());
    }

    #[test]
    fn snapshot_inside_a_callee_frame_restores_the_frame_stack() {
        let module = call_module();
        let vm = Vm::new(VmConfig::default());
        let cold = vm.run(&module).unwrap();
        // Step 3 is the callee's store: two live frames, one live alloca.
        let snap = vm.snapshot_at(&module, 3).unwrap().expect("mid-run step");
        assert_eq!(snap.frame_depth(), 2, "snapshot taken inside the callee");
        assert!(
            snap.memory_cells() > 0,
            "the callee's alloca is live at the fork point"
        );
        let resumed = vm.resume_from(&module, &snap).unwrap();
        assert_eq!(resumed, cold);
        // The callee's alloca was released on return, as in the cold run.
        assert_eq!(resumed.memory.valid_len(), resumed.memory.globals_len());
    }

    #[test]
    fn snapshot_with_skip_markers_streams_the_identical_suffix() {
        let module = sum_module();
        let config = VmConfig::default().without_markers();
        let vm = Vm::new(config);

        let mut cold = Rebuild::default();
        let cold_run = vm.run_with_visitors(&module, &mut [&mut cold]).unwrap();

        let fork = cold_run.steps / 2;
        let snap = vm
            .snapshot_at(&module, fork)
            .unwrap()
            .expect("mid-run step");
        // Markers are elided from the stream, so the event cursor lags the
        // step counter.
        assert!(snap.events_emitted() < snap.step());

        let mut resumed = Rebuild::default();
        let resumed_run = vm
            .resume_with_visitors(&module, &snap, &mut [&mut resumed])
            .unwrap();
        assert_eq!(resumed_run.outcome, cold_run.outcome);
        assert_eq!(resumed_run.steps, cold_run.steps);
        assert_eq!(resumed_run.outputs, cold_run.outputs);
        assert_eq!(resumed_run.memory, cold_run.memory);

        let skip = snap.events_emitted() as usize;
        assert_eq!(resumed.events, cold.events[skip..]);
        assert_eq!(resumed.steps, cold.steps[skip..]);
    }

    #[test]
    fn resumed_tracing_records_exactly_the_trace_tail() {
        let module = sum_module();
        let full = Vm::new(VmConfig::tracing())
            .run(&module)
            .unwrap()
            .trace
            .unwrap();
        let fork = 17u64;
        let snap = Vm::new(VmConfig::default())
            .snapshot_at(&module, fork)
            .unwrap()
            .expect("mid-run step");
        let resumed = Vm::new(VmConfig::tracing())
            .resume_from(&module, &snap)
            .unwrap()
            .trace
            .unwrap();
        assert_eq!(resumed.base_step(), fork);
        assert_eq!(resumed.len() as u64, full.len() as u64 - fork);
        for i in 0..resumed.len() {
            assert_eq!(
                resumed.resolved(i),
                full.resolved(fork as usize + i),
                "resumed event {i} differs"
            );
        }
    }

    #[test]
    fn double_restore_from_one_snapshot_does_not_leak_state() {
        let module = sum_module();
        let plain = Vm::new(VmConfig::default());
        let cold = plain.run(&module).unwrap();
        let snap = plain.snapshot_at(&module, 10).unwrap().expect("mid-run");

        // First restore runs with a fault that corrupts the accumulator…
        let fault = FaultSpec::in_memory(12, 0, 40);
        let faulty1 = Vm::new(VmConfig::with_fault(fault))
            .resume_from(&module, &snap)
            .unwrap();
        // …the second, fault-free restore must still equal the cold run: the
        // faulty resume must not have mutated the shared snapshot image.
        let clean = plain.resume_from(&module, &snap).unwrap();
        assert_eq!(clean, cold);
        // And a repeated faulty restore reproduces the first bit-for-bit.
        let faulty2 = Vm::new(VmConfig::with_fault(fault))
            .resume_from(&module, &snap)
            .unwrap();
        assert_eq!(faulty1, faulty2);
    }

    #[test]
    fn fault_at_the_fork_step_strikes_identically_to_a_cold_run() {
        let module = sum_module();
        let fork = 20u64;
        let snap = Vm::new(VmConfig::default())
            .snapshot_at(&module, fork)
            .unwrap()
            .expect("mid-run step");
        // Both fault targets, striking exactly at the fork step: a memory
        // fault fires before the first resumed instruction, a result fault
        // applies to it.
        for fault in [
            FaultSpec::in_result(fork, 5),
            FaultSpec::in_memory(fork, 0, 3),
        ] {
            let vm = Vm::new(VmConfig::with_fault(fault));
            let cold = vm.run(&module).unwrap();
            let forked = vm.resume_from(&module, &snap).unwrap();
            assert_eq!(forked, cold, "fault {fault:?}");
        }
    }

    // -- decoded dispatch ---------------------------------------------------

    fn decoded(m: &Module) -> DecodedModule {
        DecodedModule::decode(m)
    }

    #[test]
    fn decoded_run_matches_legacy_untraced_and_traced() {
        for module in [sum_module(), call_module()] {
            let dm = decoded(&module);
            for config in [
                VmConfig::default(),
                VmConfig::tracing(),
                VmConfig::tracing().without_markers(),
                VmConfig::tracing_region(3, 20),
            ] {
                let vm = Vm::new(config);
                let legacy = vm.run(&module).unwrap();
                let dec = vm.run_decoded(&module, &dm).unwrap();
                assert_eq!(dec, legacy, "config {config:?}");
            }
        }
        // Every scope window, so a window edge lands on both halves of every
        // fused compare-branch pair (and on the steps around them).
        let module = sum_module();
        let dm = decoded(&module);
        let total = Vm::new(VmConfig::default()).run(&module).unwrap().steps;
        for start in 0..=total {
            for end in start..=total + 1 {
                let vm = Vm::new(VmConfig::tracing_region(start, end));
                let legacy = vm.run(&module).unwrap();
                let dec = vm.run_decoded(&module, &dm).unwrap();
                assert_eq!(dec, legacy, "window [{start}, {end})");
            }
        }
    }

    #[test]
    fn decoded_run_matches_legacy_under_faults() {
        for module in [sum_module(), call_module()] {
            let dm = decoded(&module);
            let clean_steps = Vm::new(VmConfig::default()).run(&module).unwrap().steps;
            for step in 0..clean_steps {
                // Cell 0 is `sum`'s global (overwritten before it is read)
                // and `square`'s temporary; cell 1 is `sum`'s accumulator.
                for fault in [
                    FaultSpec::in_result(step, 7),
                    FaultSpec::in_memory(step, 0, 3),
                    FaultSpec::in_memory(step, 1, 3),
                ] {
                    for config in [
                        VmConfig::with_fault(fault),
                        VmConfig::tracing_with_fault(fault),
                    ] {
                        let vm = Vm::new(config);
                        let legacy = vm.run(&module).unwrap();
                        let dec = vm.run_decoded(&module, &dm).unwrap();
                        assert_eq!(dec, legacy, "config {config:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn decoded_streaming_matches_legacy_streaming() {
        let module = sum_module();
        let dm = decoded(&module);
        let total = Vm::new(VmConfig::default()).run(&module).unwrap().steps;
        let streams_match = |config: VmConfig| {
            let vm = Vm::new(config);
            let mut a = Rebuild::default();
            let ra = vm.run_with_visitors(&module, &mut [&mut a]).unwrap();
            let mut b = Rebuild::default();
            let rb = vm
                .run_with_visitors_decoded(&module, &dm, &mut [&mut b])
                .unwrap();
            assert_eq!(ra, rb, "config {config:?}");
            assert_eq!(a.events, b.events, "config {config:?}");
            assert_eq!(a.steps, b.steps, "config {config:?}");
            assert_eq!(a.outcome, b.outcome, "config {config:?}");
        };
        streams_match(VmConfig::default());
        streams_match(VmConfig::default().without_markers());
        // A fault at every step, on both halves of every fused pair.
        for step in 0..total {
            for fault in [
                FaultSpec::in_result(step, 7),
                FaultSpec::in_memory(step, 1, 3),
            ] {
                streams_match(VmConfig::with_fault(fault));
                streams_match(VmConfig::with_fault(fault).without_markers());
            }
        }
        // Resumed streams from every fork point, including the ones between
        // the halves of a fused pair.
        let plain = Vm::new(VmConfig::default());
        for fork in 0..total {
            let snap = plain.snapshot_at(&module, fork).unwrap().expect("mid-run");
            for config in [VmConfig::default(), VmConfig::default().without_markers()] {
                let vm = Vm::new(config);
                let mut a = Rebuild::default();
                let ra = vm
                    .resume_with_visitors(&module, &snap, &mut [&mut a])
                    .unwrap();
                let mut b = Rebuild::default();
                let rb = vm
                    .resume_with_visitors_decoded(&module, &dm, &snap, &mut [&mut b])
                    .unwrap();
                assert_eq!(ra, rb, "fork {fork}");
                assert_eq!(a.events, b.events, "fork {fork}");
                assert_eq!(a.steps, b.steps, "fork {fork}");
                assert_eq!(a.outcome, b.outcome, "fork {fork}");
            }
        }
    }

    #[test]
    fn decoded_resume_matches_legacy_resume_at_every_fork_point() {
        let module = sum_module();
        let dm = decoded(&module);
        let plain = Vm::new(VmConfig::default());
        let cold = Vm::new(VmConfig::tracing()).run(&module).unwrap();
        // Every fork point, including ones that land between the two halves
        // of a fused compare-branch pair.
        for fork in 0..cold.steps {
            let snap = plain.snapshot_at(&module, fork).unwrap().expect("mid-run");
            let vm = Vm::new(VmConfig::tracing());
            let legacy = vm.resume_from(&module, &snap).unwrap();
            let dec = vm.resume_from_decoded(&module, &dm, &snap).unwrap();
            assert_eq!(dec, legacy, "fork {fork}");
        }
    }

    #[test]
    fn decoded_resume_with_fault_at_fused_branch_half() {
        let module = sum_module();
        let dm = decoded(&module);
        let plain = Vm::new(VmConfig::default());
        let cold = plain.run(&module).unwrap();
        for fork in 0..cold.steps {
            for fault in [
                FaultSpec::in_result(fork, 5),
                FaultSpec::in_memory(fork, 0, 3),
            ] {
                let snap = plain.snapshot_at(&module, fork).unwrap().expect("mid-run");
                let vm = Vm::new(VmConfig::with_fault(fault));
                let legacy = vm.resume_from(&module, &snap).unwrap();
                let dec = vm.resume_from_decoded(&module, &dm, &snap).unwrap();
                assert_eq!(dec, legacy, "fork {fork} fault {fault:?}");
            }
        }
    }

    #[test]
    fn decoded_step_limit_stops_identically() {
        for module in [sum_module(), call_module()] {
            let dm = decoded(&module);
            let total = Vm::new(VmConfig::default()).run(&module).unwrap().steps;
            for limit in 0..=total {
                for record_trace in [false, true] {
                    let config = VmConfig {
                        max_steps: limit,
                        record_trace,
                        ..Default::default()
                    };
                    let vm = Vm::new(config);
                    let legacy = vm.run(&module).unwrap();
                    let dec = vm.run_decoded(&module, &dm).unwrap();
                    assert_eq!(dec, legacy, "limit {limit} record {record_trace}");
                }
            }
        }
    }

    #[test]
    fn decoded_traps_match_legacy() {
        // Division by zero mid-program.
        let mut m = Module::new("m");
        let mut b = FunctionBuilder::new("main");
        let one = b.const_i64(1);
        let zero = b.const_i64(0);
        let x = b.add(one, one);
        b.sdiv(x, zero);
        b.ret(None);
        m.add_function(b.finish());
        let dm = decoded(&m);
        let vm = Vm::new(VmConfig::tracing());
        let legacy = vm.run(&m).unwrap();
        let dec = vm.run_decoded(&m, &dm).unwrap();
        assert_eq!(dec, legacy);
        assert_eq!(dec.outcome, RunOutcome::Trapped(TrapKind::DivisionByZero));
    }

    #[test]
    fn skip_markers_elides_markers_but_keeps_steps_derivable() {
        let module = sum_module();
        let full = Vm::new(VmConfig::tracing()).run(&module).unwrap();
        let full_trace = full.trace.unwrap();
        let lean = Vm::new(VmConfig::tracing().without_markers())
            .run(&module)
            .unwrap();
        let lean_trace = lean.trace.unwrap();

        // Same execution, fewer recorded events: exactly the markers moved to
        // the side table.
        assert_eq!(lean.steps, full.steps);
        assert!(lean_trace.markers_elided());
        assert_eq!(
            lean_trace.len() + lean_trace.markers().len(),
            full_trace.len()
        );
        assert_eq!(lean_trace.len(), full_trace.len_without_markers());
        assert!(lean_trace.events.iter().all(|e| !e.kind.is_marker()));

        // Every lean event resolves to the full-trace event at its absolute
        // step, and `step_of` recovers that step exactly.
        for i in 0..lean_trace.len() {
            let step = lean_trace.step_of(i) as usize;
            assert_eq!(lean_trace.resolved(i), full_trace.resolved(step));
        }

        // The side table mirrors the elided markers in order.
        let mut markers = lean_trace.markers().iter();
        for e in &full_trace.events {
            if e.kind.is_marker() {
                let m = markers.next().expect("one record per marker");
                match (&e.kind, m.kind) {
                    (EventKind::LoopBegin { id, .. }, MarkerKind::Begin { id: mid, .. })
                    | (EventKind::LoopEnd { id }, MarkerKind::End { id: mid })
                    | (EventKind::LoopIter { id }, MarkerKind::Iter { id: mid }) => {
                        assert_eq!(*id, mid);
                    }
                    other => panic!("marker kind mismatch: {other:?}"),
                }
            }
        }
        assert!(markers.next().is_none());
    }
}
