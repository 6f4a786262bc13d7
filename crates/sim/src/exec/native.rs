//! The closure-compiled execution tier.
//!
//! [`NativeMachine`] runs a pre-decoded [`NativeProgram`]: each basic
//! block executes as a chain of fused Rust functions dispatched through
//! one indirect call per step, with no per-op enum matching, no `Op`
//! clone, and no cost-model clone. All outcome-determining state (cells,
//! threads, node accounting, evaluators) comes from
//! [`account`](super::account) — the same layer the interpreter uses —
//! and every handler reproduces the interpreter's micro-op ordering
//! (counter bumps, cost charges, error points, stall accounting)
//! exactly, so results are cycle- and byte-identical by construction.
//! `tests/prop_exec.rs` and `tests/exec_sweep.rs` hold both backends to
//! that contract.

use crate::bytecode::{CallAt, Opnd, Slot, NO_SITE};
use crate::machine::{MachineConfig, RunResult, SimError};
use crate::stats::{OpStats, SiteCounters, SiteTrace, Stats};
use crate::value::{Addr, NodeHeap, NodeId, Value};
use earth_ir::{Builtin, FuncId, UnOp};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

use super::account::{
    eval_bin, eval_un, ActRec, Cell, NodeState, ParentLink, Thread, ThreadId, ThreadState,
};
use super::predecode::{NativeFunc, NativeProgram, Step};

/// Per-EU-span execution context: the registers of the dispatch loop.
/// The thread's stack-top `pc` is only synchronized from `pc` here when
/// the EU is released (stall, block, spawn), never per-op.
#[derive(Debug)]
pub(crate) struct Ctx {
    pub now: u64,
    pub span_start: u64,
    pub tid: ThreadId,
    pub node: usize,
    pub func: u32,
    pub pc: u32,
    /// Base offset of the current frame in the cell arena.
    pub base: usize,
}

/// What a step tells the dispatch loop to do next. Word-sized, like the
/// boxed error, so [`StepResult`] is a (tag, word) pair.
#[derive(Debug, Clone, Copy, PartialEq)]
#[repr(usize)]
pub(crate) enum Flow {
    /// Continue dispatching at `ctx.pc`.
    Next,
    /// The EU was released (stall, block, end, or program completion).
    Release,
}

/// Per-dispatch result. Both payloads are one word at the same offset,
/// so the value is a (tag, word) scalar pair returned in two registers
/// rather than through a hidden out-pointer; that is also what lets a
/// chained handler end in a tail jump. The error is boxed because errors
/// are terminal: the box is paid for at most once per run.
pub(crate) type StepResult = Result<Flow, Box<SimError>>;

const _: () = assert!(std::mem::size_of::<StepResult>() == 2 * std::mem::size_of::<usize>());

/// The native-tier machine: same global address space and per-node EU
/// model as [`Machine`](crate::Machine), but executing pre-decoded
/// [`NativeProgram`]s. Frames live in one contiguous cell arena instead
/// of a frame table.
///
/// A machine can be [`reset`](Self::reset) and run again: every run
/// starts from a clean state, but the cell arena, node heaps, thread
/// table and event heap keep the capacity earlier runs grew them to.
#[derive(Debug)]
pub struct NativeMachine {
    cfg: MachineConfig,
    heaps: Vec<NodeHeap>,
    nodes: Vec<NodeState>,
    threads: Vec<Thread>,
    /// Ids of finished threads whose records can be reused.
    free_threads: Vec<ThreadId>,
    /// The frame arena; an [`ActRec::frame`] is a base offset in here.
    cells: Vec<Cell>,
    events: BinaryHeap<Reverse<(u64, u64, ThreadId)>>,
    event_seq: u64,
    stats: Stats,
    site_trace: SiteTrace,
    rng: u64,
    output: Vec<String>,
    result: Option<Value>,
    finished_at: u64,
    op_stats: OpStats,
    /// Reusable buffer for block writes.
    scratch: Vec<Value>,
}

impl NativeMachine {
    /// Creates a machine.
    pub fn new(cfg: MachineConfig) -> Self {
        let mut m = NativeMachine {
            cfg: cfg.clone(),
            heaps: Vec::new(),
            nodes: Vec::new(),
            threads: Vec::new(),
            free_threads: Vec::new(),
            cells: Vec::new(),
            events: BinaryHeap::new(),
            event_seq: 0,
            stats: Stats::default(),
            site_trace: SiteTrace::default(),
            rng: 0,
            output: Vec::new(),
            result: None,
            finished_at: 0,
            op_stats: OpStats::default(),
            scratch: Vec::new(),
        };
        m.reset(cfg);
        m
    }

    /// Installs `cfg` and returns the machine to the state
    /// [`new`](Self::new) gives, keeping the capacity of every arena.
    pub fn reset(&mut self, cfg: MachineConfig) {
        assert!(cfg.n_nodes >= 1, "need at least one node");
        let n = cfg.n_nodes as usize;
        self.heaps.truncate(n);
        self.heaps.iter_mut().for_each(NodeHeap::clear);
        self.heaps.resize_with(n, NodeHeap::default);
        self.nodes.clear();
        self.nodes.resize(n, NodeState::default());
        self.threads.clear();
        self.free_threads.clear();
        self.cells.clear();
        self.events.clear();
        self.event_seq = 0;
        self.stats = Stats::default();
        self.site_trace = SiteTrace::default();
        self.rng = cfg
            .seed
            .wrapping_mul(2862933555777941757)
            .wrapping_add(3037000493);
        self.output.clear();
        self.result = None;
        self.finished_at = 0;
        self.op_stats = OpStats::default();
        self.cfg = cfg;
    }

    /// Number of nodes.
    pub fn n_nodes(&self) -> u16 {
        self.cfg.n_nodes
    }

    /// Runs `func` (by id) with `args` on node 0 and simulates to
    /// completion. The program must have been compiled against the same
    /// cost model as this machine's config (fixed costs are baked into
    /// the step table at pre-decode time). A machine that has run before
    /// must be [`reset`](Self::reset) first.
    ///
    /// # Errors
    ///
    /// Exactly the interpreter's: runtime errors in the simulated
    /// program, deadlock, or exceeding the operation budget.
    pub fn run(
        &mut self,
        prog: &NativeProgram,
        func: FuncId,
        args: &[Value],
    ) -> Result<RunResult, SimError> {
        assert_eq!(
            prog.cost, self.cfg.cost,
            "NativeProgram compiled against a different cost model"
        );
        assert!(
            self.threads.is_empty(),
            "reset the machine before running it again"
        );
        let cf = &prog.funcs[func.index()];
        if args.len() != cf.param_slots.len() {
            return Err(SimError {
                time_ns: 0,
                message: format!(
                    "entry `{}` expects {} arguments, got {}",
                    cf.name,
                    cf.param_slots.len(),
                    args.len()
                ),
            });
        }
        self.site_trace = SiteTrace::sized(prog.n_sites, self.cfg.n_nodes as usize);
        let base = self.new_frame(cf.n_slots);
        for (&slot, &v) in cf.param_slots.iter().zip(args) {
            self.cells[base + slot as usize] = Cell { val: v, ready: 0 };
        }
        let tid = self.new_thread(
            0,
            ActRec {
                func,
                pc: 0,
                frame: base,
                ret_slot: None,
            },
            ParentLink::Root,
        );
        self.schedule(0, tid);

        while let Some(Reverse((time, _, tid))) = self.events.pop() {
            if self.threads[tid as usize].state != ThreadState::Ready {
                continue;
            }
            self.run_thread(prog, tid, time).map_err(|e| *e)?;
            if self.result.is_some() {
                break;
            }
        }
        match self.result.take() {
            Some(ret) => Ok(RunResult {
                ret,
                time_ns: self.finished_at,
                stats: self.stats,
                output: std::mem::take(&mut self.output),
                node_busy_ns: self.nodes.iter().map(|n| n.busy_ns).collect(),
                site_trace: std::mem::take(&mut self.site_trace),
                op_stats: std::mem::take(&mut self.op_stats),
            }),
            None => Err(SimError {
                time_ns: self.finished_at,
                message: "deadlock: no runnable threads but the program has not finished".into(),
            }),
        }
    }

    /// Allocates a zeroed frame at the top of the arena, returning its
    /// base offset.
    fn new_frame(&mut self, n_slots: u32) -> usize {
        let base = self.cells.len();
        self.cells.resize(
            base + n_slots as usize,
            Cell {
                val: Value::Uninit,
                ready: 0,
            },
        );
        base
    }

    /// A blocked thread on `node` running `root`, in a recycled record
    /// when one is free.
    fn new_thread(&mut self, node: NodeId, root: ActRec, parent: ParentLink) -> ThreadId {
        if let Some(tid) = self.free_threads.pop() {
            self.threads[tid as usize].reuse(node, root, parent);
            return tid;
        }
        let tid = self.threads.len() as ThreadId;
        self.threads.push(Thread::new(node, root, parent));
        tid
    }

    /// Marks the running thread `ctx.tid` done and frees its record for
    /// reuse. The thread is running, so no event for it is queued (each
    /// thread has at most one, popped when it runs), and a recycled id
    /// can never be woken by a stale one. A thread with children still
    /// to report keeps its record, which they update when they end.
    /// Clearing the node's `last_thread` charges the id's next run the
    /// `switch_ns` a fresh id would pay.
    fn finish_thread(&mut self, ctx: &Ctx) {
        let t = &mut self.threads[ctx.tid as usize];
        t.state = ThreadState::Done;
        if t.outstanding_children == 0 {
            self.nodes[ctx.node].last_thread = None;
            self.free_threads.push(ctx.tid);
        }
    }

    fn schedule(&mut self, time: u64, tid: ThreadId) {
        self.threads[tid as usize].state = ThreadState::Ready;
        self.event_seq += 1;
        self.events.push(Reverse((time, self.event_seq, tid)));
    }

    #[cold]
    #[inline(never)]
    fn err<T>(&self, time: u64, message: impl Into<String>) -> Result<T, Box<SimError>> {
        Err(fail(time, message.into()))
    }

    #[inline]
    fn site_mut(&mut self, site: u32, node: usize) -> Option<&mut SiteCounters> {
        if self.site_trace.per_site.is_empty() || site == NO_SITE {
            return None;
        }
        Some(&mut self.site_trace.per_site[site as usize][node])
    }

    #[inline]
    fn cell(&self, base: usize, slot: Slot) -> Cell {
        self.cells[base + slot as usize]
    }

    #[inline]
    fn set_cell(&mut self, base: usize, slot: Slot, val: Value, ready: u64) {
        self.cells[base + slot as usize] = Cell { val, ready };
    }

    #[inline]
    fn slot_ready(&self, base: usize, s: Slot) -> u64 {
        self.cells[base + s as usize].ready
    }

    #[inline]
    fn opnd_ready(&self, base: usize, o: &Opnd) -> u64 {
        match o {
            Opnd::Slot(s) => self.slot_ready(base, *s),
            Opnd::Imm(_) => 0,
        }
    }

    #[inline]
    fn opnd_val(&self, base: usize, o: &Opnd) -> Value {
        match o {
            Opnd::Slot(s) => self.cells[base + *s as usize].val,
            Opnd::Imm(v) => *v,
        }
    }

    /// Interpreter-identical stall: charge the gap to the run and to the
    /// consuming op's site, release the EU, reschedule at the value's
    /// ready time with the pc parked on the consuming op.
    #[cold]
    #[inline(never)]
    fn stall(&mut self, ctx: &Ctx, site: u32, ready_at: u64) -> Flow {
        self.stats.stall_ns += ready_at - ctx.now;
        if let Some(sc) = self.site_mut(site, ctx.node) {
            sc.stall_ns += ready_at - ctx.now;
        }
        self.nodes[ctx.node].eu_free_at = ctx.now;
        self.nodes[ctx.node].busy_ns += ctx.now - ctx.span_start;
        self.threads[ctx.tid as usize].stack.last_mut().unwrap().pc = ctx.pc;
        self.schedule(ready_at, ctx.tid);
        Flow::Release
    }

    /// Interpreter-identical EU release at `ctx.now`.
    fn release(&mut self, ctx: &Ctx) {
        self.nodes[ctx.node].eu_free_at = ctx.now;
        self.nodes[ctx.node].busy_ns += ctx.now - ctx.span_start;
    }

    fn expect_local_addr(&self, ctx: &Ctx, ptr: Slot) -> Result<Addr, Box<SimError>> {
        match self.cell(ctx.base, ptr).val {
            Value::Ptr(a) => {
                if a.node as usize != ctx.node {
                    return self.err(
                        ctx.now,
                        format!(
                            "locality violation: local access to {a} from node {}",
                            ctx.node
                        ),
                    );
                }
                Ok(a)
            }
            Value::Null => self.err(ctx.now, "local dereference of NULL"),
            other => self.err(
                ctx.now,
                format!("local dereference of non-pointer {other:?}"),
            ),
        }
    }

    /// Runs thread `tid` from `event_time` until it stalls, blocks, or
    /// finishes — the native analogue of the interpreter's EU loop.
    fn run_thread(
        &mut self,
        prog: &NativeProgram,
        tid: ThreadId,
        event_time: u64,
    ) -> Result<(), Box<SimError>> {
        let node = self.threads[tid as usize].node as usize;
        let mut now = event_time.max(self.nodes[node].eu_free_at);
        if self.nodes[node].last_thread != Some(tid) {
            now += self.cfg.cost.switch_ns;
        }
        self.nodes[node].last_thread = Some(tid);
        let rec = *self.threads[tid as usize]
            .stack
            .last()
            .expect("running thread has a frame");
        let mut ctx = Ctx {
            now,
            span_start: now,
            tid,
            node,
            func: rec.func.0,
            pc: rec.pc,
            base: rec.frame,
        };
        loop {
            self.stats.ops += 1;
            if self.stats.ops > self.cfg.max_ops {
                return Err(budget_exceeded(ctx.now));
            }
            let f = &prog.funcs[ctx.func as usize];
            let step = &f.steps[ctx.pc as usize];
            if self.cfg.record_op_stats {
                self.op_stats.bump(step.kind);
            }
            match (step.run)(self, prog, f, step, &mut ctx)? {
                Flow::Next => {}
                Flow::Release => return Ok(()),
            }
        }
    }
}

/// A run-ending error at virtual time `now`.
#[cold]
#[inline(never)]
fn fail(now: u64, message: String) -> Box<SimError> {
    Box::new(SimError {
        time_ns: now,
        message,
    })
}

#[cold]
#[inline(never)]
fn budget_exceeded(now: u64) -> Box<SimError> {
    fail(now, "operation budget exceeded (infinite loop?)".into())
}

#[inline]
fn at(now: u64) -> impl Fn(String) -> Box<SimError> {
    move |message| fail(now, message)
}

/// The fused-pair tail: dispatches the step at `ctx.pc` with the full
/// main-loop prologue (dispatch count, budget, histogram), so a fused
/// pair is observationally identical to two loop iterations. Inlined
/// into every `*_chain` handler, whose last instruction is then this
/// indirect call as a tail jump: each handler gets its own branch site,
/// and a chained run of steps uses one host frame, not one per step.
#[inline(always)]
fn chain(m: &mut NativeMachine, p: &NativeProgram, f: &NativeFunc, ctx: &mut Ctx) -> StepResult {
    m.stats.ops += 1;
    if m.stats.ops > m.cfg.max_ops {
        return Err(budget_exceeded(ctx.now));
    }
    let s2 = &f.steps[ctx.pc as usize];
    if m.cfg.record_op_stats {
        m.op_stats.bump(s2.kind);
    }
    (s2.run)(m, p, f, s2, ctx)
}

// ---- step handlers ------------------------------------------------------
//
// Each handler mirrors one interpreter arm: same order of counter bumps,
// cost charges, heap touches, and error points. `CHECK` selects whether
// the readiness test was proven elidable at pre-decode time.
//
// A handler that has a `*_chain` form is `#[inline(always)]` when its
// inlined body keeps no stack slot whose address escapes (its errors are
// built out of line), and `#[inline(never)]` otherwise: a chained form
// whose inlined body let a stack address escape could not end in a tail
// jump, so it calls such a body and then jumps.

#[inline(always)]
pub(crate) fn mov_slot(
    m: &mut NativeMachine,
    _p: &NativeProgram,
    _f: &NativeFunc,
    s: &Step,
    ctx: &mut Ctx,
) -> StepResult {
    let c = m.cells[ctx.base + s.b as usize];
    m.cells[ctx.base + s.a as usize] = c;
    ctx.now += s.cost;
    ctx.pc += 1;
    Ok(Flow::Next)
}

#[inline(always)]
pub(crate) fn mov_imm(
    m: &mut NativeMachine,
    _p: &NativeProgram,
    _f: &NativeFunc,
    s: &Step,
    ctx: &mut Ctx,
) -> StepResult {
    let v = match s.x {
        Opnd::Imm(v) => v,
        Opnd::Slot(_) => unreachable!("mov_imm decoded from an immediate"),
    };
    m.set_cell(ctx.base, s.a, v, 0);
    ctx.now += s.cost;
    ctx.pc += 1;
    Ok(Flow::Next)
}

/// `BinOp` encoded as a const-generic parameter (enums cannot be const
/// generics yet). Must stay in sync with `predecode::bop_code`.
pub(crate) const BOP_ADD: u8 = 0;
pub(crate) const BOP_SUB: u8 = 1;
pub(crate) const BOP_MUL: u8 = 2;
pub(crate) const BOP_DIV: u8 = 3;
pub(crate) const BOP_REM: u8 = 4;
pub(crate) const BOP_EQ: u8 = 5;
pub(crate) const BOP_NE: u8 = 6;
pub(crate) const BOP_LT: u8 = 7;
pub(crate) const BOP_LE: u8 = 8;
pub(crate) const BOP_GT: u8 = 9;
pub(crate) const BOP_GE: u8 = 10;

/// The fast path of [`eval_bin`], constant-folded per `BOP`: Int×Int,
/// Double×Double and mixed Int/Double arithmetic and comparisons, and
/// pointer/NULL `==`/`!=`, each giving exactly `eval_bin`'s value.
/// `None` routes to `eval_bin` for everything that errors (division or
/// remainder of ints by zero, ordered pointer comparisons, `Uninit` or
/// mixed pointer/number operands), which reproduces the interpreter's
/// error strings.
#[inline(always)]
fn bin_fast<const BOP: u8>(av: Value, bv: Value) -> Option<Value> {
    // Int×Int first: the common case costs two tag tests.
    if let (Value::Int(x), Value::Int(y)) = (av, bv) {
        return int_bin::<BOP>(x, y);
    }
    match (av, bv) {
        (Value::Double(x), Value::Double(y)) => Some(double_bin::<BOP>(x, y)),
        (Value::Int(x), Value::Double(y)) => Some(double_bin::<BOP>(x as f64, y)),
        (Value::Double(x), Value::Int(y)) => Some(double_bin::<BOP>(x, y as f64)),
        (Value::Ptr(_) | Value::Null, Value::Ptr(_) | Value::Null)
            if BOP == BOP_EQ || BOP == BOP_NE =>
        {
            Some(Value::Int(((av == bv) == (BOP == BOP_EQ)) as i64))
        }
        _ => None,
    }
}

#[inline(always)]
fn int_bin<const BOP: u8>(x: i64, y: i64) -> Option<Value> {
    Some(Value::Int(match BOP {
        BOP_ADD => x.wrapping_add(y),
        BOP_SUB => x.wrapping_sub(y),
        BOP_MUL => x.wrapping_mul(y),
        BOP_DIV => {
            if y == 0 {
                return None;
            }
            x.wrapping_div(y)
        }
        BOP_REM => {
            if y == 0 {
                return None;
            }
            x.wrapping_rem(y)
        }
        BOP_EQ => (x == y) as i64,
        BOP_NE => (x != y) as i64,
        BOP_LT => (x < y) as i64,
        BOP_LE => (x <= y) as i64,
        BOP_GT => (x > y) as i64,
        BOP_GE => (x >= y) as i64,
        _ => unreachable!("bop code out of range"),
    }))
}

#[inline(always)]
fn double_bin<const BOP: u8>(x: f64, y: f64) -> Value {
    match BOP {
        BOP_ADD => Value::Double(x + y),
        BOP_SUB => Value::Double(x - y),
        BOP_MUL => Value::Double(x * y),
        BOP_DIV => Value::Double(x / y),
        BOP_REM => Value::Double(x % y),
        BOP_EQ => Value::Int((x == y) as i64),
        BOP_NE => Value::Int((x != y) as i64),
        BOP_LT => Value::Int((x < y) as i64),
        BOP_LE => Value::Int((x <= y) as i64),
        BOP_GT => Value::Int((x > y) as i64),
        BOP_GE => Value::Int((x >= y) as i64),
        _ => unreachable!("bop code out of range"),
    }
}

/// A `bin`/`br` operand. `SLOT` marks an operand pre-decoded as a slot:
/// the slot index rides in a fixed `Step` field and the cell is read
/// directly, skipping the `Opnd` match. `false` falls back to the
/// generic operand path (immediates and mixed forms).
#[inline(always)]
fn operand<const SLOT: bool>(m: &NativeMachine, base: usize, slot: Slot, o: &Opnd) -> Value {
    if SLOT {
        m.cell(base, slot).val
    } else {
        m.opnd_val(base, o)
    }
}

/// When a `bin`/`br` operand is ready; see [`operand`].
#[inline(always)]
fn operand_ready<const SLOT: bool>(m: &NativeMachine, base: usize, slot: Slot, o: &Opnd) -> u64 {
    if SLOT {
        m.slot_ready(base, slot)
    } else {
        m.opnd_ready(base, o)
    }
}

/// `XS`/`YS` mark the operands pre-decoded as slots `b`/`c`.
#[inline(always)]
pub(crate) fn bin<const CHECK: bool, const BOP: u8, const XS: bool, const YS: bool>(
    m: &mut NativeMachine,
    _p: &NativeProgram,
    _f: &NativeFunc,
    s: &Step,
    ctx: &mut Ctx,
) -> StepResult {
    if CHECK {
        let r = operand_ready::<XS>(m, ctx.base, s.b, &s.x)
            .max(operand_ready::<YS>(m, ctx.base, s.c, &s.y));
        if r > ctx.now {
            return Ok(m.stall(ctx, s.site, r));
        }
    }
    let av = operand::<XS>(m, ctx.base, s.b, &s.x);
    let bv = operand::<YS>(m, ctx.base, s.c, &s.y);
    match bin_fast::<BOP>(av, bv) {
        Some(v) => m.set_cell(ctx.base, s.a, v, 0),
        None => bin_slow::<XS, YS>(m, s, ctx)?,
    }
    ctx.now += s.cost;
    ctx.pc += 1;
    Ok(Flow::Next)
}

/// `bin` through [`eval_bin`], for the operands `bin_fast` leaves out.
/// Out of line, and re-reading its operands, so `bin` keeps no stack
/// slot whose address escapes: that would rule out the tail dispatch
/// in `bin_chain`.
#[cold]
#[inline(never)]
fn bin_slow<const XS: bool, const YS: bool>(
    m: &mut NativeMachine,
    s: &Step,
    ctx: &Ctx,
) -> Result<(), Box<SimError>> {
    let av = operand::<XS>(m, ctx.base, s.b, &s.x);
    let bv = operand::<YS>(m, ctx.base, s.c, &s.y);
    let v = eval_bin(s.bop, av, bv).map_err(at(ctx.now))?;
    m.set_cell(ctx.base, s.a, v, 0);
    Ok(())
}

#[inline(always)]
fn un_impl<const CHECK: bool>(
    m: &mut NativeMachine,
    s: &Step,
    ctx: &mut Ctx,
    op: UnOp,
) -> StepResult {
    if CHECK {
        let r = m.opnd_ready(ctx.base, &s.x);
        if r > ctx.now {
            return Ok(m.stall(ctx, s.site, r));
        }
    }
    let av = m.opnd_val(ctx.base, &s.x);
    let v = eval_un(op, av).map_err(at(ctx.now))?;
    m.set_cell(ctx.base, s.a, v, 0);
    ctx.now += s.cost;
    ctx.pc += 1;
    Ok(Flow::Next)
}

#[inline(never)]
pub(crate) fn un_neg<const CHECK: bool>(
    m: &mut NativeMachine,
    _p: &NativeProgram,
    _f: &NativeFunc,
    s: &Step,
    ctx: &mut Ctx,
) -> StepResult {
    un_impl::<CHECK>(m, s, ctx, UnOp::Neg)
}

#[inline(never)]
pub(crate) fn un_not<const CHECK: bool>(
    m: &mut NativeMachine,
    _p: &NativeProgram,
    _f: &NativeFunc,
    s: &Step,
    ctx: &mut Ctx,
) -> StepResult {
    un_impl::<CHECK>(m, s, ctx, UnOp::Not)
}

#[inline(always)]
pub(crate) fn load_local<const CHECK: bool>(
    m: &mut NativeMachine,
    _p: &NativeProgram,
    _f: &NativeFunc,
    s: &Step,
    ctx: &mut Ctx,
) -> StepResult {
    if CHECK {
        let r = m.slot_ready(ctx.base, s.b);
        if r > ctx.now {
            return Ok(m.stall(ctx, s.site, r));
        }
    }
    let v = match m.cell(ctx.base, s.b).val {
        Value::Ptr(a) if a.node as usize == ctx.node => {
            m.heaps[ctx.node].get(a.index, s.c as usize)
        }
        _ => None,
    };
    let Some(v) = v else {
        return Err(local_access_error(m, s, ctx));
    };
    m.set_cell(ctx.base, s.a, v, 0);
    m.stats.local_mem += 1;
    ctx.now += s.cost;
    ctx.pc += 1;
    Ok(Flow::Next)
}

/// The error of a `load_local`/`store_local` whose pointer (slot `b`)
/// or field (`c`) failed the fast path's checks, as the interpreter
/// words it. Out of line, like every error the load and store handlers
/// build, so that they keep no stack slot whose address escapes: that
/// would rule out the tail dispatch in their chained forms.
#[cold]
#[inline(never)]
fn local_access_error(m: &NativeMachine, s: &Step, ctx: &Ctx) -> Box<SimError> {
    match m.expect_local_addr(ctx, s.b) {
        Ok(a) => heap_access_error(m, a, s, ctx),
        Err(e) => e,
    }
}

/// The out-of-range error of field `c` of the object at `a`.
#[cold]
#[inline(never)]
fn heap_access_error(m: &NativeMachine, a: Addr, s: &Step, ctx: &Ctx) -> Box<SimError> {
    match m.heaps[a.node as usize].load(a.index, s.c as usize) {
        Err(e) => fail(ctx.now, e),
        Ok(_) => unreachable!("field {} of {a} is in range", s.c),
    }
}

/// [`Value::as_ptr`]'s error for the non-pointer `v`.
#[cold]
#[inline(never)]
fn as_ptr_error(v: &Value, ctx: &Ctx) -> Box<SimError> {
    fail(ctx.now, v.as_ptr().expect_err("not a pointer"))
}

#[inline(always)]
pub(crate) fn load_remote<const CHECK: bool>(
    m: &mut NativeMachine,
    p: &NativeProgram,
    _f: &NativeFunc,
    s: &Step,
    ctx: &mut Ctx,
) -> StepResult {
    if CHECK {
        let r = m.slot_ready(ctx.base, s.b);
        if r > ctx.now {
            return Ok(m.stall(ctx, s.site, r));
        }
    }
    m.stats.read_data += 1;
    if let Some(sc) = m.site_mut(s.site, ctx.node) {
        sc.execs += 1;
        sc.bytes += 8;
    }
    match m.cell(ctx.base, s.b).val {
        Value::Ptr(addr) => {
            let Some(v) = m.heaps[addr.node as usize].get(addr.index, s.c as usize) else {
                return Err(heap_access_error(m, addr, s, ctx));
            };
            if addr.node as usize == ctx.node {
                ctx.now += p.cost.pseudo_remote_ns;
                m.set_cell(ctx.base, s.a, v, 0);
            } else {
                let ready = ctx.now + p.cost.read_latency_ns;
                ctx.now += p.cost.read_issue_ns;
                m.set_cell(ctx.base, s.a, v, ready);
            }
        }
        // Speculative read of an invalid address: tolerated, the result
        // must simply never be used.
        Value::Null | Value::Uninit => {
            let ready = ctx.now + p.cost.read_latency_ns;
            ctx.now += p.cost.read_issue_ns;
            m.set_cell(ctx.base, s.a, Value::Uninit, ready);
        }
        other => {
            return m.err(
                ctx.now,
                format!("remote read through non-pointer {other:?}"),
            );
        }
    }
    ctx.pc += 1;
    Ok(Flow::Next)
}

#[inline(always)]
pub(crate) fn store_local<const CHECK: bool>(
    m: &mut NativeMachine,
    _p: &NativeProgram,
    _f: &NativeFunc,
    s: &Step,
    ctx: &mut Ctx,
) -> StepResult {
    if CHECK {
        let r = m
            .slot_ready(ctx.base, s.b)
            .max(m.opnd_ready(ctx.base, &s.x));
        if r > ctx.now {
            return Ok(m.stall(ctx, s.site, r));
        }
    }
    let v = m.opnd_val(ctx.base, &s.x);
    let field = match m.cells[ctx.base + s.b as usize].val {
        Value::Ptr(a) if a.node as usize == ctx.node => {
            m.heaps[ctx.node].get_mut(a.index, s.c as usize)
        }
        _ => None,
    };
    let Some(field) = field else {
        return Err(local_access_error(m, s, ctx));
    };
    *field = v;
    m.stats.local_mem += 1;
    ctx.now += s.cost;
    ctx.pc += 1;
    Ok(Flow::Next)
}

#[inline(always)]
pub(crate) fn store_remote<const CHECK: bool>(
    m: &mut NativeMachine,
    p: &NativeProgram,
    _f: &NativeFunc,
    s: &Step,
    ctx: &mut Ctx,
) -> StepResult {
    if CHECK {
        let r = m
            .slot_ready(ctx.base, s.b)
            .max(m.opnd_ready(ctx.base, &s.x));
        if r > ctx.now {
            return Ok(m.stall(ctx, s.site, r));
        }
    }
    m.stats.write_data += 1;
    if let Some(sc) = m.site_mut(s.site, ctx.node) {
        sc.execs += 1;
        sc.bytes += 8;
    }
    let addr = match m.cell(ctx.base, s.b).val {
        Value::Ptr(addr) => addr,
        Value::Null => return m.err(ctx.now, "remote write through NULL pointer"),
        _ => return Err(as_ptr_error(&m.cells[ctx.base + s.b as usize].val, ctx)),
    };
    let v = m.opnd_val(ctx.base, &s.x);
    let Some(field) = m.heaps[addr.node as usize].get_mut(addr.index, s.c as usize) else {
        return Err(heap_access_error(m, addr, s, ctx));
    };
    *field = v;
    if addr.node as usize == ctx.node {
        ctx.now += p.cost.pseudo_remote_ns;
    } else {
        let done = ctx.now + p.cost.write_latency_ns;
        let t = &mut m.threads[ctx.tid as usize];
        t.writes_done_at = t.writes_done_at.max(done);
        ctx.now += p.cost.write_issue_ns;
    }
    ctx.pc += 1;
    Ok(Flow::Next)
}

#[inline(always)]
pub(crate) fn blk_read<const CHECK: bool>(
    m: &mut NativeMachine,
    p: &NativeProgram,
    _f: &NativeFunc,
    s: &Step,
    ctx: &mut Ctx,
) -> StepResult {
    if CHECK {
        let r = m.slot_ready(ctx.base, s.a);
        if r > ctx.now {
            return Ok(m.stall(ctx, s.site, r));
        }
    }
    let words = s.d;
    m.stats.blkmov += 1;
    m.stats.blkmov_words += words as u64;
    if let Some(sc) = m.site_mut(s.site, ctx.node) {
        sc.execs += 1;
        sc.bytes += 8 * words as u64;
    }
    match m.cell(ctx.base, s.a).val {
        Value::Ptr(addr) => {
            let vals = m.heaps[addr.node as usize]
                .load_range(addr.index, s.c as usize, words as usize)
                .map_err(at(ctx.now))?;
            let (issue, ready) = if addr.node as usize == ctx.node {
                (p.cost.pseudo_remote_ns, ctx.now)
            } else {
                (
                    p.cost.blk_issue(words as usize),
                    ctx.now + p.cost.blk_latency(words as usize),
                )
            };
            let dst = ctx.base + (s.b + s.c) as usize;
            for (w, v) in vals.iter().enumerate() {
                m.cells[dst + w] = Cell { val: *v, ready };
            }
            ctx.now += issue;
        }
        Value::Null | Value::Uninit => {
            let ready = ctx.now + p.cost.blk_latency(words as usize);
            for w in s.c..s.c + words {
                m.set_cell(ctx.base, s.b + w, Value::Uninit, ready);
            }
            ctx.now += p.cost.blk_issue(words as usize);
        }
        other => return m.err(ctx.now, format!("blkmov through non-pointer {other:?}")),
    }
    ctx.pc += 1;
    Ok(Flow::Next)
}

#[inline(never)]
pub(crate) fn blk_write<const CHECK: bool>(
    m: &mut NativeMachine,
    p: &NativeProgram,
    _f: &NativeFunc,
    s: &Step,
    ctx: &mut Ctx,
) -> StepResult {
    if CHECK {
        let mut r = m.slot_ready(ctx.base, s.a);
        for w in s.c..s.c + s.d {
            r = r.max(m.slot_ready(ctx.base, s.b + w));
        }
        if r > ctx.now {
            return Ok(m.stall(ctx, s.site, r));
        }
    }
    let words = s.d;
    m.stats.blkmov += 1;
    m.stats.blkmov_words += words as u64;
    if let Some(sc) = m.site_mut(s.site, ctx.node) {
        sc.execs += 1;
        sc.bytes += 8 * words as u64;
    }
    let Some(addr) = m.cell(ctx.base, s.a).val.as_ptr().map_err(at(ctx.now))? else {
        return m.err(ctx.now, "blkmov write through NULL pointer");
    };
    m.scratch.clear();
    for w in s.c..s.c + words {
        let v = m.cells[ctx.base + (s.b + w) as usize].val;
        m.scratch.push(v);
    }
    m.heaps[addr.node as usize]
        .store_range(addr.index, s.c as usize, &m.scratch)
        .map_err(at(ctx.now))?;
    if addr.node as usize == ctx.node {
        ctx.now += p.cost.pseudo_remote_ns;
    } else {
        let done = ctx.now + p.cost.blk_latency(words as usize);
        let t = &mut m.threads[ctx.tid as usize];
        t.writes_done_at = t.writes_done_at.max(done);
        ctx.now += p.cost.blk_issue(words as usize);
    }
    ctx.pc += 1;
    Ok(Flow::Next)
}

#[inline(always)]
pub(crate) fn copy_slots<const CHECK: bool>(
    m: &mut NativeMachine,
    _p: &NativeProgram,
    _f: &NativeFunc,
    s: &Step,
    ctx: &mut Ctx,
) -> StepResult {
    if CHECK {
        let mut r = 0u64;
        for w in 0..s.c {
            r = r.max(m.slot_ready(ctx.base, s.b + w));
        }
        if r > ctx.now {
            return Ok(m.stall(ctx, s.site, r));
        }
    }
    // Forward element-by-element copy, exactly like the interpreter:
    // overlapping ranges read freshly-written values.
    for w in 0..s.c {
        let v = m.cells[ctx.base + (s.b + w) as usize];
        m.cells[ctx.base + (s.a + w) as usize] = v;
    }
    ctx.now += s.cost;
    ctx.pc += 1;
    Ok(Flow::Next)
}

#[inline(always)]
pub(crate) fn malloc_here(
    m: &mut NativeMachine,
    _p: &NativeProgram,
    _f: &NativeFunc,
    s: &Step,
    ctx: &mut Ctx,
) -> StepResult {
    let index = m.heaps[ctx.node].alloc(s.c as usize);
    m.set_cell(
        ctx.base,
        s.a,
        Value::Ptr(Addr {
            node: ctx.node as NodeId,
            index,
        }),
        0,
    );
    ctx.now += s.cost;
    ctx.pc += 1;
    Ok(Flow::Next)
}

#[inline(never)]
pub(crate) fn malloc_on<const CHECK: bool>(
    m: &mut NativeMachine,
    p: &NativeProgram,
    _f: &NativeFunc,
    s: &Step,
    ctx: &mut Ctx,
) -> StepResult {
    if CHECK {
        let r = m.opnd_ready(ctx.base, &s.x);
        if r > ctx.now {
            return Ok(m.stall(ctx, s.site, r));
        }
    }
    let n = m.opnd_val(ctx.base, &s.x).as_int().map_err(at(ctx.now))?;
    let target = n.rem_euclid(m.cfg.n_nodes as i64) as NodeId;
    let index = m.heaps[target as usize].alloc(s.c as usize);
    m.set_cell(
        ctx.base,
        s.a,
        Value::Ptr(Addr {
            node: target,
            index,
        }),
        0,
    );
    ctx.now += s.cost;
    if target as usize != ctx.node {
        ctx.now += p.cost.write_issue_ns;
    }
    ctx.pc += 1;
    Ok(Flow::Next)
}

#[inline(never)]
pub(crate) fn alloc_shared(
    m: &mut NativeMachine,
    _p: &NativeProgram,
    _f: &NativeFunc,
    s: &Step,
    ctx: &mut Ctx,
) -> StepResult {
    let index = m.heaps[ctx.node].alloc(1);
    m.heaps[ctx.node]
        .store(index, 0, Value::Int(0))
        .expect("fresh cell");
    m.set_cell(
        ctx.base,
        s.a,
        Value::Ptr(Addr {
            node: ctx.node as NodeId,
            index,
        }),
        0,
    );
    ctx.now += s.cost;
    ctx.pc += 1;
    Ok(Flow::Next)
}

#[inline(never)]
pub(crate) fn atomic<const CHECK: bool, const ADD: bool>(
    m: &mut NativeMachine,
    p: &NativeProgram,
    _f: &NativeFunc,
    s: &Step,
    ctx: &mut Ctx,
) -> StepResult {
    if CHECK {
        let r = m
            .slot_ready(ctx.base, s.a)
            .max(m.opnd_ready(ctx.base, &s.x));
        if r > ctx.now {
            return Ok(m.stall(ctx, s.site, r));
        }
    }
    let Some(addr) = m.cell(ctx.base, s.a).val.as_ptr().map_err(at(ctx.now))? else {
        return m.err(ctx.now, "atomic op on unallocated shared cell");
    };
    let v = m.opnd_val(ctx.base, &s.x);
    let new = if ADD {
        let old = m.heaps[addr.node as usize]
            .load(addr.index, 0)
            .map_err(at(ctx.now))?;
        Value::Int(old.as_int().map_err(at(ctx.now))? + v.as_int().map_err(at(ctx.now))?)
    } else {
        v
    };
    m.heaps[addr.node as usize]
        .store(addr.index, 0, new)
        .map_err(at(ctx.now))?;
    if addr.node as usize == ctx.node {
        m.stats.local_mem += 1;
        ctx.now += p.cost.local_mem_ns;
    } else {
        m.stats.atomic_remote += 1;
        ctx.now += p.cost.atomic_remote_ns;
    }
    ctx.pc += 1;
    Ok(Flow::Next)
}

#[inline(never)]
pub(crate) fn value_of<const CHECK: bool>(
    m: &mut NativeMachine,
    p: &NativeProgram,
    _f: &NativeFunc,
    s: &Step,
    ctx: &mut Ctx,
) -> StepResult {
    if CHECK {
        let r = m.slot_ready(ctx.base, s.b);
        if r > ctx.now {
            return Ok(m.stall(ctx, s.site, r));
        }
    }
    let Some(addr) = m.cell(ctx.base, s.b).val.as_ptr().map_err(at(ctx.now))? else {
        return m.err(ctx.now, "valueof on unallocated shared cell");
    };
    let v = m.heaps[addr.node as usize]
        .load(addr.index, 0)
        .map_err(at(ctx.now))?;
    if addr.node as usize == ctx.node {
        m.stats.local_mem += 1;
        m.set_cell(ctx.base, s.a, v, 0);
        ctx.now += p.cost.local_mem_ns;
    } else {
        m.stats.atomic_remote += 1;
        let ready = ctx.now + p.cost.atomic_latency_ns;
        m.set_cell(ctx.base, s.a, v, ready);
        ctx.now += p.cost.atomic_remote_ns;
    }
    ctx.pc += 1;
    Ok(Flow::Next)
}

pub(crate) fn call<const CHECK: bool>(
    m: &mut NativeMachine,
    p: &NativeProgram,
    f: &NativeFunc,
    s: &Step,
    ctx: &mut Ctx,
) -> StepResult {
    let nc = &f.calls[s.a as usize];
    if CHECK {
        let mut r = 0u64;
        for a in nc.args.iter() {
            r = r.max(m.opnd_ready(ctx.base, a));
        }
        match nc.at {
            CallAt::OwnerOf(slot) => r = r.max(m.slot_ready(ctx.base, slot)),
            CallAt::Node(o) => r = r.max(m.opnd_ready(ctx.base, &o)),
            CallAt::Local => {}
        }
        if r > ctx.now {
            return Ok(m.stall(ctx, s.site, r));
        }
    }
    let callee = &p.funcs[nc.func.index()];
    if nc.bad_arity {
        return m.err(ctx.now, format!("arity mismatch calling `{}`", callee.name));
    }
    let target: usize = match nc.at {
        CallAt::Local => ctx.node,
        CallAt::OwnerOf(slot) => match m.cell(ctx.base, slot).val {
            Value::Ptr(a) => a.node as usize,
            Value::Null => return m.err(ctx.now, "OWNER_OF(NULL)"),
            other => return m.err(ctx.now, format!("OWNER_OF of non-pointer {other:?}")),
        },
        CallAt::Node(o) => {
            let n = m.opnd_val(ctx.base, &o).as_int().map_err(at(ctx.now))?;
            n.rem_euclid(m.cfg.n_nodes as i64) as usize
        }
    };
    // The callee frame goes above the caller's, so each argument is
    // read from the caller's cells and written straight into its slot.
    let new_base = m.new_frame(callee.n_slots);
    for (a, &slot) in nc.args.iter().zip(callee.param_slots.iter()) {
        let val = m.opnd_val(ctx.base, a);
        m.cells[new_base + slot as usize] = Cell { val, ready: 0 };
    }
    ctx.now += s.cost;
    if target == ctx.node {
        // Synchronous local call: push a frame and fall straight into
        // the callee's step table.
        let t = &mut m.threads[ctx.tid as usize];
        t.stack.last_mut().unwrap().pc = ctx.pc + 1;
        t.stack.push(ActRec {
            func: nc.func,
            pc: 0,
            frame: new_base,
            ret_slot: nc.dst,
        });
        ctx.func = nc.func.0;
        ctx.pc = 0;
        ctx.base = new_base;
        Ok(Flow::Next)
    } else {
        // Remote invocation: suspend and spawn over there.
        m.stats.remote_calls += 1;
        let child = m.new_thread(
            target as NodeId,
            ActRec {
                func: nc.func,
                pc: 0,
                frame: new_base,
                ret_slot: None,
            },
            ParentLink::Reply(ctx.tid, nc.dst),
        );
        m.schedule(ctx.now + p.cost.remote_call_ns, child);
        let t = &mut m.threads[ctx.tid as usize];
        t.state = ThreadState::Blocked;
        t.stack.last_mut().unwrap().pc = ctx.pc + 1;
        m.release(ctx);
        Ok(Flow::Release)
    }
}

#[inline(always)]
pub(crate) fn builtin<const CHECK: bool>(
    m: &mut NativeMachine,
    _p: &NativeProgram,
    f: &NativeFunc,
    s: &Step,
    ctx: &mut Ctx,
) -> StepResult {
    let nb = &f.builtins[s.a as usize];
    if CHECK {
        let mut r = 0u64;
        for a in nb.args.iter() {
            r = r.max(m.opnd_ready(ctx.base, a));
        }
        if matches!(nb.which, Builtin::Fence) {
            r = r.max(m.threads[ctx.tid as usize].writes_done_at);
        }
        if r > ctx.now {
            return Ok(m.stall(ctx, s.site, r));
        }
    }
    ctx.now += s.cost;
    let v = match nb.which {
        Builtin::Sqrt => Value::Double(
            m.opnd_val(ctx.base, &nb.args[0])
                .as_double()
                .map_err(at(ctx.now))?
                .sqrt(),
        ),
        Builtin::Fabs => Value::Double(
            m.opnd_val(ctx.base, &nb.args[0])
                .as_double()
                .map_err(at(ctx.now))?
                .abs(),
        ),
        Builtin::Rand => {
            m.rng = m
                .rng
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            Value::Int(((m.rng >> 33) & 0x7FFF_FFFF) as i64)
        }
        Builtin::NumNodes => Value::Int(m.cfg.n_nodes as i64),
        Builtin::MyNode => Value::Int(ctx.node as i64),
        Builtin::OwnerOf => match m.opnd_val(ctx.base, &nb.args[0]) {
            Value::Ptr(a) => Value::Int(a.node as i64),
            Value::Null => return m.err(ctx.now, "owner_of(NULL)"),
            other => return m.err(ctx.now, format!("owner_of of non-pointer {other:?}")),
        },
        Builtin::PrintInt | Builtin::PrintDouble => {
            let v = m.opnd_val(ctx.base, &nb.args[0]);
            m.output.push(format!("{v}"));
            v
        }
        // Readiness was checked against writes_done_at.
        Builtin::Fence => Value::Int(0),
    };
    m.set_cell(ctx.base, nb.dst, v, 0);
    ctx.pc += 1;
    Ok(Flow::Next)
}

/// The shared `Ret` tail (after the return value is known).
fn ret_common(
    m: &mut NativeMachine,
    p: &NativeProgram,
    s: &Step,
    ctx: &mut Ctx,
    v: Value,
) -> StepResult {
    ctx.now += s.cost;
    let popped = m.threads[ctx.tid as usize].stack.pop().expect("frame");
    // Reclaim the frame when it is still the top of the arena (always
    // true for straight-line recursion), keeping memory proportional to
    // stack depth rather than total calls.
    let popped_words = p.funcs[popped.func.index()].n_slots as usize;
    if popped.frame + popped_words == m.cells.len() {
        m.cells.truncate(popped.frame);
    }
    if let Some(caller) = m.threads[ctx.tid as usize].stack.last().copied() {
        if let Some(slot) = popped.ret_slot {
            m.set_cell(caller.frame, slot, v, 0);
        }
        ctx.func = caller.func.0;
        ctx.pc = caller.pc;
        ctx.base = caller.frame;
        return Ok(Flow::Next);
    }
    // Root frame of this thread.
    match m.threads[ctx.tid as usize].parent {
        ParentLink::Root => {
            m.threads[ctx.tid as usize].state = ThreadState::Done;
            m.release(ctx);
            // Completion waits for outstanding writes.
            m.finished_at = ctx.now.max(m.threads[ctx.tid as usize].writes_done_at);
            m.result = Some(v);
            Ok(Flow::Release)
        }
        ParentLink::Reply(caller, dst) => {
            let arrive = ctx.now + p.cost.remote_call_ns;
            let caller_frame = m.threads[caller as usize]
                .stack
                .last()
                .expect("caller stack")
                .frame;
            if let Some(slot) = dst {
                m.set_cell(caller_frame, slot, v, arrive);
            }
            // The callee's remote writes are covered by the reply
            // ordering; fold them into the caller's fence state.
            let wd = m.threads[ctx.tid as usize].writes_done_at;
            let ct = &mut m.threads[caller as usize];
            ct.writes_done_at = ct.writes_done_at.max(wd);
            m.schedule(arrive, caller);
            m.finish_thread(ctx);
            m.release(ctx);
            Ok(Flow::Release)
        }
        ParentLink::Arm(_) => m.err(ctx.now, "return from a parallel arm"),
    }
}

pub(crate) fn ret_val<const CHECK: bool>(
    m: &mut NativeMachine,
    p: &NativeProgram,
    _f: &NativeFunc,
    s: &Step,
    ctx: &mut Ctx,
) -> StepResult {
    if CHECK {
        let r = m.opnd_ready(ctx.base, &s.x);
        if r > ctx.now {
            return Ok(m.stall(ctx, s.site, r));
        }
    }
    let v = m.opnd_val(ctx.base, &s.x);
    ret_common(m, p, s, ctx, v)
}

pub(crate) fn ret_void(
    m: &mut NativeMachine,
    p: &NativeProgram,
    _f: &NativeFunc,
    s: &Step,
    ctx: &mut Ctx,
) -> StepResult {
    ret_common(m, p, s, ctx, Value::Int(0))
}

pub(crate) fn jmp(
    _m: &mut NativeMachine,
    _p: &NativeProgram,
    _f: &NativeFunc,
    s: &Step,
    ctx: &mut Ctx,
) -> StepResult {
    ctx.pc = s.b;
    ctx.now += s.cost;
    Ok(Flow::Next)
}

pub(crate) fn br<const CHECK: bool, const BOP: u8, const XS: bool, const YS: bool>(
    m: &mut NativeMachine,
    _p: &NativeProgram,
    _f: &NativeFunc,
    s: &Step,
    ctx: &mut Ctx,
) -> StepResult {
    if CHECK {
        let r = operand_ready::<XS>(m, ctx.base, s.a, &s.x)
            .max(operand_ready::<YS>(m, ctx.base, s.d, &s.y));
        if r > ctx.now {
            return Ok(m.stall(ctx, s.site, r));
        }
    }
    let av = operand::<XS>(m, ctx.base, s.a, &s.x);
    let bv = operand::<YS>(m, ctx.base, s.d, &s.y);
    // The fast path yields an Int or a Double, whose truthiness cannot
    // fail.
    let taken = match bin_fast::<BOP>(av, bv) {
        Some(Value::Int(i)) => i != 0,
        Some(Value::Double(d)) => d != 0.0,
        _ => br_slow::<XS, YS>(m, s, ctx)?,
    };
    if let Some(sc) = m.site_mut(s.site, ctx.node) {
        sc.execs += 1;
        if taken {
            sc.taken += 1;
        } else {
            sc.not_taken += 1;
        }
    }
    ctx.pc = if taken { s.b } else { s.c };
    ctx.now += s.cost;
    Ok(Flow::Next)
}

/// `br`'s condition through [`eval_bin`], for the operands `bin_fast`
/// leaves out.
#[cold]
#[inline(never)]
fn br_slow<const XS: bool, const YS: bool>(
    m: &NativeMachine,
    s: &Step,
    ctx: &Ctx,
) -> Result<bool, Box<SimError>> {
    let av = operand::<XS>(m, ctx.base, s.a, &s.x);
    let bv = operand::<YS>(m, ctx.base, s.d, &s.y);
    let v = eval_bin(s.bop, av, bv).map_err(at(ctx.now))?;
    v.truthy().map_err(at(ctx.now))
}

pub(crate) fn switch_step<const CHECK: bool>(
    m: &mut NativeMachine,
    _p: &NativeProgram,
    f: &NativeFunc,
    s: &Step,
    ctx: &mut Ctx,
) -> StepResult {
    if CHECK {
        let r = m.opnd_ready(ctx.base, &s.x);
        if r > ctx.now {
            return Ok(m.stall(ctx, s.site, r));
        }
    }
    let ns = &f.switches[s.a as usize];
    let v = m.opnd_val(ctx.base, &s.x).as_int().map_err(at(ctx.now))?;
    let target = ns
        .table
        .iter()
        .find(|(k, _)| *k == v)
        .map(|(_, pc)| *pc)
        .unwrap_or(ns.default_pc);
    ctx.pc = target;
    ctx.now += s.cost;
    Ok(Flow::Next)
}

pub(crate) fn fork(
    m: &mut NativeMachine,
    p: &NativeProgram,
    f: &NativeFunc,
    s: &Step,
    ctx: &mut Ctx,
) -> StepResult {
    let arms = &f.forks[s.a as usize];
    let t = &mut m.threads[ctx.tid as usize];
    t.stack.last_mut().unwrap().pc = s.b;
    t.outstanding_children = arms.len() as u32;
    t.waiting_join = true;
    t.state = ThreadState::Blocked;
    for &arm_pc in arms.iter() {
        ctx.now += p.cost.spawn_ns;
        m.stats.spawns += 1;
        let child = m.new_thread(
            ctx.node as NodeId,
            ActRec {
                func: FuncId(ctx.func),
                pc: arm_pc,
                frame: ctx.base,
                ret_slot: None,
            },
            ParentLink::Arm(ctx.tid),
        );
        m.schedule(ctx.now, child);
    }
    m.release(ctx);
    Ok(Flow::Release)
}

pub(crate) fn spawn_iter(
    m: &mut NativeMachine,
    _p: &NativeProgram,
    f: &NativeFunc,
    s: &Step,
    ctx: &mut Ctx,
) -> StepResult {
    ctx.now += s.cost;
    m.stats.spawns += 1;
    // The iteration gets a copy of the frame: forall bodies must not
    // carry dependences on ordinary variables.
    let new_base = m.cells.len();
    m.cells
        .extend_from_within(ctx.base..ctx.base + f.n_slots as usize);
    m.threads[ctx.tid as usize].outstanding_children += 1;
    let child = m.new_thread(
        ctx.node as NodeId,
        ActRec {
            func: FuncId(ctx.func),
            pc: s.b,
            frame: new_base,
            ret_slot: None,
        },
        ParentLink::Arm(ctx.tid),
    );
    m.schedule(ctx.now, child);
    ctx.pc += 1;
    Ok(Flow::Next)
}

pub(crate) fn join_iters(
    m: &mut NativeMachine,
    _p: &NativeProgram,
    _f: &NativeFunc,
    s: &Step,
    ctx: &mut Ctx,
) -> StepResult {
    if m.threads[ctx.tid as usize].outstanding_children > 0 {
        let t = &mut m.threads[ctx.tid as usize];
        t.waiting_join = true;
        t.state = ThreadState::Blocked;
        // The join resumes *after* the op.
        t.stack.last_mut().unwrap().pc = ctx.pc + 1;
        m.release(ctx);
        return Ok(Flow::Release);
    }
    ctx.now += s.cost;
    ctx.pc += 1;
    Ok(Flow::Next)
}

pub(crate) fn end_arm(
    m: &mut NativeMachine,
    _p: &NativeProgram,
    _f: &NativeFunc,
    _s: &Step,
    ctx: &mut Ctx,
) -> StepResult {
    let wd = m.threads[ctx.tid as usize].writes_done_at;
    if let ParentLink::Arm(parent) = m.threads[ctx.tid as usize].parent {
        let pt = &mut m.threads[parent as usize];
        pt.outstanding_children -= 1;
        pt.writes_done_at = pt.writes_done_at.max(wd);
        if pt.outstanding_children == 0 && pt.waiting_join {
            pt.waiting_join = false;
            m.schedule(ctx.now, parent);
        }
    }
    m.finish_thread(ctx);
    m.release(ctx);
    Ok(Flow::Release)
}

// ---- fused pairs --------------------------------------------------------
//
// A fused handler runs its op, then dispatches the fall-through successor
// through `chain` — one EU dispatch covers the pair (or a whole chained
// run). Only the *first* step of a pair is rewritten; the successor's own
// step stays valid as a jump target and stall-resume point.

macro_rules! chained {
    ($name:ident, $inner:ident $(, const $g:ident: $t:ty)*) => {
        pub(crate) fn $name<$(const $g: $t),*>(
            m: &mut NativeMachine,
            p: &NativeProgram,
            f: &NativeFunc,
            s: &Step,
            ctx: &mut Ctx,
        ) -> StepResult {
            match $inner::<$($g),*>(m, p, f, s, ctx) {
                Ok(Flow::Next) => chain(m, p, f, ctx),
                done => done,
            }
        }
    };
}

chained!(bin_chain, bin, const CHECK: bool, const BOP: u8, const XS: bool, const YS: bool);
chained!(atomic_chain, atomic, const CHECK: bool, const ADD: bool);
chained!(mov_slot_chain, mov_slot);
chained!(mov_imm_chain, mov_imm);
chained!(malloc_here_chain, malloc_here);
chained!(alloc_shared_chain, alloc_shared);
chained!(un_neg_chain, un_neg, const CHECK: bool);
chained!(un_not_chain, un_not, const CHECK: bool);
chained!(load_local_chain, load_local, const CHECK: bool);
chained!(load_remote_chain, load_remote, const CHECK: bool);
chained!(store_local_chain, store_local, const CHECK: bool);
chained!(store_remote_chain, store_remote, const CHECK: bool);
chained!(blk_read_chain, blk_read, const CHECK: bool);
chained!(blk_write_chain, blk_write, const CHECK: bool);
chained!(copy_slots_chain, copy_slots, const CHECK: bool);
chained!(malloc_on_chain, malloc_on, const CHECK: bool);
chained!(value_of_chain, value_of, const CHECK: bool);
chained!(builtin_chain, builtin, const CHECK: bool);
