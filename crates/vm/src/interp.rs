//! The evaluator: executes lowered code ([`crate::linear`]) with
//! deterministic cycle accounting, TIB-based dispatch, adaptive sampling,
//! and delivery of mutation patch points to the [`MutationHandler`].
//!
//! # Fast-path structure
//!
//! The hot loop fetches fixed-size pre-decoded instructions by a *local
//! pc* — `(code, method, cid, base, pc)` held in locals rather than re-read
//! from `frames.last()` per op — and parks the pc in the frame only at call
//! boundaries, traps and fuel exhaustion. Registers live in the pooled
//! [`VmState::reg_stack`] (each frame owns a contiguous window), so a call
//! extends the pool instead of allocating a fresh `Vec`. Cycle and op
//! charges are folded per straight-line segment at lowering time and charged
//! at the flush points (see [`crate::linear`]), keeping the *modeled* cycle
//! counts bit-identical to per-op accounting.
//!
//! # Dispatch
//!
//! A virtual call reads `TIB[vslot]` of the receiver's TIB, the vslot found
//! in a dense `class × selector` table; a special TIB's inheriting slot
//! reads its class TIB's entry ([`VmState::tib_slot`]), so a TIB flip is
//! the whole cost of reaching specialized code. A static or `invokespecial`
//! call (its target resolved once, at lowering) reads the JTOC: the
//! mutation engine's override, else the method's general code. An
//! interface call reads the receiver's IMT (one per class, shared by its
//! special TIBs) for a TIB offset, then reads the target through the
//! receiver's TIB like a virtual call.

use crate::error::RunError;
use crate::hooks::{MutationHandler, NoopHandler, VmObserver};
use crate::linear::{CallSite, Inst, LinearCode, UNRESOLVED};
use crate::state::{CodeSlot, CompiledId, Frame, Output, VmConfig, VmState};
use crate::stats::VmStats;
use crate::tib::TibId;
use dchm_bytecode::value::ObjRef;
use dchm_bytecode::{ClassId, IntrinsicKind, MethodId, MethodKind, Program, Reg, SelectorId, Value};
use dchm_ir::cost::CostModel;
use dchm_trace::profile::{FrameKey, ProfileSnapshot, NO_STATE};
use dchm_trace::{FaultKind, Stamped, TraceEvent, NO_ID};
use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

/// Extra cycles for an IMT conflict stub search (Sec. 3.2.3).
const IMT_CONFLICT_COST: u64 = 6;
/// Extra load when dispatching an interface method on a mutable class
/// (the IMT stores a TIB offset instead of a code pointer — Sec. 3.2.3).
const IMT_MUTABLE_EXTRA_LOAD: u64 = 1;

/// The virtual machine: state + mutation handler + optional observer.
pub struct Vm {
    /// All runtime state (public: the mutation engine manipulates it).
    pub state: VmState,
    handler: Box<dyn MutationHandler>,
    observer: Option<Box<dyn VmObserver>>,
    watched: Vec<bool>,
    /// Frame-walk buffer reused by every profiler sample.
    profile_stack: Vec<FrameKey>,
    /// Handles on the code bodies, parallel to `state.code`, kept across
    /// runs: the loop borrows the running frame's instructions from here
    /// (not from `state`), which costs no refcount traffic per frame entry
    /// and leaves `self` free.
    lins: Vec<Arc<LinearCode>>,
}

impl Vm {
    /// Creates a VM with mutation disabled ([`NoopHandler`]).
    pub fn new(program: Program, config: VmConfig) -> Self {
        Self::with_handler(program, config, Box::new(NoopHandler))
    }

    /// Creates a VM with a mutation handler attached.
    pub fn with_handler(
        program: Program,
        config: VmConfig,
        handler: Box<dyn MutationHandler>,
    ) -> Self {
        Vm {
            state: VmState::new(program, config),
            handler,
            observer: None,
            watched: Vec::new(),
            profile_stack: Vec::new(),
            lins: Vec::new(),
        }
    }

    /// Replaces the mutation handler (e.g. after installing a plan).
    pub fn set_handler(&mut self, handler: Box<dyn MutationHandler>) {
        self.handler = handler;
    }

    /// Attaches a profiling observer; its watch set is captured now. Ids
    /// that name no field of this program are ignored: nothing here can
    /// store to them.
    pub fn attach_observer(&mut self, obs: Box<dyn VmObserver>) {
        let mut watched = vec![false; self.state.program.fields.len()];
        for f in obs.watched_fields() {
            if let Some(w) = watched.get_mut(f.index()) {
                *w = true;
            }
        }
        self.watched = watched;
        self.observer = Some(obs);
    }

    /// Total modeled cycles so far (execution + compilation + GC).
    pub fn cycles(&self) -> u64 {
        self.state.clock
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> &VmStats {
        &self.state.stats
    }

    /// Enables structured event tracing into a fresh fixed-capacity ring
    /// buffer (see [`dchm_trace`]). Tracing is host-side only: modeled
    /// cycles and program output are bit-identical with it on or off.
    pub fn enable_tracing(&mut self, capacity: usize) {
        self.state.tracer.enable_ring(capacity);
    }

    /// Buffered trace events oldest-first (empty when tracing is off).
    pub fn trace_events(&self) -> Vec<Stamped> {
        self.state.tracer.events()
    }

    /// The cycle-attribution profile with method names resolved: the
    /// ranked (method × tier × receiver-state) cell table.
    pub fn profile(&self) -> ProfileSnapshot {
        self.state
            .profiler
            .snapshot(|m| self.state.method_display_name(MethodId(m)))
    }

    /// The profile's folded-stack lines (Brendan Gregg `.folded` format,
    /// flamegraph-ready), byte-identical across repeated runs.
    pub fn profile_folded(&self) -> String {
        self.state
            .profiler
            .folded(|m| self.state.method_display_name(MethodId(m)))
    }

    /// Runs the program entry point.
    ///
    /// # Errors
    /// Propagates any [`RunError`] trap; [`RunError::NoEntry`] if the
    /// program has none.
    pub fn run_entry(&mut self) -> Result<Option<Value>, RunError> {
        let entry = self.state.program.entry.ok_or(RunError::NoEntry)?;
        self.call_static(entry, &[])
    }

    /// Calls a static method from the host with `args`.
    ///
    /// This is the VM's hard containment boundary: any panic escaping the
    /// evaluator (or code it calls into) is caught and converted into a
    /// typed [`RunError::VmInvariant`], with the VM *poisoned* — its heap
    /// and code state are suspect, so every later call returns
    /// [`RunError::Poisoned`] instead of executing on corrupt state.
    ///
    /// # Errors
    /// Propagates any trap raised during execution;
    /// [`RunError::Poisoned`] when an earlier run was contained;
    /// [`RunError::VmInvariant`] — with the VM untouched — when `args` does
    /// not match the method's parameter count.
    ///
    /// A trap leaves its frames and their registers in place for
    /// post-mortem inspection; they are dropped here, on the next call.
    ///
    /// # Panics
    /// Panics if `mid` is not a static method.
    pub fn call_static(&mut self, mid: MethodId, args: &[Value]) -> Result<Option<Value>, RunError> {
        if self.state.poisoned {
            return Err(RunError::Poisoned);
        }
        self.state.drop_frames();
        assert_eq!(
            self.state.program.method(mid).kind,
            MethodKind::Static,
            "call_static target must be static"
        );
        let md = self.state.program.method(mid);
        if args.len() != md.arg_count() {
            let (name, want, got) = (&md.name, md.arg_count(), args.len());
            return Err(invariant(format!(
                "call_static arity: {name} takes {want} argument(s), got {got}"
            )));
        }
        if let Some(limit) = self.state.config.max_frame_depth {
            if limit == 0 {
                return Err(RunError::StackOverflow { depth: 1, limit });
            }
        }
        let cid = self.state.ensure_compiled(mid);
        self.drain_events();
        let nregs = self.state.code[cid.index()].lin.num_regs as usize;
        let base = self.state.reg_stack.len();
        self.state.reg_stack.resize(base + nregs, Value::Int(0));
        self.state.reg_stack[base..base + args.len()].copy_from_slice(args);
        self.state.stats.per_method[mid.index()].invocations += 1;
        self.state.frames.push(Frame {
            method: mid,
            cid,
            base,
            pc: 0,
            ret_dst: None,
        });
        let mut lins = std::mem::take(&mut self.lins);
        let run = catch_unwind(AssertUnwindSafe(|| self.run_loop(&mut lins)));
        self.lins = lins;
        match run {
            Ok(r) => r,
            Err(payload) => {
                self.state.poisoned = true;
                self.state.drop_frames();
                let what = payload
                    .downcast_ref::<&str>()
                    .map(|s| (*s).to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "panic with non-string payload".to_string());
                Err(RunError::VmInvariant { what: format!("contained panic: {what}") })
            }
        }
    }

    // -----------------------------------------------------------------
    // Core loop
    // -----------------------------------------------------------------

    fn run_loop(&mut self, lins: &mut Vec<Arc<LinearCode>>) -> Result<Option<Value>, RunError> {
        let mut final_ret: Option<Value> = None;
        // `config.fuel` cannot change mid-run; fold the `Option` away so the
        // per-block check is a single compare.
        let fuel_limit = self.state.config.fuel.unwrap_or(u64::MAX);
        // (Re)load the execution cursor from the top frame. The frame's pc
        // stays stale until it is parked at a call, trap or fuel stop.
        'frames: while let Some(&Frame { method, cid, base, pc, .. }) = self.state.frames.last() {
            let mut pc = pc as usize;
            let code = &self.state.code;
            if cid.index() >= lins.len() {
                // New code was installed; installed code never changes.
                lins.extend(code[lins.len()..].iter().map(|c| Arc::clone(&c.lin)));
            }
            let lin: &LinearCode = &lins[cid.index()];
            let insts = &*lin.insts;
            // Publishes `(cycles, ops)` of finished segments. Spelled out
            // field by field (not `self.charge`) so it can run while the
            // register window is borrowed.
            macro_rules! publish {
                ($c:expr, $o:expr) => {{
                    self.state.clock += $c;
                    let stats = &mut self.state.stats;
                    stats.ops_executed += $o;
                    stats.exec_cycles += $c;
                    stats.per_method[method.index()].cycles += $c;
                }};
            }
            // Leaves with an error, nothing pending.
            macro_rules! bail {
                ($e:expr) => {{
                    self.park(pc);
                    return Err($e);
                }};
            }
            // Leaves with an error from inside a segment: publishes the
            // pending `$pend` plus the exact prefix through the trapping op.
            macro_rules! trap_with {
                ($pend:expr, $e:expr) => {{
                    let (c, o) = lin.prefix[pc - 1];
                    publish!($pend.0 + c, $pend.1 + o);
                    bail!($e)
                }};
            }
            macro_rules! enter {
                ($target:expr, $tcid:expr, $recv:expr, $cs:expr) => {{
                    self.park(pc);
                    let args = &lin.args[$cs.args.0 as usize..$cs.args.1 as usize];
                    self.push_call($target, $tcid, $recv, args, $cs.dst, base)?;
                    continue 'frames;
                }};
            }
            // Fuel check, at frame entry and after every branch: every loop
            // crosses one, so runaway programs still stop. Nothing is
            // pending at either point.
            if self.state.stats.ops_executed > fuel_limit {
                bail!(RunError::OutOfFuel);
            }
            loop {
                // The fast section runs on a borrowed register window and
                // touches `self` only field by field; an instruction that
                // needs the whole state (allocation, the mutation handler)
                // leaves it and runs below. Flush points (see
                // `crate::linear`) add to `pend`, published on every way
                // out: whatever runs outside observes the clock exactly at
                // the flush points, never the segment in progress.
                let regs = &mut self.state.reg_stack[base..];
                let tick_at = self.state.next_sample_at.min(self.state.next_profile_at);
                let tick_left = tick_at.saturating_sub(self.state.clock);
                let fuel_left = fuel_limit.saturating_sub(self.state.stats.ops_executed);
                let mut pend = (0u64, 0u64);
                macro_rules! fold {
                    ($cost:expr) => {{
                        let (c, o) = match $cost.ops {
                            u16::MAX => lin.prefix[pc - 1],
                            o => ($cost.cycles as u64, o as u64),
                        };
                        pend = (pend.0 + c, pend.1 + o);
                    }};
                }
                #[rustfmt::skip]
                macro_rules! flush { ($cost:expr) => {{ fold!($cost); publish!(pend.0, pend.1); }}; }
                #[rustfmt::skip]
                macro_rules! trap { ($e:expr) => { trap_with!(pend, $e) }; }
                #[rustfmt::skip]
                macro_rules! reg { ($r:expr) => { regs[$r.index()] }; }
                macro_rules! non_null {
                    ($r:expr, $leave:ident) => {
                        match reg!($r).as_ref_opt() {
                            Some(o) => o,
                            None => $leave!(RunError::NullPointer),
                        }
                    };
                }
                // A taken branch: fold the segment, then leave the fast
                // section only when a sample, a profile tick or the fuel
                // stop is due.
                macro_rules! branch {
                    ($cost:expr, $to:expr) => {{
                        fold!($cost);
                        pc = $to as usize;
                        if pend.0 >= tick_left || pend.1 > fuel_left {
                            break None;
                        }
                    }};
                }
                // The fused forms (see `crate::linear`). An immediate form
                // writes its constant and steps over the consumer's slot,
                // so a trap charges the prefix through the consumer.
                macro_rules! imm {
                    ($k:expr, $v:expr) => {{
                        reg!($k) = $v;
                        pc += 1;
                    }};
                }
                macro_rules! ibin {
                    ($op:expr, $dst:expr, $a:expr, $b:expr) => {{
                        let r = match $op.eval(reg!($a).as_int(), $b) {
                            Some(r) => r,
                            None => trap!(RunError::DivideByZero),
                        };
                        reg!($dst) = Value::Int(r);
                    }};
                }
                // A compare and the `Br` in the slot after it.
                macro_rules! cmp_br {
                    ($op:expr, $dst:expr, $a:expr, $b:expr) => {{
                        let r = $op.eval_int(reg!($a).as_int(), $b);
                        reg!($dst) = Value::Int(r as i64);
                        let Inst::Br { t, f, cost, .. } = insts[pc] else {
                            unreachable!("compare-branch not followed by its Br");
                        };
                        pc += 1;
                        // A host branch, not a select: a select makes the
                        // next fetch wait for the compare and its operand
                        // loads, and that dependency chain, not the dispatch
                        // count, is what bounds a tight loop.
                        let to = if r {
                            std::hint::cold_path();
                            t
                        } else {
                            f
                        };
                        branch!(cost, to);
                    }};
                }
                let slow = loop {
                    let inst = insts[pc];
                    pc += 1;
                    match inst {
                        Inst::ConstI { dst, val } => reg!(dst) = Value::Int(val),
                        Inst::ConstD { dst, val } => reg!(dst) = Value::Double(val),
                        Inst::ConstNull { dst } => reg!(dst) = Value::Null,
                        Inst::Mov { dst, src } => reg!(dst) = reg!(src),
                        Inst::IBin { op, dst, a, b } => ibin!(op, dst, a, reg!(b).as_int()),
                        Inst::IBinI { op, dst, a, k, imm } => {
                            imm!(k, Value::Int(imm));
                            ibin!(op, dst, a, imm);
                        }
                        Inst::INeg { dst, a } => {
                            reg!(dst) = Value::Int(reg!(a).as_int().wrapping_neg());
                        }
                        Inst::DBin { op, dst, a, b } => {
                            let (a, b) = (reg!(a).as_double(), reg!(b).as_double());
                            reg!(dst) = Value::Double(op.eval(a, b));
                        }
                        Inst::DBinI { op, dst, a, k, imm } => {
                            imm!(k, Value::Double(imm));
                            reg!(dst) = Value::Double(op.eval(reg!(a).as_double(), imm));
                        }
                        Inst::DNeg { dst, a } => {
                            reg!(dst) = Value::Double(-reg!(a).as_double());
                        }
                        Inst::I2D { dst, a } => {
                            reg!(dst) = Value::Double(reg!(a).as_int() as f64);
                        }
                        Inst::D2I { dst, a } => {
                            reg!(dst) = Value::Int(reg!(a).as_double() as i64);
                        }
                        Inst::ICmp { op, dst, a, b } => {
                            let r = op.eval_int(reg!(a).as_int(), reg!(b).as_int());
                            reg!(dst) = Value::Int(r as i64);
                        }
                        Inst::ICmpI { op, dst, a, k, imm } => {
                            imm!(k, Value::Int(imm));
                            reg!(dst) = Value::Int(op.eval_int(reg!(a).as_int(), imm) as i64);
                        }
                        Inst::DCmp { op, dst, a, b } => {
                            let r = op.eval_double(reg!(a).as_double(), reg!(b).as_double());
                            reg!(dst) = Value::Int(r as i64);
                        }
                        Inst::DCmpI { op, dst, a, k, imm } => {
                            imm!(k, Value::Double(imm));
                            reg!(dst) = Value::Int(op.eval_double(reg!(a).as_double(), imm) as i64);
                        }
                        Inst::RefEq { dst, a, b } => {
                            let r = match (reg!(a), reg!(b)) {
                                (Value::Null, Value::Null) => true,
                                (Value::Ref(x), Value::Ref(y)) => x == y,
                                (Value::Null, Value::Ref(_)) | (Value::Ref(_), Value::Null) => {
                                    false
                                }
                                (x, y) => trap!(RunError::TypeConfusion {
                                    what: format!("RefEq on non-references {x:?}, {y:?}"),
                                }),
                            };
                            reg!(dst) = Value::Int(r as i64);
                        }
                        Inst::GetField { dst, obj, slot } => {
                            let o = non_null!(obj, trap);
                            let v = match self.state.heap.try_object(o) {
                                Ok(od) => od.fields[slot as usize],
                                Err(e) => trap!(e),
                            };
                            reg!(dst) = v;
                        }
                        Inst::PutField { obj, src, slot, field } => {
                            let o = non_null!(obj, trap);
                            let v = reg!(src);
                            match self.state.heap.try_object_mut(o) {
                                Ok(od) => od.fields[slot as usize] = v,
                                Err(e) => trap!(e),
                            }
                            if !self.watched.is_empty() && self.watched[field.index()] {
                                let class = self.state.heap.object(o).class;
                                if let Some(obs) = &mut self.observer {
                                    obs.on_instance_store(class, field, v);
                                }
                            }
                        }
                        Inst::GetStatic { dst, slot } => {
                            reg!(dst) = self.state.statics[slot as usize];
                        }
                        Inst::PutStatic { src, slot, field } => {
                            let v = reg!(src);
                            self.state.statics[slot as usize] = v;
                            if !self.watched.is_empty() && self.watched[field.index()] {
                                if let Some(obs) = &mut self.observer {
                                    obs.on_static_store(field, v);
                                }
                            }
                        }
                        Inst::CallVirtual { site, cost }
                        | Inst::CallSpecial { site, cost }
                        | Inst::CallStatic { site, cost } => {
                            flush!(cost);
                            let cs = lin.calls[site as usize];
                            let recv = match inst {
                                Inst::CallStatic { .. } => None,
                                _ => Some(non_null!(cs.obj, bail)),
                            };
                            let bound = match (inst, recv) {
                                (Inst::CallVirtual { .. }, Some(r)) if cs.iface => {
                                    self.dispatch_interface(method, cs.sel, r)
                                }
                                (Inst::CallVirtual { .. }, Some(r)) => {
                                    self.dispatch_virtual(r, cs.sel)
                                }
                                _ => self.bind_static(&cs, recv.is_some()),
                            };
                            match bound {
                                Ok((m, c)) => enter!(m, c, recv.map(Value::Ref), cs),
                                Err(e) => bail!(e),
                            }
                        }
                        Inst::InstanceOf { dst, obj, class } => {
                            let r = match reg!(obj) {
                                Value::Null => false,
                                Value::Ref(o) => {
                                    // Type tests consult the TIB's
                                    // type-information entry, never TIB
                                    // identity (Sec. 3.2.3).
                                    let tib = self.state.heap.object(o).tib;
                                    let oc = self.state.tibs[tib.index()].class;
                                    self.state.program.instance_of(oc, class)
                                }
                                v => trap!(RunError::TypeConfusion {
                                    what: format!("instanceof on non-reference {v:?}"),
                                }),
                            };
                            reg!(dst) = Value::Int(r as i64);
                        }
                        Inst::CheckCast { obj, class } => match reg!(obj) {
                            Value::Null => {}
                            Value::Ref(o) => {
                                let tib = self.state.heap.object(o).tib;
                                let oc = self.state.tibs[tib.index()].class;
                                if !self.state.program.instance_of(oc, class) {
                                    trap!(RunError::ClassCast);
                                }
                            }
                            v => trap!(RunError::TypeConfusion {
                                what: format!("checkcast on non-reference {v:?}"),
                            }),
                        },
                        Inst::ALoad { dst, arr, idx } => {
                            let a = non_null!(arr, trap);
                            let i = reg!(idx).as_int();
                            let arr = match self.state.heap.try_array(a) {
                                Ok(ad) => ad,
                                Err(e) => trap!(e),
                            };
                            let v = usize::try_from(i)
                                .ok()
                                .and_then(|ix| arr.elems.get(ix).copied());
                            match v {
                                Some(v) => reg!(dst) = v,
                                None => {
                                    let len = arr.elems.len();
                                    trap!(RunError::ArrayBounds { index: i, len });
                                }
                            }
                        }
                        Inst::AStore { arr, idx, src } => {
                            let a = non_null!(arr, trap);
                            let i = reg!(idx).as_int();
                            let v = reg!(src);
                            let arr = match self.state.heap.try_array_mut(a) {
                                Ok(ad) => ad,
                                Err(e) => trap!(e),
                            };
                            let slot = usize::try_from(i)
                                .ok()
                                .and_then(|ix| arr.elems.get_mut(ix));
                            match slot {
                                Some(slot) => *slot = v,
                                None => {
                                    let len = arr.elems.len();
                                    trap!(RunError::ArrayBounds { index: i, len });
                                }
                            }
                        }
                        Inst::ALen { dst, arr } => {
                            let a = non_null!(arr, trap);
                            let n = match self.state.heap.try_array(a) {
                                Ok(ad) => ad.elems.len() as i64,
                                Err(e) => trap!(e),
                            };
                            reg!(dst) = Value::Int(n);
                        }
                        Inst::Intrinsic { kind, dst, args } => {
                            exec_intrinsic(regs, &mut self.state.output, dst, kind, args);
                        }
                        Inst::Guard { site } => {
                            let g = lin.guards[site as usize];
                            self.state.stats.guards_executed += 1;
                            let forced =
                                self.state.injector.as_mut().is_some_and(|inj| inj.at_guard());
                            let recv = match g.obj {
                                Some(r) => Some(non_null!(r, trap)),
                                None => None,
                            };
                            let binds = |r: (u32, u32)| lin.binds[r.0 as usize..r.1 as usize].iter();
                            let mut holds = !forced;
                            if let (true, Some(o)) = (holds, recv) {
                                let od = match self.state.heap.try_object(o) {
                                    Ok(od) => od,
                                    Err(e) => trap!(e),
                                };
                                holds = binds(g.instance)
                                    .all(|&(slot, want)| od.fields[slot as usize].key_eq(want));
                            }
                            let statics = &self.state.statics;
                            if !(holds
                                && binds(g.statics)
                                    .all(|&(slot, want)| statics[slot as usize].key_eq(want)))
                            {
                                let (c, o) = lin.prefix[pc - 1];
                                publish!(pend.0 + c, pend.1 + o);
                                self.park(pc);
                                self.guard_failed(g.guard, g.live_prefix, recv, forced)?;
                                continue 'frames;
                            }
                        }
                        Inst::Jmp { t, cost } => branch!(cost, t),
                        Inst::Br { cond, t, f, cost } => {
                            branch!(cost, if reg!(cond).as_int() != 0 { t } else { f });
                        }
                        Inst::ICmpBr { op, dst, a, b } => cmp_br!(op, dst, a, reg!(b).as_int()),
                        Inst::ICmpBrI { op, dst, a, k, imm } => {
                            imm!(k, Value::Int(imm));
                            cmp_br!(op, dst, a, imm);
                        }
                        // Exactly a `Jmp` (a due tick or fuel stop leaves
                        // with `pc` at the target), then the compare-branch
                        // there without going through dispatch again.
                        Inst::JmpCmpBr { t, cost } => {
                            branch!(cost, t);
                            pc += 1;
                            match insts[pc - 1] {
                                Inst::ICmpBr { op, dst, a, b } => {
                                    cmp_br!(op, dst, a, reg!(b).as_int());
                                }
                                Inst::ICmpBrI { op, dst, a, k, imm } => {
                                    imm!(k, Value::Int(imm));
                                    cmp_br!(op, dst, a, imm);
                                }
                                other => unreachable!("JmpCmpBr lands on {other:?}"),
                            }
                        }
                        // Ret folds its FRAME_COST into the same charge as
                        // the block tail — nothing observes the clock
                        // between the two.
                        Inst::Ret { val, cost } => {
                            flush!(cost);
                            let Some(popped) = self.state.frames.pop() else {
                                return Err(invariant("return executed with no live frame"));
                            };
                            let val = val.map(|r| self.state.reg_stack[popped.base + r.index()]);
                            self.state.reg_stack.truncate(popped.base);
                            let caller_base = self.state.frames.last().map(|c| c.base);
                            match caller_base {
                                Some(cb) => {
                                    if let Some(dst) = popped.ret_dst {
                                        let Some(val) = val else {
                                            return Err(invariant(
                                                "void return reached a call site expecting a value",
                                            ));
                                        };
                                        self.state.reg_stack[cb + dst.index()] = val;
                                    }
                                }
                                None => final_ret = val,
                            }
                            self.tick(method);
                            continue 'frames;
                        }
                        Inst::Unreachable { cost } => {
                            flush!(cost);
                            bail!(RunError::UnreachableExecuted);
                        }
                        slow => break Some(slow),
                    }
                };
                publish!(pend.0, pend.1);
                match slow {
                    None => {
                        self.tick(method);
                        if self.state.stats.ops_executed > fuel_limit {
                            bail!(RunError::OutOfFuel);
                        }
                    }
                    Some(Inst::New { dst, class }) => match self.state.alloc_object(class) {
                        Ok(r) => self.state.reg_stack[base + dst.index()] = Value::Ref(r),
                        Err(e) => trap_with!((0, 0), e),
                    },
                    Some(Inst::NewArr { dst, kind, len }) => {
                        let n = self.state.reg_stack[base + len.index()].as_int();
                        match self.state.alloc_array(kind, n) {
                            Ok(r) => self.state.reg_stack[base + dst.index()] = Value::Ref(r),
                            Err(e) => trap_with!((0, 0), e),
                        }
                    }
                    Some(Inst::NotifyCtorExit { obj, class }) => {
                        if let Value::Ref(o) = self.state.reg_stack[base + obj.index()] {
                            self.handler.on_ctor_exit(&mut self.state, o, class);
                        }
                    }
                    Some(Inst::NotifyInstStore { obj, class, field }) => {
                        if let Value::Ref(o) = self.state.reg_stack[base + obj.index()] {
                            self.handler
                                .on_instance_store(&mut self.state, o, class, field);
                        }
                    }
                    Some(Inst::NotifyStaticStore { field }) => {
                        self.handler.on_static_store(&mut self.state, field);
                    }
                    Some(other) => unreachable!("{other:?} left the fast section"),
                }
            }
        }
        Ok(final_ret)
    }

    /// Parks the local pc in the top frame (call boundaries, traps, fuel
    /// stop). Tolerates an empty frame stack: trap paths may run after the
    /// stack already unwound, and a missing frame must not turn a typed
    /// trap into a panic.
    #[inline]
    fn park(&mut self, pc: usize) {
        if let Some(fr) = self.state.frames.last_mut() {
            fr.pc = pc as u32;
        }
    }

    /// Handles a failed guard of the top frame: traces it, lets the
    /// governor react, then deoptimizes — remaps the frame's register window
    /// and pc onto the method's baseline code version via the deopt side
    /// table, and restores the receiver's class TIB so dispatch stops
    /// treating an object that left its hot state as specialized. The
    /// caller has already published charges and parked the pc; on return it
    /// re-enters the frame loop, which picks up execution in baseline code
    /// at the resume entry of the recorded point.
    ///
    /// The transition itself is free on the modeled clock (the paper's
    /// deopt cost is the lost specialization, not the remap); only the
    /// one-time baseline compile — if the method's general code is not
    /// already level 0 — bills compile cycles.
    fn guard_failed(
        &mut self,
        guard: u32,
        live_prefix: u16,
        recv: Option<ObjRef>,
        forced: bool,
    ) -> Result<(), RunError> {
        let no_frame = || invariant("guard failure with no live frame");
        let fr = *self.state.frames.last().ok_or_else(no_frame)?;
        let mid = fr.method;
        self.state.stats.guard_failures += 1;
        if self.state.tracer.on() {
            let (now, obj) = (self.state.clock, recv.map_or(NO_ID, |o| o.0));
            if forced {
                let kind = FaultKind::ForcedGuardFail;
                self.state.tracer.emit(now, TraceEvent::FaultInjected { kind, method: mid.0 });
            }
            self.state.tracer.emit(now, TraceEvent::GuardFail { method: mid.0, guard, obj, forced });
        }
        self.state.governor_on_guard_fail(fr.cid);
        let side_table = self.state.code[fr.cid.index()].deopt.as_ref();
        let point = side_table
            .and_then(|d| d.points.get(guard as usize))
            .copied()
            .ok_or_else(|| invariant(format!("guard #{guard} has no deopt side-table entry")))?;
        let bcid = self.state.ensure_baseline(mid);
        let pc = self.state.resume_pc(bcid, point).ok_or_else(|| {
            invariant(format!("baseline code has no resume entry for deopt point {point:?}"))
        })?;
        let bregs = self.state.code[bcid.index()].lin.num_regs as usize;
        // The live prefix carries over positionally (guards pin those
        // registers: every pass keeps the prefix stable); everything past
        // it is a baseline local that is dead at the resume point, so it is
        // zero-filled exactly as a fresh activation would be.
        let live = (live_prefix as usize).min(bregs);
        self.state.reg_stack.truncate(fr.base + live);
        self.state.reg_stack.resize(fr.base + bregs, Value::Int(0));
        if let Some(o) = recv {
            let (tib, class) = {
                let od = self.state.heap.try_object(o)?;
                (od.tib, od.class)
            };
            let class_tib = self.state.class_tib(class);
            if tib != class_tib {
                self.state.set_object_tib(o, class_tib);
            }
        }
        let top = self.state.frames.last_mut().ok_or_else(no_frame)?;
        (top.cid, top.pc) = (bcid, pc);
        self.state.stats.deopts += 1;
        if self.state.tracer.on() {
            // Stamped *after* any baseline compile stall, so the
            // GuardFail -> BaselineResume cycle distance is the deopt
            // latency.
            self.state.tracer.emit(
                self.state.clock,
                TraceEvent::Deopt {
                    method: mid.0,
                    from_code: fr.cid.0,
                    to_code: bcid.0,
                    obj: recv.map_or(NO_ID, |o| o.0),
                },
            );
            self.state.tracer.emit(
                self.state.clock,
                TraceEvent::BaselineResume {
                    method: mid.0,
                    code: bcid.0,
                    block: point.block,
                    op: point.op,
                },
            );
        }
        Ok(())
    }

    #[inline(always)]
    fn charge(&mut self, method: MethodId, cycles: u64) {
        self.state.clock += cycles;
        self.state.stats.exec_cycles += cycles;
        self.state.stats.per_method[method.index()].cycles += cycles;
    }

    /// Segment-bottom check for the two modeled-clock schedules: the
    /// cycle-attribution profiler (next period multiple; `u64::MAX` when
    /// off), then the adaptive sampler. Inlined so the common case is two
    /// compares, with the sampling work kept out of line.
    #[inline(always)]
    fn tick(&mut self, method: MethodId) {
        if self.state.clock >= self.state.next_profile_at {
            self.take_profile();
        }
        if self.state.clock >= self.state.next_sample_at {
            self.take_sample(method);
        }
    }

    #[cold]
    fn take_sample(&mut self, method: MethodId) {
        let st = &mut self.state;
        // Deterministic jitter (splitmix-style hash of the tick count)
        // breaks resonance between the sample period and loop periods —
        // without it a tight loop whose cost divides the period would pin
        // every sample on the same method.
        let tick = st.stats.samples_taken;
        let jitter = {
            let mut z = tick.wrapping_add(0x9E3779B97F4A7C15);
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
            z ^ (z >> 31)
        };
        let spread = (st.config.sample_period / 2).max(1);
        st.next_sample_at = st.clock + st.config.sample_period * 3 / 4 + jitter % spread;
        st.stats.samples_taken += 1;
        st.stats.per_method[method.index()].samples += 1;
        if st.tracer.on() {
            let count = st.stats.per_method[method.index()].samples;
            st.tracer.emit(st.clock, TraceEvent::Sample { method: method.0, count });
        }
        let samples = st.stats.per_method[method.index()].samples;
        let cur = st.level_of(method).unwrap_or(0);
        let target = if samples >= st.config.opt2_samples {
            2
        } else if samples >= st.config.opt1_samples {
            1
        } else {
            cur
        };
        if target > cur {
            st.recompile(method, target);
            self.drain_events();
        }
    }

    /// Takes one attribution sample: steps the deterministic schedule to
    /// the next period multiple beyond the clock (one sample per
    /// crossing, however far a compile/GC stall jumped it — stalls are
    /// attributed by `VmStats`, not the profiler), then walks the live
    /// frames into the profiler. 0-cycle by construction: nothing here
    /// touches the clock, `VmStats`, or adaptive state.
    #[cold]
    fn take_profile(&mut self) {
        let st = &mut self.state;
        let period = st.config.profile_period;
        debug_assert!(period > 0, "take_profile with profiling off");
        let jumps = (st.clock - st.next_profile_at) / period + 1;
        st.next_profile_at += jumps * period;

        let stack = &mut self.profile_stack;
        stack.clear();
        let last = st.frames.len().wrapping_sub(1);
        for (i, fr) in st.frames.iter().enumerate() {
            let cm = &st.code[fr.cid.index()];
            let mut key = FrameKey {
                method: fr.method.0,
                level: cm.level,
                special: cm.special,
                state: NO_STATE,
            };
            // Leaf frames of receiver-taking methods also attribute the
            // receiver's special state (register 0 of the frame window).
            if i == last && st.program.method(fr.method).has_receiver() {
                if let Value::Ref(r) = st.reg_stack[fr.base] {
                    if let Ok(od) = st.heap.try_object(r) {
                        if let Some(s) = st.tibs[od.tib.index()].special_state() {
                            key.state = s;
                        }
                    }
                }
            }
            stack.push(key);
        }
        st.profiler.record(stack);
        if st.tracer.on() {
            let method = stack.last().map_or(NO_ID, |k| k.method);
            st.tracer.emit(
                st.clock,
                TraceEvent::ProfileSample {
                    method,
                    depth: stack.len() as u32,
                    samples: st.profiler.samples(),
                },
            );
        }
    }

    fn drain_events(&mut self) {
        for (m, l) in self.state.take_recompile_events() {
            self.handler.on_recompiled(&mut self.state, m, l);
        }
    }

    /// Binds a receiver-monomorphic call site (`special`: an
    /// `invokespecial`; otherwise a static method) to its target's JTOC
    /// entry.
    #[inline]
    fn bind_static(
        &mut self,
        cs: &CallSite,
        special: bool,
    ) -> Result<(MethodId, CompiledId), RunError> {
        if special && cs.target == UNRESOLVED {
            let sel = self.state.program.selector_name(cs.sel);
            return Err(RunError::NoSuchMethod { what: format!("invokespecial {sel}") });
        }
        let target = MethodId(cs.target);
        Ok((target, self.dispatch_static_bound(target)))
    }

    /// Virtual dispatch: `TIB[vslot]` of the receiver's (possibly special)
    /// TIB.
    #[inline]
    fn dispatch_virtual(
        &mut self,
        recv: ObjRef,
        sel: SelectorId,
    ) -> Result<(MethodId, CompiledId), RunError> {
        let (tib, class) = {
            let o = self.state.heap.try_object(recv)?;
            (o.tib, o.class)
        };
        let Some(vslot) = self.state.vtable_slot_fast(class, sel) else {
            return Err(RunError::NoSuchMethod {
                what: format!(
                    "{}::{}",
                    self.state.program.class(class).name,
                    self.state.program.selector_name(sel)
                ),
            });
        };
        self.resolve_slot(tib, class, vslot)
    }

    /// Interface dispatch: the receiver's IMT maps the selector to a TIB
    /// offset, read through the receiver's TIB. Charges the conflict-stub
    /// search and the mutable-class TIB-offset load on every call
    /// (Sec. 3.2.3).
    fn dispatch_interface(
        &mut self,
        caller: MethodId,
        sel: SelectorId,
        recv: ObjRef,
    ) -> Result<(MethodId, CompiledId), RunError> {
        let (tib, class) = {
            let o = self.state.heap.try_object(recv)?;
            (o.tib, o.class)
        };
        let imt = self.state.tibs[tib.index()].imt as usize;
        let (vslot, conflicted) = match self.state.imts[imt].lookup(sel) {
            Some(hit) => hit,
            // Robust fallback through the vtable mapping.
            None => match self.state.vtable_slot_fast(class, sel) {
                Some(v) => (v, false),
                None => {
                    return Err(RunError::NoSuchMethod {
                        what: format!(
                            "interface {} on {}",
                            self.state.program.selector_name(sel),
                            self.state.program.class(class).name
                        ),
                    })
                }
            },
        };
        let mut extra = 0;
        if conflicted {
            extra += IMT_CONFLICT_COST;
        }
        if self.state.mutable_classes[class.index()] {
            extra += IMT_MUTABLE_EXTRA_LOAD;
        }
        if extra != 0 {
            self.charge(caller, extra);
        }
        self.resolve_slot(tib, class, vslot)
    }

    /// Resolves a TIB method slot, compiling lazily on first touch.
    #[inline]
    fn resolve_slot(
        &mut self,
        tib: TibId,
        class: ClassId,
        vslot: u32,
    ) -> Result<(MethodId, CompiledId), RunError> {
        if let CodeSlot::Code(cid) = self.state.tib_slot(tib, vslot) {
            return Ok((self.state.code[cid.index()].method, cid));
        }
        let mid = self.state.program.class(class).vtable[vslot as usize];
        if self.state.program.method(mid).kind == MethodKind::Abstract {
            return Err(RunError::AbstractCall {
                method: self.state.program.method(mid).name.clone(),
            });
        }
        let cid = self.state.ensure_compiled(mid);
        self.drain_events();
        // The install filled the class TIB; the handler it reached may have
        // pointed a special TIB's slot at special code.
        match self.state.tib_slot(tib, vslot) {
            CodeSlot::Code(c) => Ok((self.state.code[c.index()].method, c)),
            CodeSlot::Lazy => Ok((mid, cid)),
        }
    }

    /// Statically-bound dispatch (JTOC): the mutation engine's override,
    /// else the one valid general compiled method; only a method with
    /// neither compiles (and lets the handler react) first.
    #[inline]
    fn dispatch_static_bound(&mut self, mid: MethodId) -> CompiledId {
        let st = &self.state;
        if let Some(cid) = st.static_override[mid.index()].or(st.general_code[mid.index()]) {
            return cid;
        }
        let cid = self.state.ensure_compiled(mid);
        self.drain_events();
        // Re-check: the handler may have installed an override.
        self.state.static_override[mid.index()].unwrap_or(cid)
    }

    /// Pushes a callee frame: extends the pooled register stack by the
    /// callee's window and copies receiver + arguments from the caller's
    /// window (`caller_base`).
    ///
    /// # Errors
    /// [`RunError::StackOverflow`] when pushing would exceed
    /// [`crate::VmConfig::max_frame_depth`]. The check runs before any
    /// mutation, so a refused push leaves the frame and register stacks
    /// exactly as they were (and charges no cycles — runs that stay under
    /// the limit are bit-identical with the limit on or off).
    #[inline]
    fn push_call(
        &mut self,
        target: MethodId,
        cid: CompiledId,
        recv: Option<Value>,
        args: &[Reg],
        dst: Option<Reg>,
        caller_base: usize,
    ) -> Result<(), RunError> {
        if let Some(limit) = self.state.config.max_frame_depth {
            if self.state.frames.len() >= limit {
                return Err(RunError::StackOverflow {
                    depth: self.state.frames.len() + 1,
                    limit,
                });
            }
        }
        let nregs = self.state.code[cid.index()].lin.num_regs as usize;
        let new_base = self.state.reg_stack.len();
        // Incoming values are pushed first, then the remaining locals are
        // zero-filled in one resize, so no slot is written twice.
        self.state.reg_stack.reserve(nregs);
        if let Some(r) = recv {
            self.state.reg_stack.push(r);
        }
        for &a in args {
            let v = self.state.reg_stack[caller_base + a.index()];
            self.state.reg_stack.push(v);
        }
        self.state.reg_stack.resize(new_base + nregs, Value::Int(0));
        self.state.clock += CostModel::FRAME_COST;
        self.state.stats.exec_cycles += CostModel::FRAME_COST;
        self.state.stats.per_method[target.index()].invocations += 1;
        self.state.frames.push(Frame {
            method: target,
            cid,
            base: new_base,
            pc: 0,
            ret_dst: dst,
        });
        Ok(())
    }
}

fn invariant(what: impl Into<String>) -> RunError {
    RunError::VmInvariant { what: what.into() }
}

fn exec_intrinsic(
    regs: &mut [Value],
    out: &mut Output,
    dst: Option<Reg>,
    kind: IntrinsicKind,
    args: [Reg; 2],
) {
    let arg = |i: usize| regs[args[i].index()];
    let v = match kind {
        IntrinsicKind::PrintInt => {
            let _ = writeln!(out.text, "{}", arg(0).as_int());
            return;
        }
        IntrinsicKind::PrintDouble => {
            let _ = writeln!(out.text, "{}", arg(0).as_double());
            return;
        }
        IntrinsicKind::PrintChar => {
            let c = char::from_u32(arg(0).as_int() as u32).unwrap_or('\u{FFFD}');
            return out.text.push(c);
        }
        IntrinsicKind::SinkInt => return out.sink_int(arg(0).as_int()),
        IntrinsicKind::SinkDouble => return out.sink_double(arg(0).as_double()),
        IntrinsicKind::DSqrt => Value::Double(arg(0).as_double().sqrt()),
        IntrinsicKind::DAbs => Value::Double(arg(0).as_double().abs()),
        IntrinsicKind::IAbs => Value::Int(arg(0).as_int().wrapping_abs()),
        IntrinsicKind::IMin => Value::Int(arg(0).as_int().min(arg(1).as_int())),
        IntrinsicKind::IMax => Value::Int(arg(0).as_int().max(arg(1).as_int())),
    };
    regs[dst.expect("value intrinsic needs dst").index()] = v;
}

impl std::fmt::Debug for Vm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Vm")
            .field("clock", &self.state.clock)
            .field("frames", &self.state.frames.len())
            .field("observer", &self.observer.is_some())
            .finish()
    }
}
