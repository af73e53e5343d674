//! The evaluator's only executable form: a flat, pc-indexed array of
//! fixed-size pre-decoded instructions, lowered once per compile artifact
//! from the optimizer's [`Function`].
//!
//! Blocks are laid out in order, each block's ops followed by its
//! terminator, one instruction per op — so source coordinates map to pcs by
//! arithmetic. Branch targets are absolute pcs, field operands are storage
//! slots, call operands live in the [`CallSite`] pool (with each
//! `invokespecial` resolved to its target once, here) and guard bindings in
//! the [`GuardSite`] pool.
//!
//! A *segment* is the straight-line run since the last flush point — block
//! entry or the instruction after a call. Its modeled cost (`Σ op_cost`,
//! plus `TERM_COST`/`FRAME_COST` at terminators, and its op count) is
//! folded as a [`Cost`] immediate into the call or terminator that ends it.
//! [`LinearCode::prefix`] holds, for every pc, what a flush *at that pc*
//! charges; only traps, failing guards and over-wide segments read it.
//!
//! *Fused forms.* One peephole (`fuse`) rewrites, in place, the first slot
//! of a group of adjacent instructions into a variant that executes the whole
//! group in one dispatch and steps over the rest. The other slots keep their
//! instruction and nothing moves, so pcs, costs, `prefix` and the pools are
//! those of the unfused code. The first slot of a group is never a
//! terminator and every chunk (block or resume tail) ends in one, so a group
//! never crosses a chunk start; control only ever enters a chunk at its
//! start or after a call, so it never lands inside a group.

use crate::compiler::DeoptPoint;
use dchm_bytecode::{
    ClassId, CmpOp, DBinOp, ElemKind, FieldId, IBinOp, IntrinsicKind, Op, Program, Reg,
    SelectorId, Value,
};
use dchm_ir::cost::{op_cost, CostModel};
use dchm_ir::{Function, Term};
use std::fmt;

/// Folded `(cycles, ops)` of the segment an instruction ends.
/// `ops == u16::MAX` marks a segment too wide for the immediates; its cost
/// is read from [`LinearCode::prefix`] instead.
#[allow(missing_docs)]
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Cost {
    pub cycles: u16,
    pub ops: u16,
}

/// One pre-decoded instruction. Operand conventions follow [`Op`]; `slot`
/// is a resolved object/static storage slot, `site` indexes a side pool.
#[allow(missing_docs)]
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Inst {
    ConstI { dst: Reg, val: i64 },
    ConstD { dst: Reg, val: f64 },
    ConstNull { dst: Reg },
    Mov { dst: Reg, src: Reg },
    IBin { op: IBinOp, dst: Reg, a: Reg, b: Reg },
    INeg { dst: Reg, a: Reg },
    DBin { op: DBinOp, dst: Reg, a: Reg, b: Reg },
    DNeg { dst: Reg, a: Reg },
    I2D { dst: Reg, a: Reg },
    D2I { dst: Reg, a: Reg },
    ICmp { op: CmpOp, dst: Reg, a: Reg, b: Reg },
    DCmp { op: CmpOp, dst: Reg, a: Reg, b: Reg },
    RefEq { dst: Reg, a: Reg, b: Reg },
    New { dst: Reg, class: ClassId },
    GetField { dst: Reg, obj: Reg, slot: u32 },
    PutField { obj: Reg, src: Reg, slot: u32, field: FieldId },
    GetStatic { dst: Reg, slot: u32 },
    PutStatic { src: Reg, slot: u32, field: FieldId },
    /// Virtual or interface call ([`CallSite::iface`]).
    CallVirtual { site: u32, cost: Cost },
    CallSpecial { site: u32, cost: Cost },
    CallStatic { site: u32, cost: Cost },
    InstanceOf { dst: Reg, obj: Reg, class: ClassId },
    CheckCast { obj: Reg, class: ClassId },
    NewArr { dst: Reg, kind: ElemKind, len: Reg },
    ALoad { dst: Reg, arr: Reg, idx: Reg },
    AStore { arr: Reg, idx: Reg, src: Reg },
    ALen { dst: Reg, arr: Reg },
    Intrinsic { kind: IntrinsicKind, dst: Option<Reg>, args: [Reg; 2] },
    NotifyCtorExit { obj: Reg, class: ClassId },
    NotifyInstStore { obj: Reg, class: ClassId, field: FieldId },
    NotifyStaticStore { field: FieldId },
    Guard { site: u32 },
    Jmp { t: u32, cost: Cost },
    Br { cond: Reg, t: u32, f: u32, cost: Cost },
    Ret { val: Option<Reg>, cost: Cost },
    Unreachable { cost: Cost },
    // Fused forms (see the module docs); each sits in the first slot of the
    // group it executes.
    /// `ICmp` + the `Br` testing its result.
    ICmpBr { op: CmpOp, dst: Reg, a: Reg, b: Reg },
    /// `ConstI { dst: k, val: imm }` + the `IBin` whose `b` is `k`. Like
    /// every immediate form it still writes `k`.
    IBinI { op: IBinOp, dst: Reg, a: Reg, k: Reg, imm: i64 },
    /// `ConstI` + `ICmp`.
    ICmpI { op: CmpOp, dst: Reg, a: Reg, k: Reg, imm: i64 },
    /// `ConstI` + `ICmp` + `Br`: an [`Inst::ICmpBr`] with an immediate.
    ICmpBrI { op: CmpOp, dst: Reg, a: Reg, k: Reg, imm: i64 },
    /// `ConstD` + `DBin`.
    DBinI { op: DBinOp, dst: Reg, a: Reg, k: Reg, imm: f64 },
    /// `ConstD` + `DCmp`.
    DCmpI { op: CmpOp, dst: Reg, a: Reg, k: Reg, imm: f64 },
    /// A `Jmp` whose target slot holds a compare-branch: flushes like the
    /// `Jmp`, then executes that group (which stays put for other
    /// predecessors).
    JmpCmpBr { t: u32, cost: Cost },
}

impl Inst {
    /// Slots this instruction executes: 1 unless it is a fused form. A
    /// [`Inst::JmpCmpBr`] counts only its own; the rest of its work is at
    /// its target.
    fn slots(&self) -> usize {
        match self {
            Inst::ICmpBrI { .. } => 3,
            Inst::ICmpBr { .. }
            | Inst::IBinI { .. }
            | Inst::ICmpI { .. }
            | Inst::DBinI { .. }
            | Inst::DCmpI { .. } => 2,
            _ => 1,
        }
    }
}

const _: () = assert!(std::mem::size_of::<Inst>() <= 16);

/// [`CallSite::target`] of an `invokespecial` that resolves to no method;
/// executing it traps.
pub const UNRESOLVED: u32 = u32::MAX;

/// Operands of one call instruction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CallSite {
    /// Caller register receiving the result.
    pub dst: Option<Reg>,
    /// Receiver register (unused by static calls).
    pub obj: Reg,
    /// Dispatches through the IMT rather than the vtable.
    pub iface: bool,
    /// Selector (unused by static calls).
    pub sel: SelectorId,
    /// Target method of a static or special call ([`UNRESOLVED`] when an
    /// `invokespecial` resolves to nothing); 0 for a virtual or interface
    /// call, whose target the receiver's TIB supplies.
    pub target: u32,
    /// Argument registers: a range of [`LinearCode::args`].
    pub args: (u32, u32),
}

/// Operands of one state guard; bindings are ranges of
/// [`LinearCode::binds`] holding `(storage slot, expected value)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GuardSite {
    /// Receiver whose instance bindings are checked.
    pub obj: Option<Reg>,
    /// Index into the compiled method's deopt side table.
    pub guard: u32,
    /// Registers `0..live_prefix` seed the baseline frame on deopt.
    pub live_prefix: u16,
    /// Instance-field bindings.
    pub instance: (u32, u32),
    /// Static-field bindings.
    pub statics: (u32, u32),
}

/// A lowered function. Immutable once built and shared behind an `Arc` by
/// every tenant that installs the artifact.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct LinearCode {
    /// The instruction stream.
    pub insts: Box<[Inst]>,
    /// Frame size in registers.
    pub num_regs: u16,
    /// Cold, per pc: the `(cycles, ops)` a flush at that pc charges — the
    /// segment prefix through the op inclusive, or the whole segment plus
    /// terminator costs at a terminator.
    pub prefix: Box<[(u64, u64)]>,
    /// Call operand pool.
    pub calls: Vec<CallSite>,
    /// Call argument registers.
    pub args: Vec<Reg>,
    /// Guard operand pool.
    pub guards: Vec<GuardSite>,
    /// Guard bindings.
    pub binds: Vec<(u32, Value)>,
    /// Deopt resume entries `(source point, pc)` besides the method entry
    /// (pc 0): each is a copy of its block's tail appended after the main
    /// body, so a frame resuming mid-block still enters at the first
    /// instruction of a segment. Level-0 general code is lowered with one
    /// per `compiler::resume_points` entry when it is compiled; all other
    /// code has none.
    pub resume: Vec<(DeoptPoint, u32)>,
}

/// The immediate form of a flush charge, or the wide marker.
fn fold((cycles, ops): (u64, u64)) -> Cost {
    match (u16::try_from(cycles), u16::try_from(ops)) {
        (Ok(cycles), Ok(ops)) if ops != u16::MAX => Cost { cycles, ops },
        _ => Cost { cycles: 0, ops: u16::MAX },
    }
}

/// Lowers `func`, resolving field operands through `program`, with one
/// resume entry per `resume` point.
///
/// # Panics
/// Panics if a branch target or resume point is out of range, or the code
/// size overflows `u32`.
pub fn lower(func: &Function, program: &Program, resume: &[DeoptPoint]) -> LinearCode {
    let slot = |f: FieldId| program.field(f).slot;
    let calls_in = |ops: &[Op]| ops.iter().filter(|o| o.is_call()).count() as u32;
    // (first pc, first call-site id) of every block.
    let mut starts = Vec::with_capacity(func.blocks.len());
    let (mut total, mut sites) = (0usize, 0u32);
    for b in &func.blocks {
        starts.push((total as u32, sites));
        total += b.ops.len() + 1;
        sites += calls_in(&b.ops);
    }
    // The main body, then one block tail per resume point (only baseline
    // code has any, so the vectors are sized for the main body).
    let main = (0..func.blocks.len()).map(|b| (b, 0));
    let tails = resume.iter().map(|p| (p.block as usize, p.op as usize));
    let mut insts = Vec::with_capacity(total);
    let mut prefix = Vec::with_capacity(total);
    let mut l = LinearCode { num_regs: func.num_regs, ..Default::default() };
    l.calls.reserve_exact(sites as usize);
    for (i, (b, from)) in main.chain(tails).enumerate() {
        let block = &func.blocks[b];
        // Tails reuse the call sites the main body registered.
        let register = i < func.blocks.len();
        if !register {
            l.resume.push((resume[i - func.blocks.len()], insts.len() as u32));
        }
        let mut site = starts[b].1 + calls_in(&block.ops[..from]);
        let mut seg = (0u64, 0u64);
        for op in &block.ops[from..] {
            seg = (seg.0 + op_cost(op), seg.1 + 1);
            prefix.push(seg);
            insts.push(match *op {
                Op::ConstI { dst, val } => Inst::ConstI { dst, val },
                Op::ConstD { dst, val } => Inst::ConstD { dst, val },
                Op::ConstNull { dst } => Inst::ConstNull { dst },
                Op::Mov { dst, src } => Inst::Mov { dst, src },
                Op::IBin { op, dst, a, b } => Inst::IBin { op, dst, a, b },
                Op::INeg { dst, a } => Inst::INeg { dst, a },
                Op::DBin { op, dst, a, b } => Inst::DBin { op, dst, a, b },
                Op::DNeg { dst, a } => Inst::DNeg { dst, a },
                Op::I2D { dst, a } => Inst::I2D { dst, a },
                Op::D2I { dst, a } => Inst::D2I { dst, a },
                Op::ICmp { op, dst, a, b } => Inst::ICmp { op, dst, a, b },
                Op::DCmp { op, dst, a, b } => Inst::DCmp { op, dst, a, b },
                Op::RefEq { dst, a, b } => Inst::RefEq { dst, a, b },
                Op::New { dst, class } => Inst::New { dst, class },
                Op::GetField { dst, obj, field } => Inst::GetField { dst, obj, slot: slot(field) },
                Op::PutField { obj, field, src } => {
                    Inst::PutField { obj, src, slot: slot(field), field }
                }
                Op::GetStatic { dst, field } => Inst::GetStatic { dst, slot: slot(field) },
                Op::PutStatic { field, src } => Inst::PutStatic { src, slot: slot(field), field },
                Op::InstanceOf { dst, obj, class } => Inst::InstanceOf { dst, obj, class },
                Op::CheckCast { obj, class } => Inst::CheckCast { obj, class },
                Op::NewArr { dst, kind, len } => Inst::NewArr { dst, kind, len },
                Op::ALoad { dst, arr, idx } => Inst::ALoad { dst, arr, idx },
                Op::AStore { arr, idx, src } => Inst::AStore { arr, idx, src },
                Op::ALen { dst, arr } => Inst::ALen { dst, arr },
                Op::Intrinsic { dst, kind, ref args } => {
                    // A missing argument becomes a register no frame has,
                    // so executing the op is still a contained panic.
                    let arg = |i| args.get(i).copied().unwrap_or(Reg(u16::MAX));
                    Inst::Intrinsic { kind, dst, args: [arg(0), arg(1)] }
                }
                Op::NotifyCtorExit { obj, class } => Inst::NotifyCtorExit { obj, class },
                Op::NotifyInstStore { obj, class, field } => {
                    Inst::NotifyInstStore { obj, class, field }
                }
                Op::NotifyStaticStore { field } => Inst::NotifyStaticStore { field },
                Op::GuardState { obj, ref instance, ref statics, guard, live_prefix } => {
                    let mut pool = |b: &[(FieldId, Value)]| {
                        let at = l.binds.len() as u32;
                        l.binds.extend(b.iter().map(|&(f, v)| (slot(f), v)));
                        (at, l.binds.len() as u32)
                    };
                    let (instance, statics) = (pool(instance), pool(statics));
                    l.guards.push(GuardSite { obj, guard, live_prefix, instance, statics });
                    Inst::Guard { site: l.guards.len() as u32 - 1 }
                }
                _ => {
                    let cost = fold(seg);
                    let (inst, dst, obj, sel, target, args) = match op {
                        Op::CallVirtual { dst, sel, obj, args }
                        | Op::CallInterface { dst, sel, obj, args, .. } => {
                            (Inst::CallVirtual { site, cost }, dst, *obj, *sel, 0, args)
                        }
                        Op::CallSpecial { dst, class, sel, obj, args } => {
                            let target = program.resolve_special(*class, *sel);
                            let target = target.map_or(UNRESOLVED, |m| m.0);
                            (Inst::CallSpecial { site, cost }, dst, *obj, *sel, target, args)
                        }
                        Op::CallStatic { dst, method, args } => {
                            let inst = Inst::CallStatic { site, cost };
                            (inst, dst, Reg(0), SelectorId(0), method.0, args)
                        }
                        _ => unreachable!("not a call op"),
                    };
                    if register {
                        let at = l.args.len() as u32;
                        l.args.extend_from_slice(args);
                        let args = (at, l.args.len() as u32);
                        let iface = matches!(op, Op::CallInterface { .. });
                        l.calls.push(CallSite { dst: *dst, obj, iface, sel, target, args });
                    }
                    seg = (0, 0);
                    site += 1;
                    inst
                }
            });
        }
        let pc = |b: dchm_ir::BlockId| starts[b.index()].0;
        let end = |extra| (seg.0 + CostModel::TERM_COST + extra, seg.1);
        let (end, term) = match block.term {
            Term::Jmp(t) => (end(0), Inst::Jmp { t: pc(t), cost: fold(end(0)) }),
            Term::Br { cond, t, f } => {
                (end(0), Inst::Br { cond, t: pc(t), f: pc(f), cost: fold(end(0)) })
            }
            Term::Ret(val) => {
                let end = end(CostModel::FRAME_COST);
                (end, Inst::Ret { val, cost: fold(end) })
            }
            Term::Unreachable => (end(0), Inst::Unreachable { cost: fold(end(0)) }),
        };
        prefix.push(end);
        insts.push(term);
    }
    u32::try_from(insts.len()).expect("code size fits u32");
    fuse(&mut insts);
    l.insts = insts.into_boxed_slice();
    l.prefix = prefix.into_boxed_slice();
    l
}

/// The peephole behind every fused form. Groups are built right to left, so
/// a constant can fuse with an already fused compare-branch. A constant that
/// is also the consumer's `a` stays plain, so a fused arm may read `a` and
/// write `k` in either order.
fn fuse(insts: &mut [Inst]) {
    for i in (0..insts.len().saturating_sub(1)).rev() {
        insts[i] = match (insts[i], insts[i + 1]) {
            (Inst::ICmp { op, dst, a, b }, Inst::Br { cond, .. }) if dst == cond => {
                Inst::ICmpBr { op, dst, a, b }
            }
            (Inst::ConstI { dst: k, val: imm }, next) => match next {
                Inst::IBin { op, dst, a, b } if b == k && a != k => {
                    Inst::IBinI { op, dst, a, k, imm }
                }
                Inst::ICmp { op, dst, a, b } if b == k && a != k => {
                    Inst::ICmpI { op, dst, a, k, imm }
                }
                Inst::ICmpBr { op, dst, a, b } if b == k && a != k => {
                    Inst::ICmpBrI { op, dst, a, k, imm }
                }
                _ => continue,
            },
            (Inst::ConstD { dst: k, val: imm }, next) => match next {
                Inst::DBin { op, dst, a, b } if b == k && a != k => {
                    Inst::DBinI { op, dst, a, k, imm }
                }
                Inst::DCmp { op, dst, a, b } if b == k && a != k => {
                    Inst::DCmpI { op, dst, a, k, imm }
                }
                _ => continue,
            },
            _ => continue,
        };
    }
    // Jump targets are block starts, fused (or not) by now.
    for i in 0..insts.len() {
        if let Inst::Jmp { t, cost } = insts[i] {
            if matches!(insts[t as usize], Inst::ICmpBr { .. } | Inst::ICmpBrI { .. }) {
                insts[i] = Inst::JmpCmpBr { t, cost };
            }
        }
    }
}

impl fmt::Display for LinearCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "linear [{} regs, {} insts]", self.num_regs, self.insts.len())?;
        // `|` marks a slot the fused instruction above it executes.
        let mut covered = 0;
        for (pc, (inst, (c, o))) in self.insts.iter().zip(self.prefix.iter()).enumerate() {
            let mark = if pc < covered { '|' } else { ' ' };
            covered = covered.max(pc + inst.slots());
            writeln!(f, "{pc:>5} {mark}{inst:?}  ; flush {c}c/{o}op")?;
        }
        writeln!(f, "calls {:?}\nargs {:?}", self.calls, self.args)?;
        writeln!(f, "guards {:?}\nbinds {:?}", self.guards, self.binds)?;
        writeln!(f, "resume {:?}", self.resume)
    }
}
