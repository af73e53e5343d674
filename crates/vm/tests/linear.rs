//! Tests for the lowered code form (`dchm_vm::linear`): folded segment
//! costs against the source IR, exact charging at mid-segment traps, deopt
//! resume entries, and live frames pinning their code across recompiles.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

use dchm_bytecode::value::ObjRef;
use dchm_bytecode::{
    ClassId, CmpOp, DBinOp, ElemKind, FieldId, IBinOp, IntrinsicKind, MethodId, MethodKind,
    MethodSig, Op, Program, ProgramBuilder, Reg, Ty, Value,
};
use dchm_ir::cost::{op_cost, CostModel};
use dchm_ir::passes::Bindings;
use dchm_ir::{Block, BlockId, Function, Term};
use dchm_testutil::{acct_plan, acct_program, attach_plan, harness_config, prepare_workload};
use dchm_vm::compiler::{bindings_from, compile};
use dchm_vm::linear::Cost;
use dchm_vm::trace::TraceEvent;
use dchm_vm::{
    lower, DeoptPoint, FaultConfig, FaultInjector, Inst, LinearCode, MutationHandler, RunError, Vm,
    VmConfig, VmState,
};
use dchm_workloads::{catalog, Scale};

/// The folded immediates of a segment-ending instruction.
fn ender_cost(inst: &Inst) -> Option<Cost> {
    match *inst {
        Inst::CallVirtual { cost, .. }
        | Inst::CallSpecial { cost, .. }
        | Inst::CallStatic { cost, .. }
        | Inst::Jmp { cost, .. }
        | Inst::JmpCmpBr { cost, .. }
        | Inst::Br { cost, .. }
        | Inst::Ret { cost, .. }
        | Inst::Unreachable { cost } => Some(cost),
        _ => None,
    }
}

fn is_terminator(inst: &Inst) -> bool {
    matches!(
        inst,
        Inst::Jmp { .. }
            | Inst::JmpCmpBr { .. }
            | Inst::Br { .. }
            | Inst::Ret { .. }
            | Inst::Unreachable { .. }
    )
}

/// True when `pc` is the first instruction of a segment: the flush table
/// counts one op through an op, none at a terminator.
fn starts_segment(lin: &LinearCode, pc: usize) -> bool {
    lin.prefix[pc].1 == u64::from(!is_terminator(&lin.insts[pc]))
}

/// What the ender at `pc` charges: its immediates, which must agree with
/// the flush table unless the segment is too wide for them.
fn charged(lin: &LinearCode, pc: usize) -> (u64, u64) {
    let cost = ender_cost(&lin.insts[pc]).expect("segment ender");
    if cost.ops != u16::MAX {
        assert_eq!((u64::from(cost.cycles), u64::from(cost.ops)), lin.prefix[pc], "pc {pc}");
    }
    lin.prefix[pc]
}

/// Checks `lin` against its source: block by block the folded costs sum to
/// the IR's op and terminator costs, every branch lands on a segment start,
/// and call sites are numbered in block order.
fn check_lowering(f: &Function, lin: &LinearCode, what: &str) {
    let mut starts = Vec::new();
    let mut pc = 0;
    for b in &f.blocks {
        starts.push(pc);
        pc += b.ops.len() + 1;
    }
    assert_eq!(lin.insts.len(), pc, "{what}");
    assert_eq!(lin.prefix.len(), lin.insts.len(), "{what}");
    assert_eq!(lin.num_regs, f.num_regs, "{what}");
    let mut site = 0;
    for (bi, b) in f.blocks.iter().enumerate() {
        let (start, end) = (starts[bi], starts[bi] + b.ops.len());
        let want_cycles = b.ops.iter().map(op_cost).sum::<u64>()
            + CostModel::TERM_COST
            + if matches!(b.term, Term::Ret(_)) { CostModel::FRAME_COST } else { 0 };
        let (mut cycles, mut ops) = (0, 0);
        for pc in start..=end {
            if let Inst::CallVirtual { site: s, .. }
            | Inst::CallSpecial { site: s, .. }
            | Inst::CallStatic { site: s, .. } = lin.insts[pc]
            {
                assert_eq!(s, site, "{what}: call sites number in block order");
                site += 1;
            }
            if ender_cost(&lin.insts[pc]).is_some() {
                let (c, o) = charged(lin, pc);
                cycles += c;
                ops += o;
            }
        }
        assert_eq!((cycles, ops), (want_cycles, b.ops.len() as u64), "{what}: block b{bi}");
        assert!(is_terminator(&lin.insts[end]), "{what}: b{bi} ends in its terminator");
        assert!(starts_segment(lin, start), "{what}: b{bi} starts a segment");
        match lin.insts[end] {
            Inst::Jmp { t, .. } | Inst::JmpCmpBr { t, .. } => {
                assert!(starts.contains(&(t as usize)), "{what}");
            }
            Inst::Br { t, f, .. } => {
                assert!(starts.contains(&(t as usize)) && starts.contains(&(f as usize)), "{what}");
            }
            _ => {}
        }
    }
    assert_eq!(site as usize, lin.calls.len(), "{what}");
}

/// Checks a special compile of `mid` under `b`, and its deopt points as
/// resume entries of the method's baseline: each entry starts a segment and
/// charges exactly the rest of its block, and the main body is the plain
/// lowering, untouched. Returns the number of mid-block entries checked.
fn check_special(st: &VmState, mid: MethodId, level: u8, b: &Bindings, what: &str) -> usize {
    let p = &st.program;
    let out = compile(st, mid, level, Some(b));
    check_lowering(&out.func, &lower(&out.func, p, &[]), what);
    let Some(deopt) = out.deopt else { return 0 };
    let points: Vec<DeoptPoint> =
        deopt.points.iter().copied().filter(|p| (p.block, p.op) != (0, 0)).collect();
    let base = compile(st, mid, 0, None).func;
    let lin = lower(&base, p, &points);
    let plain = lower(&base, p, &[]);
    assert_eq!(lin.insts[..plain.insts.len()], plain.insts[..], "{what}");
    assert_eq!(lin.calls, plain.calls, "{what}");
    assert_eq!(lin.resume.len(), points.len(), "{what}");
    for (point, pc) in &lin.resume {
        let pc = *pc as usize;
        assert!(starts_segment(&lin, pc), "{what}: resume {point:?}");
        let blk = &base.blocks[point.block as usize];
        let rest = &blk.ops[point.op as usize..];
        let want = rest.iter().map(op_cost).sum::<u64>()
            + CostModel::TERM_COST
            + if matches!(blk.term, Term::Ret(_)) { CostModel::FRAME_COST } else { 0 };
        let got: u64 = (pc..=pc + rest.len())
            .filter(|&q| ender_cost(&lin.insts[q]).is_some())
            .map(|q| charged(&lin, q).0)
            .sum();
        assert_eq!(got, want, "{what}: resume {point:?}");
    }
    points.len()
}

#[test]
fn folded_costs_match_the_source_ir_on_every_catalog_compile() {
    let mut compiles = 0;
    for w in catalog(Scale::Small) {
        let prepared = prepare_workload(&w);
        let vm = prepared.make_vm(harness_config(&w));
        let st = &vm.state;
        let p = &st.program;
        for mi in 0..p.methods.len() {
            let mid = MethodId::from_index(mi);
            if p.method(mid).kind == MethodKind::Abstract {
                continue;
            }
            for level in 0..=2 {
                let out = compile(st, mid, level, None);
                let what = format!("{} {} L{level}", w.name, p.method(mid).name);
                check_lowering(&out.func, &lower(&out.func, p, &[]), &what);
                compiles += 1;
            }
        }
        for mc in &prepared.plan.classes {
            for (si, hs) in mc.hot_states.iter().enumerate() {
                let b = bindings_from(&hs.instance_values, &hs.static_values);
                for &mid in &mc.mutable_methods {
                    let what = format!("{} {} state {si}", w.name, p.method(mid).name);
                    check_special(st, mid, prepared.plan.mutation_level, &b, &what);
                    compiles += 1;
                }
            }
        }
    }
    assert!(compiles >= 300, "only {compiles} compiles checked");
    // The catalog's mutable methods only read their state fields (entry
    // guards only); the deopt scenario below stores one mid-method.
    let (p, acct, s, _, go) = acct_program();
    let plan = acct_plan(acct, s, go, true, true);
    let hs = plan.classes[0].hot_states[0].clone();
    let vm = attach_plan(&p, plan, VmConfig::default());
    let b = bindings_from(&hs.instance_values, &hs.static_values);
    assert_eq!(check_special(&vm.state, go, 0, &b, "Acct::go"), 1);
}

#[test]
fn compare_feeding_a_branch_fuses_in_place() {
    // b0: r2 = r0 < r1; br r2 ? b1 : b2     b1: ret r0     b2: ret r1
    let f = Function {
        blocks: vec![
            Block {
                ops: vec![Op::ICmp { op: CmpOp::Lt, dst: Reg(2), a: Reg(0), b: Reg(1) }],
                term: Term::Br { cond: Reg(2), t: BlockId(1), f: BlockId(2) },
            },
            Block::new(Term::Ret(Some(Reg(0)))),
            Block::new(Term::Ret(Some(Reg(1)))),
        ],
        num_regs: 3,
        arg_count: 2,
    };
    let p = ProgramBuilder::new().finish().unwrap();
    let lin = lower(&f, &p, &[]);
    assert!(matches!(lin.insts[0], Inst::ICmpBr { .. }), "{lin}");
    // The branch keeps its slot, targets and the whole segment's cost.
    assert!(matches!(lin.insts[1], Inst::Br { t: 2, f: 3, cost: Cost { cycles: 2, ops: 1 }, .. }));
    check_lowering(&f, &lin, "fused");
    // A compare whose result the branch does not test stays unfused.
    let mut g = f.clone();
    g.blocks[0].term = Term::Br { cond: Reg(0), t: BlockId(1), f: BlockId(2) };
    assert!(matches!(lower(&g, &p, &[]).insts[0], Inst::ICmp { .. }));
    // The listing names pc, instruction and what a flush there charges, and
    // marks the slot the fused instruction covers.
    let text = lin.to_string();
    assert!(text.contains("0  ICmpBr") && text.contains("1 |Br"), "{text}");
    assert!(text.contains("; flush 2c/1op"), "{text}");
}

/// `f` with the operands of every binary op and compare swapped: the same
/// ops at the same costs, but each constant now feeds operand `a`, so the
/// peephole leaves everything but compare-branch pairs alone — the layout
/// the parent of the fused forms produced.
fn operands_swapped(f: &Function) -> Function {
    let mut g = f.clone();
    for op in g.blocks.iter_mut().flat_map(|b| b.ops.iter_mut()) {
        match op {
            Op::IBin { a, b, .. }
            | Op::ICmp { a, b, .. }
            | Op::DBin { a, b, .. }
            | Op::DCmp { a, b, .. } => std::mem::swap(a, b),
            _ => {}
        }
    }
    g
}

fn is_new_fused_form(inst: &Inst) -> bool {
    matches!(
        inst,
        Inst::IBinI { .. }
            | Inst::ICmpI { .. }
            | Inst::ICmpBrI { .. }
            | Inst::DBinI { .. }
            | Inst::DCmpI { .. }
            | Inst::JmpCmpBr { .. }
    )
}

/// class C { static int id(int x) { return x; }  static int f(int, int) }
/// `f` is a stub whose code [`install`] replaces with a hand-built function
/// of at most one call site (the stub's own sizes the inline cache).
fn stub_program() -> (Program, MethodId, MethodId) {
    let mut pb = ProgramBuilder::new();
    let c = pb.class("C").build();
    let mut m = pb.static_method(c, "id", MethodSig::new(vec![Ty::Int], Some(Ty::Int)));
    let x = m.param(0);
    m.ret(Some(x));
    let id = m.build();
    let mut m = pb.static_method(c, "f", MethodSig::new(vec![Ty::Int, Ty::Int], Some(Ty::Int)));
    let (x, y) = (m.param(0), m.reg());
    m.call_static(Some(y), id, vec![x]);
    m.ret(Some(y));
    let f = m.build();
    (pb.finish().unwrap(), id, f)
}

/// A VM whose method `m` runs `body`.
fn install(p: &Program, m: MethodId, body: &Function, cfg: VmConfig) -> Vm {
    let mut vm = Vm::new(p.clone(), cfg);
    let cid = vm.state.ensure_compiled(m);
    vm.state.code[cid.index()].lin = Arc::new(lower(body, p, &[]));
    vm.state.code[cid.index()].func = Arc::new(body.clone());
    vm
}

/// Every fused form in one function (r0 = x, r1 unused):
///   b0: a = x + 3; c = id(a); d = (double) c * 0.5; lt = d < 2.0;
///       gt = a > 10; s = lt + gt; jmp b1
///   b1: if s >= 100 goto b3 else b2
///   b2: s = s + 40; jmp b1
///   b3: return s
fn all_forms(id: MethodId) -> Function {
    let r = Reg;
    Function {
        blocks: vec![
            Block {
                ops: vec![
                    Op::ConstI { dst: r(2), val: 3 },
                    Op::IBin { op: IBinOp::Add, dst: r(3), a: r(0), b: r(2) },
                    Op::CallStatic { dst: Some(r(4)), method: id, args: vec![r(3)] },
                    Op::I2D { dst: r(5), a: r(4) },
                    Op::ConstD { dst: r(6), val: 0.5 },
                    Op::DBin { op: DBinOp::Mul, dst: r(7), a: r(5), b: r(6) },
                    Op::ConstD { dst: r(8), val: 2.0 },
                    Op::DCmp { op: CmpOp::Lt, dst: r(9), a: r(7), b: r(8) },
                    Op::ConstI { dst: r(10), val: 10 },
                    Op::ICmp { op: CmpOp::Gt, dst: r(11), a: r(3), b: r(10) },
                    Op::IBin { op: IBinOp::Add, dst: r(12), a: r(9), b: r(11) },
                ],
                term: Term::Jmp(BlockId(1)),
            },
            Block {
                ops: vec![
                    Op::ConstI { dst: r(13), val: 100 },
                    Op::ICmp { op: CmpOp::Ge, dst: r(14), a: r(12), b: r(13) },
                ],
                term: Term::Br { cond: r(14), t: BlockId(3), f: BlockId(2) },
            },
            Block {
                ops: vec![
                    Op::ConstI { dst: r(15), val: 40 },
                    Op::IBin { op: IBinOp::Add, dst: r(12), a: r(12), b: r(15) },
                ],
                term: Term::Jmp(BlockId(1)),
            },
            Block::new(Term::Ret(Some(r(12)))),
        ],
        num_regs: 16,
        arg_count: 2,
    }
}

#[test]
fn each_fused_form_sits_in_the_first_slot_of_its_group_and_nothing_moves() {
    let (p, id, f) = stub_program();
    let func = all_forms(id);
    let lin = lower(&func, &p, &[]);
    check_lowering(&func, &lin, "all forms");
    let (r, add, mul) = (Reg, IBinOp::Add, DBinOp::Mul);
    // The first slot of each group holds the fused variant; every other
    // slot, the rest of each group included, its plain instruction.
    let want = [
        Inst::IBinI { op: add, dst: r(3), a: r(0), k: r(2), imm: 3 },
        Inst::IBin { op: add, dst: r(3), a: r(0), b: r(2) },
        Inst::CallStatic { site: 0, cost: Cost { cycles: 12, ops: 3 } },
        Inst::I2D { dst: r(5), a: r(4) },
        Inst::DBinI { op: mul, dst: r(7), a: r(5), k: r(6), imm: 0.5 },
        Inst::DBin { op: mul, dst: r(7), a: r(5), b: r(6) },
        Inst::DCmpI { op: CmpOp::Lt, dst: r(9), a: r(7), k: r(8), imm: 2.0 },
        Inst::DCmp { op: CmpOp::Lt, dst: r(9), a: r(7), b: r(8) },
        Inst::ICmpI { op: CmpOp::Gt, dst: r(11), a: r(3), k: r(10), imm: 10 },
        Inst::ICmp { op: CmpOp::Gt, dst: r(11), a: r(3), b: r(10) },
        Inst::IBin { op: add, dst: r(12), a: r(9), b: r(11) },
        Inst::JmpCmpBr { t: 12, cost: Cost { cycles: 12, ops: 8 } },
        Inst::ICmpBrI { op: CmpOp::Ge, dst: r(14), a: r(12), k: r(13), imm: 100 },
        Inst::ICmpBr { op: CmpOp::Ge, dst: r(14), a: r(12), b: r(13) },
        Inst::Br { cond: r(14), t: 18, f: 15, cost: Cost { cycles: 3, ops: 2 } },
        Inst::IBinI { op: add, dst: r(12), a: r(12), k: r(15), imm: 40 },
        Inst::IBin { op: add, dst: r(12), a: r(12), b: r(15) },
        Inst::JmpCmpBr { t: 12, cost: Cost { cycles: 3, ops: 2 } },
        Inst::Ret { val: Some(r(12)), cost: Cost { cycles: 5, ops: 0 } },
    ];
    assert_eq!(lin.insts[..], want, "{lin}");
    // Tables and pools are those of the layout with nothing new fused.
    let plain = lower(&operands_swapped(&func), &p, &[]);
    assert!(plain.insts.iter().all(|i| !is_new_fused_form(i)), "{plain}");
    assert_eq!((lin.insts.len(), &lin.prefix), (plain.insts.len(), &plain.prefix));
    assert_eq!((&lin.calls, &lin.args, &lin.resume), (&plain.calls, &plain.args, &plain.resume));
    assert_eq!(lin.calls.len(), 1);

    // x = 4: a = 7, d = 3.5 (not < 2), a > 10 is false, s = 0, then +40 until >= 100.
    let mut vm = install(&p, f, &func, VmConfig::default());
    assert_eq!(vm.call_static(f, &[Value::Int(4), Value::Int(0)]).unwrap(), Some(Value::Int(120)));
    // x = 0: d = 1.5 < 2, s = 1 -> 121; x = 20: a = 23 > 10, s = 1 -> 121.
    assert_eq!(vm.call_static(f, &[Value::Int(0), Value::Int(0)]).unwrap(), Some(Value::Int(121)));
    assert_eq!(vm.call_static(f, &[Value::Int(20), Value::Int(0)]).unwrap(), Some(Value::Int(121)));
    // The constants were written even though no fused consumer read them.
    // (Fuel runs out at the flush of b2's jump, 15 ops in.)
    let mut vm = install(&p, f, &func, VmConfig { fuel: Some(14), ..Default::default() });
    assert_eq!(vm.call_static(f, &[Value::Int(4), Value::Int(0)]), Err(RunError::OutOfFuel));
    let regs = &vm.state.reg_stack[vm.state.frames[0].base..];
    let want = [(2, 3), (10, 10), (13, 100), (15, 40)];
    for (reg, val) in want {
        assert_eq!(regs[reg], Value::Int(val), "r{reg}");
    }
    assert_eq!((regs[6], regs[8]), (Value::Double(0.5), Value::Double(2.0)));
}

#[test]
fn a_fused_pair_trapping_on_its_second_op_charges_through_that_op() {
    // b0: k = 7; m = x * k; z = 0; q = m / z; ret q — two fused pairs, the
    // second divides by its immediate.
    let r = Reg;
    let func = Function {
        blocks: vec![Block {
            ops: vec![
                Op::ConstI { dst: r(2), val: 7 },
                Op::IBin { op: IBinOp::Mul, dst: r(3), a: r(0), b: r(2) },
                Op::ConstI { dst: r(4), val: 0 },
                Op::IBin { op: IBinOp::Div, dst: r(5), a: r(3), b: r(4) },
            ],
            term: Term::Ret(Some(r(5))),
        }],
        num_regs: 6,
        arg_count: 2,
    };
    let (p, _, f) = stub_program();
    let mut vm = install(&p, f, &func, VmConfig::default());
    let lin = Arc::clone(&vm.state.code[0].lin);
    assert!(matches!(lin.insts[2], Inst::IBinI { op: IBinOp::Div, imm: 0, .. }), "{lin}");
    assert!(matches!(lin.insts[3], Inst::IBin { op: IBinOp::Div, .. }), "{lin}");
    let before = vm.cycles();
    assert_eq!(vm.call_static(f, &[Value::Int(6), Value::Int(0)]), Err(RunError::DivideByZero));
    // ConstI 1 + Mul 3 + ConstI 1 + Div 20: the prefix at the Div's own slot,
    // as the unfused pair charged; the pc is parked past it.
    assert_eq!(lin.prefix[3], (25, 4));
    assert_eq!((vm.cycles() - before, vm.stats().ops_executed), (25, 4));
    assert_eq!(vm.stats().per_method[f.index()].cycles, 25);
    assert_eq!(vm.state.frames[0].pc, 4);
    let regs = &vm.state.reg_stack[vm.state.frames[0].base..];
    assert_eq!((regs[3], regs[4], regs[5]), (Value::Int(42), Value::Int(0), Value::Int(0)));
    // `Rem` traps the same way; a non-zero immediate does not.
    let mut g = func.clone();
    g.blocks[0].ops[3] = Op::IBin { op: IBinOp::Rem, dst: r(5), a: r(3), b: r(4) };
    let mut vm = install(&p, f, &g, VmConfig::default());
    assert_eq!(vm.call_static(f, &[Value::Int(6), Value::Int(0)]), Err(RunError::DivideByZero));
    assert_eq!(vm.stats().ops_executed, 4);
    g.blocks[0].ops[2] = Op::ConstI { dst: r(4), val: 5 };
    let mut vm = install(&p, f, &g, VmConfig::default());
    assert_eq!(vm.call_static(f, &[Value::Int(6), Value::Int(0)]).unwrap(), Some(Value::Int(2)));
}

#[test]
fn the_peephole_never_pairs_across_a_chunk_start_or_through_operand_a() {
    // b0: k = 4; s = x + k; ret s, with a resume entry between the constant
    // and its consumer: the tail's copy of the consumer is plain.
    let r = Reg;
    let func = Function {
        blocks: vec![Block {
            ops: vec![
                Op::ConstI { dst: r(2), val: 4 },
                Op::IBin { op: IBinOp::Add, dst: r(3), a: r(0), b: r(2) },
            ],
            term: Term::Ret(Some(r(3))),
        }],
        num_regs: 4,
        arg_count: 2,
    };
    let p = ProgramBuilder::new().finish().unwrap();
    let point = DeoptPoint { block: 0, op: 1 };
    let lin = lower(&func, &p, &[point]);
    assert_eq!(lin.resume, vec![(point, 3)]);
    assert!(matches!(lin.insts[0], Inst::IBinI { .. }), "{lin}");
    let plain = Inst::IBin { op: IBinOp::Add, dst: r(3), a: r(0), b: r(2) };
    assert_eq!((lin.insts[1], lin.insts[3]), (plain, plain), "{lin}");
    assert!(starts_segment(&lin, 3));
    assert_eq!(lin.prefix[3..], [(1, 1), (1 + CostModel::TERM_COST + CostModel::FRAME_COST, 1)]);
    assert_eq!(lin.insts[..3], lower(&func, &p, &[]).insts[..]);

    // A constant that is also the consumer's `a` stays a plain pair, for
    // every consumer kind (k op k, x op-with-a k).
    let (p, _, f) = stub_program();
    let consumers = [
        Op::IBin { op: IBinOp::Mul, dst: r(3), a: r(2), b: r(2) },
        Op::ICmp { op: CmpOp::Eq, dst: r(3), a: r(2), b: r(2) },
    ];
    for consumer in consumers {
        let mut g = func.clone();
        g.blocks[0].ops[1] = consumer.clone();
        let lin = lower(&g, &p, &[]);
        assert!(lin.insts.iter().all(|i| !is_new_fused_form(i)), "{consumer:?}\n{lin}");
        let mut vm = install(&p, f, &g, VmConfig::default());
        let want = if matches!(consumer, Op::IBin { .. }) { 16 } else { 1 };
        let got = vm.call_static(f, &[Value::Int(9), Value::Int(0)]).unwrap();
        assert_eq!(got, Some(Value::Int(want)));
    }
    let mut g = func.clone();
    g.blocks[0].ops[0] = Op::ConstD { dst: r(2), val: 1.5 };
    g.blocks[0].ops[1] = Op::DBin { op: DBinOp::Add, dst: r(3), a: r(2), b: r(2) };
    assert!(lower(&g, &p, &[]).insts.iter().all(|i| !is_new_fused_form(i)));
    // Neither does one whose register the consumer does not read as `b`.
    g.blocks[0].ops[1] = Op::IBin { op: IBinOp::Add, dst: r(3), a: r(0), b: r(1) };
    assert!(lower(&g, &p, &[]).insts.iter().all(|i| !is_new_fused_form(i)));
}

#[test]
fn immediates_keep_all_64_bits() {
    // s = x + (2^40 + 1); c = s > i64::MIN; sink(0.2 + 0.1, exact bits); s + c
    let r = Reg;
    let (big, tenth) = ((1i64 << 40) + 1, 0.1f64);
    let func = Function {
        blocks: vec![Block {
            ops: vec![
                Op::ConstI { dst: r(2), val: big },
                Op::IBin { op: IBinOp::Add, dst: r(3), a: r(0), b: r(2) },
                Op::ConstI { dst: r(4), val: i64::MIN },
                Op::ICmp { op: CmpOp::Gt, dst: r(5), a: r(3), b: r(4) },
                Op::ConstD { dst: r(6), val: 0.2 },
                Op::ConstD { dst: r(7), val: tenth },
                Op::DBin { op: DBinOp::Add, dst: r(8), a: r(6), b: r(7) },
                Op::Intrinsic { dst: None, kind: IntrinsicKind::SinkDouble, args: vec![r(8)] },
                Op::IBin { op: IBinOp::Add, dst: r(3), a: r(3), b: r(5) },
            ],
            term: Term::Ret(Some(r(3))),
        }],
        num_regs: 9,
        arg_count: 2,
    };
    let (p, _, f) = stub_program();
    let mut vm = install(&p, f, &func, VmConfig::default());
    let lin = Arc::clone(&vm.state.code[0].lin);
    assert!(matches!(lin.insts[0], Inst::IBinI { imm, .. } if imm == big), "{lin}");
    assert!(matches!(lin.insts[2], Inst::ICmpI { imm: i64::MIN, .. }), "{lin}");
    assert!(matches!(lin.insts[5], Inst::DBinI { imm, .. } if imm.to_bits() == tenth.to_bits()));
    assert_eq!(vm.call_static(f, &[Value::Int(-1), Value::Int(0)]).unwrap(), Some(Value::Int(big)));
    let mut want = dchm_vm::state::Output::default();
    want.sink_double(0.2 + 0.1);
    assert_eq!(vm.state.output.checksum, want.checksum);
}

/// main: acc = 0; for (i = 0; i < 50; i++) acc += i * 3; return acc
fn counted_loop() -> (Program, MethodId) {
    let mut pb = ProgramBuilder::new();
    let c = pb.class("C").build();
    let mut m = pb.static_method(c, "main", MethodSig::new(vec![], Some(Ty::Int)));
    let (acc, i, t) = (m.reg(), m.reg(), m.reg());
    m.const_i(acc, 0);
    m.const_i(i, 0);
    let (head, done) = (m.label(), m.label());
    m.bind(head);
    m.br_icmp_imm(CmpOp::Ge, i, 50, done);
    let three = m.imm(3);
    m.imul(t, i, three);
    m.iadd(acc, acc, t);
    m.iadd_imm(i, i, 1);
    m.jmp(head);
    m.bind(done);
    m.ret(Some(acc));
    let main = m.build();
    pb.set_entry(main);
    (pb.finish().unwrap(), main)
}

#[test]
fn a_tick_due_at_a_fused_jumps_own_flush_is_taken_there() {
    // Recompilation off, so `main` keeps its one lowering: the jump into
    // the loop and the back edge are fused onto the fused header compare.
    let run = |sample_period: u64, profile_period: u64| {
        let (p, main) = counted_loop();
        let cfg = VmConfig {
            sample_period,
            profile_period,
            opt1_samples: u64::MAX,
            opt2_samples: u64::MAX,
            ..Default::default()
        };
        let mut vm = Vm::new(p, cfg);
        assert_eq!(vm.run_entry().unwrap(), Some(Value::Int(3675)));
        let lin = &vm.state.code[0].lin;
        let back = lin.insts.iter().filter(|i| matches!(i, Inst::JmpCmpBr { t: 3, .. })).count();
        assert_eq!(back, 2, "{lin}");
        assert!(lin.insts.iter().any(|i| matches!(i, Inst::ICmpBrI { imm: 50, .. })), "{lin}");
        let st = vm.stats();
        let exec = (st.exec_cycles, st.ops_executed);
        (exec, st.samples_taken, st.per_method[main.index()].samples, vm.profile().samples)
    };
    // Pinned on the parent of the fused forms (plain `Jmp`, then `ICmpBr`
    // dispatched on its own). Period 1: a tick is due at every flush, so
    // each jump leaves the fast section at its own flush and re-enters at
    // the compare: 51 jumps + 51 branches + the return. Longer periods land
    // on some jump flushes and not on others.
    assert_eq!(run(1, 0), ((561, 354), 103, 103, 0));
    assert_eq!(run(7, 0), ((561, 354), 52, 52, 0));
    assert_eq!(run(u64::MAX, 9), ((561, 354), 0, 0, 62));
    assert_eq!(run(13, 5), ((561, 354), 40, 40, 81));
}

#[test]
fn a_segment_too_wide_for_the_immediates_still_charges_exactly() {
    // 70 000 one-cycle ops in one block: ops and cycles overflow `u16`.
    let n = 70_000usize;
    let mut pb = ProgramBuilder::new();
    let c = pb.class("C").build();
    let mut m = pb.static_method(c, "wide", MethodSig::new(vec![], Some(Ty::Int)));
    let r = m.reg();
    for i in 0..n {
        m.const_i(r, i as i64);
    }
    m.ret(Some(r));
    let wide = m.build();
    let mut vm = Vm::new(pb.finish().unwrap(), VmConfig::default());
    assert_eq!(vm.call_static(wide, &[]).unwrap(), Some(Value::Int(n as i64 - 1)));
    let lin = &vm.state.code[0].lin;
    assert!(matches!(lin.insts[n], Inst::Ret { cost: Cost { ops: u16::MAX, .. }, .. }));
    let want = n as u64 + CostModel::TERM_COST + CostModel::FRAME_COST;
    assert_eq!(vm.stats().ops_executed, n as u64);
    assert_eq!(vm.stats().per_method[wide.index()].cycles, want);
}

/// class T { int f; }  static int id(int x) { return x; }
/// Three entry points that trap in the middle of a segment that itself
/// starts mid-block (after the call to `id`):
///   div0:    b = id(7); d = b * 3; e = d / 0
///   nullget: a = id(1); n = null; t = a + a; g = n.f
///   oob:     a = id(2); arr = new int[4]; x = arr[9]
fn trap_program() -> (Program, [MethodId; 4]) {
    let mut pb = ProgramBuilder::new();
    let t = pb.class("T").build();
    let f = pb.instance_field(t, "f", Ty::Int);
    let mut m = pb.static_method(t, "id", MethodSig::new(vec![Ty::Int], Some(Ty::Int)));
    let x = m.param(0);
    m.ret(Some(x));
    let id = m.build();

    let mut m = pb.static_method(t, "div0", MethodSig::new(vec![], Some(Ty::Int)));
    let a = m.imm(7);
    let b = m.reg();
    m.call_static(Some(b), id, vec![a]);
    let c = m.imm(3);
    let d = m.reg();
    m.imul(d, b, c);
    let z = m.imm(0);
    let e = m.reg();
    m.idiv(e, d, z);
    m.ret(Some(e));
    let div0 = m.build();

    let mut m = pb.static_method(t, "nullget", MethodSig::new(vec![], Some(Ty::Int)));
    let one = m.imm(1);
    let a = m.reg();
    m.call_static(Some(a), id, vec![one]);
    let n = m.reg();
    m.const_null(n);
    let s = m.reg();
    m.iadd(s, a, a);
    let g = m.reg();
    m.get_field(g, n, f);
    m.ret(Some(g));
    let nullget = m.build();

    let mut m = pb.static_method(t, "oob", MethodSig::new(vec![], Some(Ty::Int)));
    let two = m.imm(2);
    let a = m.reg();
    m.call_static(Some(a), id, vec![two]);
    let len = m.imm(4);
    let arr = m.reg();
    m.new_arr(arr, ElemKind::Int, len);
    let i = m.imm(9);
    let x = m.reg();
    m.aload(x, arr, i);
    m.ret(Some(x));
    let oob = m.build();
    (pb.finish().unwrap(), [id, div0, nullget, oob])
}

/// (error, clock, ops_executed, exec_cycles, trapping method's cycles, id's cycles)
fn trap_obs(entry: usize) -> (RunError, u64, u64, u64, u64, u64) {
    let (p, ms) = trap_program();
    let mut vm = Vm::new(p, VmConfig::default());
    let err = vm.call_static(ms[entry], &[]).unwrap_err();
    let st = vm.stats();
    let cycles = |m: MethodId| st.per_method[m.index()].cycles;
    (err, vm.cycles(), st.ops_executed, st.exec_cycles, cycles(ms[entry]), cycles(ms[0]))
}

#[test]
fn mid_segment_traps_charge_the_exact_prefix() {
    // Pinned from the block-walking evaluator this form replaced (PR 11
    // tree): the trapping op and everything before it in its segment are
    // charged, nothing after.
    assert_eq!(trap_obs(1), (RunError::DivideByZero, 3245, 6, 45, 36, 5));
    assert_eq!(trap_obs(2), (RunError::NullPointer, 2936, 5, 24, 15, 5));
    assert_eq!(trap_obs(3), (RunError::ArrayBounds { index: 9, len: 4 }, 3260, 6, 60, 45, 5));
}

#[test]
fn mid_block_guard_failure_resumes_at_a_baseline_segment_start() {
    // main: o = new Acct(7); o.go(5); o.go(9) — go(v): t = v*3; s = v; sink(s + t)
    let (p, acct, s, _, go) = acct_program();
    let mut vm = attach_plan(&p, acct_plan(acct, s, go, true, true), VmConfig::default());
    vm.enable_tracing(1024);
    vm.run_entry().unwrap();
    assert_eq!(vm.stats().deopts, 1);
    // go(5) sinks 5 + 15: `v` and `t` (live prefix) survived the transfer and
    // baseline re-read `s`; go(9) then runs general code.
    let mut want = dchm_vm::state::Output::default();
    want.sink_int(20);
    want.sink_int(36);
    assert_eq!(vm.state.output.checksum, want.checksum);

    let events = vm.trace_events();
    let (code, block, op) = events
        .iter()
        .find_map(|e| match e.event {
            TraceEvent::BaselineResume { method, code, block, op } if method == go.0 => {
                Some((code, block, op))
            }
            _ => None,
        })
        .expect("BaselineResume traced");
    let cm = &vm.state.code[code as usize];
    assert!((cm.level, cm.special) == (0, false));
    // The event carries source coordinates: the op after store + notify.
    let ops = &cm.func.blocks[block as usize].ops;
    assert!(matches!(ops[op as usize - 1], Op::NotifyInstStore { .. }));
    assert!(matches!(ops[op as usize], Op::GetField { .. }));
    // The frame resumed at the entry lowered for that point: a copy of the
    // block tail after the main body, starting a segment of its own.
    let lin = &cm.lin;
    let main_len: usize = cm.func.blocks.iter().map(|b| b.ops.len() + 1).sum();
    assert_eq!(lin.resume, vec![(DeoptPoint { block, op }, main_len as u32)]);
    assert!(matches!(lin.insts[main_len], Inst::GetField { .. }));
    assert!(starts_segment(lin, main_len));
    assert_eq!(lin.insts.len(), main_len + (ops.len() - op as usize) + 1);
}

/// Records, at every constructor exit, which code the bottom (`main`) frame
/// runs and which code is installed as `main`'s general code.
#[derive(Clone, Default)]
struct FrameSpy(Rc<RefCell<Vec<(u32, u32)>>>);

impl MutationHandler for FrameSpy {
    fn on_instance_store(&mut self, _: &mut VmState, _: ObjRef, _: ClassId, _: FieldId) {}
    fn on_static_store(&mut self, _: &mut VmState, _: FieldId) {}
    fn on_ctor_exit(&mut self, vm: &mut VmState, _: ObjRef, _: ClassId) {
        let main = vm.frames[0];
        let installed = vm.general_code[main.method.index()].expect("main has code");
        self.0.borrow_mut().push((main.cid.0, installed.0));
    }
    fn on_recompiled(&mut self, _: &mut VmState, _: MethodId, _: u8) {}
}

#[test]
fn silent_recompile_at_an_allocation_keeps_the_live_frame_on_its_code() {
    // main: acc = 0; for i in 0..20 { o = new C(); acc += i }; return acc
    let build = || {
        let mut pb = ProgramBuilder::new();
        let c = pb.class("C").build();
        pb.trivial_ctor(c);
        let mut m = pb.static_method(c, "main", MethodSig::new(vec![], Some(Ty::Int)));
        let (acc, i, o) = (m.reg(), m.reg(), m.reg());
        let n = m.imm(20);
        m.const_i(acc, 0);
        m.const_i(i, 0);
        let (head, done) = (m.label(), m.label());
        m.bind(head);
        m.br_icmp(CmpOp::Ge, i, n, done);
        m.new_init(o, c, vec![]);
        m.iadd(acc, acc, i);
        m.iadd_imm(i, i, 1);
        m.jmp(head);
        m.bind(done);
        m.ret(Some(acc));
        let main = m.build();
        pb.set_entry(main);
        (pb.finish().unwrap(), c)
    };
    let run = |inject: bool| {
        let (p, c) = build();
        let spy = FrameSpy::default();
        // Cache off: every injected recompile produces fresh code.
        let cfg = VmConfig { code_cache_capacity: 0, ..Default::default() };
        let mut vm = Vm::with_handler(p, cfg, Box::new(spy.clone()));
        vm.state.patch_spec.ctor_classes.insert(c);
        if inject {
            vm.state.injector = Some(FaultInjector::new(FaultConfig {
                recompiles: true,
                gc_at_alloc: false,
                ic_bumps: false,
                period: 1,
                ..FaultConfig::transparent(1)
            }));
        }
        assert_eq!(vm.run_entry().unwrap(), Some(Value::Int(190)));
        let seen = spy.0.borrow().clone();
        (vm.cycles(), vm.stats().ops_executed, seen)
    };
    let (clock, ops, seen) = run(true);
    assert_eq!(seen.len(), 20);
    // The allocation in `main` recompiled `main` under its own live frame
    // 20 times; the frame never left the code it started on.
    assert!(seen.iter().all(|&(running, _)| running == seen[0].0), "{seen:?}");
    assert!(seen.windows(2).all(|w| w[0].1 < w[1].1), "installed code must advance: {seen:?}");
    assert_ne!(seen[19].0, seen[19].1);
    // And the injection stayed transparent.
    let (clock_off, ops_off, _) = run(false);
    assert_eq!((clock, ops), (clock_off, ops_off));
}
