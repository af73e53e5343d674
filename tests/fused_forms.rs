//! The fused instruction forms of the linear code (`dchm::vm::linear`) are
//! invisible to the model: a loop whose every iteration runs integer, float
//! and compare immediates and a fused back edge, taken through the whole
//! pipeline, lands on the clock, op count and checksum the unfused code
//! produced. Also here, so tier-1 runs it: a VM that trapped serves the
//! next call.

use dchm::bytecode::{CmpOp, MethodId, MethodSig, Program, ProgramBuilder, Ty, Value};
use dchm::core::pipeline::{prepare, PipelineConfig};
use dchm::vm::{Inst, RunError, Vm, VmConfig};

/// class Meter { int mode; double total;
///   void feed(int x) { if (mode != 0) total += x * 0.5; else total += 1.0; } }
/// main: m = new Meter(1); acc = 0;
///   for (i = 0; i < 3000; i++) {
///     m.feed(i); if (i % 7 == 3) acc += i * 3;
///     d = (double) i * 0.25; if (d > 100.0) acc += 1;
///   }
///   sink(acc); sink(m.total)
fn meter() -> (Program, MethodId) {
    let mut pb = ProgramBuilder::new();
    let meter = pb.class("Meter").build();
    let mode = pb.instance_field(meter, "mode", Ty::Int);
    let total = pb.instance_field(meter, "total", Ty::Double);
    let mut m = pb.ctor(meter, vec![Ty::Int]);
    let (this, k) = (m.this(), m.param(0));
    m.put_field(this, mode, k);
    m.ret(None);
    m.build();
    let mut m = pb.method(meter, "feed", MethodSig::new(vec![Ty::Int], None));
    let (this, x) = (m.this(), m.param(0));
    let (k, t, d) = (m.reg(), m.reg(), m.reg());
    m.get_field(k, this, mode);
    m.get_field(t, this, total);
    let flat = m.label();
    m.br_icmp_imm(CmpOp::Eq, k, 0, flat);
    m.i2d(d, x);
    let half = m.imm_d(0.5);
    m.dmul(d, d, half);
    m.dadd(t, t, d);
    m.put_field(this, total, t);
    m.ret(None);
    m.bind(flat);
    let one = m.imm_d(1.0);
    m.dadd(t, t, one);
    m.put_field(this, total, t);
    m.ret(None);
    m.build();
    let mut m = pb.static_method(meter, "main", MethodSig::void());
    let (o, acc, i, r, d, c) = (m.reg(), m.reg(), m.reg(), m.reg(), m.reg(), m.reg());
    let on = m.imm(1);
    m.new_init(o, meter, vec![on]);
    m.const_i(acc, 0);
    m.const_i(i, 0);
    let (head, skip, low, done) = (m.label(), m.label(), m.label(), m.label());
    m.bind(head);
    m.br_icmp_imm(CmpOp::Ge, i, 3000, done);
    m.call_virtual(None, o, "feed", vec![i]);
    let seven = m.imm(7);
    m.irem(r, i, seven);
    m.br_icmp_imm(CmpOp::Ne, r, 3, skip);
    let three = m.imm(3);
    m.imul(r, i, three);
    m.iadd(acc, acc, r);
    m.bind(skip);
    m.i2d(d, i);
    let quarter = m.imm_d(0.25);
    m.dmul(d, d, quarter);
    let hundred = m.imm_d(100.0);
    m.dcmp(CmpOp::Le, c, d, hundred);
    m.br_if(c, low);
    m.iadd_imm(acc, acc, 1);
    m.bind(low);
    m.iadd_imm(i, i, 1);
    m.jmp(head);
    m.bind(done);
    m.sink_int(acc);
    let t = m.reg();
    m.get_field(t, o, total);
    m.sink_double(t);
    m.ret(None);
    let main = m.build();
    pb.set_entry(main);
    (pb.finish().unwrap(), main)
}

#[test]
fn a_loop_of_fused_forms_runs_on_the_unfused_clock() {
    let (p, main) = meter();
    let cfg = PipelineConfig { profile_vm: VmConfig::default(), ..Default::default() };
    let prepared = prepare(p, &cfg, |vm| {
        vm.run_entry().expect("profiling run");
    });
    assert_eq!(prepared.plan.classes.len(), 1, "Meter.mode is a state field");
    let mut vm = prepared.make_vm(VmConfig::default());
    vm.run_entry().unwrap();

    // Every form is in `main`'s code, whatever level it ended at ...
    let code = &vm.state.code;
    let lin = &code.iter().rev().find(|c| c.method == main).expect("main compiled").lin;
    let has = |f: fn(&Inst) -> bool| lin.insts.iter().any(f);
    assert!(has(|i| matches!(i, Inst::ICmpBrI { imm: 3000, .. })), "{lin}");
    assert!(has(|i| matches!(i, Inst::JmpCmpBr { .. })), "{lin}");
    assert!(has(|i| matches!(i, Inst::IBinI { imm: 7, .. })), "{lin}");
    assert!(has(|i| matches!(i, Inst::DBinI { imm, .. } if *imm == 0.25)), "{lin}");
    assert!(has(|i| matches!(i, Inst::DCmpI { imm, .. } if *imm == 100.0)), "{lin}");
    // ... and the run is the one the parent of the fused forms made.
    let s = vm.stats();
    assert_eq!((vm.cycles(), s.exec_cycles, s.ops_executed), (251_266, 241_450, 75_498));
    assert_eq!(vm.state.output.checksum, 0x5ec5_5b11_3227_a0f6);
}

#[test]
fn a_vm_that_trapped_serves_the_next_call() {
    // f(a, b) = div(a, b), so a trap leaves two frames.
    let mut pb = ProgramBuilder::new();
    let c = pb.class("C").build();
    let mut m = pb.static_method(c, "div", MethodSig::new(vec![Ty::Int, Ty::Int], Some(Ty::Int)));
    let (a, b, q) = (m.param(0), m.param(1), m.reg());
    m.idiv(q, a, b);
    m.ret(Some(q));
    let div = m.build();
    let mut m = pb.static_method(c, "f", MethodSig::new(vec![Ty::Int, Ty::Int], Some(Ty::Int)));
    let (a, b, q) = (m.param(0), m.param(1), m.reg());
    m.call_static(Some(q), div, vec![a, b]);
    m.ret(Some(q));
    let f = m.build();
    let mut vm = Vm::new(pb.finish().unwrap(), VmConfig::default());

    let err = vm.call_static(f, &[Value::Int(7), Value::Int(0)]).unwrap_err();
    assert_eq!(err, RunError::DivideByZero);
    // The trapping frames stay for post-mortem: `div`'s window holds 7, 0.
    assert_eq!(vm.state.frames.len(), 2);
    let top = vm.state.frames[1];
    assert_eq!(vm.state.reg_stack[top.base..top.base + 2], [Value::Int(7), Value::Int(0)]);
    // The next call (was a "re-entrant call_static" panic outside
    // containment) drops them and runs on a clean stack.
    assert_eq!(vm.call_static(f, &[Value::Int(42), Value::Int(6)]).unwrap(), Some(Value::Int(7)));
    assert!(vm.state.frames.is_empty() && vm.state.reg_stack.is_empty());
    assert!(!vm.state.poisoned);
}
