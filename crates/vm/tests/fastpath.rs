//! Tests for the interpreter fast path: dispatch under mid-loop TIB
//! mutation, and trap (not panic) semantics for `Unreachable` terminators.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

use dchm_bytecode::value::ObjRef;
use dchm_bytecode::{ClassId, CmpOp, FieldId, MethodId, MethodSig, ProgramBuilder, Ty, Value};
use dchm_ir::{Block, Function, Term};
use dchm_vm::{
    lower, CodeSlot, MutationHandler, PatchSpec, RunError, TibId, Vm, VmConfig, VmState,
};

/// Flips the stored object's TIB on every state-field write: value 1 means
/// "hot state" (special TIB), anything else the class TIB — a miniature of
/// the mutation engine's `object_tib_follows_state_changes` rule.
#[derive(Clone, Default)]
struct TibFlipper(Rc<RefCell<Option<(TibId, TibId)>>>); // (class TIB, special TIB)

impl MutationHandler for TibFlipper {
    fn on_instance_store(&mut self, vm: &mut VmState, obj: ObjRef, _c: ClassId, field: FieldId) {
        let Some((class_tib, special_tib)) = *self.0.borrow() else {
            return;
        };
        let slot = vm.program.field(field).slot as usize;
        let hot = vm.heap.object(obj).fields[slot] == Value::Int(1);
        vm.set_object_tib(obj, if hot { special_tib } else { class_tib });
    }
    fn on_static_store(&mut self, _: &mut VmState, _: FieldId) {}
    fn on_ctor_exit(&mut self, _: &mut VmState, _: ObjRef, _: ClassId) {}
    fn on_recompiled(&mut self, _: &mut VmState, _: MethodId, _: u8) {}
}

#[test]
fn tib_flip_mid_loop_redispatches_call_site() {
    // One virtual call site (inside `phase`) is executed under three TIB
    // regimes: class TIB, special TIB, class TIB again. Every call reads
    // the receiver's current TIB, so each one runs the code its regime
    // names — no invalidation anywhere.
    let mut pb = ProgramBuilder::new();
    let c = pb.class("C").build();
    let s = pb.instance_field(c, "s", Ty::Int);
    pb.trivial_ctor(c);
    // get() -> 1: the general behaviour.
    let mut m = pb.method(c, "get", MethodSig::new(vec![], Some(Ty::Int)));
    let r = m.imm(1);
    m.ret(Some(r));
    let get = m.build();
    // hotget() -> 2: stands in for the state-specialized version.
    let mut m = pb.method(c, "hotget", MethodSig::new(vec![], Some(Ty::Int)));
    let r = m.imm(2);
    m.ret(Some(r));
    let hotget = m.build();
    // set(v): the state-field write the handler watches.
    let mut m = pb.method(c, "set", MethodSig::new(vec![Ty::Int], None));
    let this = m.this();
    let v = m.param(0);
    m.put_field(this, s, v);
    m.ret(None);
    let set = m.build();
    // phase(o, v, n): o.set(v), then n calls of o.get() through ONE site,
    // each result printed.
    let mut m = pb.static_method(
        c,
        "phase",
        MethodSig::new(vec![Ty::Ref(c), Ty::Int, Ty::Int], Some(Ty::Int)),
    );
    let o = m.param(0);
    let v = m.param(1);
    let n = m.param(2);
    m.call_virtual(None, o, "set", vec![v]);
    let acc = m.reg();
    let i = m.reg();
    let t = m.reg();
    m.const_i(acc, 0);
    m.const_i(i, 0);
    let head = m.label();
    let done = m.label();
    m.bind(head);
    m.br_icmp(CmpOp::Ge, i, n, done);
    m.call_virtual(Some(t), o, "get", vec![]);
    m.print_int(t);
    m.iadd(acc, acc, t);
    m.iadd_imm(i, i, 1);
    m.jmp(head);
    m.bind(done);
    m.ret(Some(acc));
    let phase = m.build();
    let mut m = pb.static_method(c, "mk", MethodSig::new(vec![], Some(Ty::Ref(c))));
    let o = m.reg();
    m.new_init(o, c, vec![]);
    m.ret(Some(o));
    let mk = m.build();
    let p = pb.finish().unwrap();

    let flipper = TibFlipper::default();
    let mut vm = Vm::with_handler(p, VmConfig::default(), Box::new(flipper.clone()));
    vm.state.patch_spec = PatchSpec {
        instance_fields: [s].into_iter().collect(),
        ..Default::default()
    };

    let obj = vm.call_static(mk, &[]).unwrap().unwrap();
    let Value::Ref(oref) = obj else { panic!() };
    vm.state.add_handle(oref);

    // Special TIB for C's hot state: get's slot points at hotget's code.
    // Such a graft breaks `VmState::check_dispatch`'s rule that a slot holds
    // code of its own method, so everything is compiled first: no install
    // (and no check) follows it.
    for m in [phase, set, get] {
        vm.state.ensure_compiled(m);
    }
    let hot_cid = vm.state.ensure_compiled(hotget);
    let sel_get = vm.state.program.selector("get").unwrap();
    let vslot = vm.state.program.class(c).vtable_slot(sel_get).unwrap();
    let special = vm.state.create_special_tib(c, 0);
    vm.state.set_tib_slot(special, vslot, CodeSlot::Code(hot_cid));
    *flipper.0.borrow_mut() = Some((vm.state.class_tib(c), special));

    let five = Value::Int(5);
    let cold = Value::Int(0);
    let hot = Value::Int(1);
    // Cold: 5 x get() = 5.
    assert_eq!(
        vm.call_static(phase, &[obj, cold, five]).unwrap(),
        Some(Value::Int(5))
    );
    // Hot: the same cached site must now dispatch to hotget: 5 x 2 = 10.
    assert_eq!(
        vm.call_static(phase, &[obj, hot, five]).unwrap(),
        Some(Value::Int(10))
    );
    // And back.
    assert_eq!(
        vm.call_static(phase, &[obj, cold, five]).unwrap(),
        Some(Value::Int(5))
    );

    assert_eq!(vm.stats().tib_flips, 3, "one flip per phase's set()");
    // What each of the 15 get() calls ran, in order.
    let ran: Vec<&str> = vm.state.output.text.lines().collect();
    assert_eq!(ran, [["1"; 5], ["2"; 5], ["1"; 5]].concat());
}

#[test]
fn unreachable_terminator_traps_instead_of_panicking() {
    // Simulate an optimizer bug: after normal compilation, swap main's code
    // for a function whose entry block "was proven dead". Executing it must
    // surface RunError::UnreachableExecuted, leaving the VM inspectable.
    let mut pb = ProgramBuilder::new();
    let c = pb.class("C").build();
    let mut m = pb.static_method(c, "main", MethodSig::new(vec![], Some(Ty::Int)));
    let r = m.imm(7);
    m.ret(Some(r));
    let main = m.build();
    pb.set_entry(main);
    let p = pb.finish().unwrap();

    let mut vm = Vm::new(p, VmConfig::default());
    let cid = vm.state.ensure_compiled(main);
    let broken = Function {
        blocks: vec![Block::new(Term::Unreachable)],
        num_regs: 0,
        arg_count: 0,
    };
    vm.state.code[cid.index()].lin = Arc::new(lower(&broken, &vm.state.program, &[]));

    assert_eq!(vm.run_entry().unwrap_err(), RunError::UnreachableExecuted);
    // Post-mortem state is still consistent: the trapping frame is intact.
    assert_eq!(vm.state.frames.len(), 1);
}
