//! End-to-end execution tests for the VM: dispatch semantics, adaptive
//! recompilation, GC, traps, patch-point delivery.

use dchm_bytecode::value::ObjRef;
use dchm_bytecode::{
    ClassId, CmpOp, FieldId, MethodId, MethodSig, ProgramBuilder, Ty, Value,
};
use dchm_vm::{MutationHandler, PatchSpec, RunError, Vm, VmConfig, VmObserver, VmState};
use std::collections::HashSet;

fn run_main(
    build: impl FnOnce(&mut ProgramBuilder) -> MethodId,
    config: VmConfig,
) -> (Vm, Result<Option<Value>, RunError>) {
    let mut pb = ProgramBuilder::new();
    let main = build(&mut pb);
    pb.set_entry(main);
    let p = pb.finish().expect("program verifies");
    let mut vm = Vm::new(p, config);
    let r = vm.run_entry();
    (vm, r)
}

#[test]
fn loop_sum_in_virtual_method() {
    let (vm, r) = run_main(
        |pb| {
            let c = pb.class("Adder").build();
            pb.trivial_ctor(c);
            let mut m = pb.method(c, "sum", MethodSig::new(vec![Ty::Int], Some(Ty::Int)));
            let n = m.param(0);
            let acc = m.reg();
            let i = m.reg();
            m.const_i(acc, 0);
            m.const_i(i, 0);
            let head = m.label();
            let done = m.label();
            m.bind(head);
            m.br_icmp(CmpOp::Ge, i, n, done);
            m.iadd(acc, acc, i);
            m.iadd_imm(i, i, 1);
            m.jmp(head);
            m.bind(done);
            m.ret(Some(acc));
            m.build();

            let mut m = pb.static_method(c, "main", MethodSig::new(vec![], Some(Ty::Int)));
            let obj = m.reg();
            m.new_init(obj, c, vec![]);
            let n = m.imm(100);
            let out = m.reg();
            m.call_virtual(Some(out), obj, "sum", vec![n]);
            m.ret(Some(out));
            m.build()
        },
        VmConfig::default(),
    );
    assert_eq!(r.unwrap(), Some(Value::Int(4950)));
    assert!(vm.stats().ops_executed > 300);
    assert!(vm.cycles() > 0);
}

#[test]
fn virtual_dispatch_picks_override() {
    let (_, r) = run_main(
        |pb| {
            let a = pb.class("A").build();
            let b = pb.class("B").extends(a).build();
            pb.trivial_ctor(a);
            pb.trivial_ctor(b);
            let mut m = pb.method(a, "tag", MethodSig::new(vec![], Some(Ty::Int)));
            let r = m.imm(1);
            m.ret(Some(r));
            m.build();
            let mut m = pb.method(b, "tag", MethodSig::new(vec![], Some(Ty::Int)));
            let r = m.imm(2);
            m.ret(Some(r));
            m.build();

            let mut m = pb.static_method(a, "main", MethodSig::new(vec![], Some(Ty::Int)));
            let oa = m.reg();
            let ob = m.reg();
            m.new_init(oa, a, vec![]);
            m.new_init(ob, b, vec![]);
            let ta = m.reg();
            let tb = m.reg();
            m.call_virtual(Some(ta), oa, "tag", vec![]);
            m.call_virtual(Some(tb), ob, "tag", vec![]);
            let ten = m.imm(10);
            let out = m.reg();
            m.imul(out, ta, ten);
            m.iadd(out, out, tb);
            m.ret(Some(out));
            m.build()
        },
        VmConfig::default(),
    );
    assert_eq!(r.unwrap(), Some(Value::Int(12)));
}

#[test]
fn invokespecial_super_and_private() {
    let (_, r) = run_main(
        |pb| {
            let a = pb.class("A").build();
            let b = pb.class("B").extends(a).build();
            pb.trivial_ctor(a);
            pb.trivial_ctor(b);
            let mut m = pb.method(a, "f", MethodSig::new(vec![], Some(Ty::Int)));
            let r = m.imm(7);
            m.ret(Some(r));
            m.build();
            // B overrides f, but also calls super::f via invokespecial on A.
            let mut m = pb.method(b, "f", MethodSig::new(vec![], Some(Ty::Int)));
            let this = m.this();
            let sup = m.reg();
            m.call_special(Some(sup), a, "f", this, vec![]);
            let hundred = m.imm(100);
            let out = m.reg();
            m.iadd(out, sup, hundred);
            m.ret(Some(out));
            m.build();
            // Private method is statically bound.
            let mut m = pb.method(b, "secret", MethodSig::new(vec![], Some(Ty::Int)));
            m.private();
            let r = m.imm(1000);
            m.ret(Some(r));
            m.build();
            let mut m = pb.method(b, "call_secret", MethodSig::new(vec![], Some(Ty::Int)));
            let this = m.this();
            let s = m.reg();
            m.call_special(Some(s), b, "secret", this, vec![]);
            m.ret(Some(s));
            m.build();

            let mut m = pb.static_method(a, "main", MethodSig::new(vec![], Some(Ty::Int)));
            let ob = m.reg();
            m.new_init(ob, b, vec![]);
            let f = m.reg();
            m.call_virtual(Some(f), ob, "f", vec![]); // B::f = 107
            let s = m.reg();
            m.call_virtual(Some(s), ob, "call_secret", vec![]); // 1000
            let out = m.reg();
            m.iadd(out, f, s);
            m.ret(Some(out));
            m.build()
        },
        VmConfig::default(),
    );
    assert_eq!(r.unwrap(), Some(Value::Int(1107)));
}

#[test]
fn interface_dispatch() {
    let (_, r) = run_main(
        |pb| {
            let shape = pb.class("Shape").interface().build();
            pb.abstract_method(shape, "area", MethodSig::new(vec![], Some(Ty::Int)));
            let sq = pb.class("Square").implements(shape).build();
            let tri = pb.class("Tri").implements(shape).build();
            pb.trivial_ctor(sq);
            pb.trivial_ctor(tri);
            let mut m = pb.method(sq, "area", MethodSig::new(vec![], Some(Ty::Int)));
            let r = m.imm(4);
            m.ret(Some(r));
            m.build();
            let mut m = pb.method(tri, "area", MethodSig::new(vec![], Some(Ty::Int)));
            let r = m.imm(3);
            m.ret(Some(r));
            m.build();

            let mut m = pb.static_method(sq, "main", MethodSig::new(vec![], Some(Ty::Int)));
            let a = m.reg();
            let b = m.reg();
            m.new_init(a, sq, vec![]);
            m.new_init(b, tri, vec![]);
            let x = m.reg();
            let y = m.reg();
            m.call_interface(Some(x), shape, a, "area", vec![]);
            m.call_interface(Some(y), shape, b, "area", vec![]);
            let out = m.reg();
            m.iadd(out, x, y);
            m.ret(Some(out));
            m.build()
        },
        VmConfig::default(),
    );
    assert_eq!(r.unwrap(), Some(Value::Int(7)));
}

#[test]
fn adaptive_system_promotes_hot_method_and_preserves_result() {
    let build = |pb: &mut ProgramBuilder| {
        let c = pb.class("Hot").build();
        pb.trivial_ctor(c);
        let mut m = pb.method(c, "work", MethodSig::new(vec![Ty::Int], Some(Ty::Int)));
        let n = m.param(0);
        let acc = m.reg();
        let i = m.reg();
        m.const_i(acc, 0);
        m.const_i(i, 0);
        let head = m.label();
        let done = m.label();
        m.bind(head);
        m.br_icmp(CmpOp::Ge, i, n, done);
        let t = m.reg();
        let three = m.imm(3);
        m.imul(t, i, three);
        m.iadd(acc, acc, t);
        m.iadd_imm(i, i, 1);
        m.jmp(head);
        m.bind(done);
        m.ret(Some(acc));
        m.build();

        let mut m = pb.static_method(c, "main", MethodSig::new(vec![], Some(Ty::Int)));
        let obj = m.reg();
        m.new_init(obj, c, vec![]);
        let total = m.reg();
        m.const_i(total, 0);
        let i = m.reg();
        m.const_i(i, 0);
        let head = m.label();
        let done = m.label();
        m.bind(head);
        let lim = m.imm(600);
        m.br_icmp(CmpOp::Ge, i, lim, done);
        let n = m.imm(50);
        let w = m.reg();
        m.call_virtual(Some(w), obj, "work", vec![n]);
        m.iadd(total, total, w);
        m.iadd_imm(i, i, 1);
        m.jmp(head);
        m.bind(done);
        m.ret(Some(total));
        m.build()
    };
    // Expected: 600 * sum(3i, i<50) = 600 * 3675
    let expected = Some(Value::Int(600 * 3675));

    let cfg = VmConfig {
        sample_period: 20_000, // sample aggressively
        ..Default::default()
    };
    let (vm, r) = run_main(build, cfg);
    assert_eq!(r.unwrap(), expected);
    // The hot loop methods got promoted to opt2.
    let hot = vm.stats().hot_methods();
    let top = &vm.stats().per_method[hot[0].0.index()];
    assert_eq!(top.level, Some(2), "hottest method should reach opt2");
    assert!(top.recompiles >= 1);
    assert!(vm.stats().compile_cycles > 0);
    assert!(vm.stats().samples_taken > 10);

    // A VM that never samples computes the same answer (semantic equivalence
    // across tiers).
    let cfg0 = VmConfig {
        sample_period: u64::MAX,
        ..Default::default()
    };
    let (vm0, r0) = run_main(build, cfg0);
    assert_eq!(r0.unwrap(), expected);
    assert_eq!(vm0.stats().compiles_by_level[2], 0);
}

#[test]
fn gc_runs_and_program_survives() {
    let cfg = VmConfig {
        heap_bytes: 8 << 10, // 8 KB: forces many collections
        ..Default::default()
    };
    let (vm, r) = run_main(
        |pb| {
            let c = pb.class("Churn").build();
            pb.instance_field(c, "x", Ty::Int);
            pb.trivial_ctor(c);
            let mut m = pb.static_method(c, "main", MethodSig::new(vec![], Some(Ty::Int)));
            let i = m.reg();
            m.const_i(i, 0);
            let head = m.label();
            let done = m.label();
            m.bind(head);
            let lim = m.imm(2000);
            m.br_icmp(CmpOp::Ge, i, lim, done);
            let o = m.reg();
            m.new_init(o, c, vec![]); // instantly garbage
            m.iadd_imm(i, i, 1);
            m.jmp(head);
            m.bind(done);
            m.ret(Some(i));
            m.build()
        },
        cfg,
    );
    assert_eq!(r.unwrap(), Some(Value::Int(2000)));
    assert!(vm.state.heap.stats.gc_count > 0, "GC must have run");
    assert!(vm.stats().gc_cycles > 0);
}

#[test]
fn traps_propagate() {
    // Divide by zero.
    let (_, r) = run_main(
        |pb| {
            let c = pb.class("C").build();
            let mut m = pb.static_method(c, "main", MethodSig::new(vec![], Some(Ty::Int)));
            let a = m.imm(1);
            let z = m.imm(0);
            let out = m.reg();
            m.idiv(out, a, z);
            m.ret(Some(out));
            m.build()
        },
        VmConfig::default(),
    );
    assert_eq!(r.unwrap_err(), RunError::DivideByZero);

    // Null pointer.
    let (_, r) = run_main(
        |pb| {
            let c = pb.class("C").build();
            let f = pb.instance_field(c, "x", Ty::Int);
            let mut m = pb.static_method(c, "main", MethodSig::new(vec![], Some(Ty::Int)));
            let n = m.reg();
            m.const_null(n);
            let out = m.reg();
            m.get_field(out, n, f);
            m.ret(Some(out));
            m.build()
        },
        VmConfig::default(),
    );
    assert_eq!(r.unwrap_err(), RunError::NullPointer);

    // Array bounds.
    let (_, r) = run_main(
        |pb| {
            let c = pb.class("C").build();
            let mut m = pb.static_method(c, "main", MethodSig::new(vec![], Some(Ty::Int)));
            let len = m.imm(2);
            let arr = m.reg();
            m.new_arr(arr, dchm_bytecode::ElemKind::Int, len);
            let idx = m.imm(5);
            let out = m.reg();
            m.aload(out, arr, idx);
            m.ret(Some(out));
            m.build()
        },
        VmConfig::default(),
    );
    assert!(matches!(r.unwrap_err(), RunError::ArrayBounds { index: 5, len: 2 }));
}

#[test]
fn fuel_guard_catches_infinite_loop() {
    let cfg = VmConfig {
        fuel: Some(10_000),
        ..Default::default()
    };
    let (_, r) = run_main(
        |pb| {
            let c = pb.class("C").build();
            let mut m = pb.static_method(c, "main", MethodSig::void());
            let head = m.label();
            m.bind(head);
            let x = m.imm(1);
            m.sink_int(x);
            m.jmp(head);
            m.build()
        },
        cfg,
    );
    assert_eq!(r.unwrap_err(), RunError::OutOfFuel);
}

#[test]
fn output_text_and_checksum() {
    let (vm, r) = run_main(
        |pb| {
            let c = pb.class("C").build();
            let mut m = pb.static_method(c, "main", MethodSig::void());
            let a = m.imm(65);
            m.intrinsic(None, dchm_bytecode::IntrinsicKind::PrintChar, vec![a]);
            let b = m.imm(42);
            m.print_int(b);
            m.sink_int(b);
            m.ret(None);
            m.build()
        },
        VmConfig::default(),
    );
    r.unwrap();
    assert_eq!(vm.state.output.text, "A42\n");
    assert_ne!(vm.state.output.checksum, 0);
}

/// A recording handler proving patch points fire with the right payloads.
#[derive(Default)]
struct Recorder {
    ctor_exits: Vec<(ObjRef, ClassId)>,
    inst_stores: Vec<(ObjRef, FieldId)>,
    static_stores: Vec<FieldId>,
    recompiles: Vec<(MethodId, u8)>,
}

// The handler needs shared access from the test after the run; use a thin
// Rc<RefCell<>> wrapper.
#[derive(Clone, Default)]
struct SharedRecorder(std::rc::Rc<std::cell::RefCell<Recorder>>);

impl MutationHandler for SharedRecorder {
    fn on_instance_store(&mut self, _vm: &mut VmState, obj: ObjRef, _c: ClassId, f: FieldId) {
        self.0.borrow_mut().inst_stores.push((obj, f));
    }
    fn on_static_store(&mut self, _vm: &mut VmState, f: FieldId) {
        self.0.borrow_mut().static_stores.push(f);
    }
    fn on_ctor_exit(&mut self, _vm: &mut VmState, obj: ObjRef, c: ClassId) {
        self.0.borrow_mut().ctor_exits.push((obj, c));
    }
    fn on_recompiled(&mut self, _vm: &mut VmState, m: MethodId, l: u8) {
        self.0.borrow_mut().recompiles.push((m, l));
    }
}

#[test]
fn patch_points_fire() {
    let mut pb = ProgramBuilder::new();
    let c = pb.class("M").build();
    let grade = pb.instance_field(c, "grade", Ty::Int);
    let mode = pb.static_field(c, "mode", Ty::Int, 0i64.into());
    // ctor sets grade = param.
    let mut m = pb.ctor(c, vec![Ty::Int]);
    let this = m.this();
    let g = m.param(0);
    m.put_field(this, grade, g);
    m.ret(None);
    m.build();
    // setter reassigns grade.
    let mut m = pb.method(c, "promote", MethodSig::new(vec![Ty::Int], None));
    let this = m.this();
    let g = m.param(0);
    m.put_field(this, grade, g);
    m.ret(None);
    m.build();

    let mut m = pb.static_method(c, "main", MethodSig::void());
    let obj = m.reg();
    let one = m.imm(1);
    m.new_init(obj, c, vec![one]);
    let two = m.imm(2);
    m.call_virtual(None, obj, "promote", vec![two]);
    let five = m.imm(5);
    m.put_static(mode, five);
    m.ret(None);
    let main = m.build();
    pb.set_entry(main);
    let p = pb.finish().unwrap();

    let rec = SharedRecorder::default();
    let mut vm = Vm::with_handler(p, VmConfig::default(), Box::new(rec.clone()));
    vm.state.patch_spec = PatchSpec {
        instance_fields: [grade].into_iter().collect(),
        static_fields: [mode].into_iter().collect(),
        ctor_classes: [c].into_iter().collect(),
    };
    vm.run_entry().unwrap();

    let r = rec.0.borrow();
    // The ctor stores grade (1 inst store) and exits (1 ctor exit);
    // promote stores grade again (1 inst store); main stores mode (1 static).
    assert_eq!(r.ctor_exits.len(), 1);
    assert_eq!(r.ctor_exits[0].1, c);
    assert_eq!(r.inst_stores.len(), 2);
    assert!(r.inst_stores.iter().all(|&(_, f)| f == grade));
    assert_eq!(r.static_stores, vec![mode]);
    // Initial compiles reported (main + ctor + promote at opt0).
    assert!(r.recompiles.iter().all(|&(_, l)| l == 0));
    assert!(r.recompiles.len() >= 3);
}

#[test]
fn checkcast_transparent_to_special_tibs() {
    // Flip an object's TIB to a special TIB and verify instanceof/checkcast
    // still see the class (Sec. 3.2.3: type info entry, not TIB identity).
    let mut pb = ProgramBuilder::new();
    let a = pb.class("A").build();
    let b = pb.class("B").extends(a).build();
    pb.trivial_ctor(b);
    let mut m = pb.static_method(b, "test", MethodSig::new(vec![Ty::Ref(a)], Some(Ty::Int)));
    let o = m.param(0);
    m.check_cast(o, b); // must not trap
    let out = m.reg();
    m.instance_of(out, o, a);
    m.ret(Some(out));
    let test = m.build();
    let mut m = pb.static_method(b, "mk", MethodSig::new(vec![], Some(Ty::Ref(b))));
    let o = m.reg();
    m.new_init(o, b, vec![]);
    m.ret(Some(o));
    let mk = m.build();
    let p = pb.finish().unwrap();

    let mut vm = Vm::new(p, VmConfig::default());
    let obj = vm.call_static(mk, &[]).unwrap().unwrap();
    let Value::Ref(oref) = obj else { panic!() };
    vm.state.add_handle(oref);
    // Create and install a special TIB for B.
    let special = vm.state.create_special_tib(b, 0);
    vm.state.set_object_tib(oref, special);
    let r = vm.call_static(test, &[obj]).unwrap();
    assert_eq!(r, Some(Value::Int(1)));
}

#[test]
fn dispatch_through_special_tib_runs_patched_code() {
    // The core mutation mechanism: after repointing a TIB slot at different
    // compiled code, dispatch through the special TIB runs that code with
    // no extra dispatch work.
    let mut pb = ProgramBuilder::new();
    let c = pb.class("C").build();
    pb.trivial_ctor(c);
    let mut m = pb.method(c, "v", MethodSig::new(vec![], Some(Ty::Int)));
    let r = m.imm(10);
    m.ret(Some(r));
    m.build();
    // A second method whose compiled code we'll graft into v's slot.
    let mut m = pb.method(c, "w", MethodSig::new(vec![], Some(Ty::Int)));
    let r = m.imm(99);
    m.ret(Some(r));
    let w = m.build();
    let mut m = pb.static_method(c, "mk", MethodSig::new(vec![], Some(Ty::Ref(c))));
    let o = m.reg();
    m.new_init(o, c, vec![]);
    m.ret(Some(o));
    let mk = m.build();
    let mut m = pb.static_method(c, "callv", MethodSig::new(vec![Ty::Ref(c)], Some(Ty::Int)));
    let o = m.param(0);
    let out = m.reg();
    m.call_virtual(Some(out), o, "v", vec![]);
    m.ret(Some(out));
    let callv = m.build();
    let p = pb.finish().unwrap();

    let mut vm = Vm::new(p, VmConfig::default());
    let obj = vm.call_static(mk, &[]).unwrap().unwrap();
    let Value::Ref(oref) = obj else { panic!() };
    vm.state.add_handle(oref);

    // Baseline: v returns 10.
    assert_eq!(vm.call_static(callv, &[obj]).unwrap(), Some(Value::Int(10)));

    // Build a special TIB whose v-slot points at w's code.
    let w_cid = vm.state.ensure_compiled(w);
    let sel_v = vm.state.program.selector("v").unwrap();
    let vslot = vm.state.program.class(c).vtable_slot(sel_v).unwrap();
    let special = vm.state.create_special_tib(c, 0);
    vm.state
        .set_tib_slot(special, vslot, dchm_vm::CodeSlot::Code(w_cid));
    vm.state.set_object_tib(oref, special);
    assert_eq!(vm.call_static(callv, &[obj]).unwrap(), Some(Value::Int(99)));

    // Flip back to the class TIB: original behaviour returns.
    let class_tib = vm.state.class_tib(c);
    vm.state.set_object_tib(oref, class_tib);
    assert_eq!(vm.call_static(callv, &[obj]).unwrap(), Some(Value::Int(10)));
}

#[test]
fn static_override_redirects_statically_bound_calls() {
    let mut pb = ProgramBuilder::new();
    let c = pb.class("C").build();
    let mut m = pb.static_method(c, "f", MethodSig::new(vec![], Some(Ty::Int)));
    let r = m.imm(1);
    m.ret(Some(r));
    let f = m.build();
    let mut m = pb.static_method(c, "g", MethodSig::new(vec![], Some(Ty::Int)));
    let r = m.imm(2);
    m.ret(Some(r));
    let g = m.build();
    let mut m = pb.static_method(c, "callf", MethodSig::new(vec![], Some(Ty::Int)));
    let out = m.reg();
    m.call_static(Some(out), f, vec![]);
    m.ret(Some(out));
    let callf = m.build();
    let p = pb.finish().unwrap();

    let mut vm = Vm::new(p, VmConfig::default());
    assert_eq!(vm.call_static(callf, &[]).unwrap(), Some(Value::Int(1)));
    let g_cid = vm.state.ensure_compiled(g);
    vm.state.set_static_override(f, Some(g_cid));
    assert_eq!(vm.call_static(callf, &[]).unwrap(), Some(Value::Int(2)));
    vm.state.set_static_override(f, None);
    assert_eq!(vm.call_static(callf, &[]).unwrap(), Some(Value::Int(1)));
}

#[test]
fn call_static_checks_arity_before_touching_the_vm() {
    let mut pb = ProgramBuilder::new();
    let c = pb.class("C").build();
    let mut m = pb.static_method(c, "add", MethodSig::new(vec![Ty::Int, Ty::Int], Some(Ty::Int)));
    let (a, b) = (m.param(0), m.param(1));
    let r = m.reg();
    m.iadd(r, a, b);
    m.ret(Some(r));
    let add = m.build();
    let mut vm = Vm::new(pb.finish().unwrap(), VmConfig::default());

    let one = Value::Int(1);
    // Too many (was an out-of-range slice panic outside containment) and too
    // few (silently ran with zero-filled parameters): both are typed errors
    // that leave the VM exactly as it was — not poisoned, nothing compiled,
    // no frame, no clock movement.
    for args in [vec![one; 9], vec![one; 3], vec![one], vec![]] {
        let err = vm.call_static(add, &args).unwrap_err();
        let RunError::VmInvariant { what } = &err else {
            panic!("expected VmInvariant, got {err:?}");
        };
        assert!(what.starts_with("call_static arity"), "{what}");
        assert!(vm.state.frames.is_empty() && vm.state.reg_stack.is_empty());
        assert!(vm.state.code.is_empty() && !vm.state.poisoned);
        assert_eq!((vm.cycles(), vm.stats().ops_executed), (0, 0));
    }
    assert_eq!(vm.call_static(add, &[one, Value::Int(41)]).unwrap(), Some(Value::Int(42)));
}

#[test]
fn observer_watching_a_foreign_field_id_is_ignored() {
    struct Watch(HashSet<FieldId>, std::rc::Rc<std::cell::Cell<u32>>);
    impl VmObserver for Watch {
        fn watched_fields(&self) -> HashSet<FieldId> {
            self.0.clone()
        }
        fn on_instance_store(&mut self, _: ClassId, _: FieldId, _: Value) {}
        fn on_static_store(&mut self, _: FieldId, _: Value) {
            self.1.set(self.1.get() + 1);
        }
    }

    let mut pb = ProgramBuilder::new();
    let c = pb.class("C").build();
    let f = pb.static_field(c, "s", Ty::Int, 0i64.into());
    let mut m = pb.static_method(c, "main", MethodSig::void());
    let v = m.imm(5);
    m.put_static(f, v);
    m.ret(None);
    let main = m.build();
    pb.set_entry(main);
    let mut vm = Vm::new(pb.finish().unwrap(), VmConfig::default());

    // An id from a larger program (was an out-of-range index panic at
    // attach, outside containment); the in-range one is still watched.
    let stores = std::rc::Rc::new(std::cell::Cell::new(0));
    let foreign = FieldId::from_index(1000);
    vm.attach_observer(Box::new(Watch(HashSet::from([f, foreign]), stores.clone())));
    vm.run_entry().unwrap();
    assert_eq!(stores.get(), 1);
}

#[test]
fn huge_array_lengths_are_out_of_memory_not_a_poisoning_panic() {
    // mk(n): allocates one small array (so the heap's running total is
    // non-zero), then `new int[n]`.
    let mut pb = ProgramBuilder::new();
    let c = pb.class("C").build();
    let mut m = pb.static_method(c, "mk", MethodSig::new(vec![Ty::Int], Some(Ty::Int)));
    let n = m.param(0);
    let (four, small, big, len) = (m.imm(4), m.reg(), m.reg(), m.reg());
    m.new_arr(small, dchm_bytecode::ElemKind::Int, four);
    m.new_arr(big, dchm_bytecode::ElemKind::Int, n);
    m.alen(len, big);
    m.ret(Some(len));
    let mk = m.build();
    let mut vm = Vm::new(pb.finish().unwrap(), VmConfig::default());
    // 2^61 elements is where `16 + 8 * len` wraps; three below it the size
    // still fits but the heap's running total wraps.
    for len in [1i64 << 40, (1 << 61) - 3, 1 << 61, 1 << 62, i64::MAX] {
        let err = vm.call_static(mk, &[Value::Int(len)]).unwrap_err();
        assert!(matches!(err, RunError::OutOfMemory { .. }), "len {len}: {err:?}");
        assert!(!vm.state.poisoned, "len {len}");
    }
    assert_eq!(vm.call_static(mk, &[Value::Int(3)]).unwrap(), Some(Value::Int(3)));
}
