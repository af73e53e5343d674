//! Dispatch semantics under stress: deep hierarchies, megamorphic call
//! sites, IMT conflicts (more interface selectors than IMT slots), and
//! interface dispatch through flipped (special) TIBs.

use dchm_bytecode::{CmpOp, ElemKind, MethodSig, ProgramBuilder, Ty, Value};
use dchm_vm::{CodeSlot, Vm, VmConfig, IMT_SLOTS};

#[test]
fn deep_hierarchy_overrides_resolve_bottom_up() {
    // A chain of 12 classes; every third class overrides tag().
    let mut pb = ProgramBuilder::new();
    let mut classes = Vec::new();
    let root = pb.class("C0").build();
    classes.push(root);
    for i in 1..12 {
        let c = pb.class(&format!("C{i}")).extends(classes[i - 1]).build();
        classes.push(c);
    }
    for (i, &c) in classes.iter().enumerate() {
        pb.trivial_ctor(c);
        if i % 3 == 0 {
            let mut m = pb.method(c, "tag", MethodSig::new(vec![], Some(Ty::Int)));
            let r = m.imm(i as i64);
            m.ret(Some(r));
            m.build();
        }
    }
    // main: instantiate each leaf-ish class and dispatch.
    let mut m = pb.static_method(root, "main", MethodSig::new(vec![], Some(Ty::Int)));
    let acc = m.reg();
    m.const_i(acc, 0);
    for &c in &classes {
        let o = m.reg();
        m.new_init(o, c, vec![]);
        let t = m.reg();
        m.call_virtual(Some(t), o, "tag", vec![]);
        m.iadd(acc, acc, t);
    }
    m.ret(Some(acc));
    let main = m.build();
    pb.set_entry(main);
    let p = pb.finish().unwrap();

    let mut vm = Vm::new(p, VmConfig::default());
    // Each class resolves to the nearest override at or below... above it:
    // C0,C1,C2 -> 0; C3,C4,C5 -> 3; C6..8 -> 6; C9..11 -> 9.
    let expected: i64 = (0..12).map(|i| (i / 3) * 3).sum();
    assert_eq!(vm.run_entry().unwrap(), Some(Value::Int(expected)));
}

#[test]
fn megamorphic_call_site_dispatches_correctly() {
    // One call site, eight receiver classes.
    let mut pb = ProgramBuilder::new();
    let base = pb.class("Base").build();
    pb.trivial_ctor(base);
    let mut m = pb.method(base, "v", MethodSig::new(vec![], Some(Ty::Int)));
    let r = m.imm(0);
    m.ret(Some(r));
    m.build();
    let mut subs = Vec::new();
    for i in 1..=8 {
        let c = pb.class(&format!("S{i}")).extends(base).build();
        pb.trivial_ctor(c);
        let mut m = pb.method(c, "v", MethodSig::new(vec![], Some(Ty::Int)));
        let r = m.imm(i);
        m.ret(Some(r));
        m.build();
        subs.push(c);
    }
    let mut m = pb.static_method(base, "main", MethodSig::new(vec![], Some(Ty::Int)));
    let n = m.imm(9);
    let arr = m.reg();
    m.new_arr(arr, ElemKind::Ref, n);
    let zero = m.imm(0);
    let ob = m.reg();
    m.new_init(ob, base, vec![]);
    m.astore(arr, zero, ob);
    for (i, &c) in subs.iter().enumerate() {
        let idx = m.imm(i as i64 + 1);
        let o = m.reg();
        m.new_init(o, c, vec![]);
        m.astore(arr, idx, o);
    }
    // Dispatch in a loop over all receivers, many times.
    let acc = m.reg();
    m.const_i(acc, 0);
    let round = m.reg();
    m.const_i(round, 0);
    let rh = m.label();
    let rd = m.label();
    m.bind(rh);
    let rl = m.imm(200);
    m.br_icmp(CmpOp::Ge, round, rl, rd);
    let i = m.reg();
    m.const_i(i, 0);
    let ih = m.label();
    let id = m.label();
    m.bind(ih);
    m.br_icmp(CmpOp::Ge, i, n, id);
    let o = m.reg();
    m.aload(o, arr, i);
    let t = m.reg();
    m.call_virtual(Some(t), o, "v", vec![]);
    m.iadd(acc, acc, t);
    m.iadd_imm(i, i, 1);
    m.jmp(ih);
    m.bind(id);
    m.iadd_imm(round, round, 1);
    m.jmp(rh);
    m.bind(rd);
    m.ret(Some(acc));
    let main = m.build();
    pb.set_entry(main);
    let p = pb.finish().unwrap();

    // Aggressive sampling so recompilation churns mid-run.
    let cfg = VmConfig {
        sample_period: 5_000,
        opt1_samples: 2,
        opt2_samples: 4,
        ..Default::default()
    };
    let mut vm = Vm::new(p, cfg);
    assert_eq!(
        vm.run_entry().unwrap(),
        Some(Value::Int(200 * (0..=8).sum::<i64>()))
    );
}

#[test]
fn imt_conflicts_resolve_by_search() {
    // One interface with more methods than IMT slots: conflicts guaranteed.
    let n_methods = IMT_SLOTS + 5;
    let mut pb = ProgramBuilder::new();
    let iface = pb.class("Wide").interface().build();
    for i in 0..n_methods {
        pb.abstract_method(iface, &format!("m{i}"), MethodSig::new(vec![], Some(Ty::Int)));
    }
    // Two implementations, so one interface site can alternate receivers.
    let impls = ["Impl", "Alt"].map(|name| {
        let c = pb.class(name).implements(iface).build();
        pb.trivial_ctor(c);
        for i in 0..n_methods {
            let mut m = pb.method(c, &format!("m{i}"), MethodSig::new(vec![], Some(Ty::Int)));
            let r = m.imm(i as i64 * 10);
            m.ret(Some(r));
            m.build();
        }
        c
    });
    let c = impls[0];
    let mut m = pb.static_method(c, "main", MethodSig::new(vec![], Some(Ty::Int)));
    let o = m.reg();
    m.new_init(o, c, vec![]);
    let acc = m.reg();
    m.const_i(acc, 0);
    for i in 0..n_methods {
        let t = m.reg();
        m.call_interface(Some(t), iface, o, &format!("m{i}"), vec![]);
        m.iadd(acc, acc, t);
    }
    m.ret(Some(acc));
    let main = m.build();
    pb.set_entry(main);
    // One interface site each for a selector alone in its IMT slot and for
    // one that shares its slot (a conflict stub).
    let slots: Vec<u32> =
        (0..n_methods).map(|i| pb.selector(&format!("m{i}")).0 % IMT_SLOTS as u32).collect();
    let shares = |i: usize| slots.iter().filter(|&&s| s == slots[i]).count() > 1;
    let sites = [false, true].map(|conflicted| {
        let i = (0..n_methods).find(|&i| shares(i) == conflicted).unwrap();
        let sig = MethodSig::new(vec![Ty::Ref(iface)], Some(Ty::Int));
        let mut m = pb.static_method(c, &format!("call{i}"), sig);
        let (o, t) = (m.param(0), m.reg());
        m.call_interface(Some(t), iface, o, &format!("m{i}"), vec![]);
        m.ret(Some(t));
        m.build()
    });
    let p = pb.finish().unwrap();
    // No promotion: every site runs the same code throughout.
    let cfg = VmConfig { opt1_samples: u64::MAX, opt2_samples: u64::MAX, ..VmConfig::default() };
    let mut vm = Vm::new(p, cfg);
    let expected: i64 = (0..n_methods as i64).map(|i| i * 10).sum();
    assert_eq!(vm.run_entry().unwrap(), Some(Value::Int(expected)));

    // The modeled cost of one call at a site whose receiver alternates
    // between the two classes is the same for every call, and exactly 6
    // more behind a conflict stub and 1 more on a mutable class.
    // Nothing allocates from here on, so the receivers need no root.
    let recvs = impls.map(|c| Value::Ref(vm.state.alloc_object(c).unwrap()));
    let per_call = |vm: &mut Vm, site| {
        let costs: Vec<u64> = (0..18)
            .map(|k| {
                let before = vm.state.clock;
                vm.call_static(site, &[recvs[k % 2]]).unwrap();
                vm.state.clock - before
            })
            .skip(2) // the first call with each receiver compiles
            .collect();
        assert!(costs.iter().all(|&c| c == costs[0]), "per-call cycles vary: {costs:?}");
        costs[0]
    };
    let plain = per_call(&mut vm, sites[0]);
    assert_eq!(per_call(&mut vm, sites[1]), plain + 6, "conflict-stub search");
    for c in impls {
        vm.state.mark_mutable_class(c);
    }
    assert_eq!(per_call(&mut vm, sites[0]), plain + 1, "TIB-offset load");
    assert_eq!(per_call(&mut vm, sites[1]), plain + 6 + 1);
}

#[test]
fn interface_dispatch_through_special_tib_runs_special_code() {
    // The paper's Sec. 3.2.3 extension: the IMT resolves to a TIB offset,
    // so a flipped TIB routes interface calls to special code with no
    // extra IMTs.
    let mut pb = ProgramBuilder::new();
    let iface = pb.class("Runnable").interface().build();
    pb.abstract_method(iface, "run", MethodSig::new(vec![], Some(Ty::Int)));
    let c = pb.class("Job").implements(iface).build();
    pb.trivial_ctor(c);
    let mut m = pb.method(c, "run", MethodSig::new(vec![], Some(Ty::Int)));
    let r = m.imm(1);
    m.ret(Some(r));
    m.build();
    let mut m = pb.method(c, "alt", MethodSig::new(vec![], Some(Ty::Int)));
    let r = m.imm(77);
    m.ret(Some(r));
    let alt = m.build();
    let mut m = pb.static_method(c, "mk", MethodSig::new(vec![], Some(Ty::Ref(c))));
    let o = m.reg();
    m.new_init(o, c, vec![]);
    m.ret(Some(o));
    let mk = m.build();
    let mut m = pb.static_method(c, "call_iface", MethodSig::new(vec![Ty::Ref(iface)], Some(Ty::Int)));
    let o = m.param(0);
    let t = m.reg();
    m.call_interface(Some(t), iface, o, "run", vec![]);
    m.ret(Some(t));
    let call_iface = m.build();
    let p = pb.finish().unwrap();

    let mut vm = Vm::new(p, VmConfig::default());
    let obj = vm.call_static(mk, &[]).unwrap().unwrap();
    let Value::Ref(oref) = obj else { panic!() };
    vm.state.add_handle(oref);
    assert_eq!(vm.call_static(call_iface, &[obj]).unwrap(), Some(Value::Int(1)));

    // Graft alt's code into run's slot in a special TIB and flip.
    let alt_cid = vm.state.ensure_compiled(alt);
    let sel_run = vm.state.program.selector("run").unwrap();
    let job = vm.state.program.class_by_name("Job").unwrap();
    let vslot = vm.state.program.class(job).vtable_slot(sel_run).unwrap();
    let special = vm.state.create_special_tib(job, 0);
    vm.state.set_tib_slot(special, vslot, CodeSlot::Code(alt_cid));
    vm.state.set_object_tib(oref, special);
    assert_eq!(
        vm.call_static(call_iface, &[obj]).unwrap(),
        Some(Value::Int(77)),
        "interface dispatch must flow through the special TIB"
    );
}
