//! End-to-end reproduction tests: for every benchmark in the paper's
//! Table 1, the full pipeline (profile → EQ 1 → value sampling → plan →
//! OLC → mutation engine) must
//!
//! 1. preserve observable behaviour exactly, and
//! 2. for the mutation-friendly workloads, reduce execution cycles.
//!
//! A plan installed into a VM that is already running
//! (`MutationEngine::install_online`) must preserve behaviour too.

use dchm::bytecode::{CmpOp, MethodId, MethodSig, Program, ProgramBuilder, Ty, Value};
use dchm::core::pipeline::{prepare, PipelineConfig};
use dchm::core::{HotState, MutableClass, MutationEngine, MutationPlan, OlcReport};
use dchm::vm::{Vm, VmConfig};
use dchm::workloads::{catalog, Scale, Workload};

fn fast_vm_config(w: &Workload) -> VmConfig {
    let mut c = w.vm_config();
    // Small-scale runs need aggressive sampling to reach opt2 in tests.
    c.sample_period = 12_000;
    c.opt1_samples = 2;
    c.opt2_samples = 5;
    c
}

fn prepared_for(w: &Workload) -> dchm::core::pipeline::Prepared {
    let cfg = PipelineConfig {
        profile_vm: fast_vm_config(w),
        ..Default::default()
    };
    let wl = w.clone();
    prepare(w.program.clone(), &cfg, move |vm| {
        wl.run(vm).expect("profiling run");
    })
}

#[test]
fn mutation_preserves_behaviour_on_every_benchmark() {
    for w in catalog(Scale::Small) {
        let prepared = prepared_for(&w);
        let mut base = prepared.make_baseline_vm(fast_vm_config(&w));
        w.run(&mut base).unwrap();
        let mut mutated = prepared.make_vm(fast_vm_config(&w));
        w.run(&mut mutated).unwrap();
        assert_eq!(
            base.state.output.checksum, mutated.state.output.checksum,
            "{}: mutation changed observable behaviour",
            w.name
        );
        assert_eq!(
            base.state.output.text, mutated.state.output.text,
            "{}: mutation changed printed output",
            w.name
        );
    }
}

#[test]
fn every_benchmark_finds_mutable_classes() {
    let expected: &[(&str, &str)] = &[
        ("SalaryDB", "SalaryEmployee"),
        ("SimLogic", "Gate"),
        ("CSVToXML", "Converter"),
        ("Java2XHTML", "Formatter"),
        ("Weka", "Classifier"),
        ("SPECjbb2000", "Customer"),
        ("SPECjbb2005", "Customer"),
    ];
    for w in catalog(Scale::Small) {
        let prepared = prepared_for(&w);
        let want = expected
            .iter()
            .find(|(n, _)| *n == w.name)
            .map(|(_, c)| *c)
            .unwrap();
        let class = w.program.class_by_name(want).unwrap();
        assert!(
            prepared.plan.class(class).is_some(),
            "{}: expected {} to be a mutable class; plan = {:?}",
            w.name,
            want,
            prepared
                .plan
                .classes
                .iter()
                .map(|c| w.program.class(c.class).name.clone())
                .collect::<Vec<_>>()
        );
    }
}

#[test]
fn salarydb_has_four_hot_states() {
    let w = dchm::workloads::salarydb::build(Scale::Small);
    let prepared = prepared_for(&w);
    let sal = w.program.class_by_name("SalaryEmployee").unwrap();
    let mc = prepared.plan.class(sal).unwrap();
    assert_eq!(mc.hot_states.len(), 4, "{:?}", mc.hot_states);
    let grade = w.program.field_by_name(sal, "grade").unwrap();
    assert_eq!(mc.instance_state_fields, vec![grade]);
}

#[test]
fn jbb_plan_includes_static_state_and_olc() {
    let w = dchm::workloads::jbb::build(dchm::workloads::jbb::JbbVariant::Jbb2000, Scale::Small);
    let prepared = prepared_for(&w);

    // Static state field taxPolicy on some mutable class.
    let company = w.program.class_by_name("Company").unwrap();
    let tax_policy = w.program.field_by_name(company, "taxPolicy").unwrap();
    let has_static_state = prepared
        .plan
        .classes
        .iter()
        .any(|c| c.static_state_fields.contains(&tax_policy));
    assert!(has_static_state, "taxPolicy must be a static state field");

    // Fig. 7: deliveryScreen's rows/cols are object lifetime constants.
    let delivery = w.program.class_by_name("DeliveryTransaction").unwrap();
    let screen_field = w.program.field_by_name(delivery, "deliveryScreen").unwrap();
    let info = prepared
        .olc
        .infos
        .get(&screen_field)
        .expect("deliveryScreen must be an OLC reference");
    let screen = w.program.class_by_name("DisplayScreen").unwrap();
    assert_eq!(info.exact_class, screen);
    let rows = w.program.field_by_name(screen, "rows").unwrap();
    let cols = w.program.field_by_name(screen, "cols").unwrap();
    assert_eq!(info.bindings.get(&rows), Some(&dchm::bytecode::Value::Int(24)));
    assert_eq!(info.bindings.get(&cols), Some(&dchm::bytecode::Value::Int(80)));
}

#[test]
fn salarydb_mutation_speeds_up_execution() {
    let w = dchm::workloads::salarydb::build(Scale::Small);
    let prepared = prepared_for(&w);
    let mut base = prepared.make_baseline_vm(fast_vm_config(&w));
    w.run(&mut base).unwrap();
    let mut mutated = prepared.make_vm(fast_vm_config(&w));
    w.run(&mut mutated).unwrap();
    let b = base.state.stats.exec_cycles as f64;
    let m = mutated.state.stats.exec_cycles as f64;
    assert!(
        m < b,
        "SalaryDB must speed up under mutation: {m} vs {b} ({}%)",
        (b / m - 1.0) * 100.0
    );
    assert!(mutated.stats().special_tibs >= 4);
    assert!(mutated.stats().tib_flips > 0);
}

/// A `Worker` whose `mode` is set once by `setup()`, which stores
/// `new Worker(2)` in a static; `batch(n)` calls the virtual `step` n
/// times on it. Returns the program, `setup`, `batch` and the plan that
/// specializes `step` on `mode == 2`.
fn worker() -> (Program, MethodId, MethodId, MutationPlan) {
    let mut pb = ProgramBuilder::new();
    let c = pb.class("Worker").build();
    let mode = pb.private_field(c, "mode", Ty::Int);
    let mut m = pb.ctor(c, vec![Ty::Int]);
    let this = m.this();
    let v = m.param(0);
    m.put_field(this, mode, v);
    m.ret(None);
    m.build();
    let mut m = pb.method(c, "step", MethodSig::new(vec![Ty::Int], Some(Ty::Int)));
    let this = m.this();
    let x = m.param(0);
    let mv = m.reg();
    m.get_field(mv, this, mode);
    let alt = m.label();
    let out = m.reg();
    m.br_icmp_imm(CmpOp::Ne, mv, 2, alt);
    let k = m.imm(3);
    m.imul(out, x, k);
    m.ret(Some(out));
    m.bind(alt);
    let k = m.imm(5);
    m.imul(out, x, k);
    m.iadd_imm(out, out, 1);
    m.ret(Some(out));
    let step = m.build();
    let holder = pb.static_field(c, "the", Ty::Ref(c), Value::Null);
    let mut m = pb.static_method(c, "setup", MethodSig::void());
    let o = m.reg();
    let two = m.imm(2);
    m.new_init(o, c, vec![two]);
    m.put_static(holder, o);
    m.ret(None);
    let setup = m.build();
    let mut m = pb.static_method(c, "batch", MethodSig::new(vec![Ty::Int], None));
    let n = m.param(0);
    let o = m.reg();
    m.get_static(o, holder);
    let i = m.reg();
    m.const_i(i, 0);
    let head = m.label();
    let done = m.label();
    m.bind(head);
    m.br_icmp(CmpOp::Ge, i, n, done);
    let r = m.reg();
    m.call_virtual(Some(r), o, "step", vec![i]);
    m.sink_int(r);
    m.iadd_imm(i, i, 1);
    m.jmp(head);
    m.bind(done);
    m.ret(None);
    let batch = m.build();
    let plan = MutationPlan {
        classes: vec![MutableClass {
            class: c,
            instance_state_fields: vec![mode],
            static_state_fields: vec![],
            hot_states: vec![HotState {
                instance_values: vec![(mode, Value::Int(2))],
                static_values: vec![],
                frequency: 1.0,
            }],
            mutable_methods: vec![step],
            field_scores: vec![],
        }],
        mutation_level: 2,
        k: 0,
        emit_guards: true,
    };
    (pb.finish().expect("verifies"), setup, batch, plan)
}

/// A plan installed into a running VM adopts the worker `setup()` made
/// before the plan existed, and the run that follows prints what a
/// never-mutated run prints.
#[test]
fn online_install_adopts_live_objects_and_keeps_output() {
    let (p, setup, batch, plan) = worker();
    let config = VmConfig {
        sample_period: 8_000,
        opt1_samples: 2,
        opt2_samples: 4,
        ..VmConfig::default()
    };
    let run = |vm: &mut Vm, batches: usize| {
        for _ in 0..batches {
            vm.call_static(batch, &[Value::Int(800)]).expect("batch");
        }
    };
    let mut plain = Vm::new(p.clone(), config.clone());
    plain.call_static(setup, &[]).expect("setup");
    run(&mut plain, 6);

    let mut vm = Vm::new(p, config);
    vm.call_static(setup, &[]).expect("setup");
    run(&mut vm, 2);
    assert_eq!(vm.stats().tib_flips, 0);
    MutationEngine::new(plan, OlcReport::default()).install_online(&mut vm);
    assert!(vm.stats().tib_flips >= 1, "the live worker was not adopted");
    run(&mut vm, 4);
    assert!(vm.stats().special_compiles >= 1, "no special code followed");
    assert_eq!(vm.state.output.checksum, plain.state.output.checksum);
}
