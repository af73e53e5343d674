//! ISSUE-4 acceptance tests for the structured event layer.
//!
//! Two properties anchor the tracer's usefulness and its zero-cost claim:
//!
//! 1. **Causality**: a guard failure produces the `GuardFail` → `Deopt` →
//!    `BaselineResume` subsequence with monotone modeled-cycle stamps and
//!    the right method/object ids, with the receiver's restoring `TibFlip`
//!    in between. The `GuardFail`→`BaselineResume` cycle distance *is* the
//!    deopt latency (it covers the baseline compile stall).
//! 2. **Transparency**: tracing on vs. off leaves the modeled clock, the
//!    op count, and the workload output bit-identical — events stamp the
//!    clock but never charge it, including under fault injection.

use dchm_bytecode::{ClassId, FieldId, MethodId, MethodSig, Program, ProgramBuilder, Ty, Value};
use dchm_core::{HotState, MutableClass, MutationPlan};
use dchm_testutil::{attach_plan, find_workload, harness_config, observe, prepare_with};
use dchm_vm::trace::{Stamped, TraceEvent};
use dchm_vm::{FaultConfig, FaultInjector, Vm, VmConfig};
use dchm_workloads::{catalog, Scale, Workload};

/// The ISSUE-3 deopt scenario: `go` stores to its own state field while a
/// specialized frame for the receiver is live, so the post-store guard
/// fails mid-method (see `tests/deopt.rs` for the semantic assertions).
fn build() -> (Program, ClassId, FieldId, FieldId, MethodId) {
    let mut pb = ProgramBuilder::new();
    let acct = pb.class("Acct").build();
    let s = pb.instance_field(acct, "s", Ty::Int);
    let keep = pb.static_field(acct, "KEEP", Ty::Ref(acct), Value::Null);

    let mut m = pb.ctor(acct, vec![Ty::Int]);
    let this = m.this();
    let k = m.param(0);
    m.put_field(this, s, k);
    m.ret(None);
    m.build();

    let mut m = pb.method(acct, "go", MethodSig::new(vec![Ty::Int], None));
    let this = m.this();
    let v = m.param(0);
    let three = m.imm(3);
    let t = m.reg();
    m.imul(t, v, three);
    m.put_field(this, s, v);
    let r = m.reg();
    m.get_field(r, this, s);
    let u = m.reg();
    m.iadd(u, r, t);
    m.sink_int(u);
    m.ret(None);
    let go = m.build();

    let mut m = pb.static_method(acct, "main", MethodSig::void());
    let o = m.reg();
    let seven = m.imm(7);
    m.new_init(o, acct, vec![seven]);
    m.put_static(keep, o);
    let five = m.imm(5);
    m.call_virtual(None, o, "go", vec![five]);
    let nine = m.imm(9);
    m.call_virtual(None, o, "go", vec![nine]);
    m.ret(None);
    let main = m.build();
    pb.set_entry(main);
    (pb.finish().unwrap(), acct, s, keep, go)
}

fn plan(acct: ClassId, s: FieldId, go: MethodId) -> MutationPlan {
    MutationPlan {
        classes: vec![MutableClass {
            class: acct,
            instance_state_fields: vec![s],
            static_state_fields: vec![],
            hot_states: vec![HotState {
                instance_values: vec![(s, Value::Int(7))],
                static_values: vec![],
                frequency: 1.0,
            }],
            mutable_methods: vec![go],
            field_scores: vec![],
        }],
        mutation_level: 0,
        k: 0,
        emit_guards: true,
    }
}

/// First event at/after index `from` matching `pred`, with its index.
fn find_from<F: Fn(&TraceEvent) -> bool>(
    events: &[Stamped],
    from: usize,
    pred: F,
) -> Option<(usize, Stamped)> {
    events[from..]
        .iter()
        .position(|e| pred(&e.event))
        .map(|i| (from + i, events[from + i]))
}

#[test]
fn guard_fail_deopt_resume_sequence_with_monotone_stamps() {
    let (p, acct, s, keep, go) = build();
    let mut vm = attach_plan(&p, plan(acct, s, go), VmConfig::default());
    vm.enable_tracing(4096);
    vm.run_entry().expect("run must not trap");

    let Value::Ref(obj) = vm.state.get_static(keep) else {
        panic!("KEEP must hold the object");
    };
    let events = vm.trace_events();
    assert!(!events.is_empty(), "tracing was on; events must exist");

    // Global sanity: seq strictly increasing, cycles non-decreasing in
    // emission order (the modeled clock never goes backwards).
    for w in events.windows(2) {
        assert!(w[1].seq > w[0].seq, "seq must be strictly monotone");
        assert!(w[1].cycle >= w[0].cycle, "cycle stamps must be monotone");
    }

    // The lifecycle prefix: the hot method's special version was compiled,
    // and the constructor exit flipped the object into the special TIB.
    let (ci, compile) = find_from(&events, 0, |e| {
        matches!(e, TraceEvent::SpecialCompile { .. })
    })
    .expect("a special version of `go` must be compiled");
    assert_eq!(compile.event.method(), Some(go.0));
    let (ei, enter) = find_from(&events, 0, |e| {
        matches!(e, TraceEvent::StateTransition { entered: true, .. })
    })
    .expect("ctor exit must enter the hot state");
    assert_eq!(enter.event.object(), Some(obj.0));

    // The store `s = 5` fires its patch point first: the engine reads the
    // new state, sees no hot match, and flips the receiver back to the
    // class TIB — so the exiting StateTransition precedes the guard
    // failure in the stream.
    let start = ci.max(ei);
    let (_, exit) = find_from(&events, start, |e| {
        matches!(e, TraceEvent::StateTransition { entered: false, .. })
    })
    .expect("the s=5 store must leave the hot state");
    assert_eq!(exit.event.object(), Some(obj.0));

    // The acceptance subsequence: GuardFail → Deopt → BaselineResume, all
    // for the same method and receiver. They need not be adjacent — the
    // deopt path may compile baseline code in between.
    let (fi, fail) = find_from(&events, start, |e| {
        matches!(e, TraceEvent::GuardFail { .. })
    })
    .expect("the s=5 store must fail its post-store guard");
    let TraceEvent::GuardFail { method, obj: failed_obj, forced, .. } = fail.event else {
        unreachable!()
    };
    assert_eq!(method, go.0, "guard failed in the specialized method");
    assert_eq!(failed_obj, obj.0, "guard failed on the KEEP receiver");
    assert!(!forced, "organic failure, not injected");

    let (di, deopt) = find_from(&events, fi + 1, |e| {
        matches!(e, TraceEvent::Deopt { .. })
    })
    .expect("the failing frame must deoptimize");
    let TraceEvent::Deopt { method, obj: deopt_obj, from_code, to_code } = deopt.event else {
        unreachable!()
    };
    assert_eq!(method, go.0);
    assert_eq!(deopt_obj, obj.0);
    assert_ne!(from_code, to_code, "deopt must move to different code");

    let (_, resume) = find_from(&events, di + 1, |e| {
        matches!(e, TraceEvent::BaselineResume { .. })
    })
    .expect("execution must resume in baseline code");
    let TraceEvent::BaselineResume { method, code, .. } = resume.event else {
        unreachable!()
    };
    assert_eq!(method, go.0);
    assert_eq!(code, to_code, "resume lands in the deopt target");

    // Deopt latency: the resume is stamped after any baseline compile
    // stall, so the GuardFail→BaselineResume cycle distance is exactly the
    // compile billing (zero when level-0 general code is reused as the
    // deopt target, as here — the transition itself is free).
    assert!(resume.cycle >= fail.cycle, "resume cannot precede the failure");
    if vm.stats().deopt_baseline_compiles > 0 {
        assert!(
            resume.cycle > fail.cycle,
            "a billed baseline compile must show up as deopt latency"
        );
    } else {
        assert_eq!(
            resume.cycle, fail.cycle,
            "no compile stall means zero deopt latency"
        );
    }
    assert_eq!(vm.stats().deopts, 1);
    assert_eq!(vm.state.tracer.dropped(), 0, "4096-slot ring must suffice");
}

fn run_mutated(w: &Workload, trace: bool, injector: Option<FaultInjector>) -> Vm {
    let prepared = prepare_with(w, harness_config(w));
    let mut vm = prepared.make_vm(harness_config(w));
    if trace {
        vm.enable_tracing(8192);
    }
    vm.state.injector = injector;
    w.run(&mut vm).expect("mutated run must not trap");
    vm
}

#[test]
fn tracing_leaves_every_workload_bit_identical() {
    for w in catalog(Scale::Small) {
        let off = run_mutated(&w, false, None);
        let on = run_mutated(&w, true, None);
        assert_eq!(
            observe(&on),
            observe(&off),
            "{}: tracing must not move output or the modeled clock",
            w.name
        );
        assert!(
            !on.trace_events().is_empty(),
            "{}: a mutated run must produce events (at minimum compiles)",
            w.name
        );
        assert!(off.trace_events().is_empty(), "tracing-off records nothing");
    }
}

#[test]
fn tracing_is_transparent_under_fault_injection() {
    // Tracing and the fault injector compose: with both on, the run still
    // matches the plain (untraced, uninjected) reference bit-for-bit for
    // transparent faults, and the injected faults show up as events.
    let w = find_workload("SalaryDB");
    let reference = observe(&run_mutated(&w, false, None));
    let cfg = FaultConfig {
        period: 1,
        ..FaultConfig::transparent(42)
    };
    let vm = run_mutated(&w, true, Some(FaultInjector::new(cfg)));
    assert_eq!(observe(&vm), reference, "trace+inject perturbed SalaryDB");

    let inj = vm.state.injector.as_ref().expect("injector survives");
    let injected = inj.gcs + inj.recompiles;
    assert!(injected > 0, "the schedule must have injected something");
    let traced_faults = vm
        .trace_events()
        .iter()
        .filter(|e| matches!(e.event, TraceEvent::FaultInjected { .. }))
        .count() as u64;
    // The ring may have overwritten early faults; everything still held
    // must be a genuine injection.
    assert!(traced_faults > 0, "injected faults must be traced");
    assert!(traced_faults <= injected);
}
