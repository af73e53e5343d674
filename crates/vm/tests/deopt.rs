//! The ISSUE-3 acceptance scenario: a method stores to its own state field
//! while a *specialized frame for that object is live on the stack*. The
//! post-store guard must fail, the frame must deoptimize to baseline code
//! mid-method, the object's TIB must end up restored to the class TIB, and
//! the run's observable output and modeled execution cycles must be
//! bit-identical to a mutation-off run of the same instrumented program.
//!
//! The mutation-off comparator uses the same engine with an identical plan
//! whose `hot_states` list is empty: patch points (and their 3-cycle
//! `Notify*` ops) are instrumented identically, but no special TIB is ever
//! created and no code is specialized. Compile-cycle billing legitimately
//! differs (the technique pays for its special compiles); the *execution*
//! clock and the GC clock must not move by a single tick, because state
//! guards are free (0-cycle) and the deopt transition itself is unbilled.

use dchm_bytecode::{MethodSig, Program, ProgramBuilder, Ty, Value};
use dchm_core::MutationPlan;
use dchm_testutil::{acct_plan as plan, acct_program as build, run_with_plan};
use dchm_vm::{Vm, VmConfig};

fn run(p: &Program, plan: MutationPlan) -> Vm {
    run_with_plan(p, plan, VmConfig::default())
}

#[test]
fn state_store_in_live_specialized_frame_deoptimizes_to_baseline() {
    let (p, acct, s, keep, go) = build();

    let mutated = run(&p, plan(acct, s, go, true, true));
    let off = run(&p, plan(acct, s, go, false, true));

    // The specialized frame hit its post-store guard and deoptimized.
    let st = mutated.stats();
    assert!(st.guards_executed >= 2, "entry + post-store guard");
    assert_eq!(st.guard_failures, 1, "exactly the s=5 store fails");
    assert_eq!(st.deopts, 1);
    assert!(st.special_tibs >= 1, "ctor exit flipped into the hot state");

    // Observable output is bit-identical to the mutation-off run: the
    // deoptimized baseline re-reads s and sinks 5+15, not the stale 7+15.
    assert_eq!(mutated.state.output.text, off.state.output.text);
    assert_eq!(mutated.state.output.checksum, off.state.output.checksum);

    // Modeled execution and GC cycles are identical; only compile billing
    // (special compile + baseline compile for the deopt target) differs.
    assert_eq!(st.exec_cycles, off.stats().exec_cycles);
    assert_eq!(st.gc_cycles, off.stats().gc_cycles);

    // The object's TIB was restored to the class TIB.
    let Value::Ref(obj) = mutated.state.get_static(keep) else {
        panic!("KEEP must hold the object");
    };
    assert_eq!(
        mutated.state.heap.object(obj).tib,
        mutated.state.class_tib(acct),
        "object must leave the special TIB when it leaves the hot state"
    );
}

#[test]
fn without_guards_the_stale_specialized_frame_misbehaves() {
    let (p, acct, s, _, go) = build();

    let unguarded = run(&p, plan(acct, s, go, true, false));
    let off = run(&p, plan(acct, s, go, false, true));

    // No guards were planted, so nothing deoptimized …
    assert_eq!(unguarded.stats().guards_executed, 0);
    assert_eq!(unguarded.stats().deopts, 0);
    // … and the live specialized frame kept running with the stale s==7
    // fold after the store: observable output diverges. This is exactly
    // the wrong-code hazard the guard subsystem exists to close.
    assert_ne!(unguarded.state.output.checksum, off.state.output.checksum);
}

#[test]
fn deopt_is_idempotent_across_repeated_mutations() {
    // Re-enter the hot state and leave it again: every entry re-flips the
    // TIB and every in-frame exit deoptimizes afresh.
    let mut pb = ProgramBuilder::new();
    let acct = pb.class("Acct").build();
    let s = pb.instance_field(acct, "s", Ty::Int);

    let mut m = pb.ctor(acct, vec![Ty::Int]);
    let this = m.this();
    let k = m.param(0);
    m.put_field(this, s, k);
    m.ret(None);
    m.build();

    // flip(v): s = v; sink(s)  — called alternating v=7 (enter hot) and
    // v=1 (leave hot, from inside specialized code once flipped).
    let mut m = pb.method(acct, "flip", MethodSig::new(vec![Ty::Int], None));
    let this = m.this();
    let v = m.param(0);
    m.put_field(this, s, v);
    let r = m.reg();
    m.get_field(r, this, s);
    m.sink_int(r);
    m.ret(None);
    let flip = m.build();

    let mut m = pb.static_method(acct, "main", MethodSig::void());
    let o = m.reg();
    let seven = m.imm(7);
    m.new_init(o, acct, vec![seven]);
    let one = m.imm(1);
    for _ in 0..3 {
        m.call_virtual(None, o, "flip", vec![one]);
        m.call_virtual(None, o, "flip", vec![seven]);
    }
    m.ret(None);
    let main = m.build();
    pb.set_entry(main);
    let p = pb.finish().unwrap();

    let mutated = run(&p, plan(acct, s, flip, true, true));
    let off = run(&p, plan(acct, s, flip, false, true));
    // Each of the three `flip(1)` calls runs in specialized code (the
    // preceding flip(7) re-entered the hot state) and deoptimizes.
    assert_eq!(mutated.stats().deopts, 3);
    assert_eq!(mutated.state.output.checksum, off.state.output.checksum);
    assert_eq!(mutated.stats().exec_cycles, off.stats().exec_cycles);
}
