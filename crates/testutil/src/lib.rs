#![warn(missing_docs)]

//! # dchm-testutil
//!
//! Shared plumbing for the differential test suites and the conformance
//! fuzzer. `crates/vm/tests/{deopt,fault_injection,codecache,trace}.rs`
//! each used to carry a private copy of the same observable-fingerprint
//! struct, harness VM cadence and prepared-pipeline boilerplate; they and
//! the `dchm-fuzz` driver now share this one, so a harness fix (or a new
//! observable) lands in every differential check at once.
//!
//! The central contract is [`Obs`]: the complete modeled fingerprint of a
//! finished run. Two runs that must be "bit-identical" in the paper's
//! sense compare equal here — output text, checksum, the modeled clock and
//! its execution/GC split, and the op count.

pub mod fleet;

use dchm_bytecode::{
    ClassId, CmpOp, ElemKind, FieldId, MethodId, MethodSig, Program, ProgramBuilder, Ty, Value,
};
use dchm_core::pipeline::{prepare, PipelineConfig, Prepared};
use dchm_core::{HotState, MutableClass, MutationEngine, MutationPlan, OlcReport};
use dchm_vm::{Vm, VmConfig};
use dchm_workloads::{catalog, Scale, Workload};

/// Observable fingerprint of one finished run.
///
/// Equality is the strongest comparison the suites use: output text,
/// checksum, the full modeled clock, its execution and GC components, and
/// the executed-op count. Suites that may only compare *output* (e.g.
/// forced-guard-failure runs, which legitimately re-bill execution)
/// compare the [`Obs::text`]/[`Obs::checksum`] fields directly.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Obs {
    /// The VM output log.
    pub text: String,
    /// The VM output checksum (sink intrinsics fold into this).
    pub checksum: u64,
    /// Total modeled cycles (execution + compile + GC).
    pub clock: u64,
    /// Application execution cycles.
    pub exec_cycles: u64,
    /// Collector cycles.
    pub gc_cycles: u64,
    /// Executed bytecode ops.
    pub ops: u64,
}

/// Extracts the fingerprint of a finished run.
pub fn observe(vm: &Vm) -> Obs {
    let s = vm.stats();
    Obs {
        text: vm.state.output.text.clone(),
        checksum: vm.state.output.checksum,
        clock: vm.cycles(),
        exec_cycles: s.exec_cycles,
        gc_cycles: s.gc_cycles,
        ops: s.ops_executed,
    }
}

/// The determinism-harness VM cadence: sampling fast enough that
/// small-scale workloads reach opt2 early, like the paper's warm-up.
pub fn harness_config(w: &Workload) -> VmConfig {
    let mut c = w.vm_config();
    c.sample_period = 15_000;
    c.opt1_samples = 3;
    c.opt2_samples = 8;
    c
}

/// [`harness_config`] with the heap enlarged so organic GC never runs —
/// the fault-injection suites need injected GCs to be the only collector
/// activity, or billing comparisons would drown in cadence shifts.
pub fn big_heap_config(w: &Workload) -> VmConfig {
    let mut c = harness_config(w);
    c.heap_bytes = 512 << 20;
    c
}

/// Looks up a small-scale workload from the Table 1 catalog by name.
///
/// # Panics
/// Panics if no such workload exists — a typo in a test, not a runtime
/// condition.
pub fn find_workload(name: &str) -> Workload {
    catalog(Scale::Small)
        .into_iter()
        .find(|w| w.name == name)
        .unwrap_or_else(|| panic!("workload {name} not in catalog"))
}

/// Runs the offline pipeline (profile → analyze → plan) for `w` under an
/// explicit profiling VM config.
///
/// # Panics
/// Panics if the profiling run traps.
pub fn prepare_with(w: &Workload, profile_vm: VmConfig) -> Prepared {
    let cfg = PipelineConfig {
        profile_vm,
        ..Default::default()
    };
    let wl = w.clone();
    prepare(w.program.clone(), &cfg, move |vm| {
        wl.run(vm).expect("profiling run must not trap");
    })
}

/// [`prepare_with`] under the standard [`harness_config`] cadence.
pub fn prepare_workload(w: &Workload) -> Prepared {
    prepare_with(w, harness_config(w))
}

/// A VM with `plan` attached via a fresh [`MutationEngine`] (empty OLC
/// report) — the hand-built-plan pattern of the deopt suite and the fuzz
/// oracle, which synthesize plans instead of profiling for them.
pub fn attach_plan(p: &Program, plan: MutationPlan, cfg: VmConfig) -> Vm {
    MutationEngine::new(plan, OlcReport::default()).attach(p.clone(), cfg)
}

/// Attaches `plan` and runs the program entry to completion.
///
/// # Panics
/// Panics if the run traps; use [`attach_plan`] + `run_entry` when a trap
/// is an expected outcome.
pub fn run_with_plan(p: &Program, plan: MutationPlan, cfg: VmConfig) -> Vm {
    let mut vm = attach_plan(p, plan, cfg);
    vm.run_entry().expect("run must not trap");
    vm
}

/// The deopt-storm scenario of the resilience suites: SalaryDB's Fig. 2
/// shape (a 4-way `grade` branch ladder in `raise()`) with one hostile
/// twist — `raise()` re-stores `grade` with its own current value on every
/// call. The store is semantically a no-op, but it re-arms the mutation
/// engine: after a (forced) guard failure deoptimizes the frame and resets
/// the object's TIB, the store's patch point flips the object straight back
/// onto its special TIB, so under `FaultConfig::guard_failures` at period 1
/// every single `raise()` call deopts — a sustained storm the resilience
/// governor must damp and an ungoverned VM grinds through forever.
///
/// `raise()` also carries a block of dead integer arithmetic: pure ops
/// whose results are never used, which `dce` removes at opt1+ but the
/// level-0 baseline executes in full. That is the storm's price under
/// tiering — every deoptimized call finishes in padded baseline code,
/// while a site the governor pins to general code runs the slim optimized
/// version (once the adaptive system has promoted `raise`; see
/// [`storm_config`]). Under a sustained storm the ungoverned VM is stuck
/// at the baseline tier forever.
///
/// Returns the program plus a hand-written plan (grades 0–3 as the four hot
/// states of `raise`, specialization at opt0, guards on) so the scenario
/// needs no profiling run and is bit-reproducible.
pub fn storm_salarydb(employees: i64, iters: i64) -> (Program, MutationPlan) {
    let mut pb = ProgramBuilder::new();
    let sal = pb.class("SalaryEmployee").build();
    let grade = pb.instance_field(sal, "grade", Ty::Int);
    let salary = pb.instance_field(sal, "salary", Ty::Double);

    let mut m = pb.ctor(sal, vec![Ty::Int]);
    let this = m.this();
    let g = m.param(0);
    m.put_field(this, grade, g);
    m.ret(None);
    m.build();

    // raise(): the paper's branch ladder, then the hostile self-store.
    let mut m = pb.method(sal, "raise", MethodSig::void());
    let this = m.this();
    let g = m.reg();
    m.get_field(g, this, grade);
    let s = m.reg();
    m.get_field(s, this, salary);
    let l1 = m.label();
    let l2 = m.label();
    let l3 = m.label();
    let done = m.label();
    m.br_icmp_imm(CmpOp::Ne, g, 0, l1);
    let k = m.imm_d(1.0);
    m.dadd(s, s, k);
    m.jmp(done);
    m.bind(l1);
    m.br_icmp_imm(CmpOp::Ne, g, 1, l2);
    let k = m.imm_d(2.0);
    m.dadd(s, s, k);
    m.jmp(done);
    m.bind(l2);
    m.br_icmp_imm(CmpOp::Ne, g, 2, l3);
    let k = m.imm_d(1.01);
    m.dmul(s, s, k);
    m.jmp(done);
    m.bind(l3);
    let k = m.imm_d(1.02);
    m.dmul(s, s, k);
    m.bind(done);
    // Dead pure arithmetic: 40 multiplies whose results are never used.
    // `dce` strips the whole chain at opt1+, the baseline executes it —
    // the modeled (and host) cost of being deoptimized to the slow tier.
    let three = m.imm(3);
    let mut pad = m.reg();
    m.imul(pad, three, three);
    for _ in 0..39 {
        let next = m.reg();
        m.imul(next, pad, three);
        pad = next;
    }
    m.put_field(this, salary, s);
    // The no-op state re-store that keeps the storm alive.
    m.put_field(this, grade, g);
    m.ret(None);
    let raise = m.build();

    let mut m = pb.static_method(sal, "main", MethodSig::void());
    let n = m.imm(employees);
    let arr = m.reg();
    m.new_arr(arr, ElemKind::Ref, n);
    let i = m.reg();
    m.const_i(i, 0);
    let fill_head = m.label();
    let fill_done = m.label();
    m.bind(fill_head);
    m.br_icmp(CmpOp::Ge, i, n, fill_done);
    let four = m.imm(4);
    let g = m.reg();
    m.irem(g, i, four);
    let o = m.reg();
    m.new_obj(o, sal);
    m.call_ctor(o, sal, vec![g]);
    m.astore(arr, i, o);
    m.iadd_imm(i, i, 1);
    m.jmp(fill_head);
    m.bind(fill_done);

    let it = m.reg();
    m.const_i(it, 0);
    let ohead = m.label();
    let odone = m.label();
    m.bind(ohead);
    let lim = m.imm(iters);
    m.br_icmp(CmpOp::Ge, it, lim, odone);
    let j = m.reg();
    m.const_i(j, 0);
    let ihead = m.label();
    let idone = m.label();
    m.bind(ihead);
    m.br_icmp(CmpOp::Ge, j, n, idone);
    let o = m.reg();
    m.aload(o, arr, j);
    m.call_virtual(None, o, "raise", vec![]);
    m.iadd_imm(j, j, 1);
    m.jmp(ihead);
    m.bind(idone);
    m.iadd_imm(it, it, 1);
    m.jmp(ohead);
    m.bind(odone);

    let j = m.reg();
    m.const_i(j, 0);
    let shead = m.label();
    let sdone = m.label();
    m.bind(shead);
    m.br_icmp(CmpOp::Ge, j, n, sdone);
    let o = m.reg();
    m.aload(o, arr, j);
    let sv = m.reg();
    m.get_field(sv, o, salary);
    m.sink_double(sv);
    m.iadd_imm(j, j, 1);
    m.jmp(shead);
    m.bind(sdone);
    m.ret(None);
    let main = m.build();
    pb.set_entry(main);
    let program = pb.finish().expect("storm SalaryDB verifies");

    let plan = MutationPlan {
        classes: vec![MutableClass {
            class: sal,
            instance_state_fields: vec![grade],
            static_state_fields: vec![],
            hot_states: (0..4)
                .map(|v| HotState {
                    instance_values: vec![(grade, Value::Int(v))],
                    static_values: vec![],
                    frequency: 0.25,
                })
                .collect(),
            mutable_methods: vec![raise],
            field_scores: vec![],
        }],
        // Specialize at opt0 so special code exists from the first compile
        // — the storm needs no adaptive warm-up.
        mutation_level: 0,
        k: 0,
        emit_guards: true,
    };
    (program, plan)
}

/// The storm-bench VM cadence: sampling aggressive enough that `raise` is
/// promoted to opt2 within the first few percent of a [`storm_salarydb`]
/// run. The storm's tier gap (padded baseline vs slim opt2 general code)
/// only opens once the method is promoted; before that, both the governed
/// and ungoverned runs storm between identical level-0 versions.
pub fn storm_config() -> VmConfig {
    VmConfig {
        sample_period: 2_000,
        opt1_samples: 2,
        opt2_samples: 4,
        ..Default::default()
    }
}

/// The deopt scenario: `go` stores its own state field while its specialized
/// frame is live, with `t = v*3` computed before the store and used after it.
///
/// ```text
/// class Acct { int s; static Acct KEEP;
///   Acct(int k){ s = k; }
///   void go(int v){ int t = v*3; s = v; sink(s + t); } }
/// main: o = new Acct(7); KEEP = o; o.go(5); o.go(9);
/// ```
///
/// Returns `(program, Acct, s, KEEP, go)`.
pub fn acct_program() -> (Program, ClassId, FieldId, FieldId, MethodId) {
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

/// A plan binding `s == 7` as the single hot state of `Acct`. With
/// `hot_states: false` the same classes/fields are declared (identical
/// instrumentation) but nothing is ever specialized.
pub fn acct_plan(acct: ClassId, s: FieldId, go: MethodId, hot_states: bool, emit_guards: bool) -> MutationPlan {
    MutationPlan {
        classes: vec![MutableClass {
            class: acct,
            instance_state_fields: vec![s],
            static_state_fields: vec![],
            hot_states: if hot_states {
                vec![HotState {
                    instance_values: vec![(s, Value::Int(7))],
                    static_values: vec![],
                    frequency: 1.0,
                }]
            } else {
                vec![]
            },
            mutable_methods: vec![go],
            field_scores: vec![],
        }],
        // Specialize at opt0 so the special body is op-for-op the baseline
        // plus guards plus state-field folds — the exec clocks then compare
        // exactly (no inlining reshapes the prefix).
        mutation_level: 0,
        k: 0,
        emit_guards,
    }
}

/// Renders the tail of a traced run's event stream — the post-mortem
/// attached to differential mismatches.
fn trace_tail(vm: &Vm, n: usize) -> String {
    use std::fmt::Write as _;
    let tail = vm.state.tracer.last(n);
    let mut out = String::new();
    let _ = writeln!(out, "--- last {} trace events before divergence ---", tail.len());
    for ev in &tail {
        let _ = writeln!(out, "  seq {:>6}  cycle {:>10}  {:?}", ev.seq, ev.cycle, ev.event);
    }
    if vm.state.tracer.dropped() > 0 {
        let _ = writeln!(out, "  ({} older events overwritten)", vm.state.tracer.dropped());
    }
    out
}

/// Dumps the traced event tail, the lowered code of the frame a trap left
/// behind (if any), the heap & state census and the top profile cells to
/// stderr, then panics with `msg`.
pub fn fail_with_trace(vm: &Vm, msg: String) -> ! {
    eprint!("{}", trace_tail(vm, 50));
    if let Some(fr) = vm.state.frames.last() {
        let name = vm.state.method_display_name(fr.method);
        eprintln!("top frame: {name} ({:?}) at pc {}", fr.cid, fr.pc);
        eprint!("{}", vm.state.compiled(fr.cid).lin);
    }
    eprintln!("{}", vm.state.census());
    if vm.state.profiler.enabled() {
        eprintln!("{}", vm.profile());
    }
    panic!("{msg}");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_roundtrip_on_a_workload() {
        let w = find_workload("SalaryDB");
        let prepared = prepare_workload(&w);
        let mut vm = prepared.make_vm(harness_config(&w));
        w.run(&mut vm).expect("run");
        let a = observe(&vm);
        assert!(a.clock > 0 && a.ops > 0);
        assert_eq!(a.clock, vm.cycles());
        // Deterministic VM: a second identical run fingerprints equally.
        let mut vm2 = prepared.make_vm(harness_config(&w));
        w.run(&mut vm2).expect("run");
        assert_eq!(a, observe(&vm2));
    }

    #[test]
    fn big_heap_config_only_grows_the_heap() {
        let w = find_workload("SimLogic");
        let a = harness_config(&w);
        let b = big_heap_config(&w);
        assert_eq!(b.sample_period, a.sample_period);
        assert!(b.heap_bytes >= a.heap_bytes);
    }

    #[test]
    #[should_panic(expected = "not in catalog")]
    fn unknown_workload_panics() {
        let _ = find_workload("NoSuchWorkload");
    }
}
