//! `pipeline::prepare` profiles once. Everything it returns must equal what
//! the paper's two-run flow (hot-method run → EQ 1 → value-sampling run on
//! the candidates) produces, and the reasons that holds are pinned one by
//! one: the watch set is a superset of every possible candidate set, the
//! observer is invisible to the modeled clock, and fields that are only
//! stored cost nothing.

use dchm::bytecode::{CmpOp, FieldId, IBinOp, MethodSig, Program, ProgramBuilder, Ty};
use dchm::core::pipeline::{prepare, PipelineConfig};
use dchm::core::{analyze_olc, build_plan, find_state_fields, AnalysisConfig, FieldSites};
use dchm::profile::{
    profile, profile_field_values, profile_hot_methods, HotMethodReport, ValueProfiler,
};
use dchm::vm::Vm;
use dchm::workloads::{catalog, Driver, Scale, Workload};
use dchm_fuzz::gen::Rng;
use std::cell::Cell;
use std::collections::HashSet;

/// A `Gate` whose `eval()` branches on `kind` and bumps `evals`, which is
/// stored on every call but never branch-tested.
fn gates() -> (Workload, FieldId, FieldId) {
    let mut pb = ProgramBuilder::new();
    let gate = pb.class("Gate").build();
    let kind = pb.instance_field(gate, "kind", Ty::Int);
    let evals = pb.instance_field(gate, "evals", Ty::Int);
    let mut m = pb.ctor(gate, vec![Ty::Int]);
    let this = m.this();
    let k = m.param(0);
    m.put_field(this, kind, k);
    m.ret(None);
    m.build();
    let mut m = pb.method(gate, "eval", MethodSig::new(vec![Ty::Int, Ty::Int], Some(Ty::Int)));
    let this = m.this();
    let (a, b) = (m.param(0), m.param(1));
    let n = m.reg();
    m.get_field(n, this, evals);
    m.iadd_imm(n, n, 1);
    m.put_field(this, evals, n);
    let k = m.reg();
    m.get_field(k, this, kind);
    let l_or = m.label();
    let out = m.reg();
    m.br_icmp_imm(CmpOp::Ne, k, 0, l_or);
    m.ibin(IBinOp::And, out, a, b);
    m.ret(Some(out));
    m.bind(l_or);
    m.ibin(IBinOp::Or, out, a, b);
    m.ret(Some(out));
    m.build();
    let mut m = pb.static_method(gate, "main", MethodSig::void());
    let g0 = m.reg();
    let zero = m.imm(0);
    m.new_init(g0, gate, vec![zero]);
    let i = m.reg();
    m.const_i(i, 0);
    let head = m.label();
    let done = m.label();
    m.bind(head);
    let lim = m.imm(4000);
    m.br_icmp(CmpOp::Ge, i, lim, done);
    let one = m.imm(1);
    let v = m.reg();
    m.call_virtual(Some(v), g0, "eval", vec![i, one]);
    m.sink_int(v);
    m.iadd_imm(i, i, 1);
    m.jmp(head);
    m.bind(done);
    m.ret(None);
    let main = m.build();
    pb.set_entry(main);
    let w = Workload {
        name: "Gates",
        program: pb.finish().unwrap(),
        heap_bytes: 50 << 20,
        driver: Driver::Entry,
    };
    (w, kind, evals)
}

/// The seven Table-1 programs at small scale plus the hand program.
fn subjects() -> Vec<Workload> {
    let mut all = catalog(Scale::Small);
    all.push(gates().0);
    all
}

fn watch_set(p: &Program) -> HashSet<FieldId> {
    FieldSites::scan(p).branch_tested().collect()
}

#[test]
fn prepare_equals_the_two_run_composition_and_drives_once() {
    let analysis = AnalysisConfig::default();
    for w in subjects() {
        let p = &w.program;
        let drive = |vm: &mut Vm| w.run(vm).expect("profiling run");

        let hot = profile_hot_methods(p.clone(), w.vm_config(), drive);
        let candidates = find_state_fields(p, &hot, &analysis);
        let fields = || candidates.iter().map(|c| c.field);
        let values = profile_field_values(p.clone(), w.vm_config(), fields(), drive);
        let plan = build_plan(p, &hot, &values, &analysis);
        let targets = plan.classes.iter().map(|c| c.class).collect();
        let olc = analyze_olc(p, Some(&targets));
        assert!(!plan.classes.is_empty(), "{}: nothing to compare", w.name);

        let calls = Cell::new(0);
        let cfg = PipelineConfig {
            profile_vm: w.vm_config(),
            ..Default::default()
        };
        let prepared = prepare(p.clone(), &cfg, |vm| {
            calls.set(calls.get() + 1);
            drive(vm);
        });
        assert_eq!(calls.get(), 1, "{}: driver calls", w.name);
        assert_eq!(prepared.hot, hot, "{}: hot report", w.name);
        assert_eq!(prepared.plan, plan, "{}: plan", w.name);
        assert_eq!(prepared.olc.infos, olc.infos, "{}: olc", w.name);

        // The wide run, cut down to the candidates, is the second run.
        let (wide_hot, mut wide) = profile(p.clone(), w.vm_config(), watch_set(p), drive);
        wide.retain_fields(|f| fields().any(|c| c == f));
        assert_eq!(wide_hot, hot, "{}: hot report of the observed run", w.name);
        assert_eq!(wide, values, "{}: value report", w.name);
    }
}

#[test]
fn watch_set_covers_every_possible_candidate_set() {
    // Uniform in [0, 1) from the top 53 bits of one draw.
    let mut rng = Rng::new(0x9e37_79b9_7f4a_7c15);
    let mut rand = move || (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
    let default = AnalysisConfig::default();
    for w in subjects() {
        let p = &w.program;
        let n = p.methods.len();
        let watch = watch_set(p);
        let mut vectors = vec![vec![0.0; n]];
        for m in (0..n).step_by(n.div_ceil(12)) {
            let mut one_hot = vec![0.0; n];
            one_hot[m] = 1.0;
            vectors.push(one_hot);
        }
        for _ in 0..24 {
            // Half the methods cold, the rest anywhere in [0, 1).
            vectors.push((0..n).map(|_| (rand() * 2.0 - 1.0).max(0.0)).collect());
        }
        for hotness in vectors {
            let hot = HotMethodReport {
                hotness,
                ..Default::default()
            };
            for min_score in [f64::NEG_INFINITY, 0.0, default.min_score] {
                for min_method_hotness in [0.0, default.min_method_hotness] {
                    let cfg = AnalysisConfig {
                        min_score,
                        min_method_hotness,
                        ..default.clone()
                    };
                    for c in find_state_fields(p, &hot, &cfg) {
                        assert!(watch.contains(&c.field), "{}: {c:?} not watched", w.name);
                    }
                }
            }
        }
    }
}

#[test]
fn wide_observer_is_invisible_to_the_modeled_run() {
    for w in subjects() {
        let mut plain = Vm::new(w.program.clone(), w.vm_config());
        w.run(&mut plain).unwrap();
        let mut observed = Vm::new(w.program.clone(), w.vm_config());
        observed.attach_observer(Box::new(ValueProfiler::new(watch_set(&w.program))));
        w.run(&mut observed).unwrap();
        assert_eq!(observed.cycles(), plain.cycles(), "{}", w.name);
        assert_eq!(observed.stats(), plain.stats(), "{}", w.name);
        assert_eq!(
            observed.state.output.checksum, plain.state.output.checksum,
            "{}",
            w.name
        );
    }
}

#[test]
fn stored_but_never_tested_field_is_neither_watched_nor_reported() {
    let (w, kind, evals) = gates();
    let watch = watch_set(&w.program);
    assert!(watch.contains(&kind) && !watch.contains(&evals));
    let (_, values) = profile(w.program.clone(), w.vm_config(), watch, |vm| {
        w.run(vm).unwrap();
    });
    assert_eq!(values.histogram(kind).total, 1);
    assert!(!values.fields.contains_key(&evals));
    assert!(values.by_class.keys().all(|(_, f)| *f == kind));
}
