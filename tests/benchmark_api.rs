//! The workspace surface the `benchmark/` crate builds against.
//!
//! `benchmark/` is its own workspace (it path-depends on `crates/*`), so no
//! `--workspace` command compiles it, and a renamed function or a field that
//! turned private there shows up as a benchmark that yields no metrics.
//! [`surface`] names every item `benchmark/src` uses, with the argument and
//! field types it relies on; it is never called — compiling it is the test.

#![allow(unused_variables)]

use dchm_bytecode::{
    assemble, print_asm, verify_program, CmpOp, ElemKind, FieldId, IBinOp, MethodId, MethodKind,
    MethodSig, Op, Program, ProgramBuilder, Ty, Value,
};
use dchm_core::pipeline::{prepare, PipelineConfig, Prepared};
use dchm_core::{
    analyze_olc, build_plan, find_state_fields, synthesize_plan, AnalysisConfig, HotState,
    MutableClass, MutationEngine, MutationPlan, OlcReport,
};
use dchm_fuzz::gen::Rng;
use dchm_ir::passes::inline::find_call_site;
use dchm_ir::passes::{
    constprop, copyprop, dce, inline_call, lvn, simplify, specialize, strength, Bindings,
};
use dchm_ir::{lift, Function};
use dchm_profile::{profile_field_values, profile_hot_methods};
use dchm_testutil::fleet::{run_jobs_fleet, FleetJob, JobReport};
use dchm_testutil::{harness_config, storm_config, storm_salarydb};
use dchm_vm::compiler::{bindings_from, compile, CompileEnv};
use dchm_vm::fleet::{run_fleet, FleetConfig, FleetRun, ShardCtx};
use dchm_vm::{
    binding_fingerprint, FaultConfig, FaultInjector, SharedCodeCache, Vm, VmConfig, VmStats,
};
use dchm_workloads::util::add_rng;
use dchm_workloads::{catalog, jbb, Driver, Scale, Workload};
use std::rc::Rc;
use std::sync::Arc;

fn surface(seed: u64, workers: usize) {
    // `programs.rs`: subjects from the catalog, the fuzzer's generator and
    // the benchmark's own builder-written `AllocChurn`.
    let mut rng = Rng::new(seed);
    let draw: u64 = rng.below(4);
    let spec = dchm_fuzz::generate(seed);
    let weight: u64 = u64::from(spec.iters) * spec.actions.len() as u64;
    let lowered: Program = dchm_fuzz::lower(&spec).expect("lowers");

    let all: Vec<Workload> = catalog(Scale::Small);
    let mut jbb: Workload = jbb::build(jbb::JbbVariant::Jbb2005, Scale::Full);
    jbb.heap_bytes /= 32;
    let name: &'static str = jbb.name;
    let w = Workload {
        name: "w",
        program: lowered,
        heap_bytes: VmConfig::default().heap_bytes,
        driver: Driver::Entry,
    };
    let config: VmConfig = harness_config(&w);
    let tuned = VmConfig {
        sample_period: 600,
        opt1_samples: 2,
        opt2_samples: 4,
        fuel: Some(20_000_000),
        code_cache_capacity: 0,
        ..VmConfig::default()
    };
    let inline_limit: usize = tuned.max_inline_size;
    let (storm, storm_plan): (Program, MutationPlan) = storm_salarydb(200, 2000);
    let mut governed: VmConfig = storm_config();
    governed.governor.enabled = false;
    let fault = FaultConfig {
        period: 1,
        ..FaultConfig::guard_failures(seed)
    };

    let mut pb = ProgramBuilder::new();
    let rng = add_rng(&mut pb, 7i64);
    let node = pb.class("Node").build();
    let kind: FieldId = pb.instance_field(node, "kind", Ty::Int);
    let next: FieldId = pb.instance_field(node, "next", Ty::Ref(node));
    let mut m = pb.ctor(node, vec![Ty::Int]);
    let (this, k) = (m.this(), m.param(0));
    m.put_field(this, kind, k);
    m.ret(None);
    m.build();
    let mut m = pb.method(node, "visit", MethodSig::new(vec![], Some(Ty::Int)));
    let (this, v, out, l) = (m.this(), m.reg(), m.reg(), m.label());
    m.get_field(v, this, kind);
    m.br_icmp_imm(CmpOp::Ne, v, 0, l);
    m.iadd_imm(out, v, 1);
    m.bind(l);
    let three = m.imm(3);
    m.imul(out, v, three);
    m.ibin(IBinOp::Xor, out, v, three);
    m.irem(out, v, three);
    m.iadd(out, out, v);
    m.ret(Some(out));
    let visit: MethodId = m.build();
    let main_class = pb.class("Main").build();
    let mut m = pb.static_method(main_class, "main", MethodSig::void());
    let (n, head, flag, arr, top) = (m.reg(), m.reg(), m.reg(), m.reg(), m.label());
    m.const_i(n, 2);
    m.const_null(head);
    m.bind(top);
    m.new_init(head, node, vec![n]);
    m.mov(arr, head);
    m.ref_eq(flag, arr, head);
    m.br_if(flag, top);
    m.br_icmp(CmpOp::Ge, n, n, top);
    m.new_arr(arr, ElemKind::Ref, n);
    m.astore(arr, n, head);
    m.call_virtual(Some(n), head, "visit", vec![]);
    m.call_static(Some(n), rng.next, vec![n]);
    m.jmp(top);
    m.sink_int(n);
    m.ret(None);
    let main = m.build();
    pb.set_entry(main);
    let program: Program = pb.finish().expect("verifies");

    let plan = MutationPlan {
        classes: vec![MutableClass {
            class: node,
            instance_state_fields: vec![kind],
            static_state_fields: vec![],
            hot_states: vec![HotState {
                instance_values: vec![(kind, Value::Int(0))],
                static_values: vec![],
                frequency: 0.25,
            }],
            mutable_methods: vec![visit],
            field_scores: vec![],
        }],
        mutation_level: 2,
        k: 0,
        emit_guards: true,
    };

    // `stages.rs`: the whole path, staged and through `pipeline::prepare`.
    let text: String = print_asm(&w.program);
    let assembled: Result<Program, String> = assemble(&text).map_err(|e| format!("assemble: {e}"));
    let verified: Result<(), String> = verify_program(&program).map_err(|e| format!("verify: {e}"));

    let driver = |vm: &mut Vm| {
        let _ = w.run(vm).map_err(|e| format!("trapped: {e}"));
    };
    let analysis = AnalysisConfig::default();
    let given: (MutationPlan, OlcReport) = (plan, OlcReport::default());
    let hot = profile_hot_methods(program.clone(), config.clone(), driver);
    let candidates = find_state_fields(&program, &hot, &analysis);
    let values = profile_field_values(
        program.clone(),
        config.clone(),
        candidates.iter().map(|c| c.field),
        driver,
    );
    let staged: MutationPlan = build_plan(&program, &hot, &values, &analysis);
    let targets = staged.classes.iter().map(|c| c.class).collect();
    let olc: OlcReport = analyze_olc(&program, Some(&targets));
    let synthesized: MutationPlan = synthesize_plan(&program, &dchm_fuzz::synth_config());
    let cfg = PipelineConfig {
        profile_vm: config.clone(),
        ..Default::default()
    };
    let prepared: Prepared = prepare(program.clone(), &cfg, driver);
    let same: bool = prepared.plan == staged;
    let (plan, olc): (MutationPlan, OlcReport) = (prepared.plan, prepared.olc);
    let states: usize = plan.total_states();

    let mut vm: Vm = MutationEngine::new(plan.clone(), olc).attach(program.clone(), config.clone());
    vm.state.injector = Some(FaultInjector::new(fault));
    vm.enable_tracing(64 * 1024);
    let off: Vm = Vm::new(program, config.clone());
    let ran: Result<(), String> = w.run(&mut vm).map_err(|e| format!("trapped: {e}"));
    let (checksum, out_text): (u64, &String) = (vm.state.output.checksum, &vm.state.output.text);
    let (ops, clock): (u64, u64) = (vm.stats().ops_executed, vm.cycles());
    let compile_ns: u64 = vm.state.compile_wall_nanos;
    let (lift_hits, lift_misses): (u64, u64) =
        (vm.state.lift_cache.hits, vm.state.lift_cache.misses);
    let (gcs, allocated): (u64, u64) = (
        vm.state.heap.stats.gc_count,
        vm.state.heap.stats.bytes_allocated,
    );
    let s: &VmStats = vm.stats();
    let counts: [u64; 20] = [
        s.ic_hits,
        s.ic_misses,
        s.ic_invalidations,
        s.samples_taken,
        s.compiles_by_level[2],
        s.special_compiles,
        s.general_code_bytes() + s.special_code_bytes,
        s.code_cache_hits,
        s.code_cache_misses,
        s.tib_flips,
        s.special_tib_bytes,
        s.special_tibs,
        s.deopts,
        s.guards_executed,
        s.guard_failures,
        s.deopt_baseline_compiles,
        s.specials_throttled,
        s.specials_blacklisted,
        s.compile_quarantines,
        s.ops_executed,
    ];

    // `probes.rs`: single layers called directly.
    let program: Rc<Program> = Rc::clone(&vm.state.program);
    let m = MethodId::from_index(0);
    let md = program.method(m);
    let concrete: bool = md.kind != MethodKind::Abstract && !md.code.is_empty();
    let mut f: Function = lift(&md.code, md.num_regs, md.arg_count() as u16);
    let lifted_ops: usize = f.size();

    let eligible = |op: &Op| matches!(op, Op::CallStatic { .. });
    if let Some((site, Op::CallStatic { dst, method, args })) = find_call_site(&f, eligible) {
        let callee = f.clone();
        let spliced: bool = inline_call(&mut f, site, &callee, &args, dst).is_ok();
    }
    let hs = &plan.classes[0].hot_states[0];
    let b: Bindings = bindings_from(&hs.instance_values, &hs.static_values);
    let level: u8 = plan.mutation_level;
    let rewrites: usize = specialize(&mut f, &b);
    let passes: [fn(&mut Function) -> usize; 6] = [
        constprop::constprop,
        lvn::lvn,
        copyprop::copyprop,
        strength::strength_reduce,
        dce::dce,
        simplify::simplify_cfg,
    ];

    let general_ops: usize = compile(&vm.state, m, 2, None).func.size();
    let special = compile(&vm.state, m, level, Some(&b));
    let general = vm.state.recompile(m, 2);
    let special_cid = vm.state.compile_special(m, level, &b);
    let env_fp: u64 = CompileEnv::of(&vm.state).fingerprint();
    let none_fp: u64 = binding_fingerprint(None);
    let probed = vm.state.code_cache.probe(m.0, 2, none_fp, env_fp);

    let census = vm.state.census();
    let full: bool = vm.state.heap.needs_gc(1024);
    let arr_ok: bool = vm.state.alloc_array(ElemKind::Int, 62i64).is_ok();
    vm.state.gc_now();
    if let Some(class) = program.concrete_classes().next() {
        let obj_ok: bool = vm.state.alloc_object(class).is_ok();
    }
    let instrs: usize = program.methods.iter().map(|m| m.code.len()).sum();

    // `workloads.rs`: fleet batches over a shared cache.
    let job: FleetJob = FleetJob::for_workload(&w);
    let jobs = vec![job];
    let shared: Arc<SharedCodeCache> = Arc::new(SharedCodeCache::new(1024));
    let reports: Vec<JobReport> = run_jobs_fleet(&FleetConfig::dynamic(1), &jobs, Some(&shared));
    let r = &reports[0];
    let fingerprint: (u64, u64, u64) = (r.obs.checksum, r.obs.ops, r.obs.clock);
    let stats: &VmStats = &r.stats;
    let host: (u64, u64, u64) = (r.compile_wall_nanos, r.shared_hits, r.shared_misses);

    let run: FleetRun<(usize, JobReport)> = run_fleet(
        &FleetConfig::dynamic(workers),
        &jobs,
        |shard: &ShardCtx, job: &FleetJob| {
            let mut vm: Vm = job.prepared.make_vm_shared(job.config.clone(), &shared);
            let ran = job.workload.run(&mut vm);
            assert!(ran.is_ok(), "{} trapped: {ran:?}", job.name);
            (shard.shard, JobReport::of(&vm))
        },
    );
    let results: Vec<(usize, JobReport)> = run.results;
}

#[test]
fn benchmark_surface_compiles() {
    // Naming the function is enough: it was type-checked to get here.
    let _: fn(u64, usize) = surface;
}
