//! Direct probes of single layers: timed calls into public functions of
//! the measured program, made from outside it on one subject at a time.
//! Each probe is one span; its timings and counts are summed over the
//! workload's subjects into a [`Sums`] table keyed by metric name.

use crate::programs::Subject;
use crate::span::Recorder;
use dchm_bytecode::{ElemKind, MethodId, MethodKind, Op, Program};
use dchm_core::{MutationEngine, MutationPlan, OlcReport};
use dchm_ir::passes::inline::find_call_site;
use dchm_ir::passes::{
    constprop, copyprop, dce, inline_call, lvn, simplify, specialize, strength, Bindings,
};
use dchm_ir::{lift, Function};
use dchm_vm::compiler::{bindings_from, compile, CompileEnv};
use dchm_vm::{binding_fingerprint, Vm, VmConfig};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Sums of probe timings (microseconds) and counts, by metric name.
#[derive(Clone, Debug, Default)]
pub struct Sums(BTreeMap<&'static str, f64>);

impl Sums {
    /// Adds `v` to `key`.
    pub fn add(&mut self, key: &'static str, v: f64) {
        *self.0.entry(key).or_insert(0.0) += v;
    }

    /// The sum for `key` (0 when nothing was added).
    pub fn get(&self, key: &str) -> f64 {
        self.0.get(key).copied().unwrap_or(0.0)
    }
}

fn us(t: Instant) -> f64 {
    t.elapsed().as_nanos() as f64 / 1e3
}

/// Methods that have code to lift and compile.
fn concrete_methods(p: &Program) -> Vec<MethodId> {
    (0..p.methods.len())
        .map(MethodId::from_index)
        .filter(|&m| {
            let md = p.method(m);
            md.kind != MethodKind::Abstract && !md.code.is_empty()
        })
        .collect()
}

fn lift_method(p: &Program, m: MethodId) -> Function {
    let md = p.method(m);
    lift(&md.code, md.num_regs, md.arg_count() as u16)
}

/// `(method, level, bindings)` of every special version the plan asks for.
fn special_requests(plan: &MutationPlan) -> Vec<(MethodId, u8, Bindings)> {
    let mut out = Vec::new();
    for mc in &plan.classes {
        for hs in &mc.hot_states {
            let b = bindings_from(&hs.instance_values, &hs.static_values);
            out.extend(
                mc.mutable_methods
                    .iter()
                    .map(|&m| (m, plan.mutation_level, b.clone())),
            );
        }
    }
    out
}

/// A VM with the plan attached and nothing run: the compiler environment
/// (patch points, hints) a real run compiles under.
fn attached_vm(program: &Program, plan: &MutationPlan, olc: &OlcReport, config: VmConfig) -> Vm {
    MutationEngine::new(plan.clone(), olc.clone()).attach(program.clone(), config)
}

/// `ir`: lift every method, then call each pass directly on the lifted
/// functions, pass-major and in pipeline order so a pass that shrinks the
/// IR leaves less for the passes after it.
pub fn probe_ir(rec: &mut Recorder, program: &Program, plan: &MutationPlan, sums: &mut Sums) {
    let methods = concrete_methods(program);

    let o = rec.open("ir.lift");
    let t = Instant::now();
    let mut funcs: Vec<Function> = methods.iter().map(|&m| lift_method(program, m)).collect();
    sums.add("ir.lift_us", us(t));
    rec.close(o);
    sums.add("ir.lift_methods", methods.len() as f64);
    sums.add(
        "ir.lift_ops",
        funcs.iter().map(Function::size).sum::<usize>() as f64,
    );

    // Inlining works on its own copies: splice the first eligible static
    // call of every method (the VM's own candidate search is private).
    let mut inlined: Vec<Function> = funcs.clone();
    let eligible = |op: &Op| match op {
        Op::CallStatic { method, .. } => {
            let md = program.method(*method);
            !md.code.is_empty() && md.code.len() <= VmConfig::default().max_inline_size
        }
        _ => false,
    };
    let o = rec.open("ir.pass.inline");
    for f in &mut inlined {
        let Some((site, Op::CallStatic { dst, method, args })) = find_call_site(f, eligible) else {
            continue;
        };
        let callee = lift_method(program, method);
        let t = Instant::now();
        let spliced = inline_call(f, site, &callee, &args, dst).is_ok();
        sums.add("ir.pass.inline_us", us(t));
        sums.add("ir.pass.inline_rewrites", f64::from(u8::from(spliced)));
    }
    rec.close(o);
    black_box(&inlined);

    let o = rec.open("ir.pass.specialize");
    for (m, _, b) in special_requests(plan) {
        if let Some(i) = methods.iter().position(|&x| x == m) {
            let mut f = funcs[i].clone();
            let t = Instant::now();
            let n = specialize(&mut f, &b);
            sums.add("ir.pass.specialize_us", us(t));
            sums.add("ir.pass.specialize_rewrites", n as f64);
            black_box(&f);
        }
    }
    rec.close(o);

    type Pass = (
        &'static str,
        &'static str,
        &'static str,
        fn(&mut Function) -> usize,
    );
    let passes: [Pass; 6] = [
        (
            "ir.pass.constprop",
            "ir.pass.constprop_us",
            "ir.pass.constprop_rewrites",
            constprop::constprop,
        ),
        (
            "ir.pass.lvn",
            "ir.pass.lvn_us",
            "ir.pass.lvn_rewrites",
            lvn::lvn,
        ),
        (
            "ir.pass.copyprop",
            "ir.pass.copyprop_us",
            "ir.pass.copyprop_rewrites",
            copyprop::copyprop,
        ),
        (
            "ir.pass.strength",
            "ir.pass.strength_us",
            "ir.pass.strength_rewrites",
            strength::strength_reduce,
        ),
        (
            "ir.pass.dce",
            "ir.pass.dce_us",
            "ir.pass.dce_rewrites",
            dce::dce,
        ),
        (
            "ir.pass.simplify_cfg",
            "ir.pass.simplify_cfg_us",
            "ir.pass.simplify_cfg_rewrites",
            simplify::simplify_cfg,
        ),
    ];
    for (span, us_key, rewrites_key, pass) in passes {
        let o = rec.open(span);
        let t = Instant::now();
        let n: usize = funcs.iter_mut().map(pass).sum();
        sums.add(us_key, us(t));
        rec.close(o);
        sums.add(rewrites_key, n as f64);
    }
    black_box(&funcs);
}

/// `vm.compiler`: `compiler::compile` called directly for every method at
/// every level, and for every special version the plan asks for.
pub fn probe_compiler(
    rec: &mut Recorder,
    s: &Subject,
    program: &Program,
    plan: &MutationPlan,
    olc: &OlcReport,
    sums: &mut Sums,
) {
    const LEVEL_KEYS: [(&str, &str, &str); 3] = [
        (
            "vm.compiler.compile_l0",
            "vm.compiler.compile_us_l0",
            "ir.ops_after_l0",
        ),
        (
            "vm.compiler.compile_l1",
            "vm.compiler.compile_us_l1",
            "ir.ops_after_l1",
        ),
        (
            "vm.compiler.compile_l2",
            "vm.compiler.compile_us_l2",
            "ir.ops_after_l2",
        ),
    ];
    let vm = attached_vm(program, plan, olc, s.config.clone());
    let methods = concrete_methods(program);
    for (level, (span, us_key, ops_key)) in LEVEL_KEYS.into_iter().enumerate() {
        let o = rec.open(span);
        for &m in &methods {
            let t = Instant::now();
            let out = compile(&vm.state, m, level as u8, None);
            sums.add(us_key, us(t));
            sums.add(ops_key, out.func.size() as f64);
        }
        rec.close(o);
    }
    let o = rec.open("vm.compiler.special");
    for (m, level, b) in special_requests(plan) {
        let t = Instant::now();
        let out = compile(&vm.state, m, level, Some(&b));
        sums.add("vm.compiler.special_us", us(t));
        black_box(out);
    }
    rec.close(o);
}

/// One sweep of the VM's caching compile entry points: every method at
/// levels 0–2 via `VmState::recompile`, every plan state via
/// `compile_special`.
fn sweep(vm: &mut Vm, methods: &[MethodId], specials: &[(MethodId, u8, Bindings)]) {
    for &m in methods {
        for level in 0..3 {
            black_box(vm.state.recompile(m, level));
        }
    }
    for (m, level, b) in specials {
        black_box(vm.state.compile_special(*m, *level, b));
    }
}

/// `vm.codecache`: the sweep at capacity 0 (the write path: every request
/// compiles), the same sweep repeated at the default capacity (the read
/// path: every request hits), and direct probes of the filled cache.
pub fn probe_codecache(
    rec: &mut Recorder,
    s: &Subject,
    program: &Program,
    plan: &MutationPlan,
    olc: &OlcReport,
    sums: &mut Sums,
) {
    let methods = concrete_methods(program);
    let specials = special_requests(plan);

    let mut cold = attached_vm(
        program,
        plan,
        olc,
        VmConfig {
            code_cache_capacity: 0,
            ..s.config.clone()
        },
    );
    let o = rec.open("vm.codecache.cold_sweep");
    let t = Instant::now();
    sweep(&mut cold, &methods, &specials);
    sums.add("vm.codecache.cold_sweep_us", us(t));
    rec.close(o);

    let mut warm = attached_vm(program, plan, olc, s.config.clone());
    sweep(&mut warm, &methods, &specials);
    let o = rec.open("vm.codecache.warm_sweep");
    let t = Instant::now();
    sweep(&mut warm, &methods, &specials);
    sums.add("vm.codecache.warm_sweep_us", us(t));
    rec.close(o);

    const ROUNDS: usize = 64;
    let env_fp = CompileEnv::of(&warm.state).fingerprint();
    let none_fp = binding_fingerprint(None);
    let o = rec.open("vm.codecache.probe");
    let t = Instant::now();
    for _ in 0..ROUNDS {
        for &m in &methods {
            black_box(warm.state.code_cache.probe(m.0, 2, none_fp, env_fp));
        }
    }
    sums.add("vm.codecache.probe_us", us(t));
    rec.close(o);
    sums.add("vm.codecache.probe_calls", (ROUNDS * methods.len()) as f64);
}

/// `vm.heap`: direct calls on the populated heap a run left behind.
pub fn probe_heap(rec: &mut Recorder, vm: &mut Vm, sums: &mut Sums) {
    let o = rec.open("vm.heap.census");
    let t = Instant::now();
    black_box(vm.state.census());
    sums.add("vm.heap.census_us", us(t));
    rec.close(o);

    // Collections as a run pays for them: each finds the headroom (or
    // half a megabyte of it, on heaps that never fill) full of garbage.
    const COLLECTIONS: usize = 3;
    const GARBAGE_ELEMS: i64 = 62;
    const GARBAGE_BYTES: usize = 16 + 8 * GARBAGE_ELEMS as usize;
    for _ in 0..COLLECTIONS {
        let mut filled = 0;
        while filled < (512 << 10) && !vm.state.heap.needs_gc(2 * GARBAGE_BYTES) {
            if vm.state.alloc_array(ElemKind::Int, GARBAGE_ELEMS).is_err() {
                break;
            }
            filled += GARBAGE_BYTES;
        }
        let o = rec.open("vm.heap.gc_now");
        let t = Instant::now();
        vm.state.gc_now();
        sums.add("vm.heap.gc_now_us", us(t));
        rec.close(o);
    }
    sums.add("vm.heap.gc_now_calls", COLLECTIONS as f64);

    // Allocate into the room the collections above left; stop early
    // instead of failing on a heap that is full of live data.
    const ALLOCATIONS: usize = 512;
    let Some(class) = vm.state.program.concrete_classes().next() else {
        return;
    };
    let o = rec.open("vm.heap.alloc_object");
    let t = Instant::now();
    let mut done = 0;
    while done < ALLOCATIONS && vm.state.alloc_object(class).is_ok() {
        done += 1;
    }
    sums.add("vm.heap.alloc_object_us", us(t));
    rec.close(o);
    sums.add("vm.heap.alloc_object_calls", done as f64);
}

/// `vm.interp.construct_us`: `Vm::new` alone, no plan.
pub fn probe_construct(rec: &mut Recorder, s: &Subject, program: &Program, sums: &mut Sums) {
    let (program, config) = (program.clone(), s.config.clone());
    let o = rec.open("vm.interp.construct");
    let t = Instant::now();
    let vm = Vm::new(program, config);
    sums.add("vm.interp.construct_us", us(t));
    rec.close(o);
    black_box(vm);
}
