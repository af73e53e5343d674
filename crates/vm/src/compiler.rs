//! The optimizing compiler driver: lifts bytecode, instruments mutation
//! patch points, inlines (including OLC specialization inlining and the
//! paper's Section 5 inline-vs-specialize trade-off), optionally applies
//! state specialization, and runs the scalar pipeline for the level.

use crate::hooks::{CompilerHints, PatchSpec};
use crate::state::VmState;
use dchm_bytecode::{
    ClassId, FieldId, Instr, MethodId, MethodKind, Op, Program, Reg, SelectorId, Value,
};
use dchm_ir::cost::{op_size, CostModel};
use dchm_ir::passes::inline::{inline_call, CallSite};
use dchm_ir::passes::{run_pipeline, specialize, Bindings, OptConfig};
use dchm_ir::{lift, BlockId, Function, Term};
use std::collections::{HashMap, HashSet};

/// One resume point in a method's *baseline* code version (the pure
/// lift + instrument translation, before inlining, specialization and the
/// scalar pipeline).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DeoptPoint {
    /// Baseline block index.
    pub block: u32,
    /// Baseline op index within that block where execution resumes.
    pub op: u32,
}

/// Per-method deopt side table carried by a guarded specialized compiled
/// method: maps each planted guard id to the baseline coordinate where the
/// frame resumes after deoptimization. Guard coordinates are recorded at
/// insertion time — before any transformation — so they are valid in the
/// baseline version no matter how far the optimizer reshapes the
/// specialized one.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DeoptInfo {
    /// Resume points indexed by guard id.
    pub points: Vec<DeoptPoint>,
}

/// Result of one compilation.
#[derive(Debug)]
pub struct CompileOutcome {
    /// The optimized, executable function.
    pub func: Function,
    /// Modeled machine-code size in bytes.
    pub size_bytes: usize,
    /// Cycles the compilation cost.
    pub compile_cycles: u64,
    /// Deopt side table (guarded specialized compiles only).
    pub deopt: Option<DeoptInfo>,
}

/// Modeled size of a function in bytes.
fn func_size_bytes(f: &Function) -> usize {
    f.blocks
        .iter()
        .map(|b| b.ops.iter().map(op_size).sum::<usize>() + 4)
        .sum()
}

/// Incremental FNV-1a, shared by the compile-environment and state-binding
/// fingerprints of the code cache.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Fnv {
    h: u64,
}

impl Fnv {
    pub(crate) fn new() -> Self {
        Fnv {
            h: 0xcbf2_9ce4_8422_2325,
        }
    }

    pub(crate) fn mix_u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.h ^= b as u64;
            self.h = self.h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds a value in with the same equivalence as [`Value::key_eq`]:
    /// doubles by bit pattern (all NaNs equal their own bit pattern, `-0.0`
    /// distinct from `0.0`).
    pub(crate) fn mix_value(&mut self, v: &Value) {
        match v {
            Value::Int(i) => {
                self.mix_u64(0x11);
                self.mix_u64(*i as u64);
            }
            Value::Double(d) => {
                self.mix_u64(0x22);
                self.mix_u64(d.to_bits());
            }
            Value::Ref(r) => {
                self.mix_u64(0x33);
                self.mix_u64(r.0 as u64);
            }
            Value::Null => self.mix_u64(0x44),
        }
    }

    pub(crate) fn finish(self) -> u64 {
        self.h
    }
}

/// Everything the optimizing compiler reads from the VM, borrowed into one
/// bundle, so a compile can read it while the VM's lift cache is mutated
/// (see `VmState::baseline_for`).
#[derive(Clone, Copy)]
pub struct CompileEnv<'a> {
    /// The program being compiled.
    pub program: &'a Program,
    /// Patch points the compiler must instrument.
    pub patch_spec: &'a PatchSpec,
    /// Mutation-engine compile-time facts (OLC, Section 5 heuristic, guards).
    pub hints: &'a CompilerHints,
    /// Selector -> unique implementation map for CHA-style devirtualization.
    pub unique_impl: &'a HashMap<SelectorId, MethodId>,
    /// `VmConfig::max_inline_size`.
    pub max_inline_size: usize,
}

impl<'a> CompileEnv<'a> {
    /// Borrows the compile-relevant slices of a `VmState`.
    pub fn of(state: &'a VmState) -> Self {
        CompileEnv {
            program: &state.program,
            patch_spec: &state.patch_spec,
            hints: &state.hints,
            unique_impl: &state.unique_impl,
            max_inline_size: state.config.max_inline_size,
        }
    }

    /// FNV-1a fingerprint of every compiler input that can change what code
    /// a given `(method, level, bindings)` request produces: the patch
    /// spec, the hints (OLC tables, Section 5 parameters, guard emission)
    /// and `max_inline_size`, the one settable inlining limit. Hash-map
    /// contents are folded in sorted order so the value is deterministic.
    /// The code cache treats any change of this fingerprint as a full
    /// invalidation event.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv::new();
        let sorted = |set: &HashSet<FieldId>| {
            let mut v: Vec<FieldId> = set.iter().copied().collect();
            v.sort();
            v
        };
        for f in sorted(&self.patch_spec.instance_fields) {
            h.mix_u64(1);
            h.mix_u64(f.index() as u64);
        }
        for f in sorted(&self.patch_spec.static_fields) {
            h.mix_u64(2);
            h.mix_u64(f.index() as u64);
        }
        let mut ctors: Vec<ClassId> = self.patch_spec.ctor_classes.iter().copied().collect();
        ctors.sort_by_key(|c| c.index());
        for c in ctors {
            h.mix_u64(3);
            h.mix_u64(c.index() as u64);
        }
        h.mix_u64(4);
        h.mix_u64(self.hints.k as u64);
        h.mix_u64(self.hints.emit_guards as u64);
        let mut spec: Vec<(MethodId, usize)> = self
            .hints
            .spec_field_count
            .iter()
            .map(|(k, v)| (*k, *v))
            .collect();
        spec.sort();
        for (m, n) in spec {
            h.mix_u64(5);
            h.mix_u64(m.index() as u64);
            h.mix_u64(n as u64);
        }
        let mut olc: Vec<&FieldId> = self.hints.olc.keys().collect();
        olc.sort();
        for k in olc {
            let info = &self.hints.olc[k];
            h.mix_u64(6);
            h.mix_u64(k.index() as u64);
            h.mix_u64(info.ref_field.index() as u64);
            h.mix_u64(info.exact_class.index() as u64);
            let mut bindings: Vec<(FieldId, Value)> =
                info.bindings.iter().map(|(f, v)| (*f, *v)).collect();
            bindings.sort_by_key(|(f, _)| *f);
            for (f, v) in bindings {
                h.mix_u64(f.index() as u64);
                h.mix_value(&v);
            }
        }
        h.mix_u64(7);
        h.mix_u64(self.max_inline_size as u64);
        h.finish()
    }
}

/// Lifts `mid` and instruments its patch points: the *baseline* form every
/// compile of the method starts from, and the unit the VM's lift cache
/// memoizes (one lift shared by the general version and all of its state
/// specializations).
pub fn lift_baseline(env: &CompileEnv<'_>, mid: MethodId) -> Function {
    let md = env.program.method(mid);
    debug_assert!(
        md.kind != MethodKind::Abstract,
        "cannot compile abstract method {}",
        md.name
    );
    let mut f = lift(&md.code, md.num_regs, md.arg_count() as u16);
    instrument(&mut f, env.program, env.patch_spec, mid);
    f
}

/// Compiles `mid` at `level`; `bindings` requests a state-specialized
/// version (the "special compiled code" of the paper).
pub fn compile(
    state: &VmState,
    mid: MethodId,
    level: u8,
    bindings: Option<&Bindings>,
) -> CompileOutcome {
    let env = CompileEnv::of(state);
    let baseline = lift_baseline(&env, mid);
    compile_in(&env, &baseline, mid, level, bindings)
}

/// Compiles `mid` from an already lifted + instrumented `baseline` (see
/// [`lift_baseline`]). Pure with respect to the VM: reads only the
/// [`CompileEnv`].
pub fn compile_in(
    env: &CompileEnv<'_>,
    baseline: &Function,
    mid: MethodId,
    level: u8,
    bindings: Option<&Bindings>,
) -> CompileOutcome {
    let program = env.program;
    let md = program.method(mid);
    let arg_count = md.arg_count() as u16;
    let mut f = baseline.clone();

    // Guards must go in *now*, while the function is still coordinate-
    // identical to the baseline version a deoptimizing frame resumes in.
    let mut deopt = None;
    let mut guarded_fields: Option<HashSet<FieldId>> = None;
    if let Some(b) = bindings {
        if env.hints.emit_guards && !b.is_empty() {
            let has_receiver = md.kind != MethodKind::Static;
            deopt = Some(insert_guards(&mut f, b, has_receiver, arg_count));
            guarded_fields = Some(
                b.instance
                    .keys()
                    .chain(b.statics.keys())
                    .copied()
                    .collect(),
            );
        }
    }

    if level >= 1 {
        inline_pass(
            &mut f,
            program,
            env.patch_spec,
            env.hints,
            env.unique_impl,
            mid,
            env.max_inline_size,
            guarded_fields.as_ref(),
        );
    }

    if let Some(b) = bindings {
        specialize(&mut f, b);
    }

    // Compilation cost scales with the *input* size (after inlining, which
    // is what makes SPECjbb's compile-time increase outpace its code-size
    // increase — Sec. 7.2). Special versions are generated in the same
    // compilation session as the general version ("the specialized versions
    // are generated at the same time", Sec. 3.2.2) and share its front-end
    // analysis, so they are billed at a fraction of a full compile.
    let input_bytes = func_size_bytes(&f);
    let mut compile_cycles = CostModel::compile_cost(input_bytes, level) + 1_000;
    if bindings.is_some() {
        compile_cycles = compile_cycles * 2 / 5;
    }

    run_pipeline(&mut f, &OptConfig::level(level));
    let size_bytes = func_size_bytes(&f);
    CompileOutcome {
        func: f,
        size_bytes,
        compile_cycles,
        deopt,
    }
}

/// Plants state guards into a freshly lifted + instrumented function and
/// builds its deopt side table.
///
/// One guard goes at method entry (resuming at baseline `(0, 0)` with only
/// the arguments live) and one after every store to a bound state field —
/// after the store's `Notify*` patch op when present, so the mutation
/// engine has already reacted (restoring the object's class TIB) by the
/// time the guard re-checks the bindings and deoptimizes.
fn insert_guards(f: &mut Function, b: &Bindings, has_receiver: bool, arg_count: u16) -> DeoptInfo {
    // Bindings are HashMaps; sort so the emitted guard ops (and therefore
    // compiled code and its modeled size) are deterministic.
    let obj = if has_receiver && !b.instance.is_empty() {
        Some(Reg(0))
    } else {
        None
    };
    let mut instance: Vec<(FieldId, Value)> = if obj.is_some() {
        b.instance.iter().map(|(k, v)| (*k, *v)).collect()
    } else {
        Vec::new()
    };
    instance.sort_by_key(|(k, _)| *k);
    let mut statics: Vec<(FieldId, Value)> = b.statics.iter().map(|(k, v)| (*k, *v)).collect();
    statics.sort_by_key(|(k, _)| *k);
    let bound: HashSet<FieldId> = b.instance.keys().chain(b.statics.keys()).copied().collect();
    // Every baseline register is live at a post-store guard (conservative:
    // the deopt remap copies the whole baseline window verbatim).
    let live_prefix = f.num_regs;

    let mut table = DeoptInfo::default();
    for (bi, block) in f.blocks.iter_mut().enumerate() {
        let old_ops = std::mem::take(&mut block.ops);
        let mut new_ops = Vec::with_capacity(old_ops.len() + 1);
        // Position in the *baseline* block: counts every op except the
        // guards themselves (which do not exist in baseline code).
        let mut baseline_idx: u32 = 0;
        let mut iter = old_ops.into_iter().peekable();
        while let Some(op) = iter.next() {
            let bound_store = matches!(
                &op,
                Op::PutField { field, .. } | Op::PutStatic { field, .. }
                    if bound.contains(field)
            );
            new_ops.push(op);
            baseline_idx += 1;
            if bound_store {
                // Keep the Notify (inserted by `instrument`) ahead of the
                // guard: the handler flips TIBs first, then we re-check.
                if matches!(
                    iter.peek(),
                    Some(Op::NotifyInstStore { .. } | Op::NotifyStaticStore { .. })
                ) {
                    new_ops.push(iter.next().expect("peeked"));
                    baseline_idx += 1;
                }
                let guard = table.points.len() as u32;
                table.points.push(DeoptPoint {
                    block: bi as u32,
                    op: baseline_idx,
                });
                new_ops.push(Op::GuardState {
                    obj,
                    instance: instance.clone(),
                    statics: statics.clone(),
                    guard,
                    live_prefix,
                });
            }
        }
        block.ops = new_ops;
    }

    // Entry guard: resume at the very top of baseline code, where only the
    // argument registers hold meaningful values.
    let guard = table.points.len() as u32;
    table.points.push(DeoptPoint { block: 0, op: 0 });
    f.blocks[0].ops.insert(
        0,
        Op::GuardState {
            obj,
            instance,
            statics,
            guard,
            live_prefix: arg_count,
        },
    );
    table
}

/// Inserts `Notify*` patch ops after state-field stores and before
/// constructor returns (paper Fig. 4's instrumentation sites).
fn instrument(f: &mut Function, program: &Program, spec: &PatchSpec, mid: MethodId) {
    if spec.is_empty() {
        return;
    }
    let md = program.method(mid);
    for block in &mut f.blocks {
        let mut ops = Vec::with_capacity(block.ops.len());
        for op in block.ops.drain(..) {
            let notify = match &op {
                Op::PutField { obj, field, .. } if spec.instance_fields.contains(field) => {
                    Some(Op::NotifyInstStore {
                        obj: *obj,
                        class: program.field(*field).owner,
                        field: *field,
                    })
                }
                Op::PutStatic { field, .. } if spec.static_fields.contains(field) => {
                    Some(Op::NotifyStaticStore { field: *field })
                }
                _ => None,
            };
            ops.push(op);
            if let Some(n) = notify {
                ops.push(n);
            }
        }
        block.ops = ops;
        if md.kind == MethodKind::Constructor
            && spec.ctor_classes.contains(&md.owner)
            && matches!(block.term, Term::Ret(_))
        {
            block.ops.push(Op::NotifyCtorExit {
                obj: Reg(0),
                class: md.owner,
            });
        }
    }
}

/// A candidate for inlining found during the scan.
struct Candidate {
    site: CallSite,
    target: MethodId,
    recv: Option<Reg>,
    args: Vec<Reg>,
    dst: Option<Reg>,
    /// Object-lifetime-constant bindings to specialize the callee body with
    /// before splicing (exact-type receiver, Sec. 4/5).
    olc: Option<Bindings>,
}

/// Inlining rounds (call-chain depth) per compile: the value every figure
/// and golden has been measured with; no workload or sweep varies it.
const MAX_INLINE_DEPTH: usize = 2;

#[allow(clippy::too_many_arguments)]
fn inline_pass(
    f: &mut Function,
    program: &Program,
    spec: &PatchSpec,
    hints: &CompilerHints,
    unique_impl: &HashMap<dchm_bytecode::SelectorId, MethodId>,
    mid: MethodId,
    max_size: usize,
    guarded_fields: Option<&HashSet<FieldId>>,
) {
    let mut budget = 12usize;
    for _round in 0..MAX_INLINE_DEPTH {
        let mut progressed = false;
        // Re-scan after every splice: indices shift.
        while budget > 0 {
            let Some(c) =
                find_candidate(f, program, hints, unique_impl, mid, max_size, guarded_fields)
            else {
                break;
            };
            let callee_md = program.method(c.target);
            let mut callee = lift(
                &callee_md.code,
                callee_md.num_regs,
                callee_md.arg_count() as u16,
            );
            instrument(&mut callee, program, spec, c.target);
            if let Some(b) = &c.olc {
                specialize(&mut callee, b);
            }
            let mut arg_regs = Vec::with_capacity(callee.arg_count as usize);
            if let Some(r) = c.recv {
                arg_regs.push(r);
            }
            arg_regs.extend(&c.args);
            if inline_call(f, c.site, &callee, &arg_regs, c.dst).is_err() {
                // Register/block capacity exhausted: stop inlining; the
                // function is already correct without the splice.
                break;
            }
            budget -= 1;
            progressed = true;
        }
        if !progressed {
            break;
        }
    }
}

/// Scans for the first inlinable call site. With `guarded_fields` set (a
/// guarded specialized compile), callees that store any of those state
/// fields are never inlined: such a store inside a spliced body would have
/// no post-store guard, letting the frame keep running stale specialized
/// code undetected.
#[allow(clippy::too_many_arguments)]
fn find_candidate(
    f: &Function,
    program: &Program,
    hints: &CompilerHints,
    unique_impl: &HashMap<dchm_bytecode::SelectorId, MethodId>,
    mid: MethodId,
    max_size: usize,
    guarded_fields: Option<&HashSet<FieldId>>,
) -> Option<Candidate> {
    for (bi, block) in f.blocks.iter().enumerate() {
        for (oi, op) in block.ops.iter().enumerate() {
            let site = CallSite {
                block: BlockId::from_index(bi),
                op_index: oi,
            };
            let cand = match op {
                Op::CallStatic { dst, method, args } => Some(Candidate {
                    site,
                    target: *method,
                    recv: None,
                    args: args.clone(),
                    dst: *dst,
                    olc: None,
                }),
                Op::CallSpecial {
                    dst,
                    class,
                    sel,
                    obj,
                    args,
                } => program.resolve_special(*class, *sel).map(|t| Candidate {
                    site,
                    target: t,
                    recv: Some(*obj),
                    args: args.clone(),
                    dst: *dst,
                    olc: None,
                }),
                Op::CallVirtual {
                    dst,
                    sel,
                    obj,
                    args,
                } => {
                    // Exact-type receiver through an OLC private reference
                    // field beats CHA: it also yields constant bindings.
                    let exact = exact_receiver(block, oi, *obj, hints);
                    match exact {
                        Some(olc_info) => {
                            program.resolve_virtual(olc_info.0, *sel).map(|t| Candidate {
                                site,
                                target: t,
                                recv: Some(*obj),
                                args: args.clone(),
                                dst: *dst,
                                olc: Some(olc_info.1),
                            })
                        }
                        None => unique_impl.get(sel).map(|&t| Candidate {
                            site,
                            target: t,
                            recv: Some(*obj),
                            args: args.clone(),
                            dst: *dst,
                            olc: None,
                        }),
                    }
                }
                _ => None,
            };
            let Some(cand) = cand else { continue };
            if cand.target == mid {
                continue; // no direct recursion
            }
            let callee = program.method(cand.target);
            if callee.kind == MethodKind::Abstract || callee.code.is_empty() {
                continue;
            }
            if callee.code.len() > max_size {
                continue;
            }
            if let Some(bound) = guarded_fields {
                let stores_bound = callee.code.iter().any(|ins| {
                    matches!(
                        ins,
                        Instr::Op(Op::PutField { field, .. } | Op::PutStatic { field, .. })
                            if bound.contains(field)
                    )
                });
                if stores_bound {
                    continue;
                }
            }
            // Section 5 trade-off: for a mutable method with M specializable
            // state fields and no OLC constants, inline only if the call
            // site passes more than M + k constants; otherwise leave the
            // call for state specialization through special TIBs.
            if cand.olc.is_none() {
                if let Some(&m_fields) = hints.spec_field_count.get(&cand.target) {
                    if m_fields > 0 {
                        let n = const_args(block, oi, &cand.args);
                        if (n as i64) <= m_fields as i64 + hints.k {
                            continue;
                        }
                    }
                }
            }
            return Some(cand);
        }
    }
    None
}

/// If `obj` was loaded, within this block and with no intervening
/// redefinition, from a private reference field with OLC info, returns the
/// exact class and the constant bindings.
fn exact_receiver(
    block: &dchm_ir::Block,
    call_idx: usize,
    obj: Reg,
    hints: &CompilerHints,
) -> Option<(ClassId, Bindings)> {
    for prev in block.ops[..call_idx].iter().rev() {
        if prev.def() == Some(obj) {
            if let Op::GetField { field, .. } = prev {
                if let Some(info) = hints.olc.get(field) {
                    let b = Bindings {
                        instance: info.bindings.clone(),
                        ..Default::default()
                    };
                    return Some((info.exact_class, b));
                }
            }
            return None; // redefined by something else
        }
    }
    None
}

/// `N` of the Section 5 heuristic: how many argument registers are defined
/// by constants earlier in the same block.
fn const_args(block: &dchm_ir::Block, call_idx: usize, args: &[Reg]) -> usize {
    let mut n = 0;
    for &a in args {
        for prev in block.ops[..call_idx].iter().rev() {
            if prev.def() == Some(a) {
                if matches!(prev, Op::ConstI { .. } | Op::ConstD { .. }) {
                    n += 1;
                }
                break;
            }
        }
    }
    n
}

/// Helper for the mutation engine: builds [`Bindings`] from plain maps.
pub fn bindings_from(
    instance: &[(FieldId, Value)],
    statics: &[(FieldId, Value)],
) -> Bindings {
    Bindings {
        instance: instance.iter().copied().collect(),
        statics: statics.iter().copied().collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::{VmConfig, VmState};
    use dchm_bytecode::{CmpOp, MethodSig, ProgramBuilder, Ty};

    /// Program with: class C { int s; void set(int v){ s = v; } },
    /// a helper `static int add1(int)`, and a main calling both.
    fn build_state(spec: PatchSpec) -> (VmState, MethodId, MethodId, FieldId, ClassId) {
        let mut pb = ProgramBuilder::new();
        let c = pb.class("C").build();
        let s = pb.instance_field(c, "s", Ty::Int);
        pb.trivial_ctor(c);

        let mut m = pb.method(c, "set", MethodSig::new(vec![Ty::Int], None));
        let this = m.this();
        let v = m.param(0);
        m.put_field(this, s, v);
        m.ret(None);
        m.build();

        let mut m = pb.static_method(c, "add1", MethodSig::new(vec![Ty::Int], Some(Ty::Int)));
        let x = m.param(0);
        let one = m.imm(1);
        let r = m.reg();
        m.iadd(r, x, one);
        m.ret(Some(r));
        let add1 = m.build();

        let mut m = pb.static_method(c, "main", MethodSig::new(vec![], Some(Ty::Int)));
        let obj = m.reg();
        m.new_init(obj, c, vec![]);
        let arg = m.imm(41);
        let out = m.reg();
        m.call_static(Some(out), add1, vec![arg]);
        m.call_virtual(None, obj, "set", vec![out]);
        m.ret(Some(out));
        let main = m.build();
        pb.set_entry(main);
        let p = pb.finish().unwrap();
        let mut st = VmState::new(p, VmConfig::default());
        st.patch_spec = spec;
        (st, main, add1, s, c)
    }

    #[test]
    fn instrumentation_adds_notify_after_store() {
        let mut spec = PatchSpec::default();
        let (st0, _, _, s, c) = build_state(PatchSpec::default());
        spec.instance_fields.insert(s);
        spec.ctor_classes.insert(c);
        drop(st0);
        let (st, _, _, s, c) = build_state(spec);
        let set = st.program.method_by_name(c, "set").unwrap();
        let out = compile(&st, set, 0, None);
        let has_notify = out.func.blocks.iter().any(|b| {
            b.ops.windows(2).any(|w| {
                matches!(w[0], Op::PutField { .. })
                    && matches!(w[1], Op::NotifyInstStore { field, .. } if field == s)
            })
        });
        assert!(has_notify, "{}", out.func);
        // Constructor gets a ctor-exit patch point.
        let ctor = st.program.method_by_name(c, "<init>").unwrap();
        let out = compile(&st, ctor, 0, None);
        let has_ctor_exit = out
            .func
            .blocks
            .iter()
            .any(|b| b.ops.iter().any(|o| matches!(o, Op::NotifyCtorExit { .. })));
        assert!(has_ctor_exit);
    }

    #[test]
    fn no_instrumentation_when_spec_empty() {
        let (st, _, _, _, c) = build_state(PatchSpec::default());
        let set = st.program.method_by_name(c, "set").unwrap();
        let out = compile(&st, set, 0, None);
        for b in &out.func.blocks {
            for op in &b.ops {
                assert!(!matches!(
                    op,
                    Op::NotifyInstStore { .. } | Op::NotifyCtorExit { .. }
                ));
            }
        }
    }

    #[test]
    fn opt1_inlines_static_and_unique_virtual() {
        let (st, main, _, _, _) = build_state(PatchSpec::default());
        let o0 = compile(&st, main, 0, None);
        let o1 = compile(&st, main, 1, None);
        let calls = |f: &Function| {
            f.blocks
                .iter()
                .flat_map(|b| b.ops.iter())
                .filter(|o| o.is_call())
                .count()
        };
        // opt0 keeps calls (ctor + add1 + set); opt1 inlines add1 and set
        // (unique impl) and the trivial ctor.
        assert!(calls(&o0.func) >= 3);
        assert_eq!(calls(&o1.func), 0, "{}", o1.func);
    }

    #[test]
    fn opt2_folds_inlined_constants() {
        let (st, main, _, _, _) = build_state(PatchSpec::default());
        let o2 = compile(&st, main, 2, None);
        // add1(41) folds to 42: a `const 42` exists and no IBin remains.
        let has42 = o2
            .func
            .blocks
            .iter()
            .flat_map(|b| b.ops.iter())
            .any(|o| matches!(o, Op::ConstI { val: 42, .. }));
        assert!(has42, "{}", o2.func);
    }

    #[test]
    fn compile_cost_grows_with_level() {
        let (st, main, _, _, _) = build_state(PatchSpec::default());
        let c0 = compile(&st, main, 0, None).compile_cycles;
        let c2 = compile(&st, main, 2, None).compile_cycles;
        assert!(c2 > c0);
    }

    #[test]
    fn tradeoff_skips_inlining_mutable_class_methods() {
        let (mut st, main, _, _, c) = build_state(PatchSpec::default());
        // Mark set() a mutable method with one specializable field; calls
        // to it with no constant args must NOT be inlined (N=1 const arg
        // vs M+k=1: 1 > 1 is false).
        let set = st.program.method_by_name(c, "set").unwrap();
        st.hints.spec_field_count.insert(set, 1);
        st.hints.k = 0;
        let o1 = compile(&st, main, 1, None);
        let set_calls = o1
            .func
            .blocks
            .iter()
            .flat_map(|b| b.ops.iter())
            .filter(|o| matches!(o, Op::CallVirtual { .. }))
            .count();
        assert_eq!(set_calls, 1, "set() must remain a virtual call");
        // With a strongly negative k, inlining wins again.
        st.hints.k = -10;
        let o1b = compile(&st, main, 1, None);
        let set_calls_b = o1b
            .func
            .blocks
            .iter()
            .flat_map(|b| b.ops.iter())
            .filter(|o| matches!(o, Op::CallVirtual { .. }))
            .count();
        assert_eq!(set_calls_b, 0);
    }

    /// class G { int s; int bump(int v){ s = v; return s; }
    ///           void set2(int v){ s = v; } void work(int v){ set2(v); } }
    /// with `s` registered as a patch-point field.
    fn build_guard_state() -> (VmState, MethodId, MethodId, FieldId) {
        let mut pb = ProgramBuilder::new();
        let c = pb.class("G").build();
        let s = pb.instance_field(c, "s", Ty::Int);
        pb.trivial_ctor(c);

        let mut m = pb.method(c, "bump", MethodSig::new(vec![Ty::Int], Some(Ty::Int)));
        let this = m.this();
        let v = m.param(0);
        m.put_field(this, s, v);
        let r = m.reg();
        m.get_field(r, this, s);
        m.ret(Some(r));
        let bump = m.build();

        let mut m = pb.method(c, "set2", MethodSig::new(vec![Ty::Int], None));
        let this = m.this();
        let v = m.param(0);
        m.put_field(this, s, v);
        m.ret(None);
        m.build();

        let mut m = pb.method(c, "work", MethodSig::new(vec![Ty::Int], None));
        let this = m.this();
        let v = m.param(0);
        m.call_virtual(None, this, "set2", vec![v]);
        m.ret(None);
        let work = m.build();

        let mut m = pb.static_method(c, "main", MethodSig::new(vec![], None));
        m.ret(None);
        let main = m.build();
        pb.set_entry(main);
        let p = pb.finish().unwrap();
        let mut st = VmState::new(p, VmConfig::default());
        st.patch_spec.instance_fields.insert(s);
        (st, bump, work, s)
    }

    #[test]
    fn guards_planted_with_baseline_side_table() {
        let (st, bump, _, s) = build_guard_state();
        let b = bindings_from(&[(s, Value::Int(7))], &[]);
        let out = compile(&st, bump, 2, Some(&b));
        let table = out.deopt.expect("guarded compile must carry a side table");
        // Entry guard is the first op and resumes at baseline (0, 0) with
        // only the arguments (receiver + v) live.
        let entry = &out.func.blocks[0].ops[0];
        let Op::GuardState {
            guard, live_prefix, ..
        } = entry
        else {
            panic!("entry op is not a guard: {entry:?}");
        };
        assert_eq!(table.points[*guard as usize], DeoptPoint { block: 0, op: 0 });
        assert_eq!(*live_prefix, 2, "entry guard keeps only this + v live");
        // The post-store guard resumes in *baseline* code right after the
        // PutField + Notify pair: at the GetField that re-reads the field.
        let baseline = compile(&st, bump, 0, None).func;
        let post = table
            .points
            .iter()
            .find(|p| **p != DeoptPoint { block: 0, op: 0 })
            .expect("post-store guard");
        let ops = &baseline.blocks[post.block as usize].ops;
        assert!(
            matches!(ops[post.op as usize], Op::GetField { .. }),
            "resume op: {:?}",
            ops[post.op as usize]
        );
        assert!(
            matches!(ops[post.op as usize - 1], Op::NotifyInstStore { .. }),
            "guard must sit after the store's notify"
        );
    }

    #[test]
    fn guard_insertion_can_be_disabled() {
        let (mut st, bump, _, s) = build_guard_state();
        st.hints.emit_guards = false;
        let b = bindings_from(&[(s, Value::Int(7))], &[]);
        let out = compile(&st, bump, 2, Some(&b));
        assert!(out.deopt.is_none());
        for block in &out.func.blocks {
            for op in &block.ops {
                assert!(!matches!(op, Op::GuardState { .. }));
            }
        }
    }

    #[test]
    fn guarded_compiles_refuse_to_inline_bound_store_callees() {
        let (st, _, work, s) = build_guard_state();
        let b = bindings_from(&[(s, Value::Int(7))], &[]);
        let calls = |f: &Function| {
            f.blocks
                .iter()
                .flat_map(|bl| bl.ops.iter())
                .filter(|o| o.is_call())
                .count()
        };
        // set2 stores the bound field: a spliced copy would carry no
        // post-store guard, so the guarded compile must keep the call.
        let guarded = compile(&st, work, 2, Some(&b));
        assert!(guarded.deopt.is_some());
        assert!(calls(&guarded.func) >= 1, "{}", guarded.func);
        // With guards off the usual inliner behaviour returns.
        let mut st = st;
        st.hints.emit_guards = false;
        let unguarded = compile(&st, work, 2, Some(&b));
        assert_eq!(calls(&unguarded.func), 0, "{}", unguarded.func);
    }

    #[test]
    fn specialized_compile_is_smaller() {
        // raise()-style method: branch ladder on a state field.
        let mut pb = ProgramBuilder::new();
        let c = pb.class("S").build();
        let g = pb.instance_field(c, "g", Ty::Int);
        pb.trivial_ctor(c);
        let mut m = pb.method(c, "work", MethodSig::new(vec![], Some(Ty::Int)));
        let this = m.this();
        let gv = m.reg();
        m.get_field(gv, this, g);
        let l1 = m.label();
        let r = m.reg();
        m.br_icmp_imm(CmpOp::Ne, gv, 0, l1);
        m.const_i(r, 100);
        m.ret(Some(r));
        m.bind(l1);
        m.const_i(r, 200);
        m.ret(Some(r));
        let work = m.build();
        let p = pb.finish().unwrap();
        let st = VmState::new(p, VmConfig::default());

        let general = compile(&st, work, 2, None);
        let b = bindings_from(&[(g, Value::Int(0))], &[]);
        let special = compile(&st, work, 2, Some(&b));
        assert!(special.size_bytes < general.size_bytes);
        // The specialized version returns the constant directly.
        assert!(special
            .func
            .blocks
            .iter()
            .flat_map(|x| x.ops.iter())
            .any(|o| matches!(o, Op::ConstI { val: 100, .. })));
        assert!(!special
            .func
            .blocks
            .iter()
            .flat_map(|x| x.ops.iter())
            .any(|o| matches!(o, Op::GetField { .. })));
    }
}
