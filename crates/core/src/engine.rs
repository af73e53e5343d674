//! The online mutation engine: the paper's *distributed dynamic class
//! mutation algorithm* (Figures 4 and 5).
//!
//! Responsibilities, by trigger:
//!
//! * **Constructor exit / instance state-field assignment** (Fig. 4, top &
//!   middle): read the object's instance state fields; if they match a hot
//!   state's instance part, flip the object's TIB pointer to the matching
//!   special TIB, otherwise back to the class TIB.
//! * **Static state-field assignment** (Fig. 4, bottom): re-evaluate which
//!   hot states' static parts currently hold and repoint mutable-method
//!   entries in special TIBs (or the class TIB for classes with no instance
//!   state, or the JTOC for static/private methods) between special and
//!   general compiled code.
//! * **Recompilation of a mutable method at the mutation level** (Fig. 5):
//!   generate one specialized version per hot state and install per the
//!   current static state. General code propagates to subclasses (done by
//!   the VM); special code never does (Fig. 6).

use crate::olc::OlcReport;
use crate::plan::{HotState, MutationPlan};
use dchm_bytecode::value::ObjRef;
use dchm_bytecode::{ClassId, FieldId, MethodId, MethodKind, Value};
use dchm_ir::passes::Bindings;
use dchm_vm::trace::{TraceEvent, NO_ID};
use dchm_vm::{CodeSlot, CompiledId, MutationHandler, PatchSpec, TibId, Vm, VmConfig, VmState};
use std::collections::HashMap;

/// Per-mutable-method runtime bookkeeping.
#[derive(Debug)]
struct MethodRt {
    method: MethodId,
    /// vtable slot for virtual methods; `None` for statically-bound ones
    /// (static methods and private instance methods).
    vslot: Option<u32>,
    is_static: bool,
    is_private_instance: bool,
    /// Special compiled code per hot state (generated at mutation level).
    special: Vec<Option<CompiledId>>,
}

/// Per-mutable-class runtime bookkeeping, resolved once at install so a
/// patch-point delivery neither hashes nor allocates.
#[derive(Debug)]
struct ClassRt {
    class: ClassId,
    class_tib: TibId,
    inst_fields: Vec<FieldId>,
    states: Vec<HotState>,
    /// Distinct instance parts among the hot states, each field as its
    /// storage slot in the object.
    inst_parts: Vec<Vec<(usize, Value)>>,
    /// Hot state -> instance part index.
    state_part: Vec<usize>,
    /// One special TIB per instance part (empty for static-only classes).
    special_tibs: Vec<TibId>,
    methods: Vec<MethodRt>,
    /// Static-part satisfaction per hot state as of the last refresh —
    /// only used to emit class-wide `StateTransition` trace events on
    /// toggles (tracing is host-side; this never affects installs).
    prev_statics_ok: Vec<bool>,
}

impl ClassRt {
    /// The special code of `m` to install: that of the first hot state (of
    /// instance part `part`, when one is given) whose static part holds and
    /// whose special version exists and is usable per the governor.
    fn pick(
        &self,
        vm: &VmState,
        m: &MethodRt,
        part: Option<usize>,
        statics_ok: &[bool],
    ) -> Option<CompiledId> {
        (0..self.states.len())
            .filter(|&s| statics_ok[s] && part.is_none_or(|p| self.state_part[s] == p))
            .filter_map(|s| m.special[s])
            .find(|&cid| vm.special_usable(cid))
    }
}

/// The mutation engine. Create with [`MutationEngine::new`], then either
/// attach it to a VM via [`MutationEngine::attach`] or install it manually
/// with [`MutationEngine::install`] + [`Vm::set_handler`].
#[derive(Debug)]
pub struct MutationEngine {
    plan: MutationPlan,
    olc: OlcReport,
    rt: Vec<ClassRt>,
    /// Class id -> index into `rt`, for the classes whose instances can
    /// flip (those with special TIBs); one entry per class of the program.
    flip_rt: Vec<Option<usize>>,
    /// Static field id -> dependent class indices; one entry per field of
    /// the program.
    static_dep: Vec<Vec<usize>>,
    /// Which hot states' static parts hold: `eval_statics`' kept buffer.
    statics_ok: Vec<bool>,
    /// mutable method -> (class rt index, method rt index).
    method_index: HashMap<MethodId, (usize, usize)>,
    installed: bool,
}

impl MutationEngine {
    /// Creates an engine from a plan and OLC analysis results.
    pub fn new(plan: MutationPlan, olc: OlcReport) -> Self {
        MutationEngine {
            plan,
            olc,
            rt: Vec::new(),
            flip_rt: Vec::new(),
            static_dep: Vec::new(),
            statics_ok: Vec::new(),
            method_index: HashMap::new(),
            installed: false,
        }
    }

    /// Convenience: build a VM with this engine installed and attached.
    pub fn attach(mut self, program: dchm_bytecode::Program, config: VmConfig) -> Vm {
        let mut vm = Vm::new(program, config);
        self.install(&mut vm.state);
        vm.set_handler(Box::new(self));
        vm
    }

    /// Installs the plan into the VM state: patch spec, compiler hints,
    /// special TIBs. Must run before execution starts.
    ///
    /// # Panics
    /// Panics if called twice.
    pub fn install(&mut self, vm: &mut VmState) {
        assert!(!self.installed, "engine installed twice");
        self.installed = true;

        let mut spec = PatchSpec::default();
        self.flip_rt = vec![None; vm.program.classes.len()];
        self.static_dep = vec![Vec::new(); vm.program.fields.len()];
        for (ci, mc) in self.plan.classes.iter().enumerate() {
            spec.instance_fields.extend(mc.instance_state_fields.iter().copied());
            spec.static_fields.extend(mc.static_state_fields.iter().copied());
            if mc.has_instance_state() {
                spec.ctor_classes.insert(mc.class);
            }
            vm.mark_mutable_class(mc.class);
            // Section 5 `M`: per mutable method, the state fields it reads.
            for &mm in &mc.mutable_methods {
                let count = spec_fields_read(
                    &vm.program,
                    mm,
                    &mc.instance_state_fields,
                    &mc.static_state_fields,
                );
                if count > 0 {
                    vm.hints.spec_field_count.insert(mm, count);
                }
            }
            for &f in &mc.static_state_fields {
                self.static_dep[f.index()].push(ci);
            }

            // Distinct instance parts -> special TIBs.
            let mut inst_parts: Vec<Vec<(usize, Value)>> = Vec::new();
            let mut state_part = Vec::with_capacity(mc.hot_states.len());
            for st in &mc.hot_states {
                let slot = |&(f, v)| (vm.program.field(f).slot as usize, v);
                let part: Vec<(usize, Value)> = st.instance_values.iter().map(slot).collect();
                let pos = inst_parts.iter().position(|p| parts_eq(p, &part));
                let idx = match pos {
                    Some(i) => i,
                    None => {
                        inst_parts.push(part);
                        inst_parts.len() - 1
                    }
                };
                state_part.push(idx);
            }
            let special_tibs: Vec<TibId> = if mc.has_instance_state() {
                (0..inst_parts.len())
                    .map(|i| vm.create_special_tib(mc.class, i))
                    .collect()
            } else {
                Vec::new()
            };
            if !special_tibs.is_empty() {
                self.flip_rt[mc.class.index()] = Some(ci);
            }

            let methods: Vec<MethodRt> = mc
                .mutable_methods
                .iter()
                .enumerate()
                .map(|(mi, &m)| {
                    let md = vm.program.method(m);
                    let vslot = if md.is_virtual() {
                        vm.program.class(mc.class).vtable_slot(md.selector)
                    } else {
                        None
                    };
                    self.method_index.insert(m, (ci, mi));
                    MethodRt {
                        method: m,
                        vslot,
                        is_static: md.kind == MethodKind::Static,
                        is_private_instance: md.kind == MethodKind::Instance && vslot.is_none(),
                        special: vec![None; mc.hot_states.len()],
                    }
                })
                .collect();

            self.rt.push(ClassRt {
                class: mc.class,
                class_tib: vm.class_tib(mc.class),
                inst_fields: mc.instance_state_fields.clone(),
                states: mc.hot_states.clone(),
                inst_parts,
                state_part,
                special_tibs,
                methods,
                prev_statics_ok: Vec::new(),
            });
            // Seed from the statics as they stand at install so trace
            // events report genuine toggles, not the initial condition.
            eval_statics(&mut self.statics_ok, &self.rt[ci].states, vm);
            self.rt[ci].prev_statics_ok.clone_from(&self.statics_ok);
        }
        vm.patch_spec = spec;
        vm.hints.k = self.plan.k;
        vm.hints.emit_guards = self.plan.emit_guards;
        for (f, info) in &self.olc.infos {
            vm.hints.olc.insert(*f, info.clone());
        }
        // Baseline census at plan install: attribution tooling diffs later
        // snapshots against this one to see what mutation changed.
        vm.trace_census();
    }

    /// The plan this engine runs.
    pub fn plan(&self) -> &MutationPlan {
        &self.plan
    }

    /// Installs this engine into a VM that is *already running*. The plan
    /// itself is built offline as usual; building it inside the running VM
    /// (the paper's Sec. 9 future work) is not reproduced. The install:
    ///
    /// 1. installs the plan (patch spec, hints, special TIBs);
    /// 2. re-instruments every already-compiled method that needs patch
    ///    points or specialization, by recompiling it at its current level
    ///    (frames executing old code finish on it — no on-stack
    ///    replacement, exactly like recompilation in the paper);
    /// 3. adopts pre-existing objects: every live instance of a mutable
    ///    class whose fields match a hot state gets its TIB flipped now;
    /// 4. becomes the VM's mutation handler.
    ///
    /// Runs between calls only (there is no on-stack replacement): frames a
    /// trapped call left for post-mortem are dropped first.
    ///
    /// # Panics
    /// Panics if the engine was already installed.
    pub fn install_online(mut self, vm: &mut Vm) {
        vm.state.drop_frames();
        self.install(&mut vm.state);

        // Re-instrument affected compiled methods.
        let program = vm.state.program.clone();
        let spec = vm.state.patch_spec.clone();
        let mutable: std::collections::HashSet<MethodId> =
            self.method_index.keys().copied().collect();
        for (mi, md) in program.methods.iter().enumerate() {
            let mid = MethodId::from_index(mi);
            let Some(level) = vm.state.level_of(mid) else {
                continue; // not compiled yet; lazy compilation picks up the spec
            };
            let needs = mutable.contains(&mid)
                || (md.kind == MethodKind::Constructor && spec.ctor_classes.contains(&md.owner))
                || md.code.iter().any(|i| {
                    matches!(
                        i,
                        dchm_bytecode::Instr::Op(dchm_bytecode::Op::PutField { field, .. })
                            if spec.instance_fields.contains(field)
                    ) || matches!(
                        i,
                        dchm_bytecode::Instr::Op(dchm_bytecode::Op::PutStatic { field, .. })
                            if spec.static_fields.contains(field)
                    )
                });
            if needs {
                vm.state.recompile(mid, level);
            }
        }
        // Deliver the recompilation events to ourselves (we are not the
        // handler yet), generating specials for hot methods.
        for (mid, level) in vm.state.take_recompile_events() {
            self.on_recompiled(&mut vm.state, mid, level);
        }

        // Adopt objects allocated before the plan existed.
        self.adopt_objects(&mut vm.state);
        // Post-adoption census: captures how many pre-existing objects the
        // online install moved into special states.
        vm.state.trace_census();
        vm.set_handler(Box::new(self));
    }

    /// Flips the TIB of every live instance of a mutable class according to
    /// its *current* field values.
    fn adopt_objects(&mut self, vm: &mut VmState) {
        let candidates: Vec<ObjRef> = vm
            .heap
            .iter_live_objects()
            .filter(|(_, class)| self.flip_rt[class.index()].is_some())
            .map(|(obj, _)| obj)
            .collect();
        for obj in candidates {
            self.update_object_tib(vm, obj);
        }
    }

    // -------------------------------------------------------------
    // Internals
    // -------------------------------------------------------------

    /// Fig. 4 (top/middle): repoint `obj`'s TIB per its instance state.
    fn update_object_tib(&mut self, vm: &mut VmState, obj: ObjRef) {
        let o = vm.heap.object(obj);
        let Some(ci) = self.flip_rt[o.class.index()] else {
            return; // subclass instances are never mutated (Fig. 6)
        };
        let current = o.tib;
        let matched = self.rt[ci].inst_parts.iter().position(|part| {
            part.iter().all(|&(slot, v)| o.fields[slot].key_eq(v))
        });
        let target = match matched {
            Some(p) => {
                // Flip-in re-sync: once the governor has pinned a special
                // (throttle/blacklist) this part's slots may disagree with
                // the current verdicts — make them agree before any object
                // dispatches through the TIB.
                self.resync_part_slots(vm, ci, p);
                self.rt[ci].special_tibs[p]
            }
            None => self.rt[ci].class_tib,
        };
        if current != target {
            vm.set_object_tib(obj, target);
        }
    }

    /// Recomputes the mutable-method slots of the special TIB for instance
    /// part `p` from the current static state and governor verdicts —
    /// refresh_class's per-part arm, filtered by
    /// [`VmState::special_usable`].
    ///
    /// Until the governor first pins a special ([`VmState::has_pinned`])
    /// there is nothing to restore: every special is usable, so `pick`
    /// returns what it returned to the last `refresh_class` — which runs
    /// after every event that moves an input of `pick` (static state store,
    /// new specials) — and each slot already holds it; a general install
    /// reaches the slots that fall back to general code by inheritance. A
    /// release build leaves at once; a debug build walks the slots and
    /// asserts that none changes.
    fn resync_part_slots(&mut self, vm: &mut VmState, ci: usize, p: usize) {
        let quiet = !vm.has_pinned();
        if quiet && !cfg!(debug_assertions) {
            return;
        }
        eval_statics(&mut self.statics_ok, &self.rt[ci].states, vm);
        let rt = &self.rt[ci];
        let tib = rt.special_tibs[p];
        for m in &rt.methods {
            let Some(vslot) = m.vslot else { continue };
            let slot = rt.pick(vm, m, Some(p), &self.statics_ok);
            let wrote = vm.set_tib_slot(tib, vslot, slot.map_or(CodeSlot::Lazy, CodeSlot::Code));
            debug_assert!(!(quiet && wrote), "no pin yet, but slot {vslot} of {tib:?} was stale");
        }
    }

    /// Reinstalls mutable-method code pointers for one class according to
    /// the current static state (Fig. 4 bottom / Fig. 5 install step). A
    /// special-TIB slot with no usable special inherits the class TIB's
    /// entry; only slots whose value changes are written.
    fn refresh_class(&mut self, vm: &mut VmState, ci: usize) {
        eval_statics(&mut self.statics_ok, &self.rt[ci].states, vm);
        let statics_ok = &self.statics_ok;
        if vm.tracer.on() {
            // Class-wide transitions: a hot state's *static* part became
            // (un)satisfied. `obj` is NO_ID — the flip applies to every
            // instance at once via code-pointer patching.
            let class = self.rt[ci].class.0;
            for (s, (&now, &was)) in
                statics_ok.iter().zip(&self.rt[ci].prev_statics_ok).enumerate()
            {
                if now != was {
                    vm.tracer.emit(
                        vm.clock,
                        TraceEvent::StateTransition {
                            obj: NO_ID,
                            class,
                            entered: now,
                            state: s as u32,
                        },
                    );
                }
            }
        }
        self.rt[ci].prev_statics_ok.clone_from(statics_ok);
        let rt = &self.rt[ci];
        let class_tib = rt.class_tib;

        for m in &rt.methods {
            if m.is_static || m.is_private_instance {
                // Statically-bound: JTOC / class-TIB-for-private patching.
                // Only sound when the code does not depend on instance
                // state (Sec. 3.2.3): for instance-state classes, private
                // methods are not mutated.
                let special = if rt.inst_fields.is_empty() || m.is_static {
                    rt.pick(vm, m, None, statics_ok)
                } else {
                    None
                };
                vm.set_static_override(m.method, special);
                continue;
            }
            let Some(vslot) = m.vslot else { continue };
            if rt.special_tibs.is_empty() {
                // Static-only class: the class TIB itself is specialized.
                let slot = match rt.pick(vm, m, None, statics_ok) {
                    Some(cid) => CodeSlot::Code(cid),
                    None => match vm.general_code[m.method.index()] {
                        Some(cid) => CodeSlot::Code(cid),
                        None => vm.tib_slot(class_tib, vslot),
                    },
                };
                vm.set_tib_slot(class_tib, vslot, slot);
            } else {
                for (p, &tib) in rt.special_tibs.iter().enumerate() {
                    let slot = rt.pick(vm, m, Some(p), statics_ok);
                    vm.set_tib_slot(tib, vslot, slot.map_or(CodeSlot::Lazy, CodeSlot::Code));
                }
            }
        }
        #[cfg(debug_assertions)]
        vm.check_dispatch();
    }

    /// Fig. 5: generate special versions of a mutable method.
    fn generate_specials(&mut self, vm: &mut VmState, ci: usize, mi: usize, level: u8) {
        let rt = &self.rt[ci];
        let (method, is_static) = (rt.methods[mi].method, rt.methods[mi].is_static);
        // Governor gate, asked for every state at the clock the fan-out
        // starts at: a throttled or blacklisted (method, state) pair is not
        // respecialized — regenerating the code that keeps deoptimizing is
        // exactly the storm being damped.
        let requests: Vec<(usize, Bindings)> = rt
            .states
            .iter()
            .enumerate()
            .filter_map(|(s, st)| {
                let mut b = Bindings::default();
                if !is_static {
                    b.instance = st.instance_values.iter().copied().collect();
                }
                b.statics = st.static_values.iter().copied().collect();
                (!b.is_empty() && vm.special_request_allowed(method, &b)).then_some((s, b))
            })
            .collect();
        // The paper generates all of a method's specializations "at the
        // same time"; here they compile one after another, in state order.
        for (s, b) in requests {
            // A failed (fault-injected or quarantined) special compile
            // installs nothing; any earlier special version stays usable.
            if let Some(cid) = vm.compile_special(method, level, &b) {
                self.rt[ci].methods[mi].special[s] = Some(cid);
            }
        }
    }
}

/// Counts the state fields `method` reads (instance fields through the
/// receiver, static fields anywhere) — `M` of the Section 5 heuristic.
fn spec_fields_read(
    program: &dchm_bytecode::Program,
    method: MethodId,
    inst: &[dchm_bytecode::FieldId],
    statics: &[dchm_bytecode::FieldId],
) -> usize {
    use dchm_bytecode::{Instr, Op, Reg};
    let md = program.method(method);
    let mut seen: std::collections::HashSet<dchm_bytecode::FieldId> =
        std::collections::HashSet::new();
    for i in &md.code {
        if let Instr::Op(op) = i {
            match op {
                Op::GetField { obj: Reg(0), field, .. } if inst.contains(field) => {
                    seen.insert(*field);
                }
                Op::GetStatic { field, .. } if statics.contains(field) => {
                    seen.insert(*field);
                }
                _ => {}
            }
        }
    }
    seen.len()
}

/// Re-evaluates into `out` which of `states`' static parts currently hold.
/// `out` has held every class of the plan by the end of `install`, so no
/// later call allocates.
fn eval_statics(out: &mut Vec<bool>, states: &[HotState], vm: &VmState) {
    out.clear();
    out.extend(states.iter().map(|st| {
        st.static_values
            .iter()
            .all(|&(f, v)| vm.get_static(f).key_eq(v))
    }));
}

fn parts_eq(a: &[(usize, Value)], b: &[(usize, Value)]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(&(fa, va), &(fb, vb))| fa == fb && va.key_eq(vb))
}

impl MutationHandler for MutationEngine {
    fn on_instance_store(
        &mut self,
        vm: &mut VmState,
        obj: ObjRef,
        _class: ClassId,
        _field: FieldId,
    ) {
        self.update_object_tib(vm, obj);
    }

    fn on_static_store(&mut self, vm: &mut VmState, field: FieldId) {
        for i in 0..self.static_dep[field.index()].len() {
            self.refresh_class(vm, self.static_dep[field.index()][i]);
        }
    }

    fn on_ctor_exit(&mut self, vm: &mut VmState, obj: ObjRef, _class: ClassId) {
        self.update_object_tib(vm, obj);
    }

    fn on_recompiled(&mut self, vm: &mut VmState, method: MethodId, level: u8) {
        // Mutable method reaching the mutation level: generate and install
        // special code (Fig. 5).
        if level >= self.plan.mutation_level {
            if let Some(&(ci, mi)) = self.method_index.get(&method) {
                self.generate_specials(vm, ci, mi, level);
                self.refresh_class(vm, ci);
            }
        }
        // Any recompile: re-pick every class's mutable slots (a static-only
        // class TIB falls back to the new general code, and an expired
        // governor verdict re-enables its special here). Special TIBs need
        // no mirroring: their other slots inherit.
        for ci in 0..self.rt.len() {
            self.refresh_class(vm, ci);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::{build_plan, AnalysisConfig};
    use dchm_bytecode::{CmpOp, MethodSig, ProgramBuilder, Ty};
    use dchm_profile::{profile_field_values, profile_hot_methods};

    /// The paper's Figure 2 program, sized down: SalaryEmployee.raise()
    /// branches 4 ways on `grade`; main loops raise() over an array of
    /// employees.
    fn salarydb(employees: i64, iters: i64) -> (dchm_bytecode::Program, ClassId, FieldId) {
        let mut pb = ProgramBuilder::new();
        let employee = pb.class("Employee").build();
        let salary = pb.private_field(employee, "salary", Ty::Double);
        pb.trivial_ctor(employee);
        let mut m = pb.method(employee, "raise", MethodSig::void());
        m.ret(None);
        m.build();

        let hourly = pb.class("HourlyEmployee").extends(employee).build();
        pb.trivial_ctor(hourly);
        let mut m = pb.method(hourly, "raise", MethodSig::void());
        m.ret(None);
        m.build();

        let sal = pb.class("SalaryEmployee").extends(employee).build();
        let grade = pb.private_field(sal, "grade", Ty::Int);
        let mut m = pb.ctor(sal, vec![Ty::Int]);
        let this = m.this();
        let g = m.param(0);
        m.put_field(this, grade, g);
        m.ret(None);
        m.build();

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
        m.put_field(this, salary, s);
        m.ret(None);
        m.build();

        // main: build array, loop raise(), sink salaries.
        let mut m = pb.static_method(sal, "main", MethodSig::void());
        let n = m.imm(employees);
        let arr = m.reg();
        m.new_arr(arr, dchm_bytecode::ElemKind::Ref, n);
        let i = m.reg();
        m.const_i(i, 0);
        let head = m.label();
        let done = m.label();
        m.bind(head);
        m.br_icmp(CmpOp::Ge, i, n, done);
        let o = m.reg();
        let four = m.imm(4);
        let g = m.reg();
        m.irem(g, i, four);
        m.new_obj(o, sal);
        m.call_ctor(o, sal, vec![g]);
        m.astore(arr, i, o);
        m.iadd_imm(i, i, 1);
        m.jmp(head);
        m.bind(done);

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
        m.check_cast(o, employee);
        m.call_virtual(None, o, "raise", vec![]);
        m.iadd_imm(j, j, 1);
        m.jmp(ihead);
        m.bind(idone);
        m.iadd_imm(it, it, 1);
        m.jmp(ohead);
        m.bind(odone);

        // Sink all salaries for output comparison.
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
        (pb.finish().unwrap(), sal, grade)
    }

    fn fast_config() -> VmConfig {
        VmConfig {
            sample_period: 15_000,
            opt1_samples: 2,
            opt2_samples: 5,
            ..Default::default()
        }
    }

    fn engine_for(p: &dchm_bytecode::Program) -> MutationEngine {
        let hot = profile_hot_methods(p.clone(), fast_config(), |vm| {
            vm.run_entry().unwrap();
        });
        let cfg = AnalysisConfig::default();
        let cands = crate::analysis::find_state_fields(p, &hot, &cfg);
        let values = profile_field_values(
            p.clone(),
            fast_config(),
            cands.iter().map(|c| c.field),
            |vm| {
                vm.run_entry().unwrap();
            },
        );
        let plan = build_plan(p, &hot, &values, &cfg);
        let olc = crate::olc::analyze_olc(
            p,
            Some(&plan.classes.iter().map(|c| c.class).collect()),
        );
        MutationEngine::new(plan, olc)
    }

    #[test]
    fn salarydb_plan_finds_four_grades() {
        let (p, sal, grade) = salarydb(64, 40);
        let engine = engine_for(&p);
        let mc = engine.plan.class(sal).expect("SalaryEmployee mutable");
        assert_eq!(mc.instance_state_fields, vec![grade]);
        assert_eq!(mc.hot_states.len(), 4, "{:?}", mc.hot_states);
        assert_eq!(mc.static_state_fields.len(), 0);
    }

    #[test]
    fn mutation_preserves_output_and_speeds_up() {
        let (p, _, _) = salarydb(64, 120);

        // Baseline: no mutation.
        let mut base = Vm::new(p.clone(), fast_config());
        base.run_entry().unwrap();
        let base_checksum = base.state.output.checksum;
        let base_cycles = base.state.stats.exec_cycles;

        // Mutation on.
        let engine = engine_for(&p);
        let mut vm = engine.attach(p, fast_config());
        vm.run_entry().unwrap();
        assert_eq!(
            vm.state.output.checksum, base_checksum,
            "mutation must not change observable behaviour"
        );
        // Special TIBs exist and objects were flipped onto them.
        assert!(vm.stats().special_tibs >= 4);
        assert!(vm.stats().tib_flips > 0);
        assert!(vm.stats().special_compiles >= 4);
        // Headline result: execution cycles drop.
        let mut_cycles = vm.state.stats.exec_cycles;
        assert!(
            mut_cycles < base_cycles,
            "mutation should speed up SalaryDB: {mut_cycles} vs {base_cycles}"
        );
    }

    #[test]
    fn object_tib_follows_state_changes() {
        // Build a tiny program, install a hand-written plan, drive stores
        // from bytecode and watch the TIB pointer move.
        let mut pb = ProgramBuilder::new();
        let c = pb.class("C").build();
        let f = pb.instance_field(c, "st", Ty::Int);
        pb.trivial_ctor(c);
        let mut m = pb.method(c, "get", MethodSig::new(vec![], Some(Ty::Int)));
        let this = m.this();
        let r = m.reg();
        m.get_field(r, this, f);
        m.ret(Some(r));
        let get = m.build();
        let mut m = pb.method(c, "set", MethodSig::new(vec![Ty::Int], None));
        let this = m.this();
        let v = m.param(0);
        m.put_field(this, f, v);
        m.ret(None);
        m.build();
        let mut m = pb.static_method(c, "mk", MethodSig::new(vec![], Some(Ty::Ref(c))));
        let o = m.reg();
        m.new_init(o, c, vec![]);
        m.ret(Some(o));
        let mk = m.build();
        let mut m = pb.static_method(c, "setv", MethodSig::new(vec![Ty::Ref(c), Ty::Int], None));
        let o = m.param(0);
        let v = m.param(1);
        m.call_virtual(None, o, "set", vec![v]);
        m.ret(None);
        let setv = m.build();
        let p = pb.finish().unwrap();

        let plan = MutationPlan {
            classes: vec![crate::plan::MutableClass {
                class: c,
                instance_state_fields: vec![f],
                static_state_fields: vec![],
                hot_states: vec![HotState {
                    instance_values: vec![(f, Value::Int(7))],
                    static_values: vec![],
                    frequency: 1.0,
                }],
                mutable_methods: vec![get],
                field_scores: vec![],
            }],
            mutation_level: 2,
            k: 0,
            emit_guards: true,
        };
        let engine = MutationEngine::new(plan, OlcReport::default());
        let mut vm = engine.attach(p, VmConfig::default());

        let obj = vm.call_static(mk, &[]).unwrap().unwrap();
        let Value::Ref(oref) = obj else { panic!() };
        vm.state.add_handle(oref);
        let class_tib = vm.state.class_tib(c);
        // Fresh object: state 0 doesn't match hot state 7.
        assert_eq!(vm.state.heap.object(oref).tib, class_tib);

        vm.call_static(setv, &[obj, Value::Int(7)]).unwrap();
        let special = vm.state.heap.object(oref).tib;
        assert_ne!(special, class_tib, "store of 7 must flip to special TIB");

        vm.call_static(setv, &[obj, Value::Int(3)]).unwrap();
        assert_eq!(
            vm.state.heap.object(oref).tib,
            class_tib,
            "leaving the hot state must flip back"
        );
        assert!(vm.stats().tib_flips >= 2);
    }
}
