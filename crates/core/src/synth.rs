//! Static mutation-plan synthesis for machine-generated programs.
//!
//! The ordinary pipeline ([`crate::pipeline::prepare`]) derives a
//! [`MutationPlan`] from a *profiling run*. The differential fuzzer
//! (`dchm-fuzz`) cannot afford one profiling run per generated program per
//! config, and more importantly needs the *same* plan in every
//! configuration of its lattice so that mutation-on runs are comparable.
//! This module derives the plan purely statically, exploiting the shape
//! contract of generated programs:
//!
//! * **State fields** are the `int` instance fields a class's constructor
//!   assigns compile-time constants to (through `this`, straight-line
//!   tracking). Those constants form the class's *primary* hot state —
//!   exactly what a profile of the allocation burst would observe.
//! * **Alternate hot states** come from the other constants the program
//!   text stores to a state field: direct constant stores anywhere, and
//!   constant call-site arguments mapped through single-store setter
//!   methods (`flip(v) { this.f = v; }`). Each alternate value yields one
//!   hot state differing from the primary in that single field, mirroring
//!   how the paper's histograms surface a few hot values per field.
//! * **Static state** works the same way: a static `int` field read by the
//!   declaring class's methods is a state field with its initial value as
//!   the primary binding.
//! * **Mutable methods** follow the paper's Figure 6 rule: methods
//!   *declared by the class* that read a state field (instance reads
//!   through `this` only, the only reads specialization can fold).
//!
//! Over-approximation is safe by construction: a hot state that is never
//! entered at run time just produces special code and TIBs that no object
//! ever adopts, which the differential oracle treats like any other
//! mutation-on activity.

use crate::plan::{HotState, MutableClass, MutationPlan};
use dchm_bytecode::{FieldId, Instr, MethodKind, Op, Program, Reg, Ty, Value};
use std::collections::{BTreeMap, BTreeSet, HashMap};

// The two caps below are the ones the fuzzer's lattice has run with since
// it was written.
/// Per-class cap on instance state fields (lowest field ids win).
const MAX_STATE_FIELDS: usize = 2;
/// Per-class hot-state cap, primary included (as
/// `AnalysisConfig::max_hot_states_per_class`).
const MAX_STATES: usize = 4;

/// Tunables for [`synthesize_plan`]. Synthesized plans always plant state
/// guards and derive static-state classes (class-TIB specialization).
#[derive(Clone, Debug)]
pub struct SynthConfig {
    /// Optimization level at which special code is generated.
    pub mutation_level: u8,
}

impl Default for SynthConfig {
    fn default() -> Self {
        SynthConfig { mutation_level: 2 }
    }
}

/// Walks `code` linearly, tracking integer constants per register, and
/// calls `visit` on every op with the constants live *before* it executes.
/// Straight-line exact; across branches it over-approximates (good enough
/// for hot-state discovery, see module docs).
fn scan_consts(code: &[Instr], mut visit: impl FnMut(&Op, &HashMap<Reg, i64>)) {
    let mut consts: HashMap<Reg, i64> = HashMap::new();
    for instr in code {
        let Instr::Op(op) = instr else { continue };
        visit(op, &consts);
        match op {
            Op::ConstI { dst, val } => {
                consts.insert(*dst, *val);
            }
            _ => {
                if let Some(d) = op.def() {
                    consts.remove(&d);
                }
            }
        }
    }
}

/// `true` for fields that can participate in hot states: plain `int`.
fn is_state_ty(p: &Program, f: FieldId) -> bool {
    p.field(f).ty == Ty::Int
}

/// Synthesizes a mutation plan for `p` without running it.
///
/// Deterministic: classes, fields, methods and hot states come out in id
/// order, so the same program always yields the identical plan — a
/// prerequisite for the fuzz lattice, where every mutation-on config must
/// install the same plan.
pub fn synthesize_plan(p: &Program, cfg: &SynthConfig) -> MutationPlan {
    // -- Pass 1: setter shapes ------------------------------------------
    // Instance methods that store a parameter straight into a `this` field:
    // selector-keyed because call sites dispatch by selector. Static
    // methods that store a parameter into a static field, keyed by id.
    let mut inst_setters: HashMap<u32, Vec<(FieldId, u16)>> = HashMap::new();
    let mut static_setters: HashMap<usize, Vec<(FieldId, u16)>> = HashMap::new();
    for (mi, md) in p.methods.iter().enumerate() {
        let nparams = md.sig.params.len() as u16;
        for instr in &md.code {
            let Instr::Op(op) = instr else { continue };
            match (md.kind, op) {
                (MethodKind::Instance, Op::PutField { obj, field, src })
                    if *obj == Reg(0) && src.0 >= 1 && src.0 <= nparams =>
                {
                    inst_setters
                        .entry(md.selector.0)
                        .or_default()
                        .push((*field, src.0 - 1));
                }
                (MethodKind::Static, Op::PutStatic { field, src }) if src.0 < nparams => {
                    static_setters.entry(mi).or_default().push((*field, src.0));
                }
                _ => {}
            }
        }
    }

    // -- Pass 2: constant observations ----------------------------------
    // Every constant value the program text can store into each field:
    // direct constant stores plus constant arguments through setters.
    let mut observed: BTreeMap<FieldId, BTreeSet<i64>> = BTreeMap::new();
    for md in &p.methods {
        scan_consts(&md.code, |op, consts| {
            let mut observe = |f: FieldId, v: i64| {
                if is_state_ty(p, f) {
                    observed.entry(f).or_default().insert(v);
                }
            };
            match op {
                Op::PutField { field, src, .. } | Op::PutStatic { field, src } => {
                    if let Some(&v) = consts.get(src) {
                        observe(*field, v);
                    }
                }
                Op::CallVirtual { sel, args, .. }
                | Op::CallSpecial { sel, args, .. }
                | Op::CallInterface { sel, args, .. } => {
                    if let Some(setters) = inst_setters.get(&sel.0) {
                        for &(f, idx) in setters {
                            if let Some(&v) =
                                args.get(idx as usize).and_then(|r| consts.get(r))
                            {
                                observe(f, v);
                            }
                        }
                    }
                }
                Op::CallStatic { method, args, .. } => {
                    if let Some(setters) = static_setters.get(&method.index()) {
                        for &(f, idx) in setters {
                            if let Some(&v) =
                                args.get(idx as usize).and_then(|r| consts.get(r))
                            {
                                observe(f, v);
                            }
                        }
                    }
                }
                _ => {}
            }
        });
    }

    // -- Pass 3: per-class plan entries ---------------------------------
    let mut classes = Vec::new();
    for cid in p.concrete_classes() {
        let c = p.class(cid);

        // Primary instance bindings: constants the ctor stores through
        // `this` into this class's own int fields (straight-line exact for
        // generated ctors; last write wins).
        let mut primary: BTreeMap<FieldId, i64> = BTreeMap::new();
        if let Some(&ctor) = c
            .methods
            .iter()
            .find(|&&m| p.method(m).kind == MethodKind::Constructor)
        {
            scan_consts(&p.method(ctor).code, |op, consts| {
                if let Op::PutField { obj, field, src } = op {
                    if *obj == Reg(0)
                        && p.field(*field).owner == cid
                        && is_state_ty(p, *field)
                    {
                        match consts.get(src) {
                            Some(&v) => {
                                primary.insert(*field, v);
                            }
                            None => {
                                primary.remove(field);
                            }
                        }
                    }
                }
            });
        }
        let instance_state_fields: Vec<FieldId> =
            primary.keys().copied().take(MAX_STATE_FIELDS).collect();
        primary.retain(|f, _| instance_state_fields.contains(f));

        // Static state: this class's static int fields that its own
        // methods read; primary binding is the declared initial value.
        let mut static_primary: BTreeMap<FieldId, i64> = BTreeMap::new();
        let read_by_self = |f: FieldId| {
            c.methods.iter().any(|&m| {
                p.method(m).code.iter().any(|i| {
                    matches!(i, Instr::Op(Op::GetStatic { field, .. }) if *field == f)
                })
            })
        };
        for &f in &c.fields {
            let fd = p.field(f);
            if fd.is_static && is_state_ty(p, f) && read_by_self(f) {
                if let Value::Int(v) = fd.initial {
                    static_primary.insert(f, v);
                }
            }
        }
        let static_state_fields: Vec<FieldId> = static_primary.keys().copied().collect();

        if instance_state_fields.is_empty() && static_state_fields.is_empty() {
            continue;
        }

        // Mutable methods (Fig. 6): declared here, read a state field the
        // only way specialization can fold — instance fields through
        // `this`, statics through GetStatic. Private methods are excluded:
        // `invokespecial` never dispatches through a (special) TIB, so
        // their specials would be unreachable.
        let mutable_methods: Vec<_> = c
            .methods
            .iter()
            .copied()
            .filter(|&m| {
                let md = p.method(m);
                if md.visibility == dchm_bytecode::Visibility::Private {
                    return false;
                }
                match md.kind {
                    MethodKind::Instance => md.code.iter().any(|i| match i {
                        Instr::Op(Op::GetField { obj, field, .. }) => {
                            *obj == Reg(0) && instance_state_fields.contains(field)
                        }
                        Instr::Op(Op::GetStatic { field, .. }) => {
                            static_state_fields.contains(field)
                        }
                        _ => false,
                    }),
                    MethodKind::Static => md.code.iter().any(|i| {
                        matches!(i, Instr::Op(Op::GetStatic { field, .. })
                                 if static_state_fields.contains(field))
                    }),
                    _ => false,
                }
            })
            .collect();

        // Hot states: the primary (ctor constants + static initials),
        // then one variant per alternate observed value, single-field
        // substitution, in (field, value) order, capped at `MAX_STATES`.
        let base_instance: Vec<(FieldId, Value)> = primary
            .iter()
            .map(|(&f, &v)| (f, Value::Int(v)))
            .collect();
        let base_static: Vec<(FieldId, Value)> = static_primary
            .iter()
            .map(|(&f, &v)| (f, Value::Int(v)))
            .collect();
        let mut hot_states = vec![HotState {
            instance_values: base_instance.clone(),
            static_values: base_static.clone(),
            frequency: 1.0,
        }];
        let state_fields = instance_state_fields
            .iter()
            .map(|&f| (f, true))
            .chain(static_state_fields.iter().map(|&f| (f, false)));
        'outer: for (f, is_instance) in state_fields {
            let primary_v = if is_instance {
                primary[&f]
            } else {
                static_primary[&f]
            };
            let Some(vals) = observed.get(&f) else { continue };
            for &v in vals {
                if v == primary_v {
                    continue;
                }
                if hot_states.len() >= MAX_STATES {
                    break 'outer;
                }
                let subst = |vec: &[(FieldId, Value)]| {
                    vec.iter()
                        .map(|&(vf, vv)| if vf == f { (vf, Value::Int(v)) } else { (vf, vv) })
                        .collect::<Vec<_>>()
                };
                hot_states.push(HotState {
                    instance_values: if is_instance {
                        subst(&base_instance)
                    } else {
                        base_instance.clone()
                    },
                    static_values: if is_instance {
                        base_static.clone()
                    } else {
                        subst(&base_static)
                    },
                    frequency: 1.0 / MAX_STATES as f64,
                });
            }
        }

        classes.push(MutableClass {
            class: cid,
            instance_state_fields,
            static_state_fields,
            hot_states,
            mutable_methods,
            field_scores: Vec::new(),
        });
    }

    MutationPlan {
        classes,
        mutation_level: cfg.mutation_level,
        k: 0,
        emit_guards: true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dchm_bytecode::{MethodSig, ProgramBuilder};

    /// class Dev { int mode; static int LEVEL = 3;
    ///   Dev() { mode = 7; }
    ///   int work() { return mode + LEVEL; }
    ///   void flip(int v) { mode = v; }
    ///   static void level(int v) { LEVEL = v; } }
    /// main: d = new Dev(); d.flip(9); Dev.level(5); sink(d.work());
    fn sample() -> (Program, ClassId, FieldId, FieldId) {
        let mut pb = ProgramBuilder::new();
        let dev = pb.class("Dev").build();
        let mode = pb.instance_field(dev, "mode", Ty::Int);
        let level = pb.static_field(dev, "LEVEL", Ty::Int, Value::Int(3));

        let mut m = pb.ctor(dev, vec![]);
        let this = m.this();
        let seven = m.imm(7);
        m.put_field(this, mode, seven);
        m.ret(None);
        m.build();

        let mut m = pb.method(dev, "work", MethodSig::new(vec![], Some(Ty::Int)));
        let this = m.this();
        let a = m.reg();
        m.get_field(a, this, mode);
        let b = m.reg();
        m.get_static(b, level);
        let out = m.reg();
        m.iadd(out, a, b);
        m.ret(Some(out));
        m.build();

        let mut m = pb.method(dev, "flip", MethodSig::new(vec![Ty::Int], None));
        let this = m.this();
        let v = m.param(0);
        m.put_field(this, mode, v);
        m.ret(None);
        m.build();

        let mut m = pb.static_method(dev, "level", MethodSig::new(vec![Ty::Int], None));
        let v = m.param(0);
        m.put_static(level, v);
        m.ret(None);
        let level_m = m.build();

        let mut m = pb.static_method(dev, "main", MethodSig::void());
        let d = m.reg();
        m.new_init(d, dev, vec![]);
        let nine = m.imm(9);
        m.call_virtual(None, d, "flip", vec![nine]);
        let five = m.imm(5);
        m.call_static(None, level_m, vec![five]);
        let r = m.reg();
        m.call_virtual(Some(r), d, "work", vec![]);
        m.sink_int(r);
        m.ret(None);
        let main = m.build();
        pb.set_entry(main);
        (pb.finish().unwrap(), dev, mode, level)
    }

    use dchm_bytecode::{ClassId, Program};

    #[test]
    fn synthesizes_state_fields_states_and_mutable_methods() {
        let (p, dev, mode, level) = sample();
        let plan = synthesize_plan(&p, &SynthConfig::default());
        assert_eq!(plan.classes.len(), 1);
        let mc = &plan.classes[0];
        assert_eq!(mc.class, dev);
        assert_eq!(mc.instance_state_fields, vec![mode]);
        assert_eq!(mc.static_state_fields, vec![level]);
        // Primary state {mode=7, LEVEL=3}, plus the setter-observed
        // alternates mode=9 and LEVEL=5.
        assert_eq!(mc.hot_states.len(), 3);
        assert_eq!(
            mc.hot_states[0].instance_values,
            vec![(mode, Value::Int(7))]
        );
        assert_eq!(mc.hot_states[0].static_values, vec![(level, Value::Int(3))]);
        assert!(mc
            .hot_states
            .iter()
            .any(|h| h.instance_values == vec![(mode, Value::Int(9))]));
        assert!(mc
            .hot_states
            .iter()
            .any(|h| h.static_values == vec![(level, Value::Int(5))]));
        // `work` reads both state fields; `flip`/`level`/ctor/main do not
        // read any.
        assert_eq!(mc.mutable_methods.len(), 1);
        assert_eq!(p.method(mc.mutable_methods[0]).name, "work");
        assert!(plan.emit_guards);
        assert_eq!(plan.mutation_level, 2);
    }

    #[test]
    fn synthesis_is_deterministic() {
        let (p, ..) = sample();
        let a = synthesize_plan(&p, &SynthConfig::default());
        let b = synthesize_plan(&p, &SynthConfig::default());
        assert_eq!(a, b);
    }

    #[test]
    fn classes_without_state_are_skipped() {
        let mut pb = ProgramBuilder::new();
        let c = pb.class("Plain").build();
        pb.trivial_ctor(c);
        let mut m = pb.static_method(c, "main", MethodSig::void());
        m.ret(None);
        let main = m.build();
        pb.set_entry(main);
        let p = pb.finish().unwrap();
        let plan = synthesize_plan(&p, &SynthConfig::default());
        assert!(plan.classes.is_empty());
    }

    #[test]
    fn state_field_cap_respected() {
        let mut pb = ProgramBuilder::new();
        let c = pb.class("Wide").build();
        let fields: Vec<FieldId> = (0..4)
            .map(|i| pb.instance_field(c, &format!("f{i}"), Ty::Int))
            .collect();
        let mut m = pb.ctor(c, vec![]);
        let this = m.this();
        for (i, &f) in fields.iter().enumerate() {
            let v = m.imm(i as i64);
            m.put_field(this, f, v);
        }
        m.ret(None);
        m.build();
        let mut m = pb.method(c, "sum", MethodSig::new(vec![], Some(Ty::Int)));
        let this = m.this();
        let acc = m.imm(0);
        for &f in &fields {
            let r = m.reg();
            m.get_field(r, this, f);
            m.iadd(acc, acc, r);
        }
        m.ret(Some(acc));
        m.build();
        let p = pb.finish().unwrap();
        let plan = synthesize_plan(&p, &SynthConfig::default());
        assert_eq!(plan.classes[0].instance_state_fields.len(), MAX_STATE_FIELDS);
        assert_eq!(plan.classes[0].hot_states[0].instance_values.len(), MAX_STATE_FIELDS);
    }
}
