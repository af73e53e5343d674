//! Offline static analysis (paper Sec. 3.1).
//!
//! Implements EQ 1:
//!
//! ```text
//! V = Σ Li·Hi  −  R · Σ li·hi
//! ```
//!
//! summed over *branch uses* of a field (loop nesting `Li`, containing
//! method hotness `Hi`) minus `R` times the same product over *assignments*
//! (`li`, `hi`). A field scoring high is read in hot, deeply nested control
//! flow and written rarely/coldly — exactly the profile of a state field.
//!
//! One clarification relative to the paper's formula: loop nesting levels
//! are used 1-based (`L+1`), so a branch use at top level of a very hot
//! method still contributes (the paper's SalaryDB `raise()` has its `grade`
//! branches outside any loop *within the method*).

use crate::plan::{HotState, MutableClass, MutationPlan};
use dchm_bytecode::{
    loop_nesting, ClassId, FieldId, Instr, MethodKind, Op, Program, Reg, Value,
};
use dchm_profile::{HotMethodReport, ValueReport};
use std::collections::HashMap;

// Sec. 3.1 gives no value for the three caps below; they are the ones every
// figure was measured with.
/// Cap on state fields per class (highest scores win).
const MAX_STATE_FIELDS_PER_CLASS: usize = 3;
/// Cap on hot values considered per field.
const MAX_VALUES_PER_FIELD: usize = 4;
/// Minimum relative frequency for a sampled value to count as hot.
const MIN_VALUE_FREQUENCY: f64 = 0.05;

/// Analysis tunables.
#[derive(Clone, Debug)]
pub struct AnalysisConfig {
    /// `R` of EQ 1: weight of assignment sites against use sites.
    pub r: f64,
    /// Minimum EQ 1 score for a field to become a state field.
    pub min_score: f64,
    /// A method is "hot" if its cycle share reaches this fraction.
    pub min_method_hotness: f64,
    /// Cap on hot states per class (highest frequencies win).
    pub max_hot_states_per_class: usize,
    /// Level at which special code is generated (the paper: opt2).
    pub mutation_level: u8,
    /// `k` of the Section 5 inline-vs-specialize heuristic.
    pub k: i64,
}

impl Default for AnalysisConfig {
    fn default() -> Self {
        AnalysisConfig {
            r: 1.0,
            min_score: 0.008,
            min_method_hotness: 0.004,
            max_hot_states_per_class: 8,
            mutation_level: 2,
            k: 0,
        }
    }
}

/// A field's EQ 1 score.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FieldScore {
    /// The field.
    pub field: FieldId,
    /// Declaring class.
    pub owner: ClassId,
    /// The EQ 1 value `V`.
    pub score: f64,
}

/// One EQ 1 site: `field` is branch-tested or assigned at 1-based loop
/// depth `depth` in method number `method`.
#[derive(Clone, Copy, Debug)]
struct Site {
    field: FieldId,
    method: usize,
    depth: f64,
}

/// The hotness-independent half of EQ 1: every branch-use and assignment
/// site of every field, in program order (so per-field sums are taken in
/// one fixed order whatever the caller).
#[derive(Clone, Debug, Default)]
pub struct FieldSites {
    uses: Vec<Site>,
    assigns: Vec<Site>,
}

impl FieldSites {
    /// Walks every method once.
    pub fn scan(program: &Program) -> Self {
        let mut sites = FieldSites::default();
        for (method, md) in program.methods.iter().enumerate() {
            if md.code.is_empty() {
                continue;
            }
            let nesting = loop_nesting(&md.code);
            // Taint: which register currently holds which field's value.
            let mut taint: HashMap<Reg, FieldId> = HashMap::new();
            for (at, instr) in md.code.iter().enumerate() {
                let depth = (nesting.nesting[at] + 1) as f64;
                let site = |field| Site { field, method, depth };
                match instr {
                    Instr::Op(op) => {
                        // Branch uses: a compare consuming a field-tainted reg.
                        match op {
                            Op::ICmp { a, b, .. } | Op::DCmp { a, b, .. } => {
                                for r in [a, b] {
                                    sites.uses.extend(taint.get(r).copied().map(site));
                                }
                            }
                            Op::PutField { field, .. } | Op::PutStatic { field, .. }
                                // Constructor self-initialization is expected and
                                // cheap; the paper's "assignment in a cold
                                // function" penalty targets steady-state writes.
                                if md.kind != MethodKind::Constructor => {
                                    sites.assigns.push(site(*field));
                                }
                            _ => {}
                        }
                        // Taint transfer.
                        match op {
                            Op::GetField { dst, field, .. } | Op::GetStatic { dst, field } => {
                                taint.insert(*dst, *field);
                            }
                            Op::Mov { dst, src } => {
                                match taint.get(src).copied() {
                                    Some(f) => {
                                        taint.insert(*dst, f);
                                    }
                                    None => {
                                        taint.remove(dst);
                                    }
                                }
                            }
                            _ => {
                                if let Some(d) = op.def() {
                                    taint.remove(&d);
                                }
                            }
                        }
                    }
                    // Direct branch on a (boolean) field value.
                    Instr::BrIf { cond, .. } => {
                        sites.uses.extend(taint.get(cond).copied().map(site));
                    }
                    _ => {}
                }
            }
        }
        sites
    }

    /// Every field with a branch-use site (repeats included): exactly the
    /// fields [`Self::score`] can return under any hotness and any
    /// `min_score`, hence the set a profiling run made *before* hotness is
    /// known has to watch.
    pub fn branch_tested(&self) -> impl Iterator<Item = FieldId> + '_ {
        self.uses.iter().map(|s| s.field)
    }

    /// The hotness-dependent half of EQ 1: fields scoring at least
    /// `cfg.min_score`, best first.
    pub fn score(
        &self,
        program: &Program,
        hot: &HotMethodReport,
        cfg: &AnalysisConfig,
    ) -> Vec<FieldScore> {
        let h = |s: &Site| hot.hotness.get(s.method).copied().unwrap_or(0.0);
        let mut uses: HashMap<FieldId, f64> = HashMap::new();
        for s in self.uses.iter().filter(|s| h(s) >= cfg.min_method_hotness) {
            *uses.entry(s.field).or_insert(0.0) += s.depth * h(s);
        }
        let mut assigns: HashMap<FieldId, f64> = HashMap::new();
        for s in &self.assigns {
            *assigns.entry(s.field).or_insert(0.0) += s.depth * h(s).max(1e-6);
        }
        let mut out: Vec<FieldScore> = uses
            .into_iter()
            .map(|(field, u)| {
                let a = assigns.get(&field).copied().unwrap_or(0.0);
                FieldScore {
                    field,
                    owner: program.field(field).owner,
                    score: u - cfg.r * a,
                }
            })
            .filter(|fs| fs.score >= cfg.min_score)
            .collect();
        out.sort_by(|a, b| b.score.partial_cmp(&a.score).unwrap().then(a.field.cmp(&b.field)));
        out
    }
}

/// Runs EQ 1 over the whole program; returns fields scoring at least
/// `cfg.min_score`, best first.
pub fn find_state_fields(
    program: &Program,
    hot: &HotMethodReport,
    cfg: &AnalysisConfig,
) -> Vec<FieldScore> {
    FieldSites::scan(program).score(program, hot, cfg)
}

/// True if `method` reads `field` anywhere in its body.
fn method_reads(program: &Program, method: dchm_bytecode::MethodId, field: FieldId) -> bool {
    program.method(method).code.iter().any(|i| {
        matches!(i, Instr::Op(Op::GetField { field: f, .. } | Op::GetStatic { field: f, .. }) if *f == field)
    })
}

/// True if `method` reads instance `field` through its own receiver (`r0`,
/// never redefined) — the only reads state specialization can constant-fold.
fn method_reads_via_this(
    program: &Program,
    method: dchm_bytecode::MethodId,
    field: FieldId,
) -> bool {
    let md = program.method(method);
    if !md.has_receiver() {
        return false;
    }
    let receiver_stable = md.code.iter().all(|i| match i {
        Instr::Op(op) => op.def() != Some(Reg(0)),
        _ => true,
    });
    if !receiver_stable {
        return false;
    }
    md.code.iter().any(|i| {
        matches!(
            i,
            Instr::Op(Op::GetField { obj: Reg(0), field: f, .. }) if *f == field
        )
    })
}

/// Builds the complete mutation plan from the profiling artifacts
/// (the offline half of the paper's Figure 3).
pub fn build_plan(
    program: &Program,
    hot: &HotMethodReport,
    values: &ValueReport,
    cfg: &AnalysisConfig,
) -> MutationPlan {
    plan_from_scores(program, find_state_fields(program, hot, cfg), values, cfg)
}

/// [`build_plan`] from already-scored state fields.
pub(crate) fn plan_from_scores(
    program: &Program,
    scored: Vec<FieldScore>,
    values: &ValueReport,
    cfg: &AnalysisConfig,
) -> MutationPlan {
    // Attribute each state field to the classes whose *own* methods depend
    // on it: instance fields to subclasses of the owner reading through
    // `this` (those reads specialize), static fields to any class with a
    // reading method. The declaring class itself may contribute nothing
    // (the paper: "the fields can be declared by a class itself or a
    // class's parent classes").
    let mut by_class: HashMap<ClassId, Vec<FieldScore>> = HashMap::new();
    for fs in scored {
        let is_static = program.field(fs.field).is_static;
        for (ci, cd) in program.classes.iter().enumerate() {
            let class = ClassId::from_index(ci);
            if cd.is_interface {
                continue;
            }
            if !is_static && !program.is_subclass(class, fs.owner) {
                continue;
            }
            let has_reader = cd.methods.iter().any(|&m| {
                let md = program.method(m);
                if md.kind == MethodKind::Constructor || md.kind == MethodKind::Abstract {
                    return false;
                }
                if is_static {
                    method_reads(program, m, fs.field)
                } else {
                    method_reads_via_this(program, m, fs.field)
                }
            });
            if has_reader {
                by_class.entry(class).or_default().push(fs);
            }
        }
    }

    let mut classes = Vec::new();
    for (class, mut fields) in by_class {
        fields.truncate(MAX_STATE_FIELDS_PER_CLASS);

        // Hot values per field, from the sampling histograms:
        // (field, is_static, ranked (value, frequency) pairs).
        type FieldHotValues = (FieldId, bool, Vec<(Value, f64)>);
        let mut field_values: Vec<FieldHotValues> = Vec::new();
        for fs in &fields {
            let hist = values.histogram(fs.field);
            if hist.total == 0 {
                continue; // never stored; cannot establish a state
            }
            let vals: Vec<(Value, f64)> = hist
                .ranked()
                .into_iter()
                .filter(|(v, freq)| *freq >= MIN_VALUE_FREQUENCY && !v.is_reference())
                .take(MAX_VALUES_PER_FIELD)
                .collect();
            if vals.is_empty() {
                continue;
            }
            let is_static = program.field(fs.field).is_static;
            field_values.push((fs.field, is_static, vals));
        }
        if field_values.is_empty() {
            continue;
        }

        // Hot states: cartesian product over the fields' hot values.
        let mut states: Vec<HotState> = vec![HotState {
            instance_values: vec![],
            static_values: vec![],
            frequency: 1.0,
        }];
        for (field, is_static, vals) in &field_values {
            let mut next = Vec::new();
            for st in &states {
                for (v, freq) in vals {
                    let mut s = st.clone();
                    if *is_static {
                        s.static_values.push((*field, *v));
                    } else {
                        s.instance_values.push((*field, *v));
                    }
                    s.frequency *= freq;
                    next.push(s);
                }
            }
            states = next;
        }
        states.sort_by(|a, b| b.frequency.partial_cmp(&a.frequency).unwrap());
        states.truncate(cfg.max_hot_states_per_class);

        // Mutable methods: declared by this class, non-constructor,
        // reading a state field (through `this` for instance fields).
        let mutable_methods: Vec<_> = program
            .class(class)
            .methods
            .iter()
            .copied()
            .filter(|&m| {
                let md = program.method(m);
                md.kind != MethodKind::Constructor
                    && md.kind != MethodKind::Abstract
                    && field_values.iter().any(|(f, is_static, _)| {
                        if *is_static {
                            method_reads(program, m, *f)
                        } else {
                            method_reads_via_this(program, m, *f)
                        }
                    })
            })
            .collect();
        if mutable_methods.is_empty() || states.is_empty() {
            continue;
        }

        let instance_state_fields = field_values
            .iter()
            .filter(|(_, s, _)| !*s)
            .map(|(f, _, _)| *f)
            .collect();
        let static_state_fields = field_values
            .iter()
            .filter(|(_, s, _)| *s)
            .map(|(f, _, _)| *f)
            .collect();
        classes.push(MutableClass {
            class,
            instance_state_fields,
            static_state_fields,
            hot_states: states,
            mutable_methods,
            field_scores: fields.iter().map(|fs| (fs.field, fs.score)).collect(),
        });
    }
    classes.sort_by_key(|c| c.class);
    MutationPlan {
        classes,
        mutation_level: cfg.mutation_level,
        k: cfg.k,
        emit_guards: true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dchm_bytecode::{CmpOp, MethodSig, ProgramBuilder, Ty};
    use dchm_profile::{profile_field_values, profile_hot_methods};
    use dchm_vm::VmConfig;

    /// A SalaryDB-shaped program: `raise()` branches on `grade`, a driver
    /// loop hammers it; `promote()` (cold) writes grade.
    fn salary_like() -> (dchm_bytecode::Program, FieldId, ClassId) {
        let mut pb = ProgramBuilder::new();
        let c = pb.class("SalaryEmployee").build();
        let grade = pb.private_field(c, "grade", Ty::Int);
        let salary = pb.private_field(c, "salary", Ty::Double);
        let mut m = pb.ctor(c, vec![Ty::Int]);
        let this = m.this();
        let g = m.param(0);
        m.put_field(this, grade, g);
        m.ret(None);
        m.build();

        let mut m = pb.method(c, "raise", MethodSig::void());
        let this = m.this();
        let g = m.reg();
        m.get_field(g, this, grade);
        let s = m.reg();
        m.get_field(s, this, salary);
        let l1 = m.label();
        let done = m.label();
        m.br_icmp_imm(CmpOp::Ne, g, 0, l1);
        let one = m.imm_d(1.0);
        m.dadd(s, s, one);
        m.jmp(done);
        m.bind(l1);
        let k = m.imm_d(1.01);
        m.dmul(s, s, k);
        m.bind(done);
        m.put_field(this, salary, s);
        m.ret(None);
        m.build();

        let mut m = pb.method(c, "promote", MethodSig::new(vec![Ty::Int], None));
        let this = m.this();
        let g = m.param(0);
        m.put_field(this, grade, g);
        m.ret(None);
        m.build();

        let mut m = pb.static_method(c, "main", MethodSig::void());
        let o = m.reg();
        let zero = m.imm(0);
        m.new_init(o, c, vec![zero]);
        let i = m.reg();
        m.const_i(i, 0);
        let head = m.label();
        let done = m.label();
        m.bind(head);
        let lim = m.imm(3000);
        m.br_icmp(CmpOp::Ge, i, lim, done);
        m.call_virtual(None, o, "raise", vec![]);
        m.iadd_imm(i, i, 1);
        m.jmp(head);
        m.bind(done);
        // One cold promote.
        let one = m.imm(1);
        m.call_virtual(None, o, "promote", vec![one]);
        m.ret(None);
        let main = m.build();
        pb.set_entry(main);
        (pb.finish().unwrap(), grade, c)
    }

    #[test]
    fn eq1_finds_grade_as_top_state_field() {
        let (p, grade, _) = salary_like();
        let hot = profile_hot_methods(p.clone(), VmConfig::default(), |vm| {
            vm.run_entry().unwrap();
        });
        let cfg = AnalysisConfig::default();
        let fields = find_state_fields(&p, &hot, &cfg);
        assert!(!fields.is_empty());
        assert_eq!(fields[0].field, grade, "{fields:?}");
        assert!(fields[0].score > 0.0);
    }

    #[test]
    fn eq1_penalizes_hot_assignment() {
        // Same program, but driver calls promote() in the hot loop: grade is
        // written as often as read, so V drops (relative to the read-mostly
        // variant).
        let (p, grade, c) = salary_like();
        let hot = profile_hot_methods(p.clone(), VmConfig::default(), |vm| {
            vm.run_entry().unwrap();
        });
        let cfg = AnalysisConfig::default();
        let read_mostly = find_state_fields(&p, &hot, &cfg)
            .iter()
            .find(|f| f.field == grade)
            .unwrap()
            .score;

        // Synthetic "hot promote" report: pretend promote is as hot as raise.
        let raise = p.method_by_name(c, "raise").unwrap();
        let promote = p.method_by_name(c, "promote").unwrap();
        let mut hot2 = hot.clone();
        hot2.hotness[promote.index()] = hot2.hotness[raise.index()];
        let hot_write = find_state_fields(&p, &hot2, &cfg)
            .iter()
            .find(|f| f.field == grade)
            .map(|f| f.score)
            .unwrap_or(0.0);
        assert!(
            hot_write < read_mostly,
            "hot writes must reduce V: {hot_write} vs {read_mostly}"
        );
    }

    #[test]
    fn r_parameter_scales_penalty() {
        let (p, grade, _) = salary_like();
        let hot = profile_hot_methods(p.clone(), VmConfig::default(), |vm| {
            vm.run_entry().unwrap();
        });
        let mut cfg = AnalysisConfig {
            r: 0.0,
            ..Default::default()
        };
        let v0 = find_state_fields(&p, &hot, &cfg)
            .iter()
            .find(|f| f.field == grade)
            .unwrap()
            .score;
        cfg.r = 100.0;
        let v100 = find_state_fields(&p, &hot, &cfg)
            .iter()
            .find(|f| f.field == grade)
            .map(|f| f.score)
            .unwrap_or(f64::NEG_INFINITY);
        assert!(v100 <= v0);
    }

    #[test]
    fn plan_has_states_from_value_profile() {
        let (p, grade, c) = salary_like();
        let hot = profile_hot_methods(p.clone(), VmConfig::default(), |vm| {
            vm.run_entry().unwrap();
        });
        let values = profile_field_values(p.clone(), VmConfig::default(), [grade], |vm| {
            vm.run_entry().unwrap();
        });
        let plan = build_plan(&p, &hot, &values, &AnalysisConfig::default());
        let mc = plan.class(c).expect("SalaryEmployee is mutable");
        assert_eq!(mc.instance_state_fields, vec![grade]);
        // grade was stored as 0 (ctor) and 1 (promote): two hot states.
        assert_eq!(mc.hot_states.len(), 2);
        let raise = p.method_by_name(c, "raise").unwrap();
        assert!(mc.mutable_methods.contains(&raise));
        // promote() writes but never reads grade: not a mutable method.
        let promote = p.method_by_name(c, "promote").unwrap();
        assert!(!mc.mutable_methods.contains(&promote));
        assert_eq!(plan.mutation_level, 2);
    }

    #[test]
    fn deeper_loop_nesting_scores_higher() {
        // Two classes, identical hotness; one reads its field in a nested
        // loop, the other at top level. EQ 1 must rank the nested use higher.
        let mut pb = ProgramBuilder::new();
        let shallow = pb.class("Shallow").build();
        let f_sh = pb.instance_field(shallow, "st", Ty::Int);
        pb.trivial_ctor(shallow);
        let mut m = pb.method(shallow, "work", MethodSig::new(vec![Ty::Int], Some(Ty::Int)));
        let this = m.this();
        let v = m.reg();
        m.get_field(v, this, f_sh);
        let out = m.reg();
        let alt = m.label();
        m.br_icmp_imm(CmpOp::Ne, v, 0, alt);
        m.const_i(out, 1);
        m.ret(Some(out));
        m.bind(alt);
        m.const_i(out, 2);
        m.ret(Some(out));
        m.build();

        let deep = pb.class("Deep").build();
        let f_dp = pb.instance_field(deep, "st", Ty::Int);
        pb.trivial_ctor(deep);
        let mut m = pb.method(deep, "work", MethodSig::new(vec![Ty::Int], Some(Ty::Int)));
        let this = m.this();
        let n = m.param(0);
        let acc = m.reg();
        m.const_i(acc, 0);
        let i = m.reg();
        m.const_i(i, 0);
        let oh = m.label();
        let od = m.label();
        m.bind(oh);
        m.br_icmp(CmpOp::Ge, i, n, od);
        let j = m.reg();
        m.const_i(j, 0);
        let ih = m.label();
        let id = m.label();
        m.bind(ih);
        m.br_icmp(CmpOp::Ge, j, n, id);
        let v = m.reg();
        m.get_field(v, this, f_dp);
        let alt = m.label();
        let join = m.label();
        m.br_icmp_imm(CmpOp::Ne, v, 0, alt);
        m.iadd_imm(acc, acc, 1);
        m.jmp(join);
        m.bind(alt);
        m.iadd_imm(acc, acc, 2);
        m.bind(join);
        m.iadd_imm(j, j, 1);
        m.jmp(ih);
        m.bind(id);
        m.iadd_imm(i, i, 1);
        m.jmp(oh);
        m.bind(od);
        m.ret(Some(acc));
        m.build();

        // Equal synthetic hotness for both work() methods.
        let p = pb.finish().unwrap();
        let mut hot = dchm_profile::HotMethodReport {
            hotness: vec![0.0; p.methods.len()],
            ..Default::default()
        };
        for (mi, md) in p.methods.iter().enumerate() {
            if md.name == "work" {
                hot.hotness[mi] = 0.5;
            }
        }
        let cfg = AnalysisConfig {
            min_score: -1.0,
            ..Default::default()
        };
        let scores = find_state_fields(&p, &hot, &cfg);
        let score_of = |f: FieldId| scores.iter().find(|s| s.field == f).map(|s| s.score).unwrap();
        assert!(
            score_of(f_dp) > score_of(f_sh),
            "nested-loop use must outrank top-level use: {} vs {}",
            score_of(f_dp),
            score_of(f_sh)
        );
    }

    #[test]
    fn plan_empty_without_observed_values() {
        let (p, _, _) = salary_like();
        let hot = profile_hot_methods(p.clone(), VmConfig::default(), |vm| {
            vm.run_entry().unwrap();
        });
        let values = ValueReport::default();
        let plan = build_plan(&p, &hot, &values, &AnalysisConfig::default());
        assert!(plan.classes.is_empty());
    }
}
