//! Seeded program generation: a compact [`Spec`] describing a class
//! hierarchy with hot state, and its lowering to verified bytecode.
//!
//! Specs are the fuzzer's shrinkable currency: small, serde-serializable
//! (the corpus is Spec JSON), and lowered to a [`Program`] through the
//! strict builder path (`finish_strict`), so every candidate the shrinker
//! proposes is valid by construction — linked, verified, reachable, and
//! terminating (the only loop is the driver's bounded iteration counter).
//!
//! The generated shapes are biased toward the paper's hot patterns:
//! small hierarchies (base + optional subclass + optional interface),
//! `int` state fields constructors pin to constants (the primary hot
//! state), setter methods main flips between the hot and an alternate
//! value, optional static state behind a static reader/setter pair, work
//! methods that read state every call, allocation bursts for GC pressure,
//! and optionally a work body that stores state *while its own frame is
//! live* — the guarded-deoptimization hazard.

use dchm_bytecode::{
    ClassId, CmpOp, FieldId, MethodId, MethodSig, Program, ProgramBuilder, Reg, Ty, Value,
    VerifyError,
};
use serde::{Deserialize, Serialize};

/// A splitmix64 generator: tiny, seedable, and good enough to stir specs.
pub struct Rng(u64);

impl Rng {
    /// Creates a generator for `seed`.
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    /// Next raw 64-bit draw.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform draw in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// True with probability `percent`/100.
    fn chance(&mut self, percent: u64) -> bool {
        self.below(100) < percent
    }
}

/// One `int` state field: the constant its constructor pins (`hot`) and
/// the distinct alternate value the program flips it to.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct FieldSpec {
    /// Constructor-assigned constant — the primary hot-state binding.
    pub hot: i64,
    /// The other value stores flip to (always != `hot`).
    pub alt: i64,
}

/// One hierarchy group: a base class with state, and optional trimmings.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct GroupSpec {
    /// Instance state fields (1..=2 when generated).
    pub fields: Vec<FieldSpec>,
    /// Declare an interface the base implements; `work` dispatches
    /// through it from some actions.
    pub has_interface: bool,
    /// Add a subclass overriding `work` (never mutated — Fig. 6).
    pub has_subclass: bool,
    /// Static state field + static reader/setter pair.
    pub static_state: Option<FieldSpec>,
    /// `work` stores the alternate into field 0 mid-body and restores it —
    /// leaves the hot state *inside a live (possibly specialized) frame*,
    /// the exact hazard state guards close.
    pub work_self_flip: bool,
}

/// One statement of the driver loop's body.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum Action {
    /// Virtual `work()` on the group's base (`sub: false`) or subclass
    /// object.
    CallWork {
        /// Group index (mod group count).
        group: u8,
        /// Dispatch on the subclass object if the group has one.
        sub: bool,
    },
    /// `work()` through the group's interface (plain virtual call when the
    /// group has none).
    CallViaInterface {
        /// Group index (mod group count).
        group: u8,
    },
    /// Call the field's setter with the hot or alternate constant.
    Flip {
        /// Group index (mod group count).
        group: u8,
        /// Flip on the subclass object instead of the base object.
        sub: bool,
        /// Field index (mod field count).
        field: u8,
        /// Store the alternate value (true) or re-enter the hot value.
        alt: bool,
    },
    /// Call the static setter with the hot or alternate constant.
    FlipStatic {
        /// Group index (mod group count).
        group: u8,
        /// Store the alternate value (true) or re-enter the hot value.
        alt: bool,
    },
    /// Allocate `count` immediately-dead objects — GC pressure, and patch
    /// points at every constructor exit.
    AllocBurst {
        /// Group index (mod group count).
        group: u8,
        /// Burst size (capped at 6 when lowered).
        count: u8,
    },
    /// Read a state field directly from the driver and sink it.
    ReadField {
        /// Group index (mod group count).
        group: u8,
        /// Read from the subclass object.
        sub: bool,
        /// Field index (mod field count).
        field: u8,
    },
    /// Call the group's static state reader.
    CallStaticCalc {
        /// Group index (mod group count).
        group: u8,
    },
}

/// A complete generated program description.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Spec {
    /// Hierarchy groups (classes come out in group order).
    pub groups: Vec<GroupSpec>,
    /// The driver loop's body.
    pub actions: Vec<Action>,
    /// Driver loop trip count.
    pub iters: u32,
}

/// Generates the spec for `seed`. Same seed, same spec, always.
pub fn generate(seed: u64) -> Spec {
    let mut r = Rng::new(seed);
    let ngroups = 1 + r.below(3);
    let groups = (0..ngroups)
        .map(|_| {
            let nfields = 1 + r.below(2);
            let fields = (0..nfields)
                .map(|_| {
                    let hot = r.below(9) as i64 - 3;
                    let alt = hot + 1 + r.below(7) as i64;
                    FieldSpec { hot, alt }
                })
                .collect();
            GroupSpec {
                fields,
                has_interface: r.chance(50),
                has_subclass: r.chance(50),
                static_state: r.chance(40).then(|| {
                    let hot = r.below(10) as i64;
                    let alt = hot + 1 + r.below(5) as i64;
                    FieldSpec { hot, alt }
                }),
                work_self_flip: r.chance(40),
            }
        })
        .collect();
    let nactions = 4 + r.below(13);
    let actions = (0..nactions)
        .map(|_| {
            let group = r.below(ngroups) as u8;
            match r.below(11) {
                0..=2 => Action::CallWork {
                    group,
                    sub: r.chance(50),
                },
                3 => Action::CallViaInterface { group },
                4 | 5 => Action::Flip {
                    group,
                    sub: r.chance(50),
                    field: r.below(2) as u8,
                    alt: r.chance(50),
                },
                6 => Action::FlipStatic {
                    group,
                    alt: r.chance(50),
                },
                7 | 8 => Action::AllocBurst {
                    group,
                    count: 2 + r.below(5) as u8,
                },
                9 => Action::ReadField {
                    group,
                    sub: r.chance(50),
                    field: r.below(2) as u8,
                },
                _ => Action::CallStaticCalc { group },
            }
        })
        .collect();
    Spec {
        groups,
        actions,
        iters: 30 + r.below(121) as u32,
    }
}

/// Lowered handles for one group, used while emitting the driver.
struct GroupIds {
    base: ClassId,
    sub: Option<ClassId>,
    iface: Option<ClassId>,
    fields: Vec<FieldId>,
    slevel: Option<MethodId>,
    calc: Option<MethodId>,
}

/// Lowers a spec to a linked, verified, reachability-checked program.
///
/// Total on every spec (degenerate ones included): action indices wrap
/// modulo the group/field counts, groups may be empty, and actions whose
/// target feature was shrunk away lower to nothing — so every spec the
/// shrinker can produce is a valid program.
pub fn lower(spec: &Spec) -> Result<Program, VerifyError> {
    let mut pb = ProgramBuilder::new();
    let mut ids: Vec<GroupIds> = Vec::new();

    for (g, gs) in spec.groups.iter().enumerate() {
        let iface = gs.has_interface.then(|| {
            let i = pb.class(&format!("I{g}")).interface().build();
            pb.abstract_method(i, "work", MethodSig::void());
            i
        });
        let mut cb = pb.class(&format!("C{g}"));
        if let Some(i) = iface {
            cb = cb.implements(i);
        }
        let base = cb.build();
        let fields: Vec<FieldId> = (0..gs.fields.len())
            .map(|j| pb.instance_field(base, &format!("f{j}"), Ty::Int))
            .collect();
        let sfield = gs
            .static_state
            .as_ref()
            .map(|fs| pb.static_field(base, "S", Ty::Int, Value::Int(fs.hot)));

        let mut m = pb.ctor(base, vec![]);
        let this = m.this();
        for (j, fs) in gs.fields.iter().enumerate() {
            let v = m.imm(fs.hot);
            m.put_field(this, fields[j], v);
        }
        m.ret(None);
        m.build();

        // work(): read every state field (foldable in special code), then
        // optionally leave and re-enter the hot state mid-frame.
        let mut m = pb.method(base, "work", MethodSig::void());
        let this = m.this();
        for &f in &fields {
            let r = m.reg();
            m.get_field(r, this, f);
            m.sink_int(r);
        }
        if let Some(sf) = sfield {
            let r = m.reg();
            m.get_static(r, sf);
            m.sink_int(r);
        }
        if gs.work_self_flip && !gs.fields.is_empty() {
            let a = m.imm(spec.groups[g].fields[0].alt);
            m.put_field(this, fields[0], a);
            let r = m.reg();
            m.get_field(r, this, fields[0]);
            m.sink_int(r);
            let h = m.imm(spec.groups[g].fields[0].hot);
            m.put_field(this, fields[0], h);
        }
        m.ret(None);
        m.build();

        // flipJ(v): the single-store setter shape plan synthesis maps
        // constant call arguments through.
        for (j, &f) in fields.iter().enumerate() {
            let mut m = pb.method(base, &format!("flip{j}"), MethodSig::new(vec![Ty::Int], None));
            let this = m.this();
            let v = m.param(0);
            m.put_field(this, f, v);
            m.ret(None);
            m.build();
        }

        let (slevel, calc) = match sfield {
            Some(sf) => {
                let mut m =
                    pb.static_method(base, "slevel", MethodSig::new(vec![Ty::Int], None));
                let v = m.param(0);
                m.put_static(sf, v);
                m.ret(None);
                let slevel = m.build();
                let mut m = pb.static_method(base, "calc", MethodSig::void());
                let r = m.reg();
                m.get_static(r, sf);
                m.sink_int(r);
                m.ret(None);
                (Some(slevel), Some(m.build()))
            }
            None => (None, None),
        };

        let sub = gs.has_subclass.then(|| {
            let sub = pb.class(&format!("D{g}")).extends(base).build();
            let mut m = pb.ctor(sub, vec![]);
            let this = m.this();
            m.call_ctor(this, base, vec![]);
            m.ret(None);
            m.build();
            // Override reading the inherited state, plus a marker so the
            // two implementations are observably different.
            let mut m = pb.method(sub, "work", MethodSig::void());
            let this = m.this();
            for &f in &fields {
                let r = m.reg();
                m.get_field(r, this, f);
                m.sink_int(r);
            }
            let marker = m.imm(1_000 + g as i64);
            m.sink_int(marker);
            m.ret(None);
            m.build();
            sub
        });

        ids.push(GroupIds {
            base,
            sub,
            iface,
            fields,
            slevel,
            calc,
        });
    }

    let driver = pb.class("Main").build();
    let mut m = pb.static_method(driver, "main", MethodSig::void());
    let objs: Vec<(Reg, Reg)> = ids
        .iter()
        .map(|gi| {
            let b = m.reg();
            m.new_init(b, gi.base, vec![]);
            let s = m.reg();
            m.new_init(s, gi.sub.unwrap_or(gi.base), vec![]);
            (b, s)
        })
        .collect();
    let burst = m.reg();

    if !spec.groups.is_empty() && !spec.actions.is_empty() && spec.iters > 0 {
        let cnt = m.reg();
        m.const_i(cnt, spec.iters as i64);
        let head = m.label();
        let done = m.label();
        m.bind(head);
        m.br_icmp_imm(CmpOp::Le, cnt, 0, done);
        for a in &spec.actions {
            let n = spec.groups.len();
            match a {
                Action::CallWork { group, sub } => {
                    let gi = *group as usize % n;
                    let obj = if *sub { objs[gi].1 } else { objs[gi].0 };
                    m.call_virtual(None, obj, "work", vec![]);
                }
                Action::CallViaInterface { group } => {
                    let gi = *group as usize % n;
                    match ids[gi].iface {
                        Some(i) => m.call_interface(None, i, objs[gi].0, "work", vec![]),
                        None => m.call_virtual(None, objs[gi].0, "work", vec![]),
                    }
                }
                Action::Flip {
                    group,
                    sub,
                    field,
                    alt,
                } => {
                    let gi = *group as usize % n;
                    if ids[gi].fields.is_empty() {
                        continue;
                    }
                    let fi = *field as usize % ids[gi].fields.len();
                    let fs = &spec.groups[gi].fields[fi];
                    let v = m.imm(if *alt { fs.alt } else { fs.hot });
                    let obj = if *sub { objs[gi].1 } else { objs[gi].0 };
                    m.call_virtual(None, obj, &format!("flip{fi}"), vec![v]);
                }
                Action::FlipStatic { group, alt } => {
                    let gi = *group as usize % n;
                    if let (Some(slevel), Some(fs)) =
                        (ids[gi].slevel, spec.groups[gi].static_state.as_ref())
                    {
                        let v = m.imm(if *alt { fs.alt } else { fs.hot });
                        m.call_static(None, slevel, vec![v]);
                    }
                }
                Action::AllocBurst { group, count } => {
                    let gi = *group as usize % n;
                    for _ in 0..(*count).min(6) {
                        m.new_init(burst, ids[gi].base, vec![]);
                    }
                }
                Action::ReadField { group, sub, field } => {
                    let gi = *group as usize % n;
                    if ids[gi].fields.is_empty() {
                        continue;
                    }
                    let fi = *field as usize % ids[gi].fields.len();
                    let obj = if *sub { objs[gi].1 } else { objs[gi].0 };
                    let r = m.reg();
                    m.get_field(r, obj, ids[gi].fields[fi]);
                    m.sink_int(r);
                }
                Action::CallStaticCalc { group } => {
                    let gi = *group as usize % n;
                    if let Some(calc) = ids[gi].calc {
                        m.call_static(None, calc, vec![]);
                    }
                }
            }
        }
        m.iadd_imm(cnt, cnt, -1);
        m.jmp(head);
        m.bind(done);
    }
    m.ret(None);
    let main = m.build();
    pb.set_entry(main);
    pb.finish_strict()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        assert_eq!(generate(42), generate(42));
        assert_ne!(generate(42), generate(43));
    }

    #[test]
    fn first_kiloseed_lowers_clean() {
        for seed in 0..1000 {
            let spec = generate(seed);
            lower(&spec).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        }
    }

    #[test]
    fn degenerate_specs_lower_clean() {
        let empty = Spec {
            groups: vec![],
            actions: vec![Action::CallWork { group: 3, sub: true }],
            iters: 10,
        };
        lower(&empty).expect("empty spec lowers");

        let no_trimmings = Spec {
            groups: vec![GroupSpec {
                fields: vec![FieldSpec { hot: 1, alt: 2 }],
                has_interface: false,
                has_subclass: false,
                static_state: None,
                work_self_flip: false,
            }],
            actions: vec![
                Action::CallViaInterface { group: 0 },
                Action::FlipStatic { group: 0, alt: true },
                Action::CallStaticCalc { group: 0 },
                Action::Flip { group: 9, sub: true, field: 9, alt: false },
            ],
            iters: 1,
        };
        lower(&no_trimmings).expect("actions on absent features lower to nothing");
    }

    #[test]
    fn specs_roundtrip_through_json() {
        let spec = generate(7);
        let json = serde_json::to_string(&spec).expect("serialize");
        let back: Spec = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(spec, back);
    }
}
