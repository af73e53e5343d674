//! Random arithmetic programs through the fuzz lattice.
//!
//! One grammar of method bodies — integer arithmetic over a four-register
//! pool seeded with negative values (all eight `IBinOp`s, so division
//! traps and folds of negative remainders come for free), field
//! loads and stores, allocation, branches and bounded loops — lowered into
//! one program that runs the body twice over:
//!
//! * `main` runs it on a fresh local `P` and returns `pool[0]`, so tiers,
//!   constant folding and traps all show in the result;
//! * `main` then calls `work()` twice on a second `P`, whose constructor
//!   pins the hot state `{f0: 1, f1: 2}`, and `work()` runs the same body on
//!   `this`: random stores knock the receiver out of its state inside a
//!   live specialized frame, which the state guards must catch.
//!
//! Every program goes through all 26 configurations of
//! [`dchm_fuzz::lattice`] with a hand-written plan that specializes
//! `P.work` on that hot state. The lattice's groups hold the whole
//! contract: opt0/opt1/opt2 agree on result and checksum (output group
//! `main`), mutation off agrees with on, transparent faults at period 1
//! keep the modeled clock and op count (clock group `big`), and forced
//! guard failures keep the output.

use dchm::bytecode::{
    ClassId, CmpOp, FieldId, IBinOp, MethodBuilder, MethodSig, Program, ProgramBuilder, Reg, Ty,
    Value,
};
use dchm::core::{HotState, MutableClass, MutationPlan};
use dchm_fuzz::gen::Rng;
use std::ops::Range;

const POOL: usize = 4;
/// The pool's starting values. Negative, so a `Div` or `Rem` that constprop
/// folds before a branch or a field load has made its operands unknown
/// sees a negative dividend, and no seed divides another, so such a fold
/// leaves a remainder whose sign shows.
const SEEDS: [i64; POOL] = [-7, -2, -5, -3];

#[derive(Clone, Debug)]
enum Stmt {
    Const(usize, i64),
    Bin(IBinOp, usize, usize, usize),
    StoreField(usize, usize),
    LoadField(usize, usize),
    Sink(usize),
    /// Allocate a garbage `P`: a ctor-exit patch point and an injection
    /// site for the fault injector.
    Alloc,
    If(CmpOp, usize, usize, Vec<Stmt>, Vec<Stmt>),
    Loop(u8, Vec<Stmt>),
}

const BIN_OPS: [IBinOp; 8] = [
    IBinOp::Add,
    IBinOp::Sub,
    IBinOp::Mul,
    IBinOp::Div,
    IBinOp::Rem,
    IBinOp::And,
    IBinOp::Or,
    IBinOp::Xor,
];
const CMP_OPS: [CmpOp; 4] = [CmpOp::Eq, CmpOp::Ne, CmpOp::Lt, CmpOp::Ge];

/// Uniform pick from `0..n`.
fn pick(rng: &mut Rng, n: usize) -> usize {
    rng.below(n as u64) as usize
}

fn leaf(rng: &mut Rng) -> Stmt {
    match rng.below(6) {
        0 => Stmt::Const(pick(rng, POOL), rng.below(17) as i64 - 8),
        1 => Stmt::Bin(
            BIN_OPS[pick(rng, BIN_OPS.len())],
            pick(rng, POOL),
            pick(rng, POOL),
            pick(rng, POOL),
        ),
        2 => Stmt::StoreField(pick(rng, 2), pick(rng, POOL)),
        3 => Stmt::LoadField(pick(rng, POOL), pick(rng, 2)),
        4 => Stmt::Sink(pick(rng, POOL)),
        _ => Stmt::Alloc,
    }
}

/// A leaf or, with `depth` left, as likely a branch or loop nesting up to
/// `depth - 1` more levels.
fn stmt(rng: &mut Rng, depth: u32) -> Stmt {
    if depth == 0 || rng.below(2) == 0 {
        return leaf(rng);
    }
    if rng.below(2) == 0 {
        Stmt::If(
            CMP_OPS[pick(rng, CMP_OPS.len())],
            pick(rng, POOL),
            pick(rng, POOL),
            block(rng, depth - 1, 0, 4),
            block(rng, depth - 1, 0, 4),
        )
    } else {
        Stmt::Loop(1 + rng.below(3) as u8, block(rng, depth - 1, 1, 4))
    }
}

/// `lo..hi` statements.
fn block(rng: &mut Rng, depth: u32, lo: usize, hi: usize) -> Vec<Stmt> {
    let n = lo + pick(rng, hi - lo);
    (0..n).map(|_| stmt(rng, depth)).collect()
}

fn emit(
    m: &mut MethodBuilder<'_>,
    pool: &[Reg],
    obj: Reg,
    cls: ClassId,
    fields: &[FieldId],
    stmts: &[Stmt],
) {
    for s in stmts {
        match s {
            Stmt::Const(r, v) => m.const_i(pool[*r], *v),
            Stmt::Bin(op, d, a, b) => m.ibin(*op, pool[*d], pool[*a], pool[*b]),
            Stmt::StoreField(f, r) => m.put_field(obj, fields[*f], pool[*r]),
            Stmt::LoadField(r, f) => m.get_field(pool[*r], obj, fields[*f]),
            Stmt::Sink(r) => m.sink_int(pool[*r]),
            Stmt::Alloc => {
                let g = m.reg();
                m.new_init(g, cls, vec![]);
            }
            Stmt::If(op, a, b, then_s, else_s) => {
                let l_else = m.label();
                let l_end = m.label();
                m.br_icmp(op.negated(), pool[*a], pool[*b], l_else);
                emit(m, pool, obj, cls, fields, then_s);
                m.jmp(l_end);
                m.bind(l_else);
                emit(m, pool, obj, cls, fields, else_s);
                m.bind(l_end);
            }
            Stmt::Loop(n, body) => {
                let cnt = m.reg();
                m.const_i(cnt, *n as i64);
                let head = m.label();
                let done = m.label();
                m.bind(head);
                let zero = m.imm(0);
                m.br_icmp(CmpOp::Le, cnt, zero, done);
                emit(m, pool, obj, cls, fields, body);
                let one = m.imm(1);
                m.isub(cnt, cnt, one);
                m.jmp(head);
                m.bind(done);
            }
        }
    }
}

/// Seeds a fresh register pool with [`SEEDS`], emits `body` on `obj` and
/// sinks the pool.
fn emit_body(
    m: &mut MethodBuilder<'_>,
    obj: Reg,
    cls: ClassId,
    fields: &[FieldId],
    body: &[Stmt],
) -> Vec<Reg> {
    let pool: Vec<_> = (0..POOL).map(|_| m.reg()).collect();
    for (&r, &v) in pool.iter().zip(&SEEDS) {
        m.const_i(r, v);
    }
    emit(m, &pool, obj, cls, fields, body);
    for &r in &pool {
        m.sink_int(r);
    }
    pool
}

/// ```text
/// class P {
///     int f0, f1;
///     P() { f0 = 1; f1 = 2; }
///     void work() { <body on this> }
///     static int main() {
///         P o = new P(); <body on o>;
///         P q = new P(); q.work(); q.work();
///         return pool[0];
///     }
/// }
/// ```
/// with the plan specializing `work` on `{f0: 1, f1: 2}`.
fn build(body: &[Stmt]) -> (Program, MutationPlan) {
    let mut pb = ProgramBuilder::new();
    let c = pb.class("P").build();
    let f0 = pb.instance_field(c, "f0", Ty::Int);
    let f1 = pb.instance_field(c, "f1", Ty::Int);
    let fields = [f0, f1];
    let mut m = pb.ctor(c, vec![]);
    let this = m.this();
    let one = m.imm(1);
    m.put_field(this, f0, one);
    let two = m.imm(2);
    m.put_field(this, f1, two);
    m.ret(None);
    m.build();

    let mut m = pb.method(c, "work", MethodSig::void());
    let this = m.this();
    emit_body(&mut m, this, c, &fields, body);
    m.ret(None);
    let work = m.build();

    let mut m = pb.static_method(c, "main", MethodSig::new(vec![], Some(Ty::Int)));
    let o = m.reg();
    m.new_init(o, c, vec![]);
    let pool = emit_body(&mut m, o, c, &fields, body);
    let q = m.reg();
    m.new_init(q, c, vec![]);
    m.call_virtual(None, q, "work", vec![]);
    m.call_virtual(None, q, "work", vec![]);
    m.ret(Some(pool[0]));
    let main = m.build();
    pb.set_entry(main);
    let p = pb.finish().expect("generated program verifies");

    // `dchm_fuzz::run_config` sets the level and guard flag per config and
    // strips the hot state where mutation is off.
    let plan = MutationPlan {
        classes: vec![MutableClass {
            class: c,
            instance_state_fields: vec![f0, f1],
            static_state_fields: vec![],
            hot_states: vec![HotState {
                instance_values: vec![(f0, Value::Int(1)), (f1, Value::Int(2))],
                static_values: vec![],
                frequency: 1.0,
            }],
            mutable_methods: vec![work],
            field_scores: vec![],
        }],
        mutation_level: 2,
        k: 0,
        emit_guards: true,
    };
    (p, plan)
}

/// Lattice-checks programs `cases`, each drawn from `Rng::new(case)`.
fn check_programs(cases: Range<u64>) {
    let configs = dchm_fuzz::lattice();
    let adaptive_mut = configs
        .iter()
        .position(|c| c.name == "adaptive-mut")
        .expect("lattice has adaptive-mut");
    let (mut traps, mut deopting) = (0, 0);
    for case in cases {
        let body = block(&mut Rng::new(case), 3, 1, 12);
        let (p, plan) = build(&body);
        let results = dchm_fuzz::check(&p, &plan, &configs).unwrap_or_else(|d| {
            panic!(
                "program {case}: {} divergence between {} and {}\nbody: {body:?}\n{}",
                d.kind, d.config_a, d.config_b, d.detail
            )
        });
        // The check passed, so this run's result is every output config's
        // result.
        let obs = &results[adaptive_mut];
        traps += usize::from(obs.result.starts_with("Err"));
        assert!(
            obs.tib_flips > 0,
            "program {case}: adaptive-mut never flipped a TIB"
        );
        deopting += usize::from(obs.guard_failures > 0 && obs.deopts > 0);
    }
    // Without these the lattice could agree on programs that exercise
    // neither traps nor the guard-and-deopt path.
    assert!(traps > 0, "no program trapped");
    assert!(deopting > 0, "no program failed a guard and deoptimized");
}

// 192 programs: a constant fold that computes `Rem` of a negative dividend
// as `rem_euclid` shows in 10 of the first 500, and one that computes `Xor`
// as `Or` in 22, so 96 alone would miss the first about one time in seven.
// Two halves, so the test harness checks them on two threads.
#[test]
fn programs_0_to_95_agree_across_the_lattice() {
    check_programs(0..96);
}

#[test]
fn programs_96_to_191_agree_across_the_lattice() {
    check_programs(96..192);
}
