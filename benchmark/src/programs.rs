//! The programs each workload runs, generated from `--seed`.
//!
//! A [`Subject`] is one program under test with everything the whole path
//! needs: assembler text, driver, VM configuration and where its mutation
//! plan comes from. The measured program receives only these generated
//! inputs; the seed never reaches it.
//!
//! Seed-dependent programs are *drawn from fixed pools* (a stratified draw
//! of generated programs, one variant of `AllocChurn`), so every seed has
//! reference outputs in `expected.json` and runs the same amount of work.

use dchm_bytecode::{
    print_asm, CmpOp, ElemKind, IBinOp, MethodSig, Program, ProgramBuilder, Ty, Value,
};
use dchm_core::{HotState, MutableClass, MutationPlan, OlcReport};
use dchm_fuzz::gen::Rng;
use dchm_testutil::{harness_config, storm_config, storm_salarydb};
use dchm_vm::{FaultConfig, VmConfig};
use dchm_workloads::util::add_rng;
use dchm_workloads::{catalog, jbb, Driver, Scale, Workload};
use std::sync::Arc;

/// Where the whole path gets a subject's mutation plan.
#[derive(Clone, Debug)]
pub enum PlanSource {
    /// The profiling pipeline (`core::pipeline::prepare`: two more runs).
    Profile,
    /// Static synthesis over the bytecode (`core::synth::synthesize_plan`).
    Synth,
    /// A plan made ahead of the timed path: hand-written and shipped with
    /// the program, or prepared during set-up.
    Given(MutationPlan, OlcReport),
}

/// One program under test.
#[derive(Clone, Debug)]
pub struct Subject {
    /// Program name: the key of its `expected.json` entry within a workload.
    pub name: Arc<str>,
    /// Program, driver and heap size.
    pub workload: Workload,
    /// `print_asm` of the program: what the timed whole path starts from.
    pub text: String,
    /// VM configuration of the measured run.
    pub config: VmConfig,
    /// Plan source.
    pub plan: PlanSource,
    /// Deterministic fault injection for the measured run, if any.
    pub fault: Option<FaultConfig>,
    /// Record VM trace events during the measured run (only the traced
    /// pass's overhead probe turns this on).
    pub vm_tracing: bool,
}

impl Subject {
    fn new(name: &str, workload: Workload, config: VmConfig, plan: PlanSource) -> Self {
        Subject {
            name: Arc::from(name),
            text: print_asm(&workload.program),
            workload,
            config,
            plan,
            fault: None,
            vm_tracing: false,
        }
    }

    /// FNV-1a fingerprint of the generated input (the assembler text).
    pub fn fingerprint(&self) -> u64 {
        self.text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }
}

/// Deterministic Fisher–Yates shuffle driven by `seed`.
pub fn shuffle<T>(items: &mut [T], seed: u64) {
    let mut rng = Rng::new(seed);
    for i in (1..items.len()).rev() {
        items.swap(i, rng.below(i as u64 + 1) as usize);
    }
}

/// The seven Table-1 programs through the profiling pipeline, at the
/// cadence the determinism harness uses (`sample_period 15_000 / opt1 3 /
/// opt2 8`).
pub fn catalog_subjects(scale: Scale) -> Vec<Subject> {
    catalog(scale)
        .into_iter()
        .map(|w| {
            let config = harness_config(&w);
            Subject::new(w.name, w, config, PlanSource::Profile)
        })
        .collect()
}

/// Size of the fixed pool generated programs are drawn from.
pub const FUZZ_POOL: usize = 384;
/// Programs drawn per `short_programs` iteration.
pub const FUZZ_DRAW: usize = 96;
/// First generator seed of the pool.
const FUZZ_POOL_BASE: u64 = 20_060_326;

/// Static work proxy of pool program `k`: driver trips × statements.
fn fuzz_weight(k: usize) -> u64 {
    let spec = dchm_fuzz::generate(FUZZ_POOL_BASE + k as u64);
    u64::from(spec.iters) * spec.actions.len() as u64
}

/// The pool indices `seed` draws: the pool is ranked by static work and
/// cut into [`FUZZ_DRAW`] strata of equal size, and the seed picks one
/// program per stratum — a different seed runs different programs, every
/// seed runs about the same amount of work.
pub fn fuzz_draw(seed: u64) -> Vec<usize> {
    let mut ranked: Vec<usize> = (0..FUZZ_POOL).collect();
    ranked.sort_by_cached_key(|&k| (fuzz_weight(k), k));
    let per = FUZZ_POOL / FUZZ_DRAW;
    let mut rng = Rng::new(seed);
    ranked
        .chunks(per)
        .map(|stratum| stratum[rng.below(per as u64) as usize])
        .collect()
}

/// Pool program `k` on the static-plan path, under the fuzzer's adaptive
/// cadence (every tier and the specializer run within ~10k ops).
pub fn fuzz_subject(k: usize) -> Subject {
    let spec = dchm_fuzz::generate(FUZZ_POOL_BASE + k as u64);
    let program = dchm_fuzz::lower(&spec).expect("generator output lowers");
    let workload = Workload {
        name: "fuzz",
        program,
        heap_bytes: VmConfig::default().heap_bytes,
        driver: Driver::Entry,
    };
    let config = VmConfig {
        sample_period: 600,
        opt1_samples: 2,
        opt2_samples: 4,
        fuel: Some(20_000_000),
        ..VmConfig::default()
    };
    Subject::new(&format!("fuzz-{k:03}"), workload, config, PlanSource::Synth)
}

/// `short_programs`: the seed's draw of generated programs plus the seven
/// catalog programs at `Scale::Small`, in seed-shuffled order.
pub fn short_subjects(seed: u64) -> Vec<Subject> {
    let mut subjects: Vec<Subject> = fuzz_draw(seed).into_iter().map(fuzz_subject).collect();
    subjects.extend(catalog_subjects(Scale::Small));
    shuffle(&mut subjects, seed);
    subjects
}

/// Live slots of `AllocChurn`'s ring.
const CHURN_RING: i64 = 32_768;
/// Driver iterations: each replaces one ring slot (two nodes that stay
/// live), builds and walks a three-node chain that dies at once, and
/// allocates one scratch buffer.
const CHURN_ITERS: i64 = 20_000;
/// Elements of the per-iteration scratch buffer. It sets how often the
/// heap fills: ~5 KB of garbage per iteration against ~340 KB of headroom
/// is a collection every ~64 iterations, which is what makes the collector
/// (not the interpreter) carry most of this program's wall.
const CHURN_SCRATCH: i64 = 640;
/// Modeled bytes of one `Node` (16-byte header + four 8-byte slots).
const NODE_BYTES: usize = 16 + 8 * 4;
/// `AllocChurn`'s steady live set: two nodes per slot plus the ring array.
pub const CHURN_LIVE_BYTES: usize =
    2 * CHURN_RING as usize * NODE_BYTES + 16 + 8 * CHURN_RING as usize;
/// Variants of `AllocChurn` (in-bytecode generator seeds) a seed picks from.
pub const CHURN_VARIANTS: u64 = 16;

/// The benchmark-owned allocation program: a ring of live two-node chains
/// whose slots are overwritten at random, plus short-lived chains and
/// scratch buffers. Nodes are of a mutable class whose state field is set
/// in the constructor, so every node allocation also takes the TIB flip at
/// constructor exit.
pub fn alloc_churn(variant: u64) -> (Program, MutationPlan) {
    let mut pb = ProgramBuilder::new();
    let rng = add_rng(&mut pb, 0x5eed_0000 + variant as i64);

    let node = pb.class("Node").build();
    let kind = pb.instance_field(node, "kind", Ty::Int);
    let next = pb.instance_field(node, "next", Ty::Ref(node));
    let val = pb.instance_field(node, "val", Ty::Int);
    pb.instance_field(node, "pad", Ty::Int);

    let mut m = pb.ctor(node, vec![Ty::Int, Ty::Int]);
    let this = m.this();
    let (k, v) = (m.param(0), m.param(1));
    m.put_field(this, kind, k);
    m.put_field(this, val, v);
    m.ret(None);
    m.build();

    // int visit(): a four-way ladder on the state field.
    let mut m = pb.method(node, "visit", MethodSig::new(vec![], Some(Ty::Int)));
    let this = m.this();
    let k = m.reg();
    m.get_field(k, this, kind);
    let v = m.reg();
    m.get_field(v, this, val);
    let out = m.reg();
    let (l1, l2, l3) = (m.label(), m.label(), m.label());
    m.br_icmp_imm(CmpOp::Ne, k, 0, l1);
    m.iadd_imm(out, v, 1);
    m.ret(Some(out));
    m.bind(l1);
    m.br_icmp_imm(CmpOp::Ne, k, 1, l2);
    let three = m.imm(3);
    m.imul(out, v, three);
    m.ret(Some(out));
    m.bind(l2);
    m.br_icmp_imm(CmpOp::Ne, k, 2, l3);
    let five = m.imm(5);
    m.ibin(IBinOp::Xor, out, v, five);
    m.ret(Some(out));
    m.bind(l3);
    m.iadd_imm(out, v, -7);
    m.ret(Some(out));
    let visit = m.build();

    let churn = pb.class("AllocChurn").build();

    // static Node chain(int seed, int len): `len` nodes linked head first.
    let mut m = pb.static_method(
        churn,
        "chain",
        MethodSig::new(vec![Ty::Int, Ty::Int], Some(Ty::Ref(node))),
    );
    let (s, len) = (m.param(0), m.param(1));
    let head = m.reg();
    m.const_null(head);
    let i = m.reg();
    m.const_i(i, 0);
    let (top, done) = (m.label(), m.label());
    m.bind(top);
    m.br_icmp(CmpOp::Ge, i, len, done);
    let four = m.imm(4);
    let sk = m.reg();
    m.iadd(sk, s, i);
    let kk = m.reg();
    m.irem(kk, sk, four);
    let n = m.reg();
    m.new_init(n, node, vec![kk, sk]);
    m.put_field(n, next, head);
    m.mov(head, n);
    m.iadd_imm(i, i, 1);
    m.jmp(top);
    m.bind(done);
    m.ret(Some(head));
    let chain = m.build();

    // static int walk(Node n): sum of visit() down the chain.
    let mut m = pb.static_method(
        churn,
        "walk",
        MethodSig::new(vec![Ty::Ref(node)], Some(Ty::Int)),
    );
    let cur = m.reg();
    m.mov(cur, m.param(0));
    let acc = m.reg();
    m.const_i(acc, 0);
    let (top, done) = (m.label(), m.label());
    let null = m.reg();
    m.const_null(null);
    let is_null = m.reg();
    m.bind(top);
    m.ref_eq(is_null, cur, null);
    m.br_if(is_null, done);
    let r = m.reg();
    m.call_virtual(Some(r), cur, "visit", vec![]);
    m.iadd(acc, acc, r);
    m.get_field(cur, cur, next);
    m.jmp(top);
    m.bind(done);
    m.ret(Some(acc));
    let walk = m.build();

    let mut m = pb.static_method(churn, "main", MethodSig::void());
    let n = m.imm(CHURN_RING);
    let ring = m.reg();
    m.new_arr(ring, ElemKind::Ref, n);
    let two = m.imm(2);
    let three = m.imm(3);
    let i = m.reg();
    m.const_i(i, 0);
    let (fill, filled) = (m.label(), m.label());
    m.bind(fill);
    m.br_icmp(CmpOp::Ge, i, n, filled);
    let c = m.reg();
    m.call_static(Some(c), chain, vec![i, two]);
    m.astore(ring, i, c);
    m.iadd_imm(i, i, 1);
    m.jmp(fill);
    m.bind(filled);

    let acc = m.reg();
    m.const_i(acc, 0);
    let it = m.reg();
    m.const_i(it, 0);
    let iters = m.imm(CHURN_ITERS);
    let scratch = m.imm(CHURN_SCRATCH);
    let zero = m.imm(0);
    let (top, done) = (m.label(), m.label());
    m.bind(top);
    m.br_icmp(CmpOp::Ge, it, iters, done);
    let idx = m.reg();
    m.call_static(Some(idx), rng.next, vec![n]);
    let fresh = m.reg();
    m.call_static(Some(fresh), chain, vec![it, two]);
    m.astore(ring, idx, fresh);
    let tmp = m.reg();
    m.call_static(Some(tmp), chain, vec![it, three]);
    let w = m.reg();
    m.call_static(Some(w), walk, vec![tmp]);
    m.iadd(acc, acc, w);
    let buf = m.reg();
    m.new_arr(buf, ElemKind::Int, scratch);
    m.astore(buf, zero, acc);
    m.iadd_imm(it, it, 1);
    m.jmp(top);
    m.bind(done);
    m.sink_int(acc);
    m.ret(None);
    let main = m.build();
    pb.set_entry(main);
    let program = pb.finish().expect("AllocChurn verifies");

    let plan = MutationPlan {
        classes: vec![MutableClass {
            class: node,
            instance_state_fields: vec![kind],
            static_state_fields: vec![],
            hot_states: (0..4)
                .map(|v| HotState {
                    instance_values: vec![(kind, Value::Int(v))],
                    static_values: vec![],
                    frequency: 0.25,
                })
                .collect(),
            mutable_methods: vec![visit],
            field_scores: vec![],
        }],
        mutation_level: 2,
        k: 0,
        emit_guards: true,
    };
    (program, plan)
}

/// `alloc_gc`: the seed's `AllocChurn` variant under a heap 1.1× its live
/// set, and SPECjbb2005 at full scale under 1/32 of its catalog heap. Both
/// collect dozens of times per run; no catalog configuration collects once.
pub fn alloc_subjects(seed: u64) -> Vec<Subject> {
    let variant = seed % CHURN_VARIANTS;
    let (program, plan) = alloc_churn(variant);
    let heap_bytes = CHURN_LIVE_BYTES + CHURN_LIVE_BYTES / 10;
    let churn = Workload {
        name: "AllocChurn",
        program,
        heap_bytes,
        driver: Driver::Entry,
    };
    let config = harness_config(&churn);
    let churn = Subject::new(
        &format!("AllocChurn-{variant:02}"),
        churn,
        config,
        PlanSource::Given(plan, OlcReport::default()),
    );

    let mut jbb = jbb::build(jbb::JbbVariant::Jbb2005, Scale::Full);
    jbb.heap_bytes /= 32;
    let config = harness_config(&jbb);
    let jbb = Subject::new(jbb.name, jbb, config, PlanSource::Profile);
    vec![churn, jbb]
}

/// `deopt_storm`: `storm_salarydb(200, 2000)` under period-1 forced guard
/// failures, once with the default governor and once with it disabled. The
/// seed only seeds the fault injector (at period 1 every draw fires).
pub fn storm_subjects(seed: u64) -> Vec<Subject> {
    let (program, plan) = storm_salarydb(200, 2000);
    let workload = Workload {
        name: "StormSalaryDB",
        program,
        heap_bytes: VmConfig::default().heap_bytes,
        driver: Driver::Entry,
    };
    let fault = FaultConfig {
        period: 1,
        ..FaultConfig::guard_failures(seed)
    };
    [("governed", true), ("ungoverned", false)]
        .into_iter()
        .map(|(name, governor)| {
            let mut config = storm_config();
            config.governor.enabled = governor;
            let mut s = Subject::new(
                name,
                workload.clone(),
                config,
                PlanSource::Given(plan.clone(), OlcReport::default()),
            );
            s.fault = Some(fault);
            s
        })
        .collect()
}

/// A storm subject with no injected failures: the base of
/// `vm.deopt.ns_per_deopt`.
pub fn calm_of(storm: &Subject) -> Subject {
    let mut s = storm.clone();
    s.name = Arc::from("calm");
    s.fault = None;
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn fingerprints(subjects: &[Subject]) -> Vec<u64> {
        subjects.iter().map(Subject::fingerprint).collect()
    }

    #[test]
    fn same_seed_same_programs_other_seed_other_programs() {
        let a = fingerprints(&short_subjects(7));
        let b = fingerprints(&short_subjects(7));
        let c = fingerprints(&short_subjects(8));
        assert_eq!(a, b, "same seed must generate identical inputs");
        assert_ne!(a, c, "a different seed must generate different inputs");
        assert_eq!(a.len(), FUZZ_DRAW + 7);
        let (sa, sc): (BTreeSet<u64>, BTreeSet<u64>) =
            (a.into_iter().collect(), c.into_iter().collect());
        assert_ne!(sa, sc, "different programs, not just a different order");
    }

    #[test]
    fn draw_takes_one_program_from_every_stratum() {
        let d = fuzz_draw(20_060_326);
        assert_eq!(d.len(), FUZZ_DRAW);
        assert_eq!(d.iter().collect::<BTreeSet<_>>().len(), FUZZ_DRAW);
        assert!(d.iter().all(|&k| k < FUZZ_POOL));
    }

    #[test]
    fn alloc_churn_variants_differ_and_repeat() {
        let a = fingerprints(&alloc_subjects(3));
        assert_eq!(a, fingerprints(&alloc_subjects(3)));
        assert_eq!(a, fingerprints(&alloc_subjects(3 + CHURN_VARIANTS)));
        assert_ne!(a[0], fingerprints(&alloc_subjects(4))[0]);
        assert_eq!(
            a[1],
            fingerprints(&alloc_subjects(4))[1],
            "SPECjbb2005 is seed-independent"
        );
    }

    #[test]
    fn shuffle_is_a_seeded_permutation() {
        let mut a: Vec<u32> = (0..20).collect();
        let mut b = a.clone();
        shuffle(&mut a, 1);
        shuffle(&mut b, 1);
        assert_eq!(a, b);
        let mut c: Vec<u32> = (0..20).collect();
        shuffle(&mut c, 2);
        assert_ne!(a, c);
        a.sort_unstable();
        assert_eq!(a, (0..20).collect::<Vec<_>>());
    }
}
