#![warn(missing_docs)]

//! # dchm-fuzz
//!
//! Differential conformance fuzzer for the DCHM runtime: seeded generation
//! of valid-by-construction hierarchy/state programs ([`gen`]), a lattice
//! of VM configurations spanning tiers, mutation modes, cache capacities,
//! tracing and fault injection ([`lattice`](mod@lattice)), a multi-config oracle
//! asserting bit-identical modeled observables at the strictness each
//! config pairing is entitled to ([`oracle`]), and a greedy shrinker that
//! minimizes any divergence to a small repro ([`shrink`](mod@shrink)).
//!
//! The `dchm-fuzz` binary drives seed ranges through the whole stack; the
//! checked-in specs under `corpus/` replay known edge cases as ordinary
//! tests (`tests/corpus.rs`), and `tests/selftest.rs` proves the oracle
//! catches a deliberately broken guard site and shrinks it to a minimal
//! program.

pub mod gen;
pub mod lattice;
pub mod oracle;
pub mod shrink;

pub use gen::{generate, lower, Spec};
pub use lattice::{lattice, tampered, ConfigSpec};
pub use oracle::{check, run_config, Divergence, FuzzObs};
pub use shrink::shrink;

use dchm_core::{synthesize_plan, MutationPlan, SynthConfig};

/// The synthesis tunables every lattice run shares: only `mutation_level`
/// is left, and its 0 is a placeholder that [`oracle::run_config`]
/// overrides per mutation-on configuration. Plans built from it outside the
/// lattice (the benchmark's `short_programs`) keep the 0: special code at
/// opt0.
pub fn synth_config() -> SynthConfig {
    SynthConfig { mutation_level: 0 }
}

/// Lowers a spec and synthesizes its shared mutation plan.
///
/// Returns `None` if the spec fails the strict builder — impossible for
/// generator output (covered by tests), tolerated so shrinker candidates
/// can be checked without panicking.
pub fn compile_spec(spec: &Spec) -> Option<(dchm_bytecode::Program, MutationPlan)> {
    let p = lower(spec).ok()?;
    let plan = synthesize_plan(&p, &synth_config());
    Some((p, plan))
}

/// Lattice-checks one spec: lower, synthesize, run every config, compare.
/// A spec that does not lower runs nothing and yields no fingerprints.
///
/// # Errors
/// The first divergence [`check`] finds.
pub fn check_spec(spec: &Spec, configs: &[ConfigSpec]) -> Result<Vec<FuzzObs>, Divergence> {
    let Some((p, plan)) = compile_spec(spec) else {
        return Ok(Vec::new());
    };
    check(&p, &plan, configs)
}

/// Shrinks a diverging spec to a local minimum, preserving divergence
/// *kind* (an output divergence never degrades into a mere clock one).
pub fn minimize(spec: &Spec, configs: &[ConfigSpec], kind: &str) -> Spec {
    shrink(spec, &mut |s: &Spec| {
        check_spec(s, configs).is_err_and(|d| d.kind == kind)
    })
}

/// The checked-in corpus: named edge-case specs replayed as ordinary tests
/// (`tests/corpus.rs`) and regenerable with `dchm-fuzz --write-corpus`.
pub fn corpus_specs() -> Vec<(&'static str, Spec)> {
    use gen::{Action, FieldSpec, GroupSpec};
    let group = |fields: Vec<FieldSpec>| GroupSpec {
        fields,
        has_interface: false,
        has_subclass: false,
        static_state: None,
        work_self_flip: false,
    };
    let f = |hot, alt| FieldSpec { hot, alt };
    vec![
        // A class with no state at all: `work` lowers to a bare `Ret`, the
        // synthesized plan is empty, and every config must still agree.
        (
            "empty-method",
            Spec {
                groups: vec![group(vec![])],
                actions: vec![
                    Action::CallWork { group: 0, sub: false },
                    Action::CallViaInterface { group: 0 },
                ],
                iters: 40,
            },
        ),
        // Heavy allocation bursts on a tiny heap interleaved with state
        // flips: collections land mid-flip, and TIB-flipped objects must
        // survive the collector.
        (
            "mutation-during-gc",
            Spec {
                groups: vec![GroupSpec {
                    fields: vec![f(2, 9)],
                    has_interface: false,
                    has_subclass: true,
                    static_state: None,
                    work_self_flip: false,
                }],
                actions: vec![
                    Action::Flip { group: 0, sub: false, field: 0, alt: true },
                    Action::AllocBurst { group: 0, count: 6 },
                    Action::Flip { group: 0, sub: false, field: 0, alt: false },
                    Action::AllocBurst { group: 0, count: 6 },
                    Action::AllocBurst { group: 0, count: 6 },
                    Action::CallWork { group: 0, sub: false },
                ],
                iters: 150,
            },
        ),
        // The guarded-deopt hazard on the very first invocation: the ctor
        // enters the hot state, the single `work` call runs specialized and
        // immediately stores its way out of the state mid-frame.
        (
            "guard-fail-first-call",
            Spec {
                groups: vec![GroupSpec {
                    fields: vec![f(1, 5)],
                    has_interface: false,
                    has_subclass: false,
                    static_state: None,
                    work_self_flip: true,
                }],
                actions: vec![Action::CallWork { group: 0, sub: false }],
                iters: 1,
            },
        ),
        // Interface dispatch against an object that keeps flipping between
        // special and class TIBs, with a never-mutated subclass sharing the
        // selector.
        (
            "interface-dispatch-flip",
            Spec {
                groups: vec![GroupSpec {
                    fields: vec![f(0, 7)],
                    has_interface: true,
                    has_subclass: true,
                    static_state: None,
                    work_self_flip: false,
                }],
                actions: vec![
                    Action::CallViaInterface { group: 0 },
                    Action::Flip { group: 0, sub: false, field: 0, alt: true },
                    Action::CallViaInterface { group: 0 },
                    Action::Flip { group: 0, sub: false, field: 0, alt: false },
                    Action::CallWork { group: 0, sub: true },
                ],
                iters: 80,
            },
        ),
        // Two classes whose `work` stores out of the hot state mid-frame
        // and straight back in: every call is a guard failure, a deopt and
        // a re-arm. Hundreds of iterations over two independent sites is a
        // textbook deopt storm — the resilience governor must throttle the
        // churn without changing a single output byte, and the spec is the
        // minimal flip loop the shrinker must preserve (see
        // `shrink::tests`).
        (
            "two-class-storm",
            Spec {
                groups: vec![
                    GroupSpec {
                        fields: vec![f(1, 5)],
                        has_interface: false,
                        has_subclass: false,
                        static_state: None,
                        work_self_flip: true,
                    },
                    GroupSpec {
                        fields: vec![f(2, 6)],
                        has_interface: false,
                        has_subclass: false,
                        static_state: None,
                        work_self_flip: true,
                    },
                ],
                actions: vec![
                    Action::Flip { group: 0, sub: false, field: 0, alt: false },
                    Action::CallWork { group: 0, sub: false },
                    Action::Flip { group: 1, sub: false, field: 0, alt: false },
                    Action::CallWork { group: 1, sub: false },
                ],
                iters: 400,
            },
        ),
        // The shared-compilation workout: two groups mixing instance and
        // static hot states, interface dispatch, subclassing and mid-frame
        // self-flips, busy enough that a tenant compiles specials across
        // several sites. Replayed through the `two-tenant-shared` lattice
        // config, the second identical tenant must be answered entirely
        // from the shared artifact cache (zero compiler wall) while its
        // fingerprint stays bit-identical.
        (
            "two-tenant-shared",
            Spec {
                groups: vec![
                    GroupSpec {
                        fields: vec![f(1, 5)],
                        has_interface: true,
                        has_subclass: false,
                        static_state: Some(f(2, 7)),
                        work_self_flip: true,
                    },
                    GroupSpec {
                        fields: vec![f(3, 6)],
                        has_interface: false,
                        has_subclass: true,
                        static_state: None,
                        work_self_flip: false,
                    },
                ],
                actions: vec![
                    Action::CallWork { group: 0, sub: false },
                    Action::CallStaticCalc { group: 0 },
                    Action::Flip { group: 1, sub: false, field: 0, alt: true },
                    Action::CallWork { group: 1, sub: true },
                    Action::CallViaInterface { group: 0 },
                    Action::Flip { group: 1, sub: false, field: 0, alt: false },
                    Action::CallWork { group: 1, sub: false },
                ],
                iters: 120,
            },
        ),
        // Static (class-TIB/JTOC) state flipping under a specialized
        // static reader, alongside instance state on the same class.
        (
            "static-state-flip",
            Spec {
                groups: vec![GroupSpec {
                    fields: vec![f(3, 4)],
                    has_interface: false,
                    has_subclass: false,
                    static_state: Some(f(1, 8)),
                    work_self_flip: false,
                }],
                actions: vec![
                    Action::CallStaticCalc { group: 0 },
                    Action::FlipStatic { group: 0, alt: true },
                    Action::CallStaticCalc { group: 0 },
                    Action::FlipStatic { group: 0, alt: false },
                    Action::CallWork { group: 0, sub: false },
                ],
                iters: 100,
            },
        ),
    ]
}
