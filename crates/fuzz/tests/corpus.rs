//! Replays the checked-in corpus specs through the full configuration
//! lattice as ordinary tests — every edge case the fuzzer development
//! surfaced stays a permanent conformance check.

use dchm_fuzz::{check_spec, compile_spec, corpus_specs, lattice, FuzzObs, Spec};
use std::path::Path;

fn corpus_dir() -> &'static Path {
    Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/corpus"))
}

fn load(name: &str) -> Spec {
    let path = corpus_dir().join(format!("{name}.json"));
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    serde_json::from_str(&text).unwrap_or_else(|e| panic!("parse {}: {e}", path.display()))
}

/// Every checked-in file must match the in-crate definition (regenerate
/// with `cargo run -p dchm-fuzz -- --write-corpus` after editing), and
/// every definition must be checked in.
#[test]
fn corpus_files_match_definitions() {
    for (name, spec) in corpus_specs() {
        assert_eq!(load(name), spec, "{name}.json is stale");
    }
    let on_disk = std::fs::read_dir(corpus_dir()).expect("corpus dir exists").count();
    assert_eq!(on_disk, corpus_specs().len(), "unknown files in corpus/");
}

#[test]
fn corpus_has_at_least_five_cases() {
    assert!(corpus_specs().len() >= 5);
}

/// Lattice-checks one case and returns its run under each of `configs`
/// (named from the lattice).
fn check_case<const N: usize>(name: &str, configs: [&str; N]) -> [FuzzObs; N] {
    let spec = load(name);
    let cfgs = lattice();
    let results = check_spec(&spec, &cfgs).unwrap_or_else(|d| {
        panic!(
            "{name}: {} divergence between {} and {}\n{}",
            d.kind, d.config_a, d.config_b, d.detail
        )
    });
    configs.map(|c| {
        let i = cfgs
            .iter()
            .position(|x| x.name == c)
            .expect("a lattice config");
        results[i].clone()
    })
}

#[test]
fn empty_method_conforms() {
    check_case("empty-method", []);
    // And it really is the no-state edge: the synthesized plan is empty.
    let (_, plan) = compile_spec(&load("empty-method")).unwrap();
    assert!(plan.classes.is_empty());
}

#[test]
fn mutation_during_gc_conforms() {
    // The scenario must actually collect on the small heap and flip TIBs,
    // or it is not testing mutation during GC.
    let [obs] = check_case("mutation-during-gc", ["adaptive-mut"]);
    assert!(obs.obs.gc_cycles > 0, "no GC ran: {obs:?}");
    assert!(obs.tib_flips > 0, "no TIB flips: {obs:?}");
}

#[test]
fn guard_fail_first_call_conforms() {
    let [obs] = check_case("guard-fail-first-call", ["adaptive-mut"]);
    assert!(obs.guard_failures > 0, "guard never failed: {obs:?}");
    assert!(obs.deopts > 0, "nothing deoptimized: {obs:?}");
}

#[test]
fn interface_dispatch_flip_conforms() {
    check_case("interface-dispatch-flip", []);
}

#[test]
fn two_class_storm_conforms() {
    // The scenario must actually storm hard enough to wake the governor —
    // and the lattice check has already proven that throttling moved no
    // output byte anywhere.
    let [obs, raw] = check_case("two-class-storm", ["adaptive-mut", "adaptive-mut-nogov"]);
    assert!(lattice().iter().any(|c| c.name == "adaptive-mut" && c.governor));
    assert!(obs.guard_failures > 0, "storm never failed a guard: {obs:?}");
    assert!(obs.specials_throttled > 0, "governor never throttled: {obs:?}");
    // The ungoverned reference rides the full storm: strictly more deopts,
    // same output (checked by `check_case` via the output group).
    assert_eq!(raw.specials_throttled, 0);
    assert!(
        raw.deopts > obs.deopts,
        "governor did not damp the storm: off {} vs on {}",
        raw.deopts,
        obs.deopts
    );
}

#[test]
fn static_state_flip_conforms() {
    check_case("static-state-flip", []);
}

#[test]
fn two_tenant_shared_conforms() {
    // The lattice replay includes the `fleet-shared-cache` and
    // `two-tenant-shared` configs, whose oracle already asserts the second
    // tenant runs zero compiler pipelines.
    check_case("two-tenant-shared", []);

    // And directly: the scenario must actually exercise shared
    // compilation — a tenant that never compiles would pass the lattice
    // check vacuously.
    use dchm_testutil::{attach_plan, observe};
    use dchm_vm::{program_fingerprint, SharedCodeCache, VmConfig};
    use std::sync::Arc;
    let (p, plan) = compile_spec(&load("two-tenant-shared")).unwrap();
    let shared = Arc::new(SharedCodeCache::new(1024));
    let program_fp = program_fingerprint(&p);
    let run = || {
        let cfg = VmConfig {
            sample_period: 600,
            opt1_samples: 2,
            opt2_samples: 4,
            code_cache_capacity: 1024,
            fuel: Some(20_000_000),
            ..VmConfig::default()
        };
        let mut vm = attach_plan(&p, plan.clone(), cfg);
        vm.state.attach_shared_cache(Arc::clone(&shared), program_fp);
        let result = format!("{:?}", vm.run_entry());
        (
            (result, observe(&vm)),
            vm.state.compile_wall_nanos,
            vm.state.shared_hits,
            vm.state.shared_misses,
        )
    };
    let (fp1, wall1, _hits1, misses1) = run();
    let (fp2, wall2, hits2, misses2) = run();
    assert_eq!(fp1, fp2, "identical tenants diverged");
    assert!(misses1 > 0, "tenant 1 never compiled — scenario too trivial");
    assert!(wall1 > 0, "tenant 1 paid no compiler wall");
    assert!(hits2 > 0, "tenant 2 adopted nothing");
    assert_eq!(misses2, 0, "tenant 2 fell through to its compiler");
    assert_eq!(wall2, 0, "tenant 2 ran a compiler pipeline");
}

/// Every corpus case replayed with the cycle-attribution profiler armed:
/// output and modeled clock must match the unprofiled reference
/// bit-for-bit, and the busy cases must actually collect samples. (The
/// lattice's `adaptive-mut-profiled` member checks the same property
/// against the whole comparison group; this is the direct pairwise form.)
#[test]
fn corpus_replay_with_profiling_is_transparent() {
    use dchm_testutil::{attach_plan, observe};
    use dchm_vm::VmConfig;

    let mut sampled_anywhere = false;
    for (name, _) in corpus_specs() {
        let (p, plan) = compile_spec(&load(name)).unwrap();
        let run = |period: u64| {
            let cfg = VmConfig {
                profile_period: period,
                fuel: Some(20_000_000),
                ..VmConfig::default()
            };
            let mut vm = attach_plan(&p, plan.clone(), cfg);
            let result = format!("{:?}", vm.run_entry());
            (result, observe(&vm), vm.state.profiler.samples())
        };
        let (res_off, obs_off, samples_off) = run(0);
        let (res_on, obs_on, samples_on) = run(2_500);
        assert_eq!(samples_off, 0, "{name}: period 0 must disable sampling");
        assert_eq!(
            (res_on, obs_on),
            (res_off, obs_off),
            "{name}: profiling moved the result, output or clock"
        );
        sampled_anywhere |= samples_on > 0;
    }
    assert!(sampled_anywhere, "no corpus case was long enough to sample");
}
