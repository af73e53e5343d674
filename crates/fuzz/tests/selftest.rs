//! The fuzzer's own acceptance tests: the generated population exercises
//! the paper's machinery (the oracle is not vacuously green), and a
//! deliberately broken guard site is caught and shrunk to a minimal repro.

use dchm_fuzz::{
    check_spec, compile_spec, generate, lattice, lower, minimize, run_config, tampered,
};

/// A fuzzer whose programs never specialize, flip or deoptimize would pass
/// the lattice trivially. Sweep the first seeds and demand the machinery
/// lights up somewhere in the population.
#[test]
fn generated_population_exercises_the_machinery() {
    let cfgs = lattice();
    let adaptive_mut = cfgs.iter().find(|c| c.name == "adaptive-mut").unwrap();
    let (mut specials, mut flips, mut fails, mut deopts, mut gcs) = (0u64, 0u64, 0u64, 0u64, 0u64);
    for seed in 0..12 {
        let (p, plan) = compile_spec(&generate(seed)).expect("generator output lowers");
        let o = run_config(&p, &plan, adaptive_mut);
        specials += o.special_tibs;
        flips += o.tib_flips;
        fails += o.guard_failures;
        deopts += o.deopts;
        gcs += u64::from(o.obs.gc_cycles > 0);
    }
    assert!(specials > 0, "no special TIBs across the population");
    assert!(flips > 0, "no TIB flips across the population");
    assert!(fails > 0, "no guard failures across the population");
    assert!(deopts > 0, "no deopts across the population");
    assert!(gcs > 0, "no run collected on the small heap");
}

/// The acceptance scenario: silently strip guard emission from one
/// mutation-on config (what `--break-guards` does), prove the oracle
/// reports an *output* divergence, and shrink it below the issue's bound —
/// at most 3 classes and a 10-instruction offending method.
#[test]
fn broken_guard_site_is_caught_and_shrinks_small() {
    let configs = tampered(&lattice(), "adaptive-mut");

    let (seed, spec, d) = (0..200)
        .find_map(|seed| {
            let spec = generate(seed);
            check_spec(&spec, &configs)
                .err()
                .filter(|d| d.kind == "output")
                .map(|d| (seed, spec, d))
        })
        .expect("some early seed must expose the missing guards as wrong output");

    let min = minimize(&spec, &configs, "output");
    let d2 = check_spec(&min, &configs).expect_err("minimized spec still diverges");
    assert_eq!(d2.kind, "output", "shrinking degraded the divergence kind");

    let p = lower(&min).expect("minimized spec lowers");
    assert!(
        p.classes.len() <= 3,
        "seed {seed} ({} vs {}): minimized to {} classes",
        d.config_a,
        d.config_b,
        p.classes.len()
    );
    let offending = p
        .methods
        .iter()
        .filter(|m| m.name == "work")
        .map(|m| m.code.len())
        .max()
        .expect("minimized program keeps a work method");
    assert!(
        offending <= 10,
        "seed {seed}: offending method still has {offending} instructions"
    );
}

/// Untampered, the same population conforms — the companion assertion that
/// makes the test above meaningful.
#[test]
fn untampered_lattice_is_clean_on_the_selftest_seeds() {
    let configs = lattice();
    for seed in 0..12 {
        if let Err(d) = check_spec(&generate(seed), &configs) {
            panic!(
                "seed {seed}: {} divergence between {} and {}\n{}",
                d.kind, d.config_a, d.config_b, d.detail
            );
        }
    }
}
