//! Compiled-code cache differential tests (ISSUE 6 tentpole).
//!
//! The cache's contract: at *any* capacity — including tiny capacities that
//! force constant eviction — and under any interleaving of state flips,
//! adaptive recompiles, plan reloads (which flush the cache via the
//! compiler-environment fingerprint) and fault-injected silent recompiles,
//! the VM must never execute stale specialized code. The check is
//! differential bit-identity: output text, checksum, modeled clock and op
//! count must match a cache-disabled run of the identical scenario, because
//! the cache is only allowed to elide host-side pipeline work.

use dchm_core::pipeline::Prepared;
use dchm_core::MutationEngine;
use dchm_testutil::{find_workload, harness_config, observe, prepare_workload};
use dchm_vm::{FaultConfig, FaultInjector, Vm, VmConfig};
use dchm_workloads::{catalog, Scale, Workload};

fn prepare_small(name: &str) -> (Workload, Prepared) {
    let w = find_workload(name);
    let prepared = prepare_workload(&w);
    (w, prepared)
}

/// Runs `rounds` rounds of plan-reload churn: each round builds a fresh
/// engine (same plan, per-round `emit_guards` flag) and installs it online
/// into the *running* VM, then runs the workload again. Guard-flag changes
/// alter the compiler-environment fingerprint, exercising whole-cache
/// invalidation; small capacities exercise LRU eviction; a transparent
/// fault injector adds silent recompiles through the cache.
fn churn(
    w: &Workload,
    prepared: &Prepared,
    capacity: usize,
    guard_flags: &[bool],
    fault_seed: Option<u64>,
) -> Vm {
    let mut cfg = harness_config(w);
    cfg.code_cache_capacity = capacity;
    let mut vm = Vm::new(prepared.program.clone(), cfg);
    if let Some(seed) = fault_seed {
        // Period 1: inject at every allocation point, the most hostile
        // schedule (a third of the draws are silent recompiles).
        let cfg = FaultConfig {
            period: 1,
            ..FaultConfig::transparent(seed)
        };
        vm.state.injector = Some(FaultInjector::new(cfg));
    }
    for &emit_guards in guard_flags {
        let mut plan = prepared.plan.clone();
        plan.emit_guards = emit_guards;
        let engine = MutationEngine::new(plan, prepared.olc.clone());
        engine.install_online(&mut vm);
        w.run(&mut vm).expect("churn round must not trap");
    }
    vm
}

/// Four rounds of plan-reload churn at the default capacity over the whole
/// small catalog: bit-identical to a cache-off run, with every workload's
/// counters pinned. Columns: code cache hits, misses, evictions; lift
/// cache hits, misses, consed.
#[test]
fn churn_reuses_cached_code_and_stays_bit_identical() {
    const PINNED: [(&str, [u64; 6]); 7] = [
        ("SalaryDB", [18, 12, 0, 8, 4, 0]),
        ("SimLogic", [14, 12, 0, 8, 4, 0]),
        ("CSVToXML", [8, 15, 0, 9, 6, 0]),
        ("Java2XHTML", [8, 14, 0, 8, 6, 0]),
        ("Weka", [9, 9, 0, 4, 5, 0]),
        ("SPECjbb2000", [30, 50, 0, 22, 28, 3]),
        ("SPECjbb2005", [23, 54, 0, 24, 30, 4]),
    ];
    let names: Vec<&str> = catalog(Scale::Small).iter().map(|w| w.name).collect();
    assert_eq!(names, PINNED.map(|(n, _)| n), "catalog changed");
    let capacity = VmConfig::default().code_cache_capacity;
    for (name, want) in PINNED {
        let (w, prepared) = prepare_small(name);
        let on = churn(&w, &prepared, capacity, &[true; 4], None);
        let off = churn(&w, &prepared, 0, &[true; 4], None);
        assert_eq!(observe(&on), observe(&off), "{name}: cache changed a modeled observable");

        let (s, lift) = (on.stats(), &on.state.lift_cache);
        let got = [
            s.code_cache_hits,
            s.code_cache_misses,
            s.code_cache_evictions,
            lift.hits,
            lift.misses,
            lift.consed,
        ];
        assert_eq!(got, want, "{name}: churn cache counters moved");
        assert_eq!(off.stats().code_cache_hits, 0, "{name}: disabled cache counted hits");
        assert_eq!(off.stats().code_cache_misses, 0, "{name}: disabled cache counted misses");
        // Hits reuse stored code ids, so the cached run's immortal code
        // store is strictly smaller — that is the space half of the win.
        assert!(
            on.state.code.len() < off.state.code.len(),
            "{name}: hits must not append duplicate code ({} vs {})",
            on.state.code.len(),
            off.state.code.len()
        );
    }
}

#[test]
fn plan_reload_with_changed_guard_config_invalidates() {
    let (w, prepared) = prepare_small("SalaryDB");
    // Rounds alternate guard emission: every flip changes the compiler
    // environment fingerprint, so each reinstall must flush the cache.
    let vm = churn(&w, &prepared, 1024, &[true, false, true], None);
    let s = vm.stats();
    assert!(
        s.code_cache_invalidations >= 2,
        "guard-config flips must flush (got {})",
        s.code_cache_invalidations
    );
    // And the flushes must not leak stale specialized code into the run.
    let off = churn(&w, &prepared, 0, &[true, false, true], None);
    assert_eq!(observe(&vm), observe(&off));
}

#[test]
fn tiny_capacity_evicts_but_never_executes_stale_code() {
    let (w, prepared) = prepare_small("SimLogic");
    let on = churn(&w, &prepared, 2, &[true, true], None);
    let off = churn(&w, &prepared, 0, &[true, true], None);
    assert_eq!(observe(&on), observe(&off));
    assert!(
        on.stats().code_cache_evictions > 0,
        "capacity 2 must evict under churn"
    );
}

#[test]
fn silent_fault_recompiles_hit_the_cache_without_touching_stats() {
    let (w, prepared) = prepare_small("SalaryDB");
    let flags = [true];
    let seed = 20_060_326;
    let on = churn(&w, &prepared, 1024, &flags, Some(seed));
    let off = churn(&w, &prepared, 0, &flags, Some(seed));
    let clean = churn(&w, &prepared, 1024, &flags, None);

    // Transparent faults stay transparent with the cache on.
    assert_eq!(observe(&on), observe(&off));
    assert_eq!(observe(&on), observe(&clean));
    let injected = on.state.injector.as_ref().expect("injector survives").recompiles;
    assert!(injected > 0, "seed must inject recompiles to prove anything");
    // Silent recompiles route through the cache: every injected recompile
    // of already-cached general code reuses the stored version instead of
    // appending an identical copy to the immortal code store...
    assert!(
        on.state.code.len() < off.state.code.len(),
        "cached silent recompiles must not duplicate code ({} vs {})",
        on.state.code.len(),
        off.state.code.len()
    );
    // ...and none of it shows in the stats: the injected run's cache
    // counters match the uninjected run's exactly.
    assert_eq!(on.stats().code_cache_hits, clean.stats().code_cache_hits);
    assert_eq!(on.stats().code_cache_misses, clean.stats().code_cache_misses);
    assert_eq!(on.stats().code_cache_evictions, clean.stats().code_cache_evictions);
}

mod fuzz {
    //! Random interleavings of state flips (the workloads themselves),
    //! adaptive recompiles, plan reloads with toggled guard config,
    //! LRU evictions (tiny capacities) and silent injected recompiles:
    //! cache-on must be bit-identical to cache-off in every scenario.

    use super::*;
    use dchm_fuzz::gen::Rng;

    #[test]
    fn random_churn_is_bit_identical_at_any_capacity() {
        for case in 0..12 {
            let mut rng = Rng::new(case);
            let name = ["SalaryDB", "SimLogic"][rng.below(2) as usize];
            let capacity = 1 + rng.below(4) as usize;
            let rounds = 1 + rng.below(3);
            let guard_flags: Vec<bool> = (0..rounds).map(|_| rng.below(2) == 1).collect();
            // 0 means "no injector"; anything else is the injector seed.
            let raw_fault = rng.below(1_000);
            let fault = (raw_fault != 0).then_some(raw_fault);
            let (w, prepared) = prepare_small(name);
            let on = churn(&w, &prepared, capacity, &guard_flags, fault);
            let off = churn(&w, &prepared, 0, &guard_flags, fault);
            assert_eq!(
                observe(&on),
                observe(&off),
                "{name}: capacity {capacity} flags {guard_flags:?} fault {fault:?} diverged"
            );
        }
    }
}
