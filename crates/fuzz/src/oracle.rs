//! The multi-config differential oracle: run one program + plan through
//! every lattice entry and compare fingerprints at the strictness each
//! pairing is entitled to (see [`crate::lattice`]).

use crate::lattice::{ConfigSpec, Fault, FleetMode};
use dchm_core::MutationPlan;
use dchm_testutil::{attach_plan, observe, Obs};
use dchm_vm::fleet::{run_fleet, FleetConfig};
use dchm_vm::{program_fingerprint, FaultConfig, FaultInjector, SharedCodeCache, VmConfig};
use std::sync::Arc;

/// Heap for configs that should collect during allocation bursts: sized so
/// a few hundred burst objects (header + 8 bytes per field) exhaust it and
/// collections land mid-flip, while the live set (a handful of driver
/// objects) stays tiny.
const SMALL_HEAP: usize = 32 << 10;
/// Heap for fault-injection configs: organic GC never fires, so injected
/// (free) GCs are the only collector activity.
const BIG_HEAP: usize = 512 << 20;
/// Safety net against generator bugs; generated programs execute a few
/// hundred thousand ops, nowhere near this.
const FUEL: u64 = 20_000_000;

/// Full fingerprint of one lattice run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FuzzObs {
    /// `Debug` rendering of the `run_entry` result (value or trap).
    pub result: String,
    /// Output + modeled-clock fingerprint.
    pub obs: Obs,
    /// Object TIB-pointer flips performed by the mutation engine.
    pub tib_flips: u64,
    /// Special TIBs created.
    pub special_tibs: u64,
    /// State-guard failures observed.
    pub guard_failures: u64,
    /// Frames deoptimized onto baseline code.
    pub deopts: u64,
    /// Deopt-storm throttle episodes started by the governor.
    pub specials_throttled: u64,
    /// Specials permanently blacklisted by the governor.
    pub specials_blacklisted: u64,
    /// Compilations that failed (all injected in this harness).
    pub compile_failures: u64,
    /// (method, level) pairs quarantined after repeated compile failures.
    pub compile_quarantines: u64,
}

impl FuzzObs {
    /// The globally-comparable slice: result, output text, checksum.
    pub fn output(&self) -> (&str, &str, u64) {
        (&self.result, &self.obs.text, self.obs.checksum)
    }
}

/// Runs `p` under one lattice configuration and fingerprints it.
pub fn run_config(p: &dchm_bytecode::Program, plan: &MutationPlan, c: &ConfigSpec) -> FuzzObs {
    let mut plan = plan.clone();
    if c.mutate {
        plan.emit_guards = c.emit_guards;
        // Specialize at the code level this tier actually compiles, so
        // every mutation-on config exercises its specializer.
        plan.mutation_level = c.initial_level;
    } else {
        // Hot states stripped, classes kept: patch-point instrumentation
        // stays identical to mutation-on runs, nothing ever specializes.
        for mc in &mut plan.classes {
            mc.hot_states.clear();
        }
    }

    let mut cfg = VmConfig {
        heap_bytes: if c.big_heap { BIG_HEAP } else { SMALL_HEAP },
        initial_level: c.initial_level,
        fuel: Some(FUEL),
        code_cache_capacity: c.cache_capacity,
        ..VmConfig::default()
    };
    if c.adaptive {
        cfg.sample_period = 600;
        cfg.opt1_samples = 2;
        cfg.opt2_samples = 4;
    } else {
        cfg.sample_period = u64::MAX;
    }
    cfg.governor.enabled = c.governor;
    // Explicit either way: the default config arms the profiler, and the
    // lattice wants exactly one profiled member per comparison, not all.
    cfg.profile_period = if c.profile { 2_500 } else { 0 };
    if let Some(depth) = c.max_frame_depth {
        cfg.max_frame_depth = Some(depth);
    }

    // One tenant run. The fingerprint stays host-free (`FuzzObs` carries
    // only modeled observables and is compared with `==`); the wall and
    // shared-cache counters ride alongside so fleet modes can assert them
    // without ever leaking into the compared value.
    let run_one = |shared: Option<Arc<SharedCodeCache>>| -> (FuzzObs, u64, u64) {
        let mut vm = attach_plan(p, plan.clone(), cfg.clone());
        if let Some(sc) = shared {
            vm.state.attach_shared_cache(sc, program_fingerprint(p));
        }
        if c.tracing {
            vm.enable_tracing(16 * 1024);
        }
        match c.fault {
            Fault::None => {}
            Fault::Transparent(seed) => {
                vm.state.injector = Some(FaultInjector::new(FaultConfig {
                    period: 1,
                    ..FaultConfig::transparent(seed)
                }));
            }
            Fault::GuardFail(seed) => {
                vm.state.injector = Some(FaultInjector::new(FaultConfig::guard_failures(seed)));
            }
            Fault::CompileFail(seed) => {
                vm.state.injector = Some(FaultInjector::new(FaultConfig::compile_failures(seed)));
            }
        }

        let result = format!("{:?}", vm.run_entry());
        let s = vm.stats();
        let obs = FuzzObs {
            result,
            obs: observe(&vm),
            tib_flips: s.tib_flips,
            special_tibs: s.special_tibs,
            guard_failures: s.guard_failures,
            deopts: s.deopts,
            specials_throttled: s.specials_throttled,
            specials_blacklisted: s.specials_blacklisted,
            compile_failures: s.compile_failures,
            compile_quarantines: s.compile_quarantines,
        };
        (obs, vm.state.compile_wall_nanos, vm.state.shared_misses)
    };

    match c.fleet {
        FleetMode::Solo => run_one(None).0,
        FleetMode::SharedFleet => {
            // The identical run executed on a fleet shard thread with a
            // shared cache attached; the clock-group comparison against the
            // solo reference proves the whole stack transparent.
            let shared = Arc::new(SharedCodeCache::new(1024));
            run_fleet(&FleetConfig::dynamic(2), &[()], |_ctx, ()| {
                run_one(Some(Arc::clone(&shared))).0
            })
            .results
            .into_iter()
            .next()
            .expect("one job yields one result")
        }
        FleetMode::TenantPair => {
            // Tenant 1 populates, tenant 2 must be answered entirely from
            // the cache: zero misses, hence *exactly* zero compiler wall.
            let shared = Arc::new(SharedCodeCache::new(1024));
            let (first, _, _) = run_one(Some(Arc::clone(&shared)));
            let (second, wall, misses) = run_one(Some(shared));
            assert_eq!(first, second, "identical tenants diverged");
            assert_eq!(misses, 0, "tenant 2 fell through to its compiler");
            assert_eq!(wall, 0, "tenant 2 ran a compiler pipeline");
            second
        }
    }
}

/// A conformance violation between two lattice configurations.
#[derive(Clone, Debug)]
pub struct Divergence {
    /// `"output"` (global identity broken) or `"clock"` (full-fingerprint
    /// identity broken inside a clock group).
    pub kind: &'static str,
    /// Reference config of the comparison group.
    pub config_a: String,
    /// The config that disagreed with it.
    pub config_b: String,
    /// Both fingerprints, rendered.
    pub detail: String,
}

/// Runs the whole lattice: every run's fingerprint, in `configs` order, or
/// the first divergence.
///
/// Output identity is checked first (it is the conformance property;
/// a clock mismatch usually rides along with it), then full-fingerprint
/// identity inside each non-empty clock group.
///
/// # Errors
/// The first pair of configs whose fingerprints their groups say must
/// agree and do not.
pub fn check(
    p: &dchm_bytecode::Program,
    plan: &MutationPlan,
    configs: &[ConfigSpec],
) -> Result<Vec<FuzzObs>, Divergence> {
    let results: Vec<FuzzObs> = configs.iter().map(|c| run_config(p, plan, c)).collect();

    let find = |key: fn(&ConfigSpec) -> &'static str,
                    eq: fn(&FuzzObs, &FuzzObs) -> bool,
                    kind: &'static str| {
        let mut refs: Vec<(&str, usize)> = Vec::new();
        for (i, c) in configs.iter().enumerate() {
            let group = key(c);
            if group.is_empty() {
                continue;
            }
            match refs.iter().find(|(g, _)| *g == group) {
                None => refs.push((group, i)),
                Some(&(_, r)) => {
                    if !eq(&results[r], &results[i]) {
                        return Some(Divergence {
                            kind,
                            config_a: configs[r].name.to_string(),
                            config_b: configs[i].name.to_string(),
                            detail: format!(
                                "{}: {:?}\n{}: {:?}",
                                configs[r].name, results[r], configs[i].name, results[i]
                            ),
                        });
                    }
                }
            }
        }
        None
    };

    let divergence = find(
        |c| c.output_group,
        |a, b| a.output() == b.output(),
        "output",
    )
    .or_else(|| find(|c| c.clock_group, |a, b| a == b, "clock"));
    divergence.map_or(Ok(results), Err)
}
