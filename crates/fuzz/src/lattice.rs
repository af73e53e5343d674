//! The configuration lattice: every generated program runs once per entry,
//! and the oracle compares fingerprints at two strictness levels.
//!
//! * **Output identity** — result value, output text and checksum — is the
//!   global conformance property: it must hold across tiers, adaptive
//!   recompilation, mutation on/off, cache capacities, tracing and fault
//!   injection. The single exception is guards-off mutation
//!   (`output_group: "noguard"`): running specialization *without* its
//!   safety net legitimately lets stale specialized frames misbehave, so
//!   those configs are only compared among themselves.
//! * **Full identity** — the whole [`crate::oracle::FuzzObs`], modeled
//!   clock and mutation counters included — holds inside a `clock_group`:
//!   configs that differ only in machinery the model promises is
//!   transparent (cache capacity, tracing, transparent faults).
//!
//! Forced-guard-failure injection changes which code version executes
//! (and therefore billing), so that config carries an empty clock group:
//! it participates in the output check only. The same goes for disarming
//! the resilience governor under mutation. Identically-seeded storm and
//! compile-failure twins, by contrast, share a clock group: governor
//! decisions themselves must be bit-deterministic.

/// Host-side perturbation applied to a run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fault {
    /// No injector.
    None,
    /// Transparent faults (forced GCs, silent recompiles) at every
    /// allocation point, from this seed.
    Transparent(u64),
    /// Forced guard failures from this seed.
    GuardFail(u64),
    /// Forced compile failures from this seed: every faulted compile
    /// tiers the method down to its cached baseline and eventually
    /// quarantines it. Output must not move.
    CompileFail(u64),
}

/// How many fleet tenants execute the config and what they share.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FleetMode {
    /// One VM, no fleet machinery (the default).
    Solo,
    /// The identical run executed inside a 2-worker `dchm_vm::fleet` shard
    /// pool probing a shared compile-artifact cache: executor threads and
    /// artifact sharing must be invisible to the full fingerprint, so the
    /// config shares its solo twin's clock group.
    SharedFleet,
    /// Two identical tenants through one shared cache, fingerprinting the
    /// second: full-fingerprint identity with solo, *and* the oracle
    /// asserts the second tenant ran zero compiler pipelines
    /// (`compile_wall_nanos == 0`, no shared-cache misses).
    TenantPair,
}

/// One VM configuration of the lattice.
#[derive(Clone, Debug)]
pub struct ConfigSpec {
    /// Display name, unique in the lattice.
    pub name: &'static str,
    /// Level methods are first compiled at.
    pub initial_level: u8,
    /// Adaptive promotion on (fast cadence) or pinned at `initial_level`.
    pub adaptive: bool,
    /// Attach the synthesized plan with its hot states (true) or with hot
    /// states stripped — identical instrumentation, no specialization.
    pub mutate: bool,
    /// Plant state guards in special code. Ignored when `mutate` is off.
    pub emit_guards: bool,
    /// State-keyed code cache capacity (0 disables).
    pub cache_capacity: usize,
    /// Fly the flight recorder.
    pub tracing: bool,
    /// Arm the cycle-attribution profiler (fast period). Like tracing, a
    /// transparent observer: it shares the reference's clock group.
    pub profile: bool,
    /// Fault injection.
    pub fault: Fault,
    /// 512 MiB heap (no organic GC) instead of the tiny default that
    /// forces collections during allocation bursts.
    pub big_heap: bool,
    /// Resilience governor (deopt-storm throttling + compile quarantine)
    /// armed. Off is the ungoverned reference: identical output, possibly
    /// different billing once a storm actually triggers.
    pub governor: bool,
    /// Frame-depth ceiling override (`None` keeps the VM default). An
    /// unhit ceiling must be fully transparent.
    pub max_frame_depth: Option<usize>,
    /// Fleet execution mode (see [`FleetMode`]); host-side machinery only,
    /// so every mode may share a clock group with its solo twin.
    pub fleet: FleetMode,
    /// Configs sharing a non-empty clock group must match on the full
    /// fingerprint. Empty = compared for output only.
    pub clock_group: &'static str,
    /// Output-identity partition ("main" or "noguard").
    pub output_group: &'static str,
}

impl ConfigSpec {
    const fn base(name: &'static str, clock_group: &'static str) -> Self {
        ConfigSpec {
            name,
            initial_level: 0,
            adaptive: false,
            mutate: false,
            emit_guards: true,
            cache_capacity: 0,
            tracing: false,
            profile: false,
            fault: Fault::None,
            big_heap: false,
            governor: true,
            max_frame_depth: None,
            fleet: FleetMode::Solo,
            clock_group,
            output_group: "main",
        }
    }
}

/// The full lattice, 26 configurations.
pub fn lattice() -> Vec<ConfigSpec> {
    // Mutation off across the tier ladder: output must be tier-invariant.
    let mut v = vec![
        ConfigSpec::base("base0-nomut", "t0-off"),
        ConfigSpec {
            initial_level: 1,
            ..ConfigSpec::base("opt1-nomut", "t1-off")
        },
        ConfigSpec {
            initial_level: 2,
            ..ConfigSpec::base("opt2-nomut", "t2-off")
        },
        ConfigSpec {
            adaptive: true,
            ..ConfigSpec::base("adaptive-nomut", "ad-off")
        },
        // No mutation means no guard failures, so the governor never acts:
        // disabling it must be invisible down to the modeled clock.
        ConfigSpec {
            adaptive: true,
            governor: false,
            ..ConfigSpec::base("adaptive-nomut-nogov", "ad-off")
        },
    ];

    // Mutation on, adaptive: the cache-capacity/tracing transparency group.
    let ad_on = |name, cache_capacity, tracing| ConfigSpec {
        adaptive: true,
        mutate: true,
        cache_capacity,
        tracing,
        ..ConfigSpec::base(name, "ad-on")
    };
    v.push(ad_on("adaptive-mut", 1024, false));
    v.push(ad_on("adaptive-mut-nocache", 0, false));
    v.push(ad_on("adaptive-mut-cache1", 1, false));
    v.push(ad_on("adaptive-mut-traced", 1024, true));
    // The attribution profiler is a transparent observer like the tracer:
    // same clock group, full-fingerprint identity required.
    v.push(ConfigSpec {
        profile: true,
        ..ad_on("adaptive-mut-profiled", 1024, false)
    });
    // An unhit frame-depth ceiling is fully transparent: generated
    // programs never recurse, so 64 frames is bottomless for them.
    v.push(ConfigSpec {
        max_frame_depth: Some(64),
        ..ad_on("adaptive-mut-depth64", 1024, false)
    });
    // Fleet transparency: the very same adaptive-mut run inside a shard
    // pool with a shared compile-artifact cache must carry the reference's
    // full fingerprint — shard threads and artifact adoption are host-side
    // machinery, invisible to the modeled state by construction.
    v.push(ConfigSpec {
        fleet: FleetMode::SharedFleet,
        ..ad_on("fleet-shared-cache", 1024, false)
    });
    // Two identical tenants through one cache: the second must match the
    // solo fingerprint while running zero compiler pipelines (the oracle
    // asserts compile_wall_nanos == 0 on it).
    v.push(ConfigSpec {
        fleet: FleetMode::TenantPair,
        ..ad_on("two-tenant-shared", 1024, false)
    });
    // Governor disarmed under mutation: organic flip churn may legally
    // bill differently once a real storm would have been damped, so this
    // config participates in the output check only.
    v.push(ConfigSpec {
        governor: false,
        clock_group: "",
        ..ad_on("adaptive-mut-nogov", 1024, false)
    });

    // Mutation on at pinned tiers.
    v.push(ConfigSpec {
        mutate: true,
        cache_capacity: 1024,
        ..ConfigSpec::base("base0-mut", "t0-on")
    });
    v.push(ConfigSpec {
        initial_level: 2,
        mutate: true,
        cache_capacity: 1024,
        ..ConfigSpec::base("opt2-mut", "t2-on")
    });

    // Guards off: quarantined output group (stale specialized frames are
    // allowed to misbehave — that divergence is the hazard itself, see
    // vm/tests/deopt.rs), but the two members must still agree with each
    // other in full.
    let no_guard = |name, cache_capacity| ConfigSpec {
        adaptive: true,
        mutate: true,
        emit_guards: false,
        cache_capacity,
        output_group: "noguard",
        ..ConfigSpec::base(name, "ad-ng")
    };
    v.push(no_guard("adaptive-noguard", 1024));
    v.push(no_guard("adaptive-noguard-nocache", 0));

    // Big heap: the fault-injection transparency group (injected GCs must
    // be the only collector activity, mirroring vm/tests/fault_injection).
    let big = |name, fault, tracing, clock_group| ConfigSpec {
        adaptive: true,
        mutate: true,
        cache_capacity: 1024,
        tracing,
        fault,
        big_heap: true,
        ..ConfigSpec::base(name, clock_group)
    };
    v.push(big("adaptive-mut-big", Fault::None, false, "big"));
    v.push(big(
        "adaptive-mut-big-faultA",
        Fault::Transparent(0xA11CE),
        true,
        "big",
    ));
    v.push(big(
        "adaptive-mut-big-faultB",
        Fault::Transparent(0xB0B),
        false,
        "big",
    ));
    // Forced guard failures change which code version runs (and bills):
    // output check only.
    v.push(big(
        "adaptive-mut-big-guardfail",
        Fault::GuardFail(0xC0FFEE),
        true,
        "",
    ));

    // Governor determinism twins: identical forced-guard-fail storms must
    // produce bit-identical throttle/blacklist decisions — the pair shares
    // a clock group, so any nondeterminism in the governor (hash-order
    // iteration, host-time leakage) surfaces as a full-fingerprint split.
    // The second twin flies the recorder: tracing stays transparent even
    // while the governor is acting.
    v.push(big(
        "adaptive-mut-storm1",
        Fault::GuardFail(0x5707),
        false,
        "storm",
    ));
    v.push(big(
        "adaptive-mut-storm2",
        Fault::GuardFail(0x5707),
        true,
        "storm",
    ));

    // Compile-failure quarantine twins: every faulted compile tiers down
    // to the cached baseline, and decisions must be bit-identical.
    v.push(big(
        "adaptive-mut-cfail1",
        Fault::CompileFail(0xFA11),
        false,
        "cfail",
    ));
    v.push(big(
        "adaptive-mut-cfail2",
        Fault::CompileFail(0xFA11),
        true,
        "cfail",
    ));

    v
}

/// A copy of `configs` with guard emission silently cleared on the config
/// named `name` — the deliberate one-guard-site break used to prove the
/// oracle and shrinker end to end (`--break-guards`).
pub fn tampered(configs: &[ConfigSpec], name: &str) -> Vec<ConfigSpec> {
    configs
        .iter()
        .map(|c| {
            let mut c = c.clone();
            if c.name == name {
                c.emit_guards = false;
            }
            c
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn names_are_unique_and_groups_consistent() {
        let l = lattice();
        assert_eq!(l.len(), 26);
        let names: HashSet<_> = l.iter().map(|c| c.name).collect();
        assert_eq!(names.len(), l.len());
        for c in &l {
            if c.fleet != FleetMode::Solo {
                // Fleet modes are host-side machinery: they must claim full
                // fingerprint identity with their solo clock-group twins,
                // never hide behind an output-only comparison.
                assert!(!c.clock_group.is_empty(), "{} must carry a clock group", c.name);
            }
            assert!(c.output_group == "main" || c.output_group == "noguard");
            if c.output_group == "noguard" {
                assert!(c.mutate && !c.emit_guards);
            }
            if let Fault::Transparent(_) | Fault::GuardFail(_) | Fault::CompileFail(_) = c.fault {
                assert!(c.big_heap, "fault configs need the quiet heap");
            }
            if !c.governor {
                // Ungoverned references compare against governed configs:
                // output-only unless mutation (hence storms) is impossible.
                assert!(!c.mutate || c.clock_group.is_empty());
            }
        }
    }

    #[test]
    fn tampering_flips_exactly_one_config() {
        let l = lattice();
        let t = tampered(&l, "adaptive-mut");
        let changed: Vec<_> = l
            .iter()
            .zip(&t)
            .filter(|(a, b)| a.emit_guards != b.emit_guards)
            .collect();
        assert_eq!(changed.len(), 1);
        assert_eq!(changed[0].0.name, "adaptive-mut");
    }
}
