//! Resilience-governor acceptance suite (ISSUE 8 tentpole).
//!
//! The storm scenario is [`dchm_testutil::storm_salarydb`]: SalaryDB's
//! branch ladder plus a no-op `grade` re-store at the end of `raise()`.
//! Under `FaultConfig::guard_failures` at period 1 every specialized
//! `raise()` call guard-fails, deoptimizes, finishes at baseline — and the
//! re-store's patch point flips the object straight back onto its special
//! TIB, re-arming the storm for the next call. An ungoverned VM grinds
//! through that forever; the governor must throttle per-site
//! respecialization with exponential backoff and eventually blacklist the
//! specials, while changing *nothing* about the program's output.
//!
//! The other half of the suite drives the containment boundary: injected
//! panics become typed `RunError::VmInvariant` with a poisoned VM, injected
//! OOM becomes `RunError::OutOfMemory`, and `max_frame_depth` turns runaway
//! recursion into `RunError::StackOverflow` — all without ever aborting the
//! test harness.

use dchm_bytecode::{CmpOp, MethodSig, Program, ProgramBuilder, Ty, Value};
use dchm_core::{MutationEngine, OlcReport};
use dchm_testutil::{
    attach_plan, find_workload, harness_config, observe, prepare_workload, run_with_plan,
    storm_config, storm_salarydb, Obs,
};
use dchm_trace::TraceEvent;
use dchm_vm::governor::{BACKOFF_BASE, BACKOFF_MAX_EXP};
use dchm_vm::{FaultConfig, FaultInjector, RunError, Vm, VmConfig};
use dchm_workloads::{catalog, Scale};

/// Highest throttle episode of a traced run (0 when nothing throttled).
fn max_episode(vm: &Vm) -> u32 {
    let episodes = vm.state.tracer.events().into_iter().filter_map(|e| match e.event {
        TraceEvent::SpecialThrottled { episode, .. } => Some(episode),
        _ => None,
    });
    episodes.max().unwrap_or(0)
}

/// One storm run: specials exist from the first compile (the plan's
/// `mutation_level` is 0), every guard is forced to fail (period 1). At 24
/// employees × 400 raises the shipped thresholds walk the full escalation
/// ladder (throttle → doubled backoffs → blacklist).
fn run_storm(seed: u64, governor_on: bool, trace: bool) -> Vm {
    let (p, plan) = storm_salarydb(24, 400);
    let mut vm = attach_plan(&p, plan, VmConfig::default());
    if trace {
        vm.enable_tracing(1 << 16);
    }
    vm.state.config.governor.enabled = governor_on;
    vm.state.injector = Some(FaultInjector::new(FaultConfig {
        period: 1,
        ..FaultConfig::guard_failures(seed)
    }));
    vm.run_entry().expect("storm run completes");
    vm
}

/// The core acceptance property: under a sustained forced-guard-fail storm
/// the governed VM produces bit-identical output while the escalation
/// ladder (throttle → backoff → blacklist) caps the deopt churn at a small
/// constant per site — the ungoverned VM deopts on *every* call forever.
///
/// The modeled clock may not grow: guards are 0-cycle and the deopt
/// transition is unbilled, so damping the storm can only remove host-side
/// work (the host wall of a Full-scale storm is `benchmark/`'s
/// `deopt_storm` workload).
#[test]
fn governed_storm_same_output_with_damped_churn() {
    let off = run_storm(1, false, false);
    let on = run_storm(1, true, false);

    assert_eq!(off.state.output.text, on.state.output.text);
    assert_eq!(off.state.output.checksum, on.state.output.checksum);

    let s = on.stats();
    assert!(s.specials_throttled > 0, "storm never throttled");
    assert!(s.specials_blacklisted >= 1, "storm never blacklisted");
    assert!(
        on.cycles() <= off.cycles(),
        "governor made the storm slower on the modeled clock"
    );
    // The ungoverned VM deopts and TIB-flips persistently more: the
    // governed run stops churning once every site is pinned.
    assert!(
        off.stats().deopts >= 4 * s.deopts,
        "churn not damped: off {} deopts vs on {}",
        off.stats().deopts,
        s.deopts
    );
    assert!(off.stats().tib_flips >= 4 * s.tib_flips);
}

/// The tiering acceptance gate: with the adaptive system promoting
/// `raise` to opt2 (the `storm_config` cadence), a deopt storm pins every
/// call to the padded level-0 baseline, while the governed VM escalates to
/// pinned *general opt2* code — at least twice the modeled throughput for
/// the same output, with the deopt churn cut at least twentyfold. The
/// host-wall form of the same storm is `benchmark/`'s `deopt_storm`.
#[test]
fn governed_storm_doubles_modeled_throughput_under_tiering() {
    let mut clocks = Vec::new();
    let mut deopts = Vec::new();
    let mut outputs = Vec::new();
    for on in [false, true] {
        let (p, plan) = storm_salarydb(24, 400);
        let mut vm = attach_plan(&p, plan, storm_config());
        vm.state.config.governor.enabled = on;
        vm.state.injector = Some(FaultInjector::new(FaultConfig {
            period: 1,
            ..FaultConfig::guard_failures(1)
        }));
        vm.run_entry().expect("storm run completes");
        clocks.push(vm.cycles());
        deopts.push(vm.stats().deopts);
        outputs.push((vm.state.output.text.clone(), vm.state.output.checksum));
    }
    assert_eq!(outputs[0], outputs[1], "governor changed storm output");
    assert!(
        clocks[0] >= 2 * clocks[1],
        "tiered storm not 2x damped: off {} vs on {}",
        clocks[0],
        clocks[1]
    );
    assert!(
        deopts[0] >= 20 * deopts[1],
        "tiered storm churn not damped 20x: off {} deopts vs on {}",
        deopts[0],
        deopts[1]
    );
}

/// Governor decisions are pure functions of (method id, binding
/// fingerprint, modeled clock): re-running the same storm gives the same
/// fingerprint and the same throttle/blacklist counts, across seeds.
#[test]
fn storm_decisions_bit_identical_across_runs() {
    for seed in [1u64, 2, 3] {
        let a = run_storm(seed, true, false);
        let b = run_storm(seed, true, false);
        assert_eq!(observe(&a), observe(&b), "seed {seed} diverged");
        let (sa, sb) = (a.stats(), b.stats());
        assert_eq!(sa.specials_throttled, sb.specials_throttled);
        assert_eq!(sa.specials_blacklisted, sb.specials_blacklisted);
        assert_eq!(sa.deopts, sb.deopts);
    }
}

/// Every throttle event's backoff must match the deterministic schedule:
/// episode `n` backs off exactly `base << min(n-1, max_exp)` modeled
/// cycles from the cycle it fired at.
#[test]
fn backoff_schedule_is_exponential_and_monotone() {
    let vm = run_storm(1, true, true);
    let mut episodes_seen = 0u32;
    for ev in vm.state.tracer.events() {
        if let TraceEvent::SpecialThrottled { episode, until_cycle, .. } = ev.event {
            let want = BACKOFF_BASE << (episode - 1).min(BACKOFF_MAX_EXP);
            assert_eq!(
                until_cycle - ev.cycle,
                want,
                "episode {episode} backed off {} cycles, want {want}",
                until_cycle - ev.cycle
            );
            episodes_seen += 1;
        }
    }
    assert!(episodes_seen >= 2, "storm produced {episodes_seen} throttle events");
    assert!(max_episode(&vm) >= 2, "backoff never escalated past episode 1");
}

/// Once the last special is blacklisted the storm is over for good: no
/// deoptimization can happen afterwards, because every site is pinned to
/// general (guard-free) code permanently.
#[test]
fn blacklisted_specials_never_reenter() {
    let vm = run_storm(1, true, true);
    let events = vm.state.tracer.events();
    let last_blacklist = events
        .iter()
        .filter(|e| matches!(e.event, TraceEvent::SpecialBlacklisted { .. }))
        .map(|e| e.seq)
        .max()
        .expect("storm must blacklist at least one special");
    // The guard failure that *triggered* the final blacklist still has to
    // deoptimize its own frame (the verdict lands before the transfer), so
    // exactly one deopt may trail the event; none after that.
    let late_deopts = events
        .iter()
        .filter(|e| e.seq > last_blacklist && matches!(e.event, TraceEvent::Deopt { .. }))
        .count();
    assert!(
        late_deopts <= 1,
        "{late_deopts} deopts after the last blacklist — a banned special re-entered"
    );
}

/// A governor that never fires is invisible: with no injector the storm
/// program's guards all pass (the re-store flips to the *same* state), so
/// governor-on and governor-off runs must agree on output AND clock.
#[test]
fn untriggered_governor_is_clock_transparent_on_storm_program() {
    let mut obs = Vec::new();
    for on in [true, false] {
        let (p, plan) = storm_salarydb(24, 40);
        let mut vm = attach_plan(&p, plan, VmConfig::default());
        vm.state.config.governor.enabled = on;
        vm.run_entry().expect("quiet run completes");
        assert_eq!(vm.stats().specials_throttled, 0);
        assert_eq!(vm.stats().specials_blacklisted, 0);
        obs.push(observe(&vm));
    }
    assert_eq!(obs[0], obs[1]);
}

/// Same transparency property over the full Table 1 catalog: the governor
/// ships enabled by default, and on healthy workloads (no injected
/// faults, no storms) disabling it must not move a single modeled cycle.
#[test]
fn untriggered_governor_is_clock_transparent_on_all_workloads() {
    for w in catalog(Scale::Small) {
        let prepared = prepare_workload(&w);
        let mut obs = Vec::new();
        for on in [true, false] {
            let mut vm = prepared.make_vm(harness_config(&w));
            vm.state.config.governor.enabled = on;
            w.run(&mut vm).expect("workload runs");
            assert_eq!(vm.stats().specials_throttled, 0, "{}: governor fired organically", w.name);
            obs.push(observe(&vm));
        }
        assert_eq!(obs[0], obs[1], "{}: governor toggle moved the fingerprint", w.name);
    }
}

/// Compile failures tier the affected method down to its cached level-0
/// baseline; persistent failure quarantines the (method, level) pair.
/// Output must be identical to a fault-free run — only billing may move.
#[test]
fn compile_failures_tier_down_without_changing_output() {
    let (p, plan) = storm_salarydb(24, 40);
    let reference = {
        let mut vm = attach_plan(&p, plan.clone(), VmConfig::default());
        vm.run_entry().expect("reference run completes");
        vm
    };
    let mut vm = attach_plan(&p, plan, VmConfig::default());
    vm.enable_tracing(1 << 16);
    vm.state.injector = Some(FaultInjector::new(FaultConfig {
        period: 1,
        ..FaultConfig::compile_failures(3)
    }));
    vm.run_entry().expect("tier-down run completes");

    assert_eq!(reference.state.output.text, vm.state.output.text);
    assert_eq!(reference.state.output.checksum, vm.state.output.checksum);
    let s = vm.stats();
    assert!(s.compile_failures > 0, "no compile failures injected");
    assert!(s.compile_quarantines > 0, "period-1 failures never quarantined");

    // Stale-hit regression: while a (method, level) pair is quarantined the
    // compile path is gated *before* the codecache probe, so no cache hit
    // for that pair may appear inside a quarantine's backoff interval.
    let events = vm.state.tracer.events();
    for q in &events {
        let TraceEvent::CompileQuarantine { method, level, until_cycle, .. } = q.event else {
            continue;
        };
        for h in &events {
            if let TraceEvent::CodeCacheHit { method: hm, level: hl, .. } = h.event {
                assert!(
                    !(hm == method && hl == level && h.seq > q.seq && h.cycle < until_cycle),
                    "codecache hit for quarantined (method {method}, level {level}) \
                     inside its backoff window"
                );
            }
        }
    }
}

/// Injected panics must not cross the `Vm::run` boundary: the harness sees
/// a typed `VmInvariant`, the VM is poisoned, and any further run refuses
/// with `Poisoned` instead of touching suspect state.
#[test]
fn injected_panic_is_contained_and_poisons_the_vm() {
    let (p, plan) = storm_salarydb(24, 40);
    let mut vm = attach_plan(&p, plan, VmConfig::default());
    vm.state.injector = Some(FaultInjector::new(FaultConfig {
        gc_at_alloc: false,
        recompiles: false,
        panic_at_op: true,
        period: 5,
        ..FaultConfig::transparent(7)
    }));
    match vm.run_entry() {
        Err(RunError::VmInvariant { what }) => {
            assert!(what.contains("contained panic"), "unexpected invariant: {what}")
        }
        other => panic!("expected contained panic, got {other:?}"),
    }
    assert!(vm.state.poisoned);
    assert!(matches!(vm.run_entry(), Err(RunError::Poisoned)));
}

/// Injected OOM at an allocation point surfaces as the ordinary typed
/// `OutOfMemory` trap — a recoverable error, not poison.
#[test]
fn injected_oom_reports_out_of_memory() {
    let (p, plan) = storm_salarydb(24, 40);
    let mut vm = attach_plan(&p, plan, VmConfig::default());
    vm.state.injector = Some(FaultInjector::new(FaultConfig {
        gc_at_alloc: false,
        recompiles: false,
        oom_at_alloc: true,
        period: 5,
        ..FaultConfig::transparent(7)
    }));
    assert!(matches!(vm.run_entry(), Err(RunError::OutOfMemory { .. })));
    assert!(!vm.state.poisoned, "typed OOM must not poison the VM");
}

/// A typed trap leaves its frames for post-mortem; the next online install
/// (was an assert outside containment) drops them, and the VM then runs the
/// program to the output a fresh VM produces.
#[test]
fn a_trapped_vm_accepts_an_online_install_and_runs_again() {
    let (p, plan) = storm_salarydb(24, 40);
    let mut vm = Vm::new(p.clone(), VmConfig::default());
    vm.state.injector = Some(FaultInjector::new(FaultConfig {
        gc_at_alloc: false,
        recompiles: false,
        oom_at_alloc: true,
        period: 5,
        ..FaultConfig::transparent(7)
    }));
    assert!(matches!(vm.run_entry(), Err(RunError::OutOfMemory { .. })));
    assert!(!vm.state.frames.is_empty(), "the trapping frames stay inspectable");
    vm.state.injector = None;
    MutationEngine::new(plan.clone(), OlcReport::default()).install_online(&mut vm);
    assert!(vm.state.frames.is_empty() && vm.state.reg_stack.is_empty());
    vm.state.output = Default::default();
    vm.run_entry().expect("the reused VM completes");
    let fresh = run_with_plan(&p, plan, VmConfig::default());
    assert_eq!(vm.state.output.checksum, fresh.state.output.checksum);
    assert!(vm.stats().tib_flips > 0, "the online plan is live");
}

/// depth-`n` self-recursion through virtual dispatch (the semantics_edge
/// recursion shape, parameterized).
fn recursion_program(depth: i64) -> Program {
    let mut pb = ProgramBuilder::new();
    let helper = pb.class("Deep").build();
    pb.trivial_ctor(helper);
    let mut m = pb.method(helper, "go", MethodSig::new(vec![Ty::Int], Some(Ty::Int)));
    let this = m.this();
    let n = m.param(0);
    let base = m.label();
    m.br_icmp_imm(CmpOp::Le, n, 0, base);
    let one = m.imm(1);
    let n1 = m.reg();
    m.isub(n1, n, one);
    let r = m.reg();
    m.call_virtual(Some(r), this, "go", vec![n1]);
    m.iadd(r, r, one);
    m.ret(Some(r));
    m.bind(base);
    let zero = m.imm(0);
    m.ret(Some(zero));
    m.build();

    let mut m = pb.static_method(helper, "main", MethodSig::new(vec![], Some(Ty::Int)));
    let o = m.reg();
    m.new_init(o, helper, vec![]);
    let d = m.imm(depth);
    let out = m.reg();
    m.call_virtual(Some(out), o, "go", vec![d]);
    m.ret(Some(out));
    let main = m.build();
    pb.set_entry(main);
    pb.finish().unwrap()
}

fn recursion_config(limit: Option<usize>) -> VmConfig {
    VmConfig {
        sample_period: u64::MAX,
        max_frame_depth: limit,
        ..Default::default()
    }
}

/// The frame-depth limit converts runaway recursion into a typed
/// `StackOverflow` naming the depth the call would have reached.
#[test]
fn frame_depth_limit_traps_deep_recursion() {
    let mut vm = Vm::new(recursion_program(200), recursion_config(Some(50)));
    match vm.run_entry() {
        Err(RunError::StackOverflow { depth, limit }) => {
            assert_eq!(limit, 50);
            assert_eq!(depth, 51, "overflow must fire on the first over-limit push");
        }
        other => panic!("expected stack overflow, got {other:?}"),
    }
    assert!(!vm.state.poisoned, "stack overflow is a trap, not poison");
}

/// A limit that is never hit is free: runs under `Some(big)` and `None`
/// produce identical fingerprints (the check is host-side, 0 cycles).
#[test]
fn unhit_frame_depth_limit_is_cycle_transparent() {
    let mut obs: Vec<Obs> = Vec::new();
    for limit in [None, Some(1_000)] {
        let mut vm = Vm::new(recursion_program(200), recursion_config(limit));
        assert_eq!(vm.run_entry().unwrap(), Some(Value::Int(200)));
        obs.push(observe(&vm));
    }
    assert_eq!(obs[0], obs[1]);
}

/// A zero-frame budget refuses even the entry call.
#[test]
fn zero_frame_budget_refuses_entry() {
    let mut vm = Vm::new(recursion_program(1), recursion_config(Some(0)));
    assert!(matches!(
        vm.run_entry(),
        Err(RunError::StackOverflow { limit: 0, .. })
    ));
}

/// SalaryDB from the real catalog survives a forced-guard-fail storm too —
/// fewer escalations than the storm program, but output stays equal and
/// throttling engages.
#[test]
fn catalog_salarydb_storm_is_damped_with_default_config() {
    let w = find_workload("SalaryDB");
    let prepared = prepare_workload(&w);
    let mut obs = Vec::new();
    let mut throttled = 0;
    for on in [false, true] {
        let mut vm = prepared.make_vm(harness_config(&w));
        vm.state.config.governor.enabled = on;
        vm.state.injector = Some(FaultInjector::new(FaultConfig {
            period: 1,
            ..FaultConfig::guard_failures(1)
        }));
        w.run(&mut vm).expect("storm run completes");
        if on {
            throttled = vm.stats().specials_throttled;
        }
        obs.push((vm.state.output.text.clone(), vm.state.output.checksum));
    }
    assert_eq!(obs[0], obs[1], "governor changed SalaryDB output under storm");
    assert!(throttled > 0, "default config never throttled a period-1 storm");
}

mod properties {
    use super::*;
    use dchm_fuzz::gen::Rng;

    /// Re-runs one storm schedule twice and returns (fingerprint, governor
    /// stats, highest episode) of the first, asserting the second is
    /// bit-identical.
    fn storm_twice(employees: i64, iters: i64, seed: u64) -> (Obs, u64, u64, u32) {
        let mut out = None;
        for _ in 0..2 {
            let (p, plan) = storm_salarydb(employees, iters);
            let mut vm = attach_plan(&p, plan, VmConfig::default());
            vm.enable_tracing(1 << 16);
            vm.state.injector = Some(FaultInjector::new(FaultConfig {
                period: 1,
                ..FaultConfig::guard_failures(seed)
            }));
            vm.run_entry().expect("storm run completes");
            let got = (
                observe(&vm),
                vm.stats().specials_throttled,
                vm.stats().specials_blacklisted,
                max_episode(&vm),
            );
            match &out {
                None => out = Some(got),
                Some(first) => assert_eq!(*first, got, "storm schedule not reproducible"),
            }
        }
        out.unwrap()
    }

    /// Any storm schedule (any shape, any seed) is deterministic, and the
    /// governed run never changes output relative to ungoverned. Returns
    /// the governed run's highest episode and blacklist count.
    fn check_random_schedule(employees: i64, iters: i64, seed: u64) -> (u32, u64) {
        let (gov, _, blacklisted, episode) = storm_twice(employees, iters, seed);

        let (p, plan) = storm_salarydb(employees, iters);
        let mut vm = attach_plan(&p, plan, VmConfig::default());
        vm.state.config.governor.enabled = false;
        vm.state.injector = Some(FaultInjector::new(FaultConfig {
            period: 1,
            ..FaultConfig::guard_failures(seed)
        }));
        vm.run_entry().expect("ungoverned run completes");
        assert_eq!(vm.state.output.text, gov.text);
        assert_eq!(vm.state.output.checksum, gov.checksum);
        assert!(vm.cycles() >= gov.clock, "governor made the storm slower");
        (episode, blacklisted)
    }

    /// Backoff deadlines never regress: per run, every throttle event's
    /// `until_cycle` is past its own fire cycle, and fire cycles only move
    /// forward (episodes escalate with the modeled clock). Returns the
    /// run's highest episode.
    fn check_monotone_deadlines(seed: u64) -> u32 {
        let (p, plan) = storm_salarydb(16, 64);
        let mut vm = attach_plan(&p, plan, VmConfig::default());
        vm.enable_tracing(1 << 16);
        vm.state.injector = Some(FaultInjector::new(FaultConfig {
            period: 1,
            ..FaultConfig::guard_failures(seed)
        }));
        vm.run_entry().expect("storm run completes");
        let mut last_until = 0u64;
        let mut last_cycle = 0u64;
        for ev in vm.state.tracer.events() {
            if let TraceEvent::SpecialThrottled { until_cycle, .. } = ev.event {
                assert!(ev.cycle >= last_cycle);
                assert!(until_cycle > ev.cycle);
                assert!(until_cycle >= last_until || ev.cycle >= last_until);
                last_until = until_cycle;
                last_cycle = ev.cycle;
            }
        }
        max_episode(&vm)
    }

    /// Storms of 16–32 employees × 128–512 raises: large enough that the
    /// shipped thresholds escalate past episode 1, and some blacklist.
    #[test]
    fn random_storm_schedules_are_deterministic() {
        let (mut top_episode, mut blacklists) = (0, 0);
        for case in 0..16 {
            let mut rng = Rng::new(case);
            let employees = 16 + rng.below(17) as i64;
            let iters = 128 + rng.below(385) as i64;
            let seed = 1 + rng.below(1023);
            let (episode, blacklisted) = check_random_schedule(employees, iters, seed);
            top_episode = top_episode.max(episode);
            blacklists += blacklisted;
        }
        assert!(top_episode >= 2, "no storm escalated past episode {top_episode}");
        assert!(blacklists >= 1, "no storm blacklisted a special");
    }

    #[test]
    fn backoff_deadlines_are_monotone() {
        let top_episode = (0..16)
            .map(|case| check_monotone_deadlines(1 + Rng::new(case).below(255)))
            .max()
            .unwrap();
        assert!(top_episode >= 2, "no storm escalated past episode {top_episode}");
    }
}
