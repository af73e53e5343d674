//! Fault-injection differential runner.
//!
//! The injector perturbs the *host-side machinery* — forced GCs at
//! allocation points, global IC-version bumps, silent same-level
//! recompilation — none of which may move observable output or the modeled
//! clock by a single tick. Every workload of the paper's Table 1 is run
//! with injection off (reference) and on at three seeds; the observable
//! fingerprint must be bit-identical.
//!
//! Forced guard failures are different: they legitimately change which code
//! version executes (specialized frames deoptimize to baseline, which is
//! billed differently), so those runs assert *output* identity only —
//! the correctness property guards exist to protect.
//!
//! Heaps are enlarged so no organic collection fires: an injected (free)
//! GC must then be the only collector activity, keeping billing untouched.
//!
//! Extra seed: set `DCHM_FAULT_SEED=<n>` to add a fourth seed to every
//! sweep (the CI fault-injection job pins one).
//!
//! Random programs get the same treatment from the root package's
//! `tests/lattice.rs`: random arithmetic bodies run mutation off, on, and
//! on under transparent faults and forced guard failures, as groups of the
//! fuzz lattice.

use dchm_testutil::{big_heap_config, fail_with_trace, find_workload, observe, prepare_with};
use dchm_vm::{FaultConfig, FaultInjector, RunError, Vm, VmConfig};
use dchm_workloads::Workload;

fn seeds() -> Vec<u64> {
    let mut s = vec![1, 2, 3];
    if let Ok(v) = std::env::var("DCHM_FAULT_SEED") {
        if let Ok(n) = v.parse::<u64>() {
            if !s.contains(&n) {
                s.push(n);
            }
        }
    }
    s
}

fn run_mutated(w: &Workload, injector: Option<FaultInjector>, trace: bool) -> Vm {
    let prepared = prepare_with(w, big_heap_config(w));
    let mut vm = prepared.make_vm(big_heap_config(w));
    if trace {
        // Injected runs fly the flight recorder: every injected fault lands
        // in the ring as a `FaultInjected` event, so a divergence below can
        // name the faults that preceded it. Tracing itself is covered by
        // the same fingerprint comparison — the reference run is untraced.
        vm.enable_tracing(16 * 1024);
    }
    vm.state.injector = injector;
    w.run(&mut vm).expect("mutated run must not trap");
    vm
}

fn check_workload(name: &str) {
    let w = find_workload(name);
    let reference = observe(&run_mutated(&w, None, false));
    assert!(reference.clock > 0);

    for seed in seeds() {
        // Transparent faults: GC at allocations and silent recompiles — at
        // *every* allocation point (period 1), the most hostile schedule.
        // Fingerprint must not move at all.
        let cfg = FaultConfig {
            period: 1,
            ..FaultConfig::transparent(seed)
        };
        let vm = run_mutated(&w, Some(FaultInjector::new(cfg)), true);
        let inj = vm.state.injector.as_ref().expect("injector survives");
        assert!(
            inj.gcs + inj.recompiles > 0,
            "{name}: seed {seed} injected nothing — the sweep proves nothing"
        );
        let got = observe(&vm);
        if got != reference {
            fail_with_trace(
                &vm,
                format!(
                    "{name}: transparent fault injection (seed {seed}) perturbed the run \
                     ({} gcs, {} recompiles injected)\n got: {got:?}\n ref: {reference:?}",
                    inj.gcs, inj.recompiles
                ),
            );
        }

        // Forced guard failures: output identity only — deoptimized frames
        // legitimately execute (and bill) baseline instead of specialized
        // code.
        let vm = run_mutated(
            &w,
            Some(FaultInjector::new(FaultConfig::guard_failures(seed))),
            true,
        );
        let got = observe(&vm);
        if got.text != reference.text || got.checksum != reference.checksum {
            fail_with_trace(
                &vm,
                format!(
                    "{name}: forced guard failures (seed {seed}) changed observable output\n \
                     got: {got:?}\n ref: {reference:?}"
                ),
            );
        }
        let inj = vm.state.injector.as_ref().expect("injector survives");
        if inj.forced_guard_fails > 0 {
            assert!(
                vm.stats().deopts >= 1,
                "{name}: forced guard failures must deoptimize"
            );
            // Every injector-forced failure is mirrored in the event
            // stream (ring capacity permitting, which 16k covers here).
            let forced_events = vm
                .trace_events()
                .iter()
                .filter(|e| {
                    matches!(
                        e.event,
                        dchm_vm::trace::TraceEvent::GuardFail { forced: true, .. }
                    )
                })
                .count() as u64;
            assert_eq!(
                forced_events, inj.forced_guard_fails,
                "{name}: forced guard failures must all be traced"
            );
        }
    }
}

#[test]
fn salarydb_bit_identical_under_injection() {
    check_workload("SalaryDB");
}

#[test]
fn simlogic_bit_identical_under_injection() {
    check_workload("SimLogic");
}

#[test]
fn csv2xml_bit_identical_under_injection() {
    check_workload("CSVToXML");
}

#[test]
fn java2xhtml_bit_identical_under_injection() {
    check_workload("Java2XHTML");
}

#[test]
fn weka_bit_identical_under_injection() {
    check_workload("Weka");
}

#[test]
fn jbb2000_bit_identical_under_injection() {
    check_workload("SPECjbb2000");
}

#[test]
fn jbb2005_bit_identical_under_injection() {
    check_workload("SPECjbb2005");
}

#[test]
fn fuel_exhaustion_is_a_clean_typed_trap_under_injection() {
    // An unbounded loop with a fuel limit must surface RunError::OutOfFuel
    // — not a panic, not a wedged VM — whether or not faults are flying.
    use dchm_bytecode::{MethodSig, ProgramBuilder};
    let mut pb = ProgramBuilder::new();
    let c = pb.class("Spin").build();
    let mut m = pb.static_method(c, "main", MethodSig::void());
    let o = m.reg();
    let head = m.label();
    m.bind(head);
    m.new_obj(o, c); // allocation site: gives at_alloc faults a home
    m.jmp(head);
    let main = m.build();
    pb.set_entry(main);
    let p = pb.finish().unwrap();

    for injector in [
        None,
        Some(FaultInjector::new(FaultConfig::transparent(7))),
        Some(FaultInjector::new(FaultConfig::guard_failures(7))),
    ] {
        let cfg = VmConfig {
            fuel: Some(200_000),
            heap_bytes: 64 << 20,
            ..Default::default()
        };
        let mut vm = Vm::new(p.clone(), cfg);
        vm.state.injector = injector;
        let err = vm.run_entry().expect_err("loop must exhaust fuel");
        assert!(matches!(err, RunError::OutOfFuel), "got {err}");
    }
}
