//! Acceptance tests for the cycle-attribution profiler and the heap &
//! state census.
//!
//! The anchor property is the same one the tracer carries: attribution is
//! **transparent**. Profiling on vs. off leaves the modeled clock, the op
//! count and the workload output bit-identical — samples stamp the clock
//! but never charge it. On top of that the profiler is **deterministic**:
//! the sampling schedule is a pure function of the clock trajectory, so
//! the same run folds to the same `.folded` text every time, and host-side
//! caches (which elide wall work, never modeled work) cannot move it.

use dchm_testutil::{find_workload, harness_config, observe, prepare_with};
use dchm_vm::trace::TraceEvent;
use dchm_vm::{Vm, VmConfig};
use dchm_workloads::{catalog, Scale, Workload};

/// One mutated run with an explicit profile period (0 = off).
fn run_profiled(w: &Workload, period: u64) -> Vm {
    let mut cfg = harness_config(w);
    cfg.profile_period = period;
    let prepared = prepare_with(w, harness_config(w));
    let mut vm = prepared.make_vm(cfg);
    w.run(&mut vm).expect("mutated run must not trap");
    vm
}

#[test]
fn profiling_leaves_every_workload_bit_identical() {
    for w in catalog(Scale::Small) {
        let off = run_profiled(&w, 0);
        let on = run_profiled(&w, VmConfig::default().profile_period);
        assert_eq!(
            observe(&on),
            observe(&off),
            "{}: profiling must not move output or the modeled clock",
            w.name
        );
        assert!(
            on.state.profiler.samples() > 0,
            "{}: the default period must produce samples",
            w.name
        );
        assert_eq!(
            off.state.profiler.samples(),
            0,
            "{}: period 0 must disable sampling",
            w.name
        );
    }
}

#[test]
fn folded_output_is_identical_across_runs() {
    let w = find_workload("SalaryDB");
    let a = run_profiled(&w, 2_500).profile_folded();
    let b = run_profiled(&w, 2_500).profile_folded();
    assert!(!a.is_empty(), "SalaryDB must fold to at least one stack");
    assert_eq!(a, b, "same clock trajectory must fold identically");
}

#[test]
fn folded_output_is_identical_across_cache_capacities() {
    // The code cache elides host-side compile work only; the modeled clock
    // — and therefore the sampling schedule — must not notice it.
    let w = find_workload("SalaryDB");
    let folded: Vec<String> = [VmConfig::default().code_cache_capacity, 0]
        .into_iter()
        .map(|capacity| {
            let mut cfg = harness_config(&w);
            cfg.profile_period = 2_500;
            cfg.code_cache_capacity = capacity;
            let prepared = prepare_with(&w, harness_config(&w));
            let mut vm = prepared.make_vm(cfg);
            w.run(&mut vm).expect("mutated run must not trap");
            vm.profile_folded()
        })
        .collect();
    assert_eq!(folded[0], folded[1], "cache capacity moved the profile");
}

#[test]
fn profile_cells_attribute_tiers_and_states() {
    let w = find_workload("SalaryDB");
    let vm = run_profiled(&w, 2_500);
    let snap = vm.profile();
    assert_eq!(snap.period, 2_500);
    assert!(snap.samples > 0);
    let total: u64 = snap.cells.iter().map(|c| c.self_samples).sum();
    assert_eq!(total, snap.samples, "self samples partition the total");
    // The folded text and the cell table agree on the leaf totals.
    let leaves = dchm_vm::trace::profile::folded_leaf_cells(&vm.profile_folded());
    let folded_total: u64 = leaves.values().sum();
    assert_eq!(folded_total, snap.samples);
    // Display is the stable top-10 table used by fail_with_trace.
    let shown = format!("{snap}");
    assert!(shown.contains("samples"), "table must have a header");
}

#[test]
fn census_conserves_heap_bytes_at_any_tick() {
    for w in catalog(Scale::Small) {
        let vm = run_profiled(&w, 0);
        let census = vm.state.census();
        assert_eq!(
            census.total_bytes(),
            census.heap_used_bytes,
            "{}: census walk must account for every live byte",
            w.name
        );
        assert_eq!(
            census.heap_used_bytes,
            vm.state.heap.used_bytes() as u64,
            "{}: census snapshot disagrees with the heap accountant",
            w.name
        );
        let per_class_objects: u64 = census.per_class.iter().map(|c| c.objects).sum();
        assert_eq!(per_class_objects, census.live_objects);
        let per_tib_objects: u64 = census.per_tib.iter().map(|t| t.objects).sum();
        assert_eq!(per_tib_objects, census.live_objects);
    }
}

#[test]
fn census_is_transparent_and_traced_on_gc() {
    let w = find_workload("SalaryDB");
    // Tracing + profiling on: the run still matches the bare reference.
    let reference = observe(&run_profiled(&w, 0));
    let mut cfg = harness_config(&w);
    cfg.profile_period = 2_500;
    let prepared = prepare_with(&w, harness_config(&w));
    let mut vm = prepared.make_vm(cfg);
    vm.enable_tracing(16 * 1024);
    w.run(&mut vm).expect("mutated run must not trap");
    assert_eq!(observe(&vm), reference, "trace+profile perturbed SalaryDB");

    let events = vm.trace_events();
    let samples = events
        .iter()
        .filter(|e| matches!(e.event, TraceEvent::ProfileSample { .. }))
        .count();
    assert!(samples > 0, "profiler samples must reach the trace stream");
    // Every GC in the ring is followed by a census counter event.
    let gcs = events
        .iter()
        .filter(|e| matches!(e.event, TraceEvent::GcEnd { .. }))
        .count();
    let censuses = events
        .iter()
        .filter(|e| matches!(e.event, TraceEvent::Census { .. }))
        .count();
    if gcs > 0 {
        assert!(censuses >= gcs, "each traced GC must emit a census");
    }
}

#[test]
fn residency_tracker_survives_collection() {
    // Open stays are read from the headers of unswept objects, so a census
    // never resurrects a dead object: they are exactly the objects in
    // special-state TIBs.
    let w = find_workload("SalaryDB");
    let vm = run_profiled(&w, 0);
    let census = vm.state.census();
    let open: u64 = census.residency.iter().map(|r| r.residency.count - r.exits).sum();
    assert_eq!(open, census.in_special_state);
}
