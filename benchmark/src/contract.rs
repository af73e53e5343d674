//! The names the benchmark promises: workloads, the end-to-end metrics a
//! harness gates on, and the per-layer metrics of the traced pass.
//! `BENCHMARK.json` at the repository root is this table rendered; a unit
//! test keeps the two in step.

use std::fmt::Write as _;

/// Direction in which a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// The five workloads: name and the one-line reason each exists.
pub const WORKLOADS: [(&str, &str); 5] = [
    (
        "catalog_full",
        "seven Table-1 programs at full scale, text to output; the interpreter does >90% of the work, compiler <=3%, heap 0",
    ),
    (
        "short_programs",
        "96 generated + 7 small catalog programs of ~10k ops; compile, VM construction and attach dominate, interpretation barely shows",
    ),
    (
        "alloc_gc",
        "AllocChurn under a heap 1.1x its live set plus SPECjbb2005 at heap/32; the only workload that collects, GC >=40% of wall",
    ),
    (
        "deopt_storm",
        "storm_salarydb under period-1 forced guard failures, governed (131 deopts) and ungoverned (400000): guard, deopt, TIB restore",
    ),
    (
        "fleet_fanout",
        "56 short tenants through run_fleet with a fresh shared cache per batch: per-tenant construction, shared-cache probes and the queue matter",
    ),
];

/// Seconds one driver run measures.
pub const RUN_SECONDS: u32 = 20;

/// Gated end-to-end metrics `(name, unit, better, bound)`; each is defined
/// on every workload (see `README.md` for the per-workload definitions).
pub const END_TO_END: [(&str, &str, Better, f64); 4] = [
    ("wall_ms", "ms", Better::Lower, 0.25),
    ("work_per_s", "1/s", Better::Higher, 0.25),
    ("peak_rss_mb", "MB", Better::Lower, 0.10),
    ("setup_s", "s", Better::Lower, 0.25),
];

/// Per-layer metrics `(name, unit, better)`, printed by the traced pass on
/// every workload (0 where a layer does no work on that workload).
pub const PER_LAYER: [(&str, &str, Better); 92] = [
    ("bytecode.assemble_us", "us", Better::Lower),
    ("bytecode.assemble_instrs_per_s", "1/s", Better::Higher),
    ("bytecode.verify_us", "us", Better::Lower),
    ("profile.hot_run_ms", "ms", Better::Lower),
    ("profile.value_run_ms", "ms", Better::Lower),
    ("profile.observer_overhead_ratio", "ratio", Better::Lower),
    ("core.analysis.find_state_fields_us", "us", Better::Lower),
    ("core.analysis.build_plan_us", "us", Better::Lower),
    ("core.olc.analyze_us", "us", Better::Lower),
    ("core.synth.plan_us", "us", Better::Lower),
    ("core.engine.attach_us", "us", Better::Lower),
    ("core.plan.classes", "count", Better::Higher),
    ("core.plan.states", "count", Better::Higher),
    ("core.engine.special_tibs", "count", Better::Higher),
    ("core.mutation.wall_speedup", "ratio", Better::Higher),
    ("ir.lift_us_per_method", "us", Better::Lower),
    ("ir.lift_ops", "count", Better::Lower),
    ("ir.pass.specialize_us", "us", Better::Lower),
    ("ir.pass.constprop_us", "us", Better::Lower),
    ("ir.pass.lvn_us", "us", Better::Lower),
    ("ir.pass.copyprop_us", "us", Better::Lower),
    ("ir.pass.strength_us", "us", Better::Lower),
    ("ir.pass.dce_us", "us", Better::Lower),
    ("ir.pass.simplify_cfg_us", "us", Better::Lower),
    ("ir.pass.inline_us", "us", Better::Lower),
    ("ir.pass.specialize_rewrites", "count", Better::Higher),
    ("ir.pass.constprop_rewrites", "count", Better::Higher),
    ("ir.pass.lvn_rewrites", "count", Better::Higher),
    ("ir.pass.copyprop_rewrites", "count", Better::Higher),
    ("ir.pass.strength_rewrites", "count", Better::Higher),
    ("ir.pass.dce_rewrites", "count", Better::Higher),
    ("ir.pass.simplify_cfg_rewrites", "count", Better::Higher),
    ("ir.pass.inline_rewrites", "count", Better::Higher),
    ("ir.ops_after_l0", "count", Better::Lower),
    ("ir.ops_after_l1", "count", Better::Lower),
    ("ir.ops_after_l2", "count", Better::Lower),
    ("vm.compiler.compile_us_l0", "us", Better::Lower),
    ("vm.compiler.compile_us_l1", "us", Better::Lower),
    ("vm.compiler.compile_us_l2", "us", Better::Lower),
    ("vm.compiler.special_us", "us", Better::Lower),
    ("vm.compiler.wall_ms", "ms", Better::Lower),
    ("vm.compiler.wall_share", "ratio", Better::Lower),
    ("vm.compiler.compiles_l0", "count", Better::Lower),
    ("vm.compiler.compiles_l1", "count", Better::Lower),
    ("vm.compiler.compiles_l2", "count", Better::Lower),
    ("vm.compiler.special_compiles", "count", Better::Lower),
    ("vm.compiler.code_bytes", "count", Better::Lower),
    ("vm.codecache.cold_sweep_us", "us", Better::Lower),
    ("vm.codecache.warm_sweep_us", "us", Better::Lower),
    ("vm.codecache.probe_ns", "ns", Better::Lower),
    ("vm.codecache.hit_ratio", "ratio", Better::Higher),
    ("vm.codecache.lift_hit_ratio", "ratio", Better::Higher),
    ("vm.codecache.shared_hit_ratio", "ratio", Better::Higher),
    ("vm.interp.run_ms", "ms", Better::Lower),
    ("vm.interp.ns_per_op", "ns", Better::Lower),
    ("vm.interp.ops", "count", Better::Lower),
    ("vm.interp.ic_hit_ratio", "ratio", Better::Higher),
    ("vm.interp.ic_invalidations", "count", Better::Lower),
    ("vm.interp.samples_taken", "count", Better::Lower),
    ("vm.interp.construct_us", "us", Better::Lower),
    ("vm.tib.flips", "count", Better::Lower),
    ("vm.tib.special_tib_bytes", "count", Better::Lower),
    ("vm.heap.alloc_object_ns", "ns", Better::Lower),
    ("vm.heap.gc_now_us", "us", Better::Lower),
    ("vm.heap.gc_count", "count", Better::Lower),
    ("vm.heap.bytes_allocated", "count", Better::Lower),
    ("vm.heap.gc_wall_share", "ratio", Better::Lower),
    ("vm.heap.census_us", "us", Better::Lower),
    ("vm.deopt.count", "count", Better::Lower),
    ("vm.deopt.count_governed", "count", Better::Lower),
    ("vm.deopt.guards_executed", "count", Better::Lower),
    ("vm.deopt.guard_failures", "count", Better::Lower),
    ("vm.deopt.baseline_compiles", "count", Better::Lower),
    ("vm.deopt.ns_per_deopt", "ns", Better::Lower),
    ("vm.governor.throttled", "count", Better::Lower),
    ("vm.governor.blacklisted", "count", Better::Lower),
    ("vm.governor.quarantines", "count", Better::Lower),
    ("vm.fleet.tenants_per_s", "1/s", Better::Higher),
    ("vm.fleet.wall_speedup", "ratio", Better::Higher),
    ("vm.fleet.worker_busy_share", "ratio", Better::Higher),
    ("vm.fleet.queue_imbalance_ms", "ms", Better::Lower),
    ("vm.fleet.tenant_construct_us", "us", Better::Lower),
    ("vm.fleet.shared_hits", "count", Better::Higher),
    ("host.cores", "cores", Better::Higher),
    ("host.unpinned_wall_ratio", "ratio", Better::Lower),
    ("trace.vm_tracing_overhead_pct", "%", Better::Lower),
    ("trace.profiler_overhead_pct", "%", Better::Lower),
    ("trace.span_overhead_pct", "%", Better::Lower),
    ("trace.spans", "count", Better::Lower),
    ("trace.stage_coverage_min", "ratio", Better::Higher),
    ("modeled.clock_cycles", "cycles", Better::Lower),
    ("modeled.ops", "count", Better::Lower),
];

/// Renders `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let mut out = String::from(
        "{\n  \"command\": [\"bash\", \"benchmark/run.sh\"],\n  \"paths\": [\"benchmark\"],\n",
    );
    let _ = writeln!(out, "  \"run_seconds\": {RUN_SECONDS},");
    out.push_str("  \"workloads\": [\n");
    for (i, (name, why)) in WORKLOADS.iter().enumerate() {
        let comma = if i + 1 < WORKLOADS.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{name}\", \"why\": \"{why}\"}}{comma}"
        );
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, (name, unit, better, bound)) in END_TO_END.iter().enumerate() {
        let comma = if i + 1 < END_TO_END.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{}\", \"bound\": {bound}}}{comma}",
            better.as_str()
        );
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    for (i, (name, unit, better)) in PER_LAYER.iter().enumerate() {
        let comma = if i + 1 < PER_LAYER.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{}\"}}{comma}",
            better.as_str()
        );
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn name_ok(n: &str) -> bool {
        n.len() <= 64
            && n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn names_units_and_bounds_meet_the_contract() {
        let mut seen = BTreeSet::new();
        for (n, why) in WORKLOADS {
            assert!(name_ok(n) && seen.insert(n), "{n}");
            assert!(
                why.len() <= 200 && !why.contains('\n') && !why.contains('"'),
                "{n}: {}",
                why.len()
            );
        }
        let units_ok = |u: &str| {
            u.len() <= 16
                && u.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        for (n, u, _, bound) in END_TO_END {
            assert!(name_ok(n) && seen.insert(n) && units_ok(u), "{n}");
            assert!(bound > 0.0 && bound <= 0.25, "{n}");
        }
        for (n, u, _) in PER_LAYER {
            assert!(name_ok(n) && seen.insert(n) && units_ok(u), "{n}");
        }
        assert!(END_TO_END
            .iter()
            .any(|m| m.0 == "setup_s" && m.1 == "s" && m.2 == Better::Lower));
        assert!((1..=60).contains(&RUN_SECONDS));
    }

    #[test]
    fn committed_benchmark_json_is_this_table() {
        let committed = include_str!("../../BENCHMARK.json");
        assert_eq!(
            committed,
            benchmark_json(),
            "regenerate BENCHMARK.json from contract.rs"
        );
        assert!(committed.len() <= 64 * 1024);
    }
}
