//! # dchm-bench
//!
//! Measurement harness regenerating every table and figure of the paper's
//! evaluation (Section 7). The `repro` binary prints them.
//!
//! All comparisons run the *same* workload twice over the deterministic
//! cycle-model VM: once with mutation off (baseline) and once with the full
//! pipeline (profile → plan → mutation engine). Absolute cycle counts are
//! model cycles, not 2005 Pentium 4 cycles; every reported number is a
//! ratio, matching how the paper reports its results.

use dchm_core::pipeline::{prepare, PipelineConfig, Prepared};
use dchm_vm::{Vm, VmConfig};
use dchm_workloads::{catalog, Scale, Workload};

pub mod runner;

/// Cycle/space accounting extracted from one run.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct RunStats {
    /// Application execution cycles.
    pub exec_cycles: u64,
    /// Optimizing-compiler cycles (specials included).
    pub compile_cycles: u64,
    /// GC cycles.
    pub gc_cycles: u64,
    /// exec + compile + gc.
    pub total_cycles: u64,
    /// Bytes of general opt-compiled code produced.
    pub general_code_bytes: u64,
    /// Bytes of special (mutation) code produced.
    pub special_code_bytes: u64,
    /// Bytes of class TIBs.
    pub class_tib_bytes: u64,
    /// Bytes of special TIBs.
    pub special_tib_bytes: u64,
    /// Observable output checksum (used to assert equivalence).
    pub checksum: u64,
}

impl RunStats {
    fn from_vm(vm: &Vm) -> Self {
        let s = vm.stats();
        RunStats {
            exec_cycles: s.exec_cycles,
            compile_cycles: s.compile_cycles,
            gc_cycles: s.gc_cycles,
            total_cycles: s.total_cycles(),
            general_code_bytes: s.general_code_bytes(),
            special_code_bytes: s.special_code_bytes,
            class_tib_bytes: s.class_tib_bytes,
            special_tib_bytes: s.special_tib_bytes,
            checksum: vm.state.output.checksum,
        }
    }
}

/// A baseline/mutated measurement pair for one workload.
#[derive(Clone, Debug)]
pub struct Measurement {
    /// Workload name.
    pub name: &'static str,
    /// Mutation-off run.
    pub base: RunStats,
    /// Mutation-on run.
    pub mutated: RunStats,
    /// Per-warehouse throughput of the baseline run (jbb only).
    pub base_warehouses: Vec<f64>,
    /// Per-warehouse throughput of the mutated run (jbb only).
    pub mutated_warehouses: Vec<f64>,
}

impl Measurement {
    /// Overall speedup: baseline time over mutated time, minus one. For
    /// warehouse workloads this is steady-state throughput improvement
    /// (mean of the second half of the warehouses), matching the paper's
    /// use of steady-state warehouse throughput for SPECjbb.
    pub fn speedup(&self) -> f64 {
        if self.base_warehouses.len() > 1 {
            let half = self.base_warehouses.len() / 2;
            let b: f64 =
                self.base_warehouses[half..].iter().sum::<f64>() / (half.max(1) as f64);
            let m: f64 =
                self.mutated_warehouses[half..].iter().sum::<f64>() / (half.max(1) as f64);
            m / b - 1.0
        } else {
            self.base.total_cycles as f64 / self.mutated.total_cycles as f64 - 1.0
        }
    }

    /// Figure 10: opt-compiled code size increase.
    pub fn code_size_increase(&self) -> f64 {
        let base = self.base.general_code_bytes as f64;
        let mutated = (self.mutated.general_code_bytes + self.mutated.special_code_bytes) as f64;
        mutated / base.max(1.0) - 1.0
    }

    /// Figure 11: opt compilation time increase.
    pub fn compile_time_increase(&self) -> f64 {
        self.mutated.compile_cycles as f64 / self.base.compile_cycles.max(1) as f64 - 1.0
    }

    /// Figure 11 annotation: compile-to-execution fraction without mutation.
    pub fn compile_fraction(&self) -> f64 {
        self.base.compile_cycles as f64 / self.base.total_cycles.max(1) as f64
    }

    /// Figure 12: absolute TIB space increase in bytes.
    pub fn tib_increase_bytes(&self) -> u64 {
        self.mutated.special_tib_bytes
    }

    /// Figure 12 annotation: relative TIB space increase.
    pub fn tib_increase_rel(&self) -> f64 {
        self.mutated.special_tib_bytes as f64 / self.mutated.class_tib_bytes.max(1) as f64
    }

    /// Figures 13–15: per-warehouse throughput delta due to mutation.
    pub fn warehouse_deltas(&self) -> Vec<f64> {
        self.base_warehouses
            .iter()
            .zip(&self.mutated_warehouses)
            .map(|(b, m)| m / b - 1.0)
            .collect()
    }
}

/// Runs the offline pipeline for a workload.
pub fn prepare_workload(w: &Workload) -> Prepared {
    prepare_workload_with(w, dchm_core::AnalysisConfig::default())
}

/// Runs the offline pipeline with explicit analysis tunables (`repro
/// ablations` sweeps `R`, `k`, the mutation level and state caps).
fn prepare_workload_with(w: &Workload, analysis: dchm_core::AnalysisConfig) -> Prepared {
    let cfg = PipelineConfig {
        analysis,
        profile_vm: measured_config(w),
    };
    let wl = w.clone();
    prepare(w.program.clone(), &cfg, move |vm| {
        wl.run(vm).expect("profiling run");
    })
}

/// Measures one workload under explicit analysis tunables.
///
/// # Panics
/// Panics if the workload traps or mutation changes behaviour.
pub fn measure_with_analysis(
    w: &Workload,
    analysis: dchm_core::AnalysisConfig,
) -> Measurement {
    measure_prepared(w, &prepare_workload_with(w, analysis), measured_config(w))
}

/// The VM configuration used for measured runs.
pub fn measured_config(w: &Workload) -> VmConfig {
    let mut c = w.vm_config();
    // Sampling cadence chosen so full-scale runs reach opt2 within the
    // first fraction of the run, like the paper's warm-up period.
    c.sample_period = 15_000;
    c.opt1_samples = 3;
    c.opt2_samples = 8;
    c
}

/// Measures one workload with and without mutation.
///
/// # Panics
/// Panics if the workload traps, or if mutation changes the output
/// checksum (which would invalidate every number produced).
pub fn measure(w: &Workload, accelerated: bool) -> Measurement {
    let prepared = prepare_workload(w);
    let mut cfg = measured_config(w);
    if accelerated {
        // Figure 14: accelerate hotness detection for the mutable methods.
        for mc in &prepared.plan.classes {
            cfg.accelerated_methods.extend(mc.mutable_methods.iter().copied());
        }
    }
    measure_prepared(w, &prepared, cfg)
}

/// The baseline run under [`measured_config`] against the mutated run under
/// `mutated_cfg`, both from one prepared pipeline.
fn measure_prepared(w: &Workload, prepared: &Prepared, mutated_cfg: VmConfig) -> Measurement {
    let mut base_vm = prepared.make_baseline_vm(measured_config(w));
    let base_runs = w.run_warehouses(&mut base_vm).expect("baseline run");
    let mut mut_vm = prepared.make_vm(mutated_cfg);
    let mut_runs = w.run_warehouses(&mut mut_vm).expect("mutated run");

    let base = RunStats::from_vm(&base_vm);
    let mutated = RunStats::from_vm(&mut_vm);
    assert_eq!(
        base.checksum, mutated.checksum,
        "{}: mutation changed behaviour",
        w.name
    );
    Measurement {
        name: w.name,
        base,
        mutated,
        base_warehouses: base_runs.iter().map(|r| r.throughput()).collect(),
        mutated_warehouses: mut_runs.iter().map(|r| r.throughput()).collect(),
    }
}

/// Measures the full benchmark suite (Figure 9/10/11/12 inputs).
pub fn measure_suite(scale: Scale) -> Vec<Measurement> {
    catalog(scale).iter().map(|w| measure(w, false)).collect()
}

/// Tracing artifacts shared by the bench bins' `--trace <dir>` flags: the
/// Chrome trace-event/Perfetto JSON for a finished traced run, plus a
/// metrics document combining the VM's raw counters with the event-derived
/// histograms.
pub mod artifacts {
    use dchm_vm::trace::export::chrome_trace_json;
    use dchm_vm::trace::metrics::MetricsSnapshot;
    use dchm_vm::Vm;
    use serde::{Serialize, Value};
    use std::path::{Path, PathBuf};

    /// Writes `<dir>/<name>.trace.json` (load it in Perfetto or
    /// `chrome://tracing`) and `<dir>/<name>.metrics.json`
    /// (`{"workload", "vm_stats", "trace_metrics"}`) from a finished
    /// traced run. Returns the two paths.
    ///
    /// # Errors
    /// Propagates filesystem errors creating `dir` or writing the files.
    pub fn write_trace_artifacts(
        dir: &Path,
        name: &str,
        vm: &Vm,
    ) -> std::io::Result<(PathBuf, PathBuf)> {
        std::fs::create_dir_all(dir)?;
        let events = vm.trace_events();
        let trace_path = dir.join(format!("{name}.trace.json"));
        std::fs::write(&trace_path, chrome_trace_json(&events))?;

        let snapshot = MetricsSnapshot::build(&events, vm.cycles(), vm.state.tracer.dropped());
        let doc = Value::Object(vec![
            ("workload".to_string(), Value::Str(name.to_string())),
            ("vm_stats".to_string(), vm.stats().to_json_value()),
            ("trace_metrics".to_string(), snapshot.to_json_value()),
        ]);
        let metrics_path = dir.join(format!("{name}.metrics.json"));
        let json = serde_json::to_string_pretty(&doc).expect("Value serialization is infallible");
        std::fs::write(&metrics_path, json)?;
        Ok((trace_path, metrics_path))
    }

    /// Parses a `--trace <dir>` flag pair out of a raw argument list.
    pub fn trace_dir_flag(args: &[String]) -> Option<PathBuf> {
        crate::runner::flag_value(args, "--trace").map(PathBuf::from)
    }

    /// Writes `<dir>/<name>.folded` (Brendan-Gregg folded stacks from the
    /// cycle-attribution profiler; feed to `flamegraph.pl` or speedscope)
    /// and `<dir>/<name>.census.json` (`{"workload", "census"}` with the
    /// end-of-run heap & state census) from a finished run. Returns the two
    /// paths.
    ///
    /// # Errors
    /// Propagates filesystem errors creating `dir` or writing the files.
    pub fn write_profile_artifacts(
        dir: &Path,
        name: &str,
        vm: &Vm,
    ) -> std::io::Result<(PathBuf, PathBuf)> {
        std::fs::create_dir_all(dir)?;
        let folded_path = dir.join(format!("{name}.folded"));
        std::fs::write(&folded_path, vm.profile_folded())?;

        let doc = Value::Object(vec![
            ("workload".to_string(), Value::Str(name.to_string())),
            ("census".to_string(), vm.state.census().to_json_value()),
        ]);
        let census_path = dir.join(format!("{name}.census.json"));
        let json = serde_json::to_string_pretty(&doc).expect("Value serialization is infallible");
        std::fs::write(&census_path, json)?;
        Ok((folded_path, census_path))
    }

    /// Parses a `--profile <dir>` flag pair out of a raw argument list.
    pub fn profile_dir_flag(args: &[String]) -> Option<PathBuf> {
        crate::runner::flag_value(args, "--profile").map(PathBuf::from)
    }
}

/// Table 1 rows: name, classes, methods.
pub fn table1(scale: Scale) -> Vec<(&'static str, usize, usize)> {
    catalog(scale)
        .iter()
        .map(|w| {
            let (c, m) = w.program.table1_counts();
            (w.name, c, m)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measurement_ratios_are_consistent() {
        let w = dchm_workloads::salarydb::build(Scale::Small);
        let m = measure(&w, false);
        assert_eq!(m.base.checksum, m.mutated.checksum);
        assert!(m.speedup() > -1.0);
        assert!(m.code_size_increase() >= 0.0);
        assert!(m.tib_increase_bytes() > 0);
        assert!(m.compile_fraction() > 0.0 && m.compile_fraction() < 1.0);

        // What `repro ablations` prints, at a non-default tunable.
        let capped = dchm_core::AnalysisConfig {
            max_hot_states_per_class: 1,
            ..Default::default()
        };
        let a = measure_with_analysis(&w, capped);
        assert!(a.speedup().is_finite());
        assert!(a.mutated.special_code_bytes > 0);
        assert!(a.mutated.special_tib_bytes < m.mutated.special_tib_bytes);
    }

    #[test]
    fn table1_has_all_benchmarks() {
        let t = table1(Scale::Small);
        assert_eq!(t.len(), 7);
        assert!(t.iter().all(|(_, c, m)| *c > 0 && *m > 0));
    }
}
