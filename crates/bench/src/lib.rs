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

/// The value following `flag` in a raw argument list, if present.
pub fn flag_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

/// True when `flag` appears anywhere in the argument list.
pub fn has_flag(args: &[String], flag: &str) -> bool {
    args.iter().any(|a| a == flag)
}

/// The benchmark scale selected by `--small` (default [`Scale::Full`]).
pub fn scale_from_args(args: &[String]) -> Scale {
    if has_flag(args, "--small") {
        Scale::Small
    } else {
        Scale::Full
    }
}

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
    fn flag_parsing() {
        let a: Vec<String> = ["--small", "--out", "dir"].map(String::from).to_vec();
        assert!(has_flag(&a, "--small"));
        assert!(!has_flag(&a, "--trace"));
        assert_eq!(flag_value(&a, "--out").as_deref(), Some("dir"));
        assert_eq!(flag_value(&a, "--missing"), None);
        assert_eq!(scale_from_args(&a), Scale::Small);
        assert_eq!(scale_from_args(&[]), Scale::Full);
    }

    #[test]
    fn table1_has_all_benchmarks() {
        let t = table1(Scale::Small);
        assert_eq!(t.len(), 7);
        assert!(t.iter().all(|(_, c, m)| *c > 0 && *m > 0));
    }
}
