#![warn(missing_docs)]

//! # dchm-profile
//!
//! The offline profiling of the paper's Figure 3. The paper needed a run
//! per tool; here one run ([`profile`]) of one mutation-off VM yields both:
//!
//! - **Hot methods** ([`hot`]) — the stand-in for Intel VTune: per-method
//!   call frequencies and cycle shares.
//! - **Field values** ([`values`]) — the paper's augmented Jikes RVM: an
//!   observer watches candidate state fields and histograms the values
//!   written to them, from which hot states are derived.
//!
//! The observer charges no modeled cycles, so an observed run's hot report
//! equals a plain run's. Profiling is deterministic (the VM's clock is a
//! cycle model), so a profiling run and a measured run behave identically.

pub mod hot;
pub mod values;

pub use hot::{profile_hot_methods, HotMethodReport};
pub use values::{profile_field_values, ValueHistogram, ValueProfiler, ValueReport};

use dchm_bytecode::{FieldId, Program};
use dchm_vm::{Vm, VmConfig};

/// Runs `driver` once on a fresh mutation-off VM that histograms every
/// store to the `watch` fields; returns the method hotness and the value
/// histograms of that one run.
pub fn profile(
    program: Program,
    config: VmConfig,
    watch: impl IntoIterator<Item = FieldId>,
    driver: impl FnOnce(&mut Vm),
) -> (HotMethodReport, ValueReport) {
    let profiler = ValueProfiler::new(watch);
    let mut vm = Vm::new(program, config);
    vm.attach_observer(Box::new(profiler.clone()));
    driver(&mut vm);
    (HotMethodReport::from_vm(&vm), profiler.take_report())
}
