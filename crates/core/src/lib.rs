#![warn(missing_docs)]

//! # dchm-core
//!
//! The paper's contribution: **dynamic class hierarchy mutation**
//! (Su & Lipasti, CGO 2006), implemented against the runtime mechanisms of
//! the `dchm-vm` crate.
//!
//! The pieces map to the paper's sections:
//!
//! * [`analysis`] — offline static analysis: EQ 1 state-field scoring over
//!   branch uses and assignments, weighted by loop nesting and method
//!   hotness (Sec. 3.1), plus hot-state derivation from value histograms.
//! * [`plan`] — the [`plan::MutationPlan`] handed to the VM at startup:
//!   mutable classes, their state fields, hot states and mutable methods.
//! * [`engine`] — the online half: the *distributed dynamic class mutation
//!   algorithm* of Figures 4 and 5, driving special-TIB creation, object
//!   TIB-pointer flips at constructor exits and state-field assignments,
//!   special-code generation at opt2 recompilation, and JTOC/class-TIB
//!   patching for static state.
//! * [`olc`] — object-lifetime-constant analysis (Sec. 4, Fig. 8).
//! * [`pipeline`] — the end-to-end driver of Figure 3: profile, analyze,
//!   plan, attach.
//!
//! ```no_run
//! use dchm_core::pipeline::{prepare, PipelineConfig};
//! use dchm_vm::VmConfig;
//! # fn program() -> dchm_bytecode::Program { unimplemented!() }
//!
//! let prepared = prepare(program(), &PipelineConfig::default(), |vm| {
//!     vm.run_entry().unwrap();
//! });
//! let mut vm = prepared.make_vm(VmConfig::default());
//! vm.run_entry().unwrap(); // runs with dynamic class hierarchy mutation
//! ```

pub mod analysis;
pub mod engine;
pub mod olc;
pub mod pipeline;
pub mod plan;
pub mod synth;

pub use analysis::{build_plan, find_state_fields, AnalysisConfig, FieldSites};
pub use engine::MutationEngine;
pub use olc::{analyze_olc, OlcReport};
pub use pipeline::{prepare, PipelineConfig, Prepared};
pub use plan::{HotState, MutableClass, MutationPlan};
pub use synth::{synthesize_plan, SynthConfig};
