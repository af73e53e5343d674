//! # dchm — Dynamic Class Hierarchy Mutation
//!
//! Facade crate for the reproduction of *Su & Lipasti, "Dynamic Class
//! Hierarchy Mutation", CGO 2006*. Re-exports the whole stack:
//!
//! * [`bytecode`] — Java-like register bytecode, classes, hierarchy.
//! * [`ir`] — optimizer IR and passes (const-prop, DCE, inlining, specialization).
//! * [`vm`] — the tiered virtual machine (TIBs, JTOC, adaptive system, GC).
//! * [`core`] — the paper's contribution: the dynamic class mutation engine.
//! * [`profile`] — the offline profiling pipeline (hot methods, value sampling).
//! * [`workloads`] — the seven benchmark programs from the paper's Table 1.
//!
//! See `examples/quickstart.rs` for an end-to-end walkthrough.

pub use dchm_bytecode as bytecode;
pub use dchm_core as core;
pub use dchm_ir as ir;
pub use dchm_profile as profile;
pub use dchm_vm as vm;
pub use dchm_workloads as workloads;
