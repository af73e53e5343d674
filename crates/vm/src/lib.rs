#![warn(missing_docs)]

//! # dchm-vm
//!
//! A tiered, Jikes-RVM-inspired virtual machine for the DCHM reproduction.
//! It provides every runtime mechanism the paper's technique manipulates:
//!
//! * **TIBs** (Type Information Blocks): per-class virtual-function tables
//!   with a type-information entry and a shared IMT pointer ([`tib`]).
//!   Objects carry a TIB pointer that the mutation engine may repoint at
//!   *special TIBs*.
//! * **JTOC**: statically-bound dispatch table (static methods, constructors,
//!   private methods) plus the static field area ([`state`]).
//! * **IMT**: fixed-size interface method tables with conflict stubs,
//!   shared between a class TIB and all of its special TIBs ([`tib`]).
//! * **Tiered compilation**: methods are lazily compiled by the optimizing
//!   compiler at `opt0` and recompiled at `opt1`/`opt2` by the adaptive
//!   system (cycle-driven method sampling) ([`compiler`], [`state`]).
//! * **Mark-sweep GC** with heap-size accounting ([`heap`]).
//! * **Mutation hooks**: patch points ([`hooks::PatchSpec`]) compiled into
//!   code at state-field assignments and constructor exits, delivered to a
//!   [`hooks::MutationHandler`] — the seam where `dchm-core` plugs in the
//!   paper's distributed dynamic class mutation algorithm.
//! * **Event tracing**: every mutation-lifecycle transition (TIB flips,
//!   special compiles, guard failures/deopts, GC, samples, injected
//!   faults) can be recorded into a bounded ring buffer ([`trace`],
//!   enabled via [`interp::Vm::enable_tracing`]) without perturbing the
//!   modeled clock.
//! * **Sharded serving**: a parallel fleet executor ([`fleet`]) running
//!   many tenant VMs over a job queue, with a fleet-wide shared
//!   compile-artifact cache ([`codecache::SharedCodeCache`]) so one
//!   tenant's compile is a zero-wall-cost hit for every identical tenant
//!   — while each shard's modeled run stays bit-identical to solo.
//! * **Attribution**: a deterministic cycle-sampling profiler over
//!   (method × tier × receiver-state) cells ([`interp::Vm::profile`],
//!   `VmConfig::profile_period`) and an on-demand/GC-triggered heap &
//!   state census ([`state::VmState::census`]); both are 0-cycle and
//!   output-transparent like tracing.
//!
//! Time is deterministic: every executed op is billed cycles from
//! [`dchm_ir::cost`], as are compilation, allocation and GC. All speedup and
//! overhead figures compare these cycle counts between runs.
//!
//! ```
//! use dchm_bytecode::{MethodSig, ProgramBuilder, Value};
//! use dchm_vm::{Vm, VmConfig};
//!
//! let mut pb = ProgramBuilder::new();
//! let c = pb.class("Main").build();
//! let mut m = pb.static_method(c, "main", MethodSig::new(vec![], Some(dchm_bytecode::Ty::Int)));
//! let r = m.imm(21);
//! let two = m.imm(2);
//! let out = m.reg();
//! m.imul(out, r, two);
//! m.ret(Some(out));
//! let main = m.build();
//! pb.set_entry(main);
//! let program = pb.finish().unwrap();
//!
//! let mut vm = Vm::new(program, VmConfig::default());
//! let result = vm.run_entry().unwrap();
//! assert_eq!(result, Some(Value::Int(42)));
//! ```

pub mod codecache;
pub mod compiler;
pub mod error;
pub mod fleet;
pub mod governor;
pub mod heap;
pub mod hooks;
pub mod interp;
pub mod linear;
pub mod state;
pub mod stats;
pub mod tib;

pub use codecache::{
    binding_fingerprint, program_fingerprint, CodeCache, Evicted, Probe, SharedArtifact,
    SharedCacheStats, SharedCodeCache,
};
pub use compiler::{CompileEnv, DeoptInfo, DeoptPoint};
pub use error::RunError;
pub use fleet::{run_fleet, FleetConfig, FleetRun, ShardCtx};
pub use governor::{Governor, GovernorConfig, GuardFailVerdict};
pub use heap::{Heap, HeapCensus, HeapStats};
pub use hooks::{
    CompilerHints, Fault, FaultConfig, FaultInjector, MutationHandler, NoopHandler, OlcInfo,
    PatchSpec, VmObserver,
};
pub use interp::Vm;
pub use linear::{lower, Inst, LinearCode};
pub use state::{CodeSlot, CompiledId, CompiledMethod, VmConfig, VmState};
pub use stats::{MethodProfile, VmStats};
pub use tib::{Imt, ImtEntry, Tib, TibId, TibKind, IMT_SLOTS};

/// Re-export of the event-tracing crate so VM users reach the event types
/// and exporters without a separate dependency.
pub use dchm_trace as trace;

/// Attribution types re-exported at the crate root: the census snapshot
/// ([`VmState::census`]) and the profile cell table ([`Vm::profile`]).
pub use dchm_trace::census::CensusSnapshot;
pub use dchm_trace::profile::{ProfileCell, ProfileSnapshot, Profiler};
