//! The seams between the VM and the mutation engine / profilers.

use crate::state::VmState;
use dchm_bytecode::value::ObjRef;
use dchm_bytecode::{ClassId, FieldId, MethodId, Value};
use std::collections::{HashMap, HashSet};

/// Which program points the compiler must instrument with `Notify*` patch
/// ops. The mutation engine derives this from its plan; the VM compiles the
/// checks into *every* tier so state tracking is sound from the first
/// instruction (the paper patches the same three kinds of sites, Fig. 4).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PatchSpec {
    /// Instance state fields: every `PutField` of one of these is followed
    /// by a `NotifyInstStore`.
    pub instance_fields: HashSet<FieldId>,
    /// Static state fields: every `PutStatic` is followed by a
    /// `NotifyStaticStore`.
    pub static_fields: HashSet<FieldId>,
    /// Classes whose constructors end with a `NotifyCtorExit` (mutable
    /// classes with instance state fields).
    pub ctor_classes: HashSet<ClassId>,
}

impl PatchSpec {
    /// True if nothing is instrumented.
    pub fn is_empty(&self) -> bool {
        self.instance_fields.is_empty()
            && self.static_fields.is_empty()
            && self.ctor_classes.is_empty()
    }
}

/// Object-lifetime-constant information for one private reference field
/// (paper Sec. 4): the field always holds an instance of `exact_class`
/// constructed by the same constructor, and `bindings` are the instance
/// fields that constructor sets to constants and nothing ever overwrites.
#[derive(Clone, Debug, PartialEq)]
pub struct OlcInfo {
    /// The private reference field (e.g. `deliveryScreen` in Fig. 7).
    pub ref_field: FieldId,
    /// The exact dynamic type of the referenced object.
    pub exact_class: ClassId,
    /// Field -> constant value, valid for the object's whole lifetime.
    pub bindings: HashMap<FieldId, Value>,
}

/// Compile-time facts handed to the VM compiler by the mutation engine.
#[derive(Clone, Debug)]
pub struct CompilerHints {
    /// Object-lifetime constants keyed by the private reference field.
    pub olc: HashMap<FieldId, OlcInfo>,
    /// `M` of the paper's Section 5 heuristic: the number of specializable
    /// (state) fields *read by each mutable method*. Methods absent from
    /// the map have no specialization potential and inline normally.
    pub spec_field_count: HashMap<MethodId, usize>,
    /// `k` of the Section 5 heuristic: inline iff `N > M + k`, where `N` is
    /// the number of constant arguments at the call site.
    pub k: i64,
    /// Plant state guards (and a deopt side table) in specialized method
    /// bodies so frames can deoptimize when their state assumptions break.
    /// On by default; switched off only for guard-overhead A/B measurement.
    pub emit_guards: bool,
}

impl Default for CompilerHints {
    fn default() -> Self {
        CompilerHints {
            olc: HashMap::new(),
            spec_field_count: HashMap::new(),
            k: 0,
            emit_guards: true,
        }
    }
}

/// The runtime half of the mutation engine: invoked from patch points and
/// recompilation events. Implemented by `dchm-core`; [`NoopHandler`] is the
/// mutation-off baseline.
pub trait MutationHandler {
    /// An instance state field of `class` was just stored on `obj`
    /// (Fig. 4, middle block). Runs *after* the store.
    fn on_instance_store(&mut self, vm: &mut VmState, obj: ObjRef, class: ClassId, field: FieldId);

    /// A static state field was just stored (Fig. 4, bottom block).
    fn on_static_store(&mut self, vm: &mut VmState, field: FieldId);

    /// A constructor of mutable `class` is about to return `obj`
    /// (Fig. 4, top block).
    fn on_ctor_exit(&mut self, vm: &mut VmState, obj: ObjRef, class: ClassId);

    /// General compiled code for `method` was just (re)generated and
    /// installed at `level` (Fig. 5).
    fn on_recompiled(&mut self, vm: &mut VmState, method: MethodId, level: u8);
}

/// Mutation disabled: every hook is a no-op.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoopHandler;

impl MutationHandler for NoopHandler {
    fn on_instance_store(&mut self, _: &mut VmState, _: ObjRef, _: ClassId, _: FieldId) {}
    fn on_static_store(&mut self, _: &mut VmState, _: FieldId) {}
    fn on_ctor_exit(&mut self, _: &mut VmState, _: ObjRef, _: ClassId) {}
    fn on_recompiled(&mut self, _: &mut VmState, _: MethodId, _: u8) {}
}

/// Configuration of the deterministic fault injector: which fault kinds may
/// fire and how often, all derived from a fixed `seed` so a run is exactly
/// reproducible.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultConfig {
    /// PRNG seed; two runs with the same seed inject identically.
    pub seed: u64,
    /// Inject full (mark-sweep) garbage collections at allocation points.
    pub gc_at_alloc: bool,
    /// Inject silent same-level recompilation of the running method at
    /// allocation points.
    pub recompiles: bool,
    /// Force state guards in specialized code to fail (deoptimize) even
    /// though the object is still in its hot state.
    pub force_guard_fail: bool,
    /// Fail opt-level and special compilations (level-0 baseline compiles
    /// are exempt so a tier-down target always exists).
    pub compile_fails: bool,
    /// Report out-of-memory at allocation points despite free heap.
    pub oom_at_alloc: bool,
    /// Panic at allocation points — exercises the `Vm::run` containment
    /// boundary (typed `VmInvariant` + poisoned VM).
    pub panic_at_op: bool,
    /// Mean events between injections: each eligible event injects with
    /// probability `1/period`. `0` disables the injector entirely.
    pub period: u64,
}

impl FaultConfig {
    /// Everything except forced guard failures, at the given seed — the
    /// cycle-transparent faults a differential run can assert against.
    pub fn transparent(seed: u64) -> Self {
        FaultConfig {
            seed,
            gc_at_alloc: true,
            recompiles: true,
            force_guard_fail: false,
            compile_fails: false,
            oom_at_alloc: false,
            panic_at_op: false,
            period: 24,
        }
    }

    /// Only forced guard failures, at the given seed.
    pub fn guard_failures(seed: u64) -> Self {
        FaultConfig {
            seed,
            gc_at_alloc: false,
            recompiles: false,
            force_guard_fail: true,
            compile_fails: false,
            oom_at_alloc: false,
            panic_at_op: false,
            period: 4,
        }
    }

    /// Only compile failures, at the given seed.
    pub fn compile_failures(seed: u64) -> Self {
        FaultConfig {
            seed,
            gc_at_alloc: false,
            recompiles: false,
            force_guard_fail: false,
            compile_fails: true,
            oom_at_alloc: false,
            panic_at_op: false,
            period: 2,
        }
    }
}

/// The fault kind the injector chose for one allocation point.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fault {
    /// Run a garbage collection now.
    Gc,
    /// Recompile the currently-running method at its current level.
    Recompile,
    /// Report out-of-memory despite free heap.
    Oom,
    /// Panic at the allocation point (containment-boundary exercise).
    Panic,
}

/// Deterministic, seed-driven fault injector (splitmix64 PRNG). The VM
/// consults it at every allocation point and at every executed state guard;
/// the draw sequence depends only on the seed and the event sequence, never
/// on what was previously injected, so runs stay reproducible.
#[derive(Clone, Debug)]
pub struct FaultInjector {
    cfg: FaultConfig,
    rng: u64,
    /// Number of GCs injected.
    pub gcs: u64,
    /// Number of silent recompilations injected.
    pub recompiles: u64,
    /// Number of guards forced to fail.
    pub forced_guard_fails: u64,
    /// Number of compilations forced to fail.
    pub compile_fails: u64,
    /// Number of out-of-memory faults injected.
    pub ooms: u64,
    /// Number of panics injected.
    pub panics: u64,
}

impl FaultInjector {
    /// Builds an injector for `cfg`.
    pub fn new(cfg: FaultConfig) -> Self {
        FaultInjector {
            cfg,
            rng: cfg.seed,
            gcs: 0,
            recompiles: 0,
            forced_guard_fails: 0,
            compile_fails: 0,
            ooms: 0,
            panics: 0,
        }
    }

    fn next_u64(&mut self) -> u64 {
        self.rng = self.rng.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.rng;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Draws at an allocation point; returns the fault to inject, if any.
    pub fn at_alloc(&mut self) -> Option<Fault> {
        let mut kinds = [Fault::Gc; 4];
        let mut n = 0usize;
        if self.cfg.gc_at_alloc {
            kinds[n] = Fault::Gc;
            n += 1;
        }
        if self.cfg.recompiles {
            kinds[n] = Fault::Recompile;
            n += 1;
        }
        if self.cfg.oom_at_alloc {
            kinds[n] = Fault::Oom;
            n += 1;
        }
        if self.cfg.panic_at_op {
            kinds[n] = Fault::Panic;
            n += 1;
        }
        if n == 0 || self.cfg.period == 0 {
            return None;
        }
        let x = self.next_u64();
        if !x.is_multiple_of(self.cfg.period) {
            return None;
        }
        let fault = kinds[(x / self.cfg.period) as usize % n];
        match fault {
            Fault::Gc => self.gcs += 1,
            Fault::Recompile => self.recompiles += 1,
            Fault::Oom => self.ooms += 1,
            Fault::Panic => self.panics += 1,
        }
        Some(fault)
    }

    /// Draws at an executed state guard; true forces the guard to fail.
    pub fn at_guard(&mut self) -> bool {
        if !self.cfg.force_guard_fail || self.cfg.period == 0 {
            return false;
        }
        let forced = self.next_u64().is_multiple_of(self.cfg.period);
        if forced {
            self.forced_guard_fails += 1;
        }
        forced
    }

    /// Draws at an opt-level or special compilation; true forces the
    /// compile to fail. Level-0 baseline compiles never consult this, so
    /// a tier-down target always exists. The draw only happens when
    /// compile failures are enabled, preserving other configs' sequences.
    pub fn at_compile(&mut self) -> bool {
        if !self.cfg.compile_fails || self.cfg.period == 0 {
            return false;
        }
        let failed = self.next_u64().is_multiple_of(self.cfg.period);
        if failed {
            self.compile_fails += 1;
        }
        failed
    }
}

/// Passive observation hooks used by the offline profiler (`dchm-profile`).
/// Field-store callbacks fire only for fields in the observer's watch set,
/// returned by [`VmObserver::watched_fields`] once at attach time.
pub trait VmObserver {
    /// Fields whose stores should be reported.
    fn watched_fields(&self) -> HashSet<FieldId>;

    /// An instance field in the watch set was stored.
    fn on_instance_store(&mut self, class: ClassId, field: FieldId, value: Value);

    /// A static field in the watch set was stored.
    fn on_static_store(&mut self, field: FieldId, value: Value);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn patch_spec_emptiness() {
        let mut s = PatchSpec::default();
        assert!(s.is_empty());
        s.static_fields.insert(FieldId(0));
        assert!(!s.is_empty());
    }

    #[test]
    fn noop_handler_is_constructible() {
        // Compile-time check that the trait is object safe.
        let _h: Box<dyn MutationHandler> = Box::new(NoopHandler);
    }

    #[test]
    fn injector_is_deterministic_per_seed() {
        let cfg = FaultConfig::transparent(42);
        let mut a = FaultInjector::new(cfg);
        let mut b = FaultInjector::new(cfg);
        let da: Vec<_> = (0..500).map(|_| a.at_alloc()).collect();
        let db: Vec<_> = (0..500).map(|_| b.at_alloc()).collect();
        assert_eq!(da, db);
        assert!(da.iter().any(Option::is_some), "period 24 over 500 draws");
        // A different seed gives a different schedule.
        let mut c = FaultInjector::new(FaultConfig::transparent(43));
        let dc: Vec<_> = (0..500).map(|_| c.at_alloc()).collect();
        assert_ne!(da, dc);
    }

    #[test]
    fn guard_failure_mode_only_fires_at_guards() {
        let mut inj = FaultInjector::new(FaultConfig::guard_failures(7));
        assert!((0..100).all(|_| inj.at_alloc().is_none()));
        assert!((0..100).any(|_| inj.at_guard()));
        assert!(inj.forced_guard_fails > 0);
        assert_eq!(inj.gcs + inj.recompiles, 0);
    }
}
