//! The VM state: class TIBs, JTOC, compiled-code store, adaptive system
//! bookkeeping, heap plumbing and the public surface the mutation engine
//! drives (special-TIB creation, slot patching, special compilation).

use crate::codecache::{
    binding_fingerprint, program_fingerprint, CodeCache, Probe, SharedArtifact, SharedCodeCache,
};
use crate::compiler;
use crate::error::RunError;
use crate::governor::{Governor, GovernorConfig, GuardFailVerdict};
use crate::heap::Heap;
use crate::linear::{lower, LinearCode};
use crate::hooks::{CompilerHints, Fault, FaultInjector, PatchSpec};
use crate::stats::VmStats;
use crate::tib::{Imt, Tib, TibId, TibKind};
use dchm_bytecode::value::ObjRef;
use dchm_bytecode::{ClassId, FieldId, MethodId, Program, Reg, SelectorId, Value};
use dchm_trace::census::{CensusSnapshot, ClassCensus, ResidencyTracker, TibCensus};
use dchm_trace::profile::Profiler;
use dchm_trace::{FaultKind, TraceEvent, Tracer, NO_ID};
use dchm_ir::cost::CostModel;
use dchm_ir::passes::Bindings;
use dchm_ir::{Function, LiftCache};
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::rc::Rc;
use std::sync::Arc;
use std::time::Instant;

/// Identifies a compiled method in the code store.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CompiledId(pub u32);

impl CompiledId {
    /// Raw index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for CompiledId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "code{}", self.0)
    }
}

/// A TIB/JTOC method entry.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum CodeSlot {
    /// In a class TIB: not compiled yet (lazy compilation). In a special
    /// TIB: *inherit* — dispatch reads the class TIB's entry instead (see
    /// [`VmState::tib_slot`]).
    #[default]
    Lazy,
    /// Compiled code.
    Code(CompiledId),
}

/// Sentinel for "no vtable slot" in the dense dispatch table.
pub const NO_SITE: u32 = u32::MAX;

/// One compiled method: the unit the optimizing compiler produces.
#[derive(Clone, Debug)]
pub struct CompiledMethod {
    /// The bytecode method this code implements. Special versions share the
    /// id with the general version, so sampling information is shared
    /// (paper Sec. 3.2.3).
    pub method: MethodId,
    /// Optimization level it was compiled at.
    pub level: u8,
    /// True for state-specialized (mutation) versions.
    pub special: bool,
    /// The optimizer's output, kept cold for inspection and for re-lowering
    /// with deopt resume entries; the evaluator never reads it. `Arc` (not
    /// `Rc`): the allocation may be shared with other tenant VMs through
    /// the fleet's [`SharedCodeCache`].
    pub func: Arc<Function>,
    /// The executable form (see [`crate::linear`]): what the evaluator
    /// runs.
    pub lin: Arc<LinearCode>,
    /// Modeled machine-code size in bytes.
    pub size_bytes: usize,
    /// Canonical fingerprint of the state bindings this code was compiled
    /// under ([`binding_fingerprint`]; the `None` fingerprint for general
    /// code). Keys the resilience governor's per-(method, state) storm
    /// counters.
    pub binding_fp: u64,
    /// Governor verdict cache: this code may not be (re)installed before
    /// this modeled cycle (`u64::MAX` = blacklisted). Written only when a
    /// throttle/blacklist verdict lands, so the hot flip-in path checks a
    /// plain clock compare instead of probing the governor's site table.
    pub blocked_until: u64,
    /// Deopt side table: present only on guarded specialized versions,
    /// mapping each planted guard id to the baseline resume point.
    pub deopt: Option<Arc<compiler::DeoptInfo>>,
}

/// VM configuration.
#[derive(Clone, Debug)]
pub struct VmConfig {
    /// Heap capacity in bytes (paper: 50 MB default, 128 MB for JBB2000,
    /// 384 MB for JBB2005).
    pub heap_bytes: usize,
    /// Level methods are first compiled at (paper experiments: opt0 by the
    /// optimizing compiler).
    pub initial_level: u8,
    /// Samples before promotion to opt1.
    pub opt1_samples: u64,
    /// Samples before promotion to opt2 (the mutation level).
    pub opt2_samples: u64,
    /// Cycles between adaptive-system samples.
    pub sample_period: u64,
    /// Maximum callee IR size (ops) eligible for inlining at opt1+.
    pub max_inline_size: usize,
    /// Abort after this many executed ops (`None` = unlimited). A test
    /// guard, not a semantic limit.
    pub fuel: Option<u64>,
    /// Methods whose hotness detection is accelerated: immediately after
    /// their opt0 code is generated, opt1 and opt2 code is generated too
    /// (paper Figure 14).
    pub accelerated_methods: HashSet<MethodId>,
    /// Capacity (entries) of the state-keyed compiled-code cache; 0
    /// disables caching. A hit reinstalls previously produced code and
    /// re-bills its stored compile cycles — identical to what recompiling
    /// would bill, since the compiler is deterministic — so modeled
    /// observables are the same at any capacity; only host-side compile
    /// wall time changes.
    pub code_cache_capacity: usize,
    /// Resilience-governor switch (deopt-storm throttling, compile
    /// quarantine; the thresholds are constants in [`crate::governor`]).
    /// Read per decision, so it can be toggled after VM construction.
    pub governor: GovernorConfig,
    /// Maximum activation-stack depth; a call that would exceed it traps
    /// with [`RunError::StackOverflow`]. `None` disables the check. The
    /// check is host-side only (no modeled cycles), so any limit the
    /// program stays under is cycle-transparent.
    pub max_frame_depth: Option<usize>,
    /// Cycles between cycle-attribution profiler samples (0 disables).
    /// Samples fire when the modeled clock crosses each multiple of the
    /// period — deterministic, no jitter — and are 0-cycle host-side
    /// observations: any period leaves output and the modeled clock
    /// bit-identical (see `dchm_trace::profile`).
    pub profile_period: u64,
}

impl Default for VmConfig {
    fn default() -> Self {
        VmConfig {
            heap_bytes: 50 << 20,
            initial_level: 0,
            opt1_samples: 3,
            opt2_samples: 8,
            sample_period: 120_000,
            max_inline_size: 36,
            fuel: None,
            accelerated_methods: HashSet::new(),
            code_cache_capacity: 1024,
            governor: GovernorConfig::default(),
            max_frame_depth: Some(1 << 20),
            profile_period: 10_000,
        }
    }
}

/// One activation record — plain `Copy` data, so frame pushes and pops are
/// raw memcpys with no refcount or drop traffic. Registers live in the
/// shared [`VmState::reg_stack`] pool: this frame owns the contiguous
/// window starting at `base` (its code's `num_regs` slots), pushed on call
/// and truncated on return, so activation needs no per-call heap
/// allocation.
#[derive(Clone, Copy, Debug)]
pub struct Frame {
    /// Method whose code is executing (general or special share this).
    pub method: MethodId,
    /// Id of the executing code in the append-only [`VmState::code`] store.
    /// Pins the exact code version (frames keep old code across
    /// recompilation; no on-stack replacement, as in the paper).
    pub cid: CompiledId,
    /// First register slot of this frame's window in the pooled stack.
    pub base: usize,
    /// Next instruction. Kept current only at call boundaries: while a
    /// frame is topmost the interpreter runs on a local pc and writes it
    /// back when pushing a callee frame, trapping, or running out of fuel.
    pub pc: u32,
    /// Caller register receiving the return value.
    pub ret_dst: Option<Reg>,
}

/// Program output: a text log plus a checksum accumulator (used by tests to
/// prove mutation preserves observable behaviour).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Output {
    /// Printed text.
    pub text: String,
    /// Order-sensitive checksum of all sunk values.
    pub checksum: u64,
}

impl Output {
    /// Folds an integer into the checksum.
    #[inline]
    pub fn sink_int(&mut self, v: i64) {
        self.checksum = self
            .checksum
            .wrapping_mul(0x100000001b3)
            .wrapping_add(v as u64);
    }

    /// Folds a double's bit pattern into the checksum.
    #[inline]
    pub fn sink_double(&mut self, v: f64) {
        self.sink_int(v.to_bits() as i64);
    }
}

/// The complete mutable machine state. The interpreter ([`crate::Vm`])
/// drives it; the mutation engine manipulates it through the `pub` methods
/// below (special TIBs, slot patching, special compilation).
pub struct VmState {
    /// The immutable linked program.
    pub program: Rc<Program>,
    /// Configuration.
    pub config: VmConfig,
    /// The object heap.
    pub heap: Heap,
    /// Static field area (part of the JTOC).
    pub(crate) statics: Vec<Value>,
    /// All TIBs; class TIBs first, special TIBs appended by the engine.
    pub(crate) tibs: Vec<Tib>,
    /// IMTs, one per class (shared with that class's special TIBs).
    pub(crate) imts: Vec<Imt>,
    /// Class TIB of each class.
    pub(crate) class_tibs: Vec<TibId>,
    /// Compiled-code store (code is never freed; Jikes' code is immortal).
    pub code: Vec<CompiledMethod>,
    /// The one valid *general* compiled method per method (JTOC slot for
    /// statically-dispatched methods).
    pub general_code: Vec<Option<CompiledId>>,
    /// Mutation-engine override for statically-bound dispatch (static
    /// methods and `invokespecial` targets of classes whose state depends
    /// only on static fields). Models the paper's JTOC / class-TIB patching
    /// for statically-bound code.
    pub static_override: Vec<Option<CompiledId>>,
    /// Patch points the compiler instruments.
    pub patch_spec: PatchSpec,
    /// Compile-time hints from the mutation engine (OLC, Sec. 5 heuristic).
    pub hints: CompilerHints,
    /// Per class: marked mutable by the engine, so its interface dispatch
    /// pays the extra TIB-offset load (Sec. 3.2.3).
    pub(crate) mutable_classes: Vec<bool>,
    /// Statistics.
    pub stats: VmStats,
    /// Modeled cycle clock (execution + compilation + GC).
    pub clock: u64,
    /// Next sample tick.
    pub(crate) next_sample_at: u64,
    /// Next profiler tick (`u64::MAX` when profiling is off). Unlike
    /// `next_sample_at` this steps in exact period multiples: the
    /// schedule is a pure function of the clock trajectory, so repeated
    /// runs produce byte-identical profiles.
    pub(crate) next_profile_at: u64,
    /// Cycle-attribution profiler accumulator (host-side only).
    pub profiler: Profiler,
    /// Completed special-state stays feeding the census; open ones are read
    /// from object headers (`Object::since`) by the census walk. Fed at
    /// every exit flip regardless of tracing, so census shape never
    /// depends on whether a tracer is attached.
    pub(crate) residency: ResidencyTracker,
    /// Activation stack.
    pub frames: Vec<Frame>,
    /// Pooled register stack: every frame's register window is a contiguous
    /// slice of this vector (see [`Frame`]). Host re-entry simply allocates
    /// past the current top, so no free list is needed.
    pub reg_stack: Vec<Value>,
    /// Flattened `class x selector -> vtable slot` table
    /// (`[class * num_selectors + selector]`, [`NO_SITE`] = absent);
    /// replaces the per-class hash lookup on the dispatch miss path.
    vslot_dense: Vec<u32>,
    /// Selector count (row stride of `vslot_dense`).
    num_selectors: usize,
    /// Program output.
    pub output: Output,
    /// Extra GC roots registered by the host.
    pub(crate) handles: Vec<ObjRef>,
    /// Events for the interpreter to forward to the mutation handler:
    /// `(method, level)` of freshly installed general code.
    pub(crate) recompile_events: Vec<(MethodId, u8)>,
    /// Selector -> the unique concrete implementation, when there is
    /// exactly one program-wide (CHA devirtualization).
    pub(crate) unique_impl: HashMap<SelectorId, MethodId>,
    /// Per-class field-initialization templates.
    field_templates: Vec<Vec<Value>>,
    /// Deterministic fault injector (robustness testing); `None` in normal
    /// runs.
    pub injector: Option<FaultInjector>,
    /// Structured event tracing (off by default). Emission sites stamp
    /// events with the modeled clock but never charge it, so tracing on vs.
    /// off leaves modeled cycles and output bit-identical.
    pub tracer: Tracer,
    /// Per-method cache of the baseline (level-0, unspecialized) code a
    /// deoptimizing frame resumes in. Compiled on the first deopt of each
    /// method, reused afterwards.
    deopt_baseline: Vec<Option<CompiledId>>,
    /// State-keyed compiled-code cache (see [`crate::codecache`] for the
    /// determinism contract).
    pub code_cache: CodeCache,
    /// Memoized baseline lifts: one lift + instrumentation per method,
    /// shared by the general version and every state specialization (the
    /// paper's one front end, Sec. 3.2.2), and hash-consed across
    /// structurally identical methods. Per VM: a fleet shares finished
    /// artifacts through [`SharedCodeCache`], never lifts.
    pub lift_cache: LiftCache,
    /// Host wall-clock nanoseconds spent inside the compiler pipeline.
    /// *Not* modeled time — benchmarks read it to measure what the code
    /// caches actually save on the host. Strictly zero when every compile
    /// request of a run was answered by a cache.
    pub compile_wall_nanos: u64,
    /// Fleet-wide shared artifact cache; `None` outside a fleet. Probed by
    /// every compile request after the local [`CodeCache`] misses, purely
    /// host-side: a hit skips the lift and the pipeline but bills, installs
    /// and traces exactly as a local compile would.
    shared_cache: Option<Arc<SharedCodeCache>>,
    /// [`program_fingerprint`] of the program, handed over when a shared
    /// cache is attached; folded with the compiler-environment fingerprint
    /// into the shared cache's scope key so distinct tenants never collide.
    program_fp: u64,
    /// Shared-cache probes this VM had answered with an artifact. Host-side
    /// counter — deliberately *not* a [`VmStats`] field, which must stay
    /// bit-identical between a shard and its solo twin.
    pub shared_hits: u64,
    /// Shared-cache probes this VM saw fall through to its own compiler.
    pub shared_misses: u64,
    /// Resilience-governor state (storm sites, compile quarantines). Pure
    /// host-side bookkeeping; see [`crate::governor`].
    pub(crate) governor: Governor,
    /// Set when a contained panic left the VM state suspect; further runs
    /// return [`RunError::Poisoned`] instead of executing.
    pub poisoned: bool,
    /// Set by the first governor pin ([`Self::has_pinned`]).
    pinned: bool,
}

impl VmState {
    /// Builds the state: class TIBs, IMTs, static area, CHA tables.
    pub fn new(program: Program, config: VmConfig) -> Self {
        let program = Rc::new(program);
        let nclasses = program.classes.len();
        let nmethods = program.methods.len();

        // Static field area.
        let mut statics = vec![Value::Int(0); program.num_static_slots as usize];
        for f in &program.fields {
            if f.is_static {
                statics[f.slot as usize] = f.initial;
            }
        }

        // IMTs and class TIBs.
        let mut imts = Vec::with_capacity(nclasses);
        let mut tibs = Vec::with_capacity(nclasses);
        let mut class_tibs = Vec::with_capacity(nclasses);
        let mut stats = VmStats::new(nmethods);
        for (ci, c) in program.classes.iter().enumerate() {
            let mut imt = Imt::default();
            // Interface selectors reachable on this class resolve to vslots.
            let mut cur = Some(ClassId::from_index(ci));
            let mut seen = HashSet::new();
            while let Some(cc) = cur {
                for &iface in &program.class(cc).interfaces {
                    collect_iface_sels(&program, iface, &mut seen);
                }
                cur = program.class(cc).super_class;
            }
            for sel in seen {
                if let Some(vslot) = c.vtable_slot(sel) {
                    imt.add(sel, vslot);
                }
            }
            imts.push(imt);
            let tib = Tib {
                class: ClassId::from_index(ci),
                kind: TibKind::Class,
                methods: vec![CodeSlot::Lazy; c.vtable.len()],
                imt: ci as u32,
            };
            stats.class_tib_bytes += tib.bytes() as u64;
            class_tibs.push(TibId(ci as u32));
            tibs.push(tib);
        }

        // CHA: selectors with a unique concrete implementation.
        let mut impl_count: HashMap<SelectorId, Vec<MethodId>> = HashMap::new();
        for (mi, m) in program.methods.iter().enumerate() {
            if m.is_virtual() {
                impl_count
                    .entry(m.selector)
                    .or_default()
                    .push(MethodId::from_index(mi));
            }
        }
        let unique_impl = impl_count
            .into_iter()
            .filter_map(|(s, v)| (v.len() == 1).then(|| (s, v[0])))
            .collect();

        // Dense class x selector -> vslot dispatch table.
        let num_selectors = program.selectors.len();
        let mut vslot_dense = vec![NO_SITE; nclasses * num_selectors];
        for (ci, c) in program.classes.iter().enumerate() {
            for si in 0..num_selectors {
                if let Some(v) = c.vtable_slot(SelectorId(si as u32)) {
                    vslot_dense[ci * num_selectors + si] = v;
                }
            }
        }

        // Per-class zero-value field templates.
        let field_templates = (0..nclasses)
            .map(|ci| {
                program.classes[ci]
                    .all_instance_fields
                    .iter()
                    .map(|&f| program.field(f).ty.default_value())
                    .collect()
            })
            .collect();

        let sample_period = config.sample_period;
        let profile_period = config.profile_period;
        let code_cache = CodeCache::new(config.code_cache_capacity);
        VmState {
            program,
            heap: Heap::new(config.heap_bytes),
            config,
            statics,
            tibs,
            imts,
            class_tibs,
            code: Vec::new(),
            general_code: vec![None; nmethods],
            static_override: vec![None; nmethods],
            patch_spec: PatchSpec::default(),
            hints: CompilerHints::default(),
            mutable_classes: vec![false; nclasses],
            stats,
            clock: 0,
            next_sample_at: sample_period,
            next_profile_at: if profile_period == 0 { u64::MAX } else { profile_period },
            profiler: Profiler::new(profile_period),
            residency: ResidencyTracker::default(),
            frames: Vec::new(),
            reg_stack: Vec::new(),
            vslot_dense,
            num_selectors,
            output: Output::default(),
            handles: Vec::new(),
            recompile_events: Vec::new(),
            unique_impl,
            field_templates,
            injector: None,
            tracer: Tracer::default(),
            deopt_baseline: vec![None; nmethods],
            code_cache,
            lift_cache: LiftCache::new(),
            compile_wall_nanos: 0,
            shared_cache: None,
            program_fp: 0,
            shared_hits: 0,
            shared_misses: 0,
            governor: Governor::default(),
            poisoned: false,
            pinned: false,
        }
    }

    /// Attaches the fleet-wide shared artifact cache. Attach right after
    /// engine attach (before the first run): attaching later is safe but
    /// forfeits sharing of compiles that already happened. `program_fp` is
    /// [`program_fingerprint`] of this VM's program, computed once per
    /// program rather than once per tenant; together with the per-request
    /// compiler environment fingerprint it scopes every shared key, so only
    /// tenants whose compiles are bit-identical by construction — same
    /// program, same plan/hints/inlining — ever share an entry.
    pub fn attach_shared_cache(&mut self, cache: Arc<SharedCodeCache>, program_fp: u64) {
        debug_assert_eq!(program_fp, program_fingerprint(&self.program));
        self.program_fp = program_fp;
        self.shared_cache = Some(cache);
    }

    /// The compiled method behind an id.
    ///
    /// # Panics
    /// Panics if `cid` is out of range.
    #[inline]
    pub fn compiled(&self, cid: CompiledId) -> &CompiledMethod {
        &self.code[cid.index()]
    }

    /// Current optimization level of the valid general code for `mid`.
    pub fn level_of(&self, mid: MethodId) -> Option<u8> {
        self.general_code[mid.index()].map(|c| self.compiled(c).level)
    }

    // ---------------------------------------------------------------
    // Compilation & installation
    // ---------------------------------------------------------------

    /// Ensures `mid` has general compiled code; compiles lazily at the
    /// initial level. For accelerated methods (Fig. 14), opt1 and opt2 are
    /// generated immediately after opt0.
    pub fn ensure_compiled(&mut self, mid: MethodId) -> CompiledId {
        if let Some(cid) = self.general_code[mid.index()] {
            return cid;
        }
        let cid = self.recompile(mid, self.config.initial_level);
        if self.config.accelerated_methods.contains(&mid) {
            self.recompile(mid, 1);
            return self.recompile(mid, 2);
        }
        cid
    }

    /// Compiles general code for `mid` at `level`, installs it into the
    /// JTOC/class TIBs and subclass TIBs, updates the profile, queues the
    /// recompilation event for the mutation handler and trace-stamps it. A
    /// compile failure (injected or quarantined) is not fatal: the method
    /// keeps its current general code when it has one (a failed
    /// *promotion* changes nothing), else it tiers down to the
    /// always-succeeding level-0 baseline so it has code at all.
    pub fn recompile(&mut self, mid: MethodId, level: u8) -> CompiledId {
        let (level, cid) = match self.compile_internal(mid, level, None) {
            Some(cid) => (level, cid),
            None => match self.general_code[mid.index()] {
                Some(cur) => return cur,
                None => (0, self.compile_admitted(mid, 0, None, false)),
            },
        };
        self.install_general(mid, cid, None);
        let p = &mut self.stats.per_method[mid.index()];
        if p.level.is_some() {
            p.recompiles += 1;
        }
        p.level = Some(level);
        self.recompile_events.push((mid, level));
        if self.tracer.on() {
            let size = self.compiled(cid).size_bytes as u32;
            self.tracer.emit(
                self.clock,
                TraceEvent::Recompile {
                    method: mid.0,
                    code: cid.0,
                    level: level as u32,
                    size_bytes: size,
                },
            );
        }
        cid
    }

    /// Compiles a *special* (state-specialized) version of `mid` at `level`
    /// under `bindings`. The caller (mutation engine) installs it where it
    /// belongs. Counts toward special code size and compile time. `None`
    /// when the compile failed or the pair is quarantined — the caller
    /// keeps using general code.
    pub fn compile_special(
        &mut self,
        mid: MethodId,
        level: u8,
        bindings: &Bindings,
    ) -> Option<CompiledId> {
        self.compile_internal(mid, level, Some(bindings))
    }

    /// The gate in front of [`Self::compile_admitted`]: the governor's
    /// quarantine, then the injector's failure draw. Level-0 general
    /// compiles are exempt from both, so a tier-down target always exists;
    /// their callers go to `compile_admitted` directly.
    fn compile_internal(
        &mut self,
        mid: MethodId,
        level: u8,
        bindings: Option<&Bindings>,
    ) -> Option<CompiledId> {
        if level >= 1 || bindings.is_some() {
            if !self.compile_allowed(mid, level) {
                return None;
            }
            // The failure draw happens *before* the cache probe so the draw
            // sequence is one-per-attempt regardless of cache contents —
            // the cache's capacity-transparency contract survives.
            if self.injector.as_mut().is_some_and(FaultInjector::at_compile) {
                self.record_compile_failure(mid, level);
                return None;
            }
        }
        Some(self.compile_admitted(mid, level, bindings, false))
    }

    /// The one path every admitted request runs: probe the code cache, else
    /// produce the artifact (shared cache, then the compiler), store it and
    /// record it in the cache; then count, bill and trace-stamp the request
    /// — a hit bills the stored cycles, which is exactly what the
    /// deterministic compiler would bill again. `silent` is the injected
    /// recompile: same probe, same store, same cache insert, but no
    /// counter, no bill and no trace, so cache entries only ever change
    /// *which* host work later requests skip, never what they bill, and
    /// injected faults stay cycle-transparent.
    fn compile_admitted(
        &mut self,
        mid: MethodId,
        level: u8,
        bindings: Option<&Bindings>,
        silent: bool,
    ) -> CompiledId {
        let special = bindings.is_some();
        let env_fp = compiler::CompileEnv::of(self).fingerprint();
        let binding_fp = binding_fingerprint(bindings);
        let probe = self.code_cache.probe(mid.0, level, binding_fp, env_fp);
        let (cid, cost, evicted) = match probe {
            Probe::Hit { cid, compile_cycles } => (cid, compile_cycles, None),
            Probe::Miss { .. } | Probe::Disabled => {
                let a = self.produce_artifact(mid, level, bindings, binding_fp, env_fp);
                let cost = a.compile_cycles;
                let cid = self.push_artifact(mid, level, special, binding_fp, a);
                let evicted = self.code_cache.insert(mid.0, level, binding_fp, env_fp, cid, cost);
                (cid, cost, evicted)
            }
        };
        if silent {
            return cid;
        }
        match probe {
            Probe::Hit { .. } => self.stats.code_cache_hits += 1,
            Probe::Miss { invalidated } => {
                self.stats.code_cache_invalidations += u64::from(invalidated);
                self.stats.code_cache_misses += 1;
            }
            Probe::Disabled => {}
        }
        let size = self.compiled(cid).size_bytes;
        self.clock += cost;
        self.stats.compile_cycles += cost;
        if special {
            self.stats.special_compile_cycles += cost;
            self.stats.special_compiles += 1;
            self.stats.special_code_bytes += size as u64;
        } else {
            let l = level.min(2) as usize;
            self.stats.compiles_by_level[l] += 1;
            self.stats.code_bytes_by_level[l] += size as u64;
        }
        if self.tracer.on() {
            let (method, code, level) = (mid.0, cid.0, level as u32);
            if let Probe::Hit { .. } = probe {
                let hit = TraceEvent::CodeCacheHit { method, code, level, special };
                self.tracer.emit(self.clock, hit);
            }
            if special {
                let size_bytes = size as u32;
                let compile = TraceEvent::SpecialCompile { method, code, level, size_bytes };
                self.tracer.emit(self.clock, compile);
            }
        }
        if let Some(ev) = evicted {
            self.stats.code_cache_evictions += 1;
            if self.tracer.on() {
                let (method, code, level) = (ev.method, ev.cid.0, ev.level as u32);
                self.tracer.emit(self.clock, TraceEvent::CodeCacheEvict { method, code, level });
            }
        }
        cid
    }

    /// Bookkeeping for one failed compile: stats, trace, governor update
    /// and — at the quarantine threshold — dropping any cached versions of
    /// the pair so they cannot be served as stale hits. Nothing is billed:
    /// a failed compile produced no code and charges no modeled cycles.
    fn record_compile_failure(&mut self, mid: MethodId, level: u8) {
        self.stats.compile_failures += 1;
        if self.tracer.on() {
            self.tracer.emit(
                self.clock,
                TraceEvent::FaultInjected { kind: FaultKind::CompileFail, method: mid.0 },
            );
        }
        let gcfg = self.config.governor;
        if let Some((fails, until)) = self.governor.on_compile_failure(&gcfg, mid.0, level, self.clock)
        {
            self.stats.compile_quarantines += 1;
            self.code_cache.invalidate_method(mid.0, level);
            if self.tracer.on() {
                self.tracer.emit(
                    self.clock,
                    TraceEvent::CompileQuarantine {
                        method: mid.0,
                        level: level as u32,
                        fails,
                        until_cycle: until,
                    },
                );
            }
        }
    }

    /// True when the governor permits compiling `(mid, level)` right now.
    pub fn compile_allowed(&self, mid: MethodId, level: u8) -> bool {
        self.governor
            .compile_allowed(&self.config.governor, mid.0, level, self.clock)
    }

    /// Produces the artifact for one compile request: probes the fleet's
    /// shared cache when one is attached (compilation is deterministic, so
    /// the artifact another tenant published is bit for bit what this
    /// compiler would produce), otherwise runs the pipeline on the memoized
    /// baseline lift and publishes the result for the other tenants. Only
    /// the pipeline, lift memo included, is wall-timed: a request answered
    /// by the shared cache adds exactly zero to
    /// [`Self::compile_wall_nanos`]. Pure host work — bills nothing,
    /// installs nothing, touches no modeled observable.
    fn produce_artifact(
        &mut self,
        mid: MethodId,
        level: u8,
        bindings: Option<&Bindings>,
        binding_fp: u64,
        env_fp: u64,
    ) -> SharedArtifact {
        let scope = SharedCodeCache::scope_of(self.program_fp, env_fp);
        if let Some(sc) = &self.shared_cache {
            if let Some(a) = sc.probe(scope, mid.0, level, binding_fp) {
                self.shared_hits += 1;
                return a;
            }
            self.shared_misses += 1;
        }
        let t0 = Instant::now();
        let baseline = self.baseline_for(mid, env_fp);
        let env = compiler::CompileEnv::of(self);
        let outcome = compiler::compile_in(&env, &baseline, mid, level, bindings);
        self.compile_wall_nanos += t0.elapsed().as_nanos() as u64;
        // Lowering stays outside the wall timer, exactly as the pre-fleet
        // `push_code` derived its metadata after the timed pipeline returned.
        let a = SharedArtifact {
            lin: Arc::new(lower(&outcome.func, &self.program, &[])),
            func: Arc::new(outcome.func),
            size_bytes: outcome.size_bytes,
            compile_cycles: outcome.compile_cycles,
            deopt: outcome.deopt.map(Arc::new),
        };
        if let Some(sc) = &self.shared_cache {
            sc.insert(scope, mid.0, level, binding_fp, a.clone());
        }
        a
    }

    /// The memoized baseline (lifted + instrumented) IR of `mid` from this
    /// VM's [`LiftCache`]: lifted at most once per method and compiler
    /// environment, whether the request is general or special. Fleet
    /// tenants share finished artifacts, not lifts.
    fn baseline_for(&mut self, mid: MethodId, env_fp: u64) -> Arc<Function> {
        // Split borrows: the lift cache is mutated while the compile
        // environment borrows the rest of the state.
        let VmState {
            ref program,
            ref patch_spec,
            ref hints,
            ref unique_impl,
            ref config,
            ref mut lift_cache,
            ..
        } = *self;
        let env = compiler::CompileEnv {
            program,
            patch_spec,
            hints,
            unique_impl,
            max_inline_size: config.max_inline_size,
        };
        lift_cache.get_or_lift(mid.0, env_fp, || compiler::lift_baseline(&env, mid))
    }

    /// Appends a compiled artifact to the code store. No billing, no trace.
    /// The artifact's `Arc`s are adopted as-is — for a shared-cache hit that
    /// means zero copies of the function body or its lowered code; the
    /// governor verdict cache (`blocked_until`) stays private to this
    /// tenant.
    fn push_artifact(
        &mut self,
        mid: MethodId,
        level: u8,
        special: bool,
        binding_fp: u64,
        a: SharedArtifact,
    ) -> CompiledId {
        let cid = CompiledId(self.code.len() as u32);
        self.code.push(CompiledMethod {
            method: mid,
            level,
            special,
            func: a.func,
            lin: a.lin,
            size_bytes: a.size_bytes,
            binding_fp,
            blocked_until: 0,
            deopt: a.deopt,
        });
        cid
    }

    /// The baseline (level-0, unspecialized) code a deoptimizing frame of
    /// `mid` resumes in. Level-0 compilation is a pure lift + instrument —
    /// the scalar pipeline runs zero iterations — so its blocks and ops are
    /// coordinate-identical to the function guards recorded their resume
    /// points in. Reuses the current general code when it is already level
    /// 0; otherwise compiles (and caches) a dedicated baseline version.
    /// Either way no recompilation event is queued: deopt must not perturb
    /// the mutation engine's view of the adaptive system.
    pub fn ensure_baseline(&mut self, mid: MethodId) -> CompiledId {
        if let Some(cid) = self.deopt_baseline[mid.index()] {
            return cid;
        }
        let cid = match self.general_code[mid.index()] {
            Some(g) if self.compiled(g).level == 0 => g,
            _ => {
                self.stats.deopt_baseline_compiles += 1;
                self.compile_admitted(mid, 0, None, false)
            }
        };
        self.deopt_baseline[mid.index()] = Some(cid);
        cid
    }

    /// The pc a frame deoptimizing into baseline code `bcid` at `point`
    /// resumes at. The first deopt to a mid-block point re-lowers the
    /// baseline with a resume entry for it; entries are only ever appended,
    /// so pcs of frames already running the old lowering stay valid.
    pub(crate) fn resume_pc(&mut self, bcid: CompiledId, point: compiler::DeoptPoint) -> u32 {
        if (point.block, point.op) == (0, 0) {
            return 0;
        }
        let cm = &mut self.code[bcid.index()];
        if let Some(r) = cm.lin.resume.iter().find(|r| r.0 == point) {
            return r.1;
        }
        let points: Vec<_> = cm.lin.resume.iter().map(|r| r.0).chain([point]).collect();
        cm.lin = Arc::new(lower(&cm.func, &self.program, &points));
        cm.lin.resume.last().expect("just lowered with this entry").1
    }

    /// Installs `cid` as the one valid general compiled method for `mid`:
    /// updates the JTOC slot and, for virtual methods, the declaring class
    /// TIB and every subclass TIB still inheriting this method. General
    /// code (never special code) propagates to subclasses — paper Fig. 6.
    ///
    /// With `replacing`, only class-TIB slots holding that code are
    /// rewritten: the injected recompile swaps a method's code for its twin
    /// and queues no event, so special code the engine put into a
    /// static-only class's TIB must stay where it is.
    fn install_general(&mut self, mid: MethodId, cid: CompiledId, replacing: Option<CompiledId>) {
        self.general_code[mid.index()] = Some(cid);
        let program = Rc::clone(&self.program);
        let md = program.method(mid);
        if md.is_virtual() {
            let mut targets = vec![md.owner];
            targets.extend(program.all_subclasses(md.owner));
            for c in targets {
                let cd = program.class(c);
                if let Some(vslot) = cd.vtable_slot(md.selector) {
                    // Only patch where this method is still the resolution
                    // (an overriding subclass keeps its own entry).
                    if cd.vtable[vslot as usize] == mid {
                        let tib = self.class_tibs[c.index()];
                        let slot = &mut self.tibs[tib.index()].methods[vslot as usize];
                        if replacing.is_none_or(|old| *slot == CodeSlot::Code(old)) {
                            *slot = CodeSlot::Code(cid);
                        }
                    }
                }
            }
        }
        #[cfg(debug_assertions)]
        self.check_dispatch();
    }

    /// Drains pending recompilation events. The interpreter forwards these
    /// to the mutation handler after every compile; a handler being
    /// installed *late* (online mutation) drains them itself.
    pub fn take_recompile_events(&mut self) -> Vec<(MethodId, u8)> {
        std::mem::take(&mut self.recompile_events)
    }

    // ---------------------------------------------------------------
    // Special TIB management (driven by the mutation engine)
    // ---------------------------------------------------------------

    /// Creates a special TIB for hot state `state_index` of `class`: every
    /// slot inherits the class TIB's entry, and the class's IMT is shared
    /// (Sec. 3.2.3).
    pub fn create_special_tib(&mut self, class: ClassId, state_index: usize) -> TibId {
        let class_tib = self.class_tibs[class.index()];
        let src = &self.tibs[class_tib.index()];
        let tib = Tib {
            class,
            kind: TibKind::Special { state_index },
            methods: vec![CodeSlot::Lazy; src.methods.len()],
            imt: src.imt,
        };
        self.stats.special_tib_bytes += tib.bytes() as u64;
        self.stats.special_tibs += 1;
        let id = TibId(self.tibs.len() as u32);
        self.tibs.push(tib);
        id
    }

    /// Points a TIB method slot at specific compiled code (in a special
    /// TIB, `Lazy` makes the slot inherit again). Writes, and counts a code
    /// patch, only when the slot changes; returns whether it did.
    pub fn set_tib_slot(&mut self, tib: TibId, vslot: u32, code: CodeSlot) -> bool {
        let slot = &mut self.tibs[tib.index()].methods[vslot as usize];
        let changed = *slot != code;
        if changed {
            *slot = code;
            self.stats.code_patches += 1;
        }
        changed
    }

    /// The entry dispatch finds in a TIB method slot: a special TIB's
    /// inheriting slot reads the class TIB's.
    #[inline]
    pub fn tib_slot(&self, tib: TibId, vslot: u32) -> CodeSlot {
        let t = &self.tibs[tib.index()];
        match t.methods[vslot as usize] {
            CodeSlot::Lazy if t.kind != TibKind::Class => {
                let class_tib = self.class_tibs[t.class.index()];
                self.tibs[class_tib.index()].methods[vslot as usize]
            }
            slot => slot,
        }
    }

    /// Repoints an object's TIB pointer (the mutation itself).
    pub fn set_object_tib(&mut self, obj: ObjRef, tib: TibId) {
        let to = &self.tibs[tib.index()];
        let o = self.heap.object_mut(obj);
        debug_assert_eq!(o.class, to.class, "TIB flip must preserve the type-information entry");
        let from = std::mem::replace(&mut o.tib, tib);
        let since = std::mem::replace(&mut o.since, self.clock);
        self.stats.tib_flips += 1;
        // Residency feeds the census, so every exit counts — not just
        // traced ones — or the census would change shape when a tracer
        // attaches.
        if let Some(state) = self.tibs[from.index()].special_state() {
            self.residency.close(to.class.0, state, self.clock - since);
        }
        if self.tracer.on() {
            self.trace_tib_flip(obj, from, tib);
        }
    }

    /// Emits the `TibFlip` event for a flip plus its semantic reading as
    /// hot-state transitions (out of line: flips are rare next to the
    /// dispatch fast path).
    #[cold]
    fn trace_tib_flip(&mut self, obj: ObjRef, from: TibId, to: TibId) {
        self.tracer.emit(
            self.clock,
            TraceEvent::TibFlip { obj: obj.0, from_tib: from.0, to_tib: to.0 },
        );
        let class = self.tibs[to.index()].class.0;
        if let TibKind::Special { state_index } = self.tibs[from.index()].kind {
            self.tracer.emit(
                self.clock,
                TraceEvent::StateTransition {
                    obj: obj.0,
                    class,
                    entered: false,
                    state: state_index as u32,
                },
            );
        }
        if let TibKind::Special { state_index } = self.tibs[to.index()].kind {
            self.tracer.emit(
                self.clock,
                TraceEvent::StateTransition {
                    obj: obj.0,
                    class,
                    entered: true,
                    state: state_index as u32,
                },
            );
        }
    }

    /// The class TIB id of `class`.
    pub fn class_tib(&self, class: ClassId) -> TibId {
        self.class_tibs[class.index()]
    }

    /// Sets the statically-bound dispatch override for `mid` (`None`
    /// restores the general code) — the JTOC patching of Fig. 4/5 for
    /// static and `invokespecial`-bound methods. Writes, and counts a code
    /// patch, only when the override changes.
    pub fn set_static_override(&mut self, mid: MethodId, code: Option<CompiledId>) {
        if self.static_override[mid.index()] != code {
            self.static_override[mid.index()] = code;
            self.stats.code_patches += 1;
        }
    }

    /// Marks `class` mutable: its interface dispatch pays the extra
    /// TIB-offset load (Sec. 3.2.3).
    pub fn mark_mutable_class(&mut self, class: ClassId) {
        self.mutable_classes[class.index()] = true;
    }

    // ---------------------------------------------------------------
    // Resilience governor (deopt-storm throttling)
    // ---------------------------------------------------------------

    /// Governor bookkeeping after a guard failure in compiled code `cid`,
    /// called by the interpreter before deoptimizing. Only special code
    /// participates; the storm counter is keyed per (method, state
    /// fingerprint). A throttle or blacklist verdict pins the site to
    /// general code. Pure host-side policy: charges no modeled cycles, so
    /// it is clock-transparent until a verdict actually changes installed
    /// code.
    pub(crate) fn governor_on_guard_fail(&mut self, cid: CompiledId) {
        let cm = &self.code[cid.index()];
        if !cm.special {
            return;
        }
        let (mid, fp) = (cm.method, cm.binding_fp);
        let gcfg = self.config.governor;
        if !gcfg.enabled {
            return;
        }
        match self.governor.on_guard_fail(&gcfg, mid.0, fp, self.clock) {
            GuardFailVerdict::None => {}
            GuardFailVerdict::Throttle { episode, until } => {
                self.stats.specials_throttled += 1;
                self.code[cid.index()].blocked_until = until;
                if self.tracer.on() {
                    self.tracer.emit(
                        self.clock,
                        TraceEvent::SpecialThrottled {
                            method: mid.0,
                            episode,
                            until_cycle: until,
                        },
                    );
                }
                self.pin_special(cid);
            }
            GuardFailVerdict::Blacklist { total_fails } => {
                self.stats.specials_blacklisted += 1;
                self.code[cid.index()].blocked_until = u64::MAX;
                if self.tracer.on() {
                    self.tracer.emit(
                        self.clock,
                        TraceEvent::SpecialBlacklisted { method: mid.0, fails: total_fails },
                    );
                }
                self.pin_special(cid);
            }
        }
    }

    /// Pins every dispatch site currently routed at special code `bad`
    /// back to general code: special-TIB method slots inherit the class
    /// TIB's entry again and a matching static override is cleared. Frames
    /// already executing `bad` are untouched (they deoptimize on their own
    /// guards); this only stops *new* dispatches from entering the storm.
    fn pin_special(&mut self, bad: CompiledId) {
        self.pinned = true;
        for tib in self.tibs.iter_mut().filter(|t| t.kind != TibKind::Class) {
            for slot in tib.methods.iter_mut().filter(|s| **s == CodeSlot::Code(bad)) {
                *slot = CodeSlot::Lazy;
            }
        }
        let mid = self.code[bad.index()].method;
        if self.static_override[mid.index()] == Some(bad) {
            self.static_override[mid.index()] = None;
        }
        #[cfg(debug_assertions)]
        self.check_dispatch();
    }

    /// True when the governor permits special code `cid` to be installed
    /// or re-entered right now (not throttled, not blacklisted). General
    /// code is always usable. This runs on every instance-store flip-in,
    /// so it reads the verdict cached on the code record (one clock
    /// compare) rather than probing the governor's site table.
    pub fn special_usable(&self, cid: CompiledId) -> bool {
        self.code[cid.index()].blocked_until <= self.clock
    }

    /// True once the governor has pinned a special in this VM. Until then
    /// every `blocked_until` is 0, so [`Self::special_usable`] holds for
    /// all code and no slot was reverted behind the mutation engine's back:
    /// a flip-in finds special-TIB slots as the engine's last refresh left
    /// them.
    pub fn has_pinned(&self) -> bool {
        self.pinned
    }

    /// True when the governor permits compiling/installing a special of
    /// `mid` under `bindings` right now — the pre-compile twin of
    /// [`Self::special_usable`], used before any code exists.
    pub fn special_request_allowed(&self, mid: MethodId, bindings: &Bindings) -> bool {
        let fp = binding_fingerprint(Some(bindings));
        self.governor
            .special_allowed(&self.config.governor, mid.0, fp, self.clock)
    }

    // ---------------------------------------------------------------
    // Dispatch helpers
    // ---------------------------------------------------------------

    /// Dense `class x selector -> vtable slot` lookup.
    #[inline]
    pub fn vtable_slot_fast(&self, class: ClassId, sel: SelectorId) -> Option<u32> {
        let v = self.vslot_dense[class.index() * self.num_selectors + sel.index()];
        (v != NO_SITE).then_some(v)
    }

    /// Checks the structure of the dispatch tables: every TIB slot is lazy
    /// (in a special TIB: inherits) or holds code of the method its class's
    /// vtable names there; every static override is code of its method;
    /// every general code entry is non-special code of its method. Debug
    /// builds run it after each general install, engine refresh and
    /// governor pin.
    ///
    /// # Panics
    /// Panics at the first entry that breaks one of these.
    #[cfg(debug_assertions)]
    pub fn check_dispatch(&self) {
        for (ti, tib) in self.tibs.iter().enumerate() {
            let vtable = &self.program.class(tib.class).vtable;
            for (v, &slot) in tib.methods.iter().enumerate() {
                if let CodeSlot::Code(c) = slot {
                    let m = self.compiled(c).method;
                    assert_eq!(m, vtable[v], "tib{ti} slot {v} holds {c:?}, code of {m:?}");
                }
            }
        }
        let tables = self.static_override.iter().zip(&self.general_code);
        for (m, (&over, &general)) in tables.enumerate() {
            if let Some(c) = over {
                assert_eq!(self.compiled(c).method.index(), m, "override of m{m} is {c:?}");
            }
            if let Some(c) = general {
                let cm = self.compiled(c);
                assert!(cm.method.index() == m && !cm.special, "general code of m{m} is {c:?}");
            }
        }
    }

    // ---------------------------------------------------------------
    // Heap & values
    // ---------------------------------------------------------------

    /// Allocates an instance of `class` with zeroed fields, running GC if
    /// needed; charges allocation cycles.
    ///
    /// # Errors
    /// Returns [`RunError::OutOfMemory`] when even a full collection cannot
    /// free enough space.
    pub fn alloc_object(&mut self, class: ClassId) -> Result<ObjRef, RunError> {
        let fields = self.field_templates[class.index()].clone();
        let bytes = 16 + 8 * fields.len();
        self.maybe_inject_at_alloc(bytes)?;
        self.maybe_gc(bytes);
        self.charge_alloc(bytes);
        let tib = self.class_tibs[class.index()];
        self.heap.alloc_object(class, tib, fields)
    }

    /// Allocates an array, running GC if needed; charges allocation cycles.
    ///
    /// # Errors
    /// Returns [`RunError::NegativeArraySize`] or [`RunError::OutOfMemory`].
    pub fn alloc_array(
        &mut self,
        kind: dchm_bytecode::ElemKind,
        len: i64,
    ) -> Result<ObjRef, RunError> {
        let bytes = self.heap.array_bytes(len)?;
        self.maybe_inject_at_alloc(bytes)?;
        self.maybe_gc(bytes);
        self.charge_alloc(bytes);
        self.heap.alloc_array(kind, len)
    }

    fn charge_alloc(&mut self, bytes: usize) {
        let cycles = (bytes as u64 / 8) * CostModel::ALLOC_COST_PER_WORD;
        self.clock += cycles;
        self.stats.exec_cycles += cycles;
    }

    fn maybe_gc(&mut self, bytes: usize) {
        if self.heap.needs_gc(bytes) {
            self.gc_now();
        }
    }

    /// Drops every frame and the register pool. `&mut Vm` rules out real
    /// re-entrancy, so frames found at a host entry point are what a trap
    /// (or a contained panic) left behind.
    pub fn drop_frames(&mut self) {
        self.frames.clear();
        self.reg_stack.clear();
    }

    /// Runs a collection with roots from frames, statics and host handles.
    /// Every live frame's registers are a window of `reg_stack`, so one
    /// linear scan of the pool covers all frames.
    pub fn gc_now(&mut self) {
        if self.tracer.on() {
            let used = self.heap.used_bytes() as u64;
            self.tracer.emit(self.clock, TraceEvent::GcStart { used_bytes: used });
        }
        let cycles = self.collect();
        self.clock += cycles;
        self.stats.gc_cycles += cycles;
        if self.tracer.on() {
            let used = self.heap.used_bytes() as u64;
            self.tracer.emit(
                self.clock,
                TraceEvent::GcEnd { used_bytes: used, gc_cycles: cycles },
            );
            // GC-triggered census: the post-sweep heap walk, as a counter
            // event (0-cycle, host-side only).
            self.trace_census();
        }
    }

    /// One mark-sweep from the live roots — frame registers (one linear
    /// scan of the pooled register stack), statics, host handles — streamed
    /// into the mark, so a collection allocates nothing. Returns the cycles
    /// it costs.
    fn collect(&mut self) -> u64 {
        let refs = self.reg_stack.iter().chain(&self.statics).filter_map(|v| match v {
            Value::Ref(r) => Some(*r),
            _ => None,
        });
        self.heap.gc(refs.chain(self.handles.iter().copied()))
    }

    /// A method's `Class::method` display name — the resolver the
    /// profile and census exports use.
    pub fn method_display_name(&self, mid: MethodId) -> String {
        let m = self.program.method(mid);
        format!("{}::{}", self.program.class(m.owner).name, m.name)
    }

    /// Walks the heap on demand and builds the full [`CensusSnapshot`]:
    /// occupancy per class and per special-state TIB, plus TIB-flip
    /// residency — the completed stays and, from the same walk, every
    /// object in a special state measured from its header's `since` to the
    /// current clock. 0-cycle and read-only — calling it any number of
    /// times perturbs nothing.
    pub fn census(&self) -> CensusSnapshot {
        let mut residency = self.residency.clone();
        let raw = self.heap.census(|o| {
            if let Some(state) = self.tibs[o.tib.index()].special_state() {
                residency.add_open(o.class.0, state, self.clock - o.since);
            }
        });
        let mut in_special = 0u64;
        let per_tib: Vec<TibCensus> = raw
            .per_tib
            .iter()
            .map(|(&tib, &(objects, bytes))| {
                let t = &self.tibs[tib as usize];
                let state = t.special_state();
                if state.is_some() {
                    in_special += objects;
                }
                TibCensus { tib, class: t.class.0, state, objects, bytes }
            })
            .collect();
        let per_class = raw
            .per_class
            .iter()
            .map(|(&class, &(objects, bytes))| ClassCensus {
                class,
                name: self.program.class(ClassId(class)).name.clone(),
                objects,
                bytes,
            })
            .collect();
        CensusSnapshot {
            at_cycle: self.clock,
            live_objects: raw.objects,
            live_arrays: raw.arrays,
            object_bytes: raw.object_bytes,
            array_bytes: raw.array_bytes,
            heap_used_bytes: self.heap.used_bytes() as u64,
            in_special_state: in_special,
            per_class,
            per_tib,
            residency: residency.table(),
        }
    }

    /// Emits a summary [`TraceEvent::Census`] counter event for the
    /// current heap (no-op when tracing is off). Used after GC sweeps and
    /// at mutation install points.
    pub fn trace_census(&mut self) {
        if !self.tracer.on() {
            return;
        }
        let raw = self.heap.census(|_| {});
        let in_special = raw
            .per_tib
            .iter()
            .filter(|(&tib, _)| self.tibs[tib as usize].special_state().is_some())
            .map(|(_, &(n, _))| n)
            .sum();
        self.tracer.emit(
            self.clock,
            TraceEvent::Census {
                live_objects: raw.objects,
                live_bytes: raw.total_bytes(),
                in_special_state: in_special,
            },
        );
    }

    /// Consults the fault injector (if any) at an allocation point and
    /// applies the drawn fault. Every injected fault is *cycle-transparent*:
    ///
    /// * an injected GC is a real mark-sweep over the real root set but
    ///   leaves the clock and GC stats untouched;
    /// * an injected recompile regenerates the running method's general
    ///   code and puts it where the old code sat, without billing compile
    ///   cycles, touching the profile or queueing a recompilation event —
    ///   the compiler is deterministic, so the new code is identical to the
    ///   old.
    ///
    /// This is what lets the differential harness assert bit-identical
    /// output *and* modeled cycles with injection on vs. off.
    ///
    /// The `Oom` and `Panic` kinds are the exception to cycle transparency:
    /// they abort the current run by design (a typed trap, respectively a
    /// host panic the `Vm::run` containment boundary converts into
    /// [`RunError::VmInvariant`]). Their contract is same-seed bit-identity,
    /// not transparency.
    fn maybe_inject_at_alloc(&mut self, requested: usize) -> Result<(), RunError> {
        let fault = match self.injector.as_mut() {
            Some(inj) => inj.at_alloc(),
            None => return Ok(()),
        };
        let Some(fault) = fault else { return Ok(()) };
        if self.tracer.on() {
            let kind = match fault {
                Fault::Gc => FaultKind::Gc,
                Fault::Recompile => FaultKind::Recompile,
                Fault::Oom => FaultKind::OomAtAlloc,
                Fault::Panic => FaultKind::PanicAtOp,
            };
            let method = self.frames.last().map_or(NO_ID, |f| f.method.0);
            self.tracer.emit(self.clock, TraceEvent::FaultInjected { kind, method });
        }
        match fault {
            Fault::Gc => {
                let _ = self.collect();
            }
            Fault::Recompile => {
                let Some(fr) = self.frames.last() else { return Ok(()) };
                let mid = fr.method;
                let Some(old) = self.general_code[mid.index()] else {
                    return Ok(());
                };
                let level = self.compiled(old).level;
                let cid = self.compile_admitted(mid, level, None, true);
                self.install_general(mid, cid, Some(old));
            }
            Fault::Oom => {
                return Err(RunError::OutOfMemory {
                    requested,
                    heap: self.config.heap_bytes,
                });
            }
            Fault::Panic => panic!("injected panic at allocation point"),
        }
        Ok(())
    }

    /// Registers a host-held GC root.
    pub fn add_handle(&mut self, r: ObjRef) {
        self.handles.push(r);
    }

    /// Reads a static field.
    pub fn get_static(&self, field: FieldId) -> Value {
        self.statics[self.program.field(field).slot as usize]
    }

    /// Reads an instance field of a heap object (host-side helper).
    pub fn get_field(&self, obj: ObjRef, field: FieldId) -> Value {
        self.heap.object(obj).fields[self.program.field(field).slot as usize]
    }
}

fn collect_iface_sels(p: &Program, iface: ClassId, out: &mut HashSet<SelectorId>) {
    for &m in &p.class(iface).methods {
        out.insert(p.method(m).selector);
    }
    for &parent in &p.class(iface).interfaces {
        collect_iface_sels(p, parent, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dchm_bytecode::{MethodSig, ProgramBuilder, Ty};

    fn simple_program() -> (Program, ClassId, MethodId) {
        let mut pb = ProgramBuilder::new();
        let c = pb.class("C").build();
        pb.instance_field(c, "x", Ty::Int);
        let mut m = pb.method(c, "f", MethodSig::new(vec![], Some(Ty::Int)));
        let r = m.imm(7);
        m.ret(Some(r));
        let mid = m.build();
        pb.trivial_ctor(c);
        (pb.finish().unwrap(), c, mid)
    }

    #[test]
    fn class_tibs_created_at_startup() {
        let (p, c, _) = simple_program();
        let st = VmState::new(p, VmConfig::default());
        assert_eq!(st.tibs.len(), 1);
        assert_eq!(st.tibs[0].class, c);
        assert_eq!(st.tibs[0].kind, TibKind::Class);
        assert!(st.stats.class_tib_bytes > 0);
        assert_eq!(st.stats.special_tib_bytes, 0);
    }

    #[test]
    fn lazy_then_compiled_installs_into_tib() {
        let (p, c, mid) = simple_program();
        let mut st = VmState::new(p, VmConfig::default());
        let vslot = st.program.class(c).vtable_slot(st.program.method(mid).selector);
        let vslot = vslot.unwrap();
        assert_eq!(st.tib_slot(st.class_tib(c), vslot), CodeSlot::Lazy);
        let cid = st.ensure_compiled(mid);
        assert_eq!(st.tib_slot(st.class_tib(c), vslot), CodeSlot::Code(cid));
        assert_eq!(st.level_of(mid), Some(0));
        assert!(st.stats.compile_cycles > 0);
        // Second call is a no-op.
        assert_eq!(st.ensure_compiled(mid), cid);
        assert_eq!(st.stats.compiles_by_level[0], 1);
    }

    #[test]
    fn recompile_replaces_valid_code_and_queues_event() {
        let (p, _, mid) = simple_program();
        let mut st = VmState::new(p, VmConfig::default());
        st.ensure_compiled(mid);
        let ev = st.take_recompile_events();
        assert_eq!(ev, vec![(mid, 0)]);
        let c2 = st.recompile(mid, 2);
        assert_eq!(st.general_code[mid.index()], Some(c2));
        assert_eq!(st.level_of(mid), Some(2));
        assert_eq!(st.take_recompile_events(), vec![(mid, 2)]);
        assert_eq!(st.stats.per_method[mid.index()].recompiles, 1);
    }

    #[test]
    fn accelerated_methods_jump_to_opt2() {
        let (p, _, mid) = simple_program();
        let mut cfg = VmConfig::default();
        cfg.accelerated_methods.insert(mid);
        let mut st = VmState::new(p, cfg);
        st.ensure_compiled(mid);
        assert_eq!(st.level_of(mid), Some(2));
        let levels: Vec<u8> = st.take_recompile_events().iter().map(|e| e.1).collect();
        assert_eq!(levels, vec![0, 1, 2]);
    }

    #[test]
    fn special_tib_inherits_and_shares_imt() {
        let (p, c, mid) = simple_program();
        let mut st = VmState::new(p, VmConfig::default());
        let cid = st.ensure_compiled(mid);
        let special = st.create_special_tib(c, 0);
        let class_tib = st.class_tib(c);
        let vslot = st.program.class(c).vtable_slot(st.program.method(mid).selector).unwrap();
        assert!(st.tibs[special.index()].methods.iter().all(|&s| s == CodeSlot::Lazy));
        assert_eq!(st.tib_slot(special, vslot), CodeSlot::Code(cid));
        assert_eq!(st.tibs[special.index()].imt, st.tibs[class_tib.index()].imt);
        assert_eq!(
            st.tibs[special.index()].kind,
            TibKind::Special { state_index: 0 }
        );
        // Type-information entry identical (checkcast transparency).
        assert_eq!(st.tibs[special.index()].class, c);
        assert!(st.stats.special_tib_bytes > 0);
        assert_eq!(st.stats.special_tibs, 1);
    }

    #[test]
    fn object_tib_flip() {
        let (p, c, _) = simple_program();
        let mut st = VmState::new(p, VmConfig::default());
        let obj = st.alloc_object(c).unwrap();
        let special = st.create_special_tib(c, 0);
        st.set_object_tib(obj, special);
        assert_eq!(st.heap.object(obj).tib, special);
        assert_eq!(st.stats.tib_flips, 1);
        // Class (type info) untouched.
        assert_eq!(st.heap.object(obj).class, c);
    }

    #[test]
    fn special_tib_sees_later_installs_until_specialized() {
        let (p, c, mid) = simple_program();
        let mut st = VmState::new(p, VmConfig::default());
        let special = st.create_special_tib(c, 0);
        let vslot = st.program.class(c).vtable_slot(st.program.method(mid).selector).unwrap();
        assert_eq!(st.tib_slot(special, vslot), CodeSlot::Lazy);
        let cid = st.ensure_compiled(mid); // writes the class TIB only
        assert_eq!(st.tib_slot(special, vslot), CodeSlot::Code(cid));
        let hot = st.recompile(mid, 2);
        assert!(st.set_tib_slot(special, vslot, CodeSlot::Code(hot)));
        assert!(!st.set_tib_slot(special, vslot, CodeSlot::Code(hot)), "unchanged: no write");
        let later = st.recompile(mid, 1);
        assert_eq!(st.tib_slot(special, vslot), CodeSlot::Code(hot));
        assert!(st.set_tib_slot(special, vslot, CodeSlot::Lazy));
        assert_eq!(st.tib_slot(special, vslot), CodeSlot::Code(later));
        assert_eq!(st.stats.code_patches, 2);
    }

    #[test]
    fn gc_preserves_static_roots() {
        let (p, c, _) = simple_program();
        let mut st = VmState::new(p, VmConfig::default());
        let obj = st.alloc_object(c).unwrap();
        let dead = st.alloc_object(c).unwrap();
        let f = st.program.field_by_name(c, "x"); // instance field, not a root path
        assert!(f.is_some());
        st.handles.push(obj);
        st.gc_now();
        assert!(st.heap.is_live(obj));
        assert!(!st.heap.is_live(dead));
    }

    #[test]
    fn static_override_roundtrip() {
        let (p, _, mid) = simple_program();
        let mut st = VmState::new(p, VmConfig::default());
        let cid = st.ensure_compiled(mid);
        st.set_static_override(mid, Some(cid));
        assert_eq!(st.static_override[mid.index()], Some(cid));
        st.set_static_override(mid, Some(cid));
        st.set_static_override(mid, None);
        assert_eq!(st.static_override[mid.index()], None);
        assert_eq!(st.stats.code_patches, 2);
    }
}
