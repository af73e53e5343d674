#![warn(missing_docs)]

//! # dchm-trace
//!
//! Structured event tracing for the DCHM VM: every mutation-lifecycle
//! transition the paper's evaluation reasons about — TIB flips, state
//! entries/exits, special compiles, guard failures and deoptimizations,
//! inline-cache traffic, GC, adaptive samples, injected faults — becomes a
//! typed [`TraceEvent`] stamped with the VM's *modeled* cycle clock and a
//! monotone sequence number.
//!
//! Design constraints, in order:
//!
//! 1. **Free when off.** The VM holds a [`Tracer`] whose
//!    [`Tracer::on`] check is a single inlined branch on an `Option`
//!    discriminant; no event is constructed and no closure allocated
//!    unless a ring is attached.
//! 2. **Invisible when on.** Events are stamped with the modeled clock but
//!    never *charge* it: the determinism harness's golden fingerprints
//!    (clock, op counts, per-method cycle hashes) are bit-identical with
//!    tracing enabled or disabled. The buffer is host-side memory only.
//! 3. **Bounded.** The sink is a fixed-capacity overwrite-oldest
//!    ring ([`TraceBuffer`]): a trace of a long run keeps the most recent
//!    `capacity` events and counts what it dropped. The VM is
//!    single-threaded, so a single-writer ring needs no locks — "lock-free"
//!    by construction rather than by atomics.
//!
//! On top of the raw buffer sit two exporters: [`export`] renders Chrome
//! trace-event JSON (loadable in Perfetto / `chrome://tracing`), and
//! [`metrics`] folds the event stream into per-method histograms of
//! time-in-state and deopt latency.

pub mod census;
pub mod export;
pub mod metrics;
pub mod profile;

/// Sentinel for "no method/object/code id applies to this event field".
pub const NO_ID: u32 = u32::MAX;

/// Inline-cache sampling period: one `IcHit`/`IcMiss` event stands
/// for this many probes (IC traffic is orders of magnitude denser than
/// every other event kind; unsampled it would evict everything else).
pub const DEFAULT_IC_SAMPLE_PERIOD: u32 = 64;

/// Which fault the injector fired (mirrors `dchm-vm`'s injector actions
/// without depending on that crate).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// An injected (cycle-transparent) garbage collection.
    Gc,
    /// An injected global inline-cache version bump.
    IcBump,
    /// An injected silent recompilation of the running method.
    Recompile,
    /// A state guard forced to fail despite the state holding.
    ForcedGuardFail,
    /// An injected opt/special compilation failure (tier-down path).
    CompileFail,
    /// An injected out-of-memory at an allocation despite free heap.
    OomAtAlloc,
    /// An injected panic at an interpreter operation (containment path).
    PanicAtOp,
}

/// One mutation-lifecycle event. All payloads are raw `u32`/`u64` ids
/// (method/object/TIB/code indices) so the event is a fixed-size `Copy`
/// value and this crate stays independent of the VM's newtypes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceEvent {
    /// An object's TIB pointer was repointed — the mutation itself.
    TibFlip {
        /// Object whose header was patched.
        obj: u32,
        /// TIB id before the flip.
        from_tib: u32,
        /// TIB id after the flip.
        to_tib: u32,
    },
    /// An object entered (`entered`) or left a hot state: the semantic
    /// reading of a TIB flip between a class TIB and a special TIB.
    StateTransition {
        /// The transitioning object, or [`NO_ID`] for a class-wide
        /// (static-state) transition.
        obj: u32,
        /// The object's class.
        class: u32,
        /// True when the hot state was entered, false when left.
        entered: bool,
        /// Engine-defined hot-state index.
        state: u32,
    },
    /// A state-specialized code version finished compiling.
    SpecialCompile {
        /// Method the special version belongs to.
        method: u32,
        /// Id of the new code in the code store.
        code: u32,
        /// Optimization level it was compiled at.
        level: u32,
        /// Modeled machine-code size.
        size_bytes: u32,
    },
    /// General code was (re)compiled and installed into the JTOC/TIBs.
    Recompile {
        /// The recompiled method.
        method: u32,
        /// Id of the new code in the code store.
        code: u32,
        /// New optimization level.
        level: u32,
        /// Modeled machine-code size.
        size_bytes: u32,
    },
    /// A state guard in specialized code failed (the state assumption
    /// broke, or the fault injector forced it).
    GuardFail {
        /// Method whose specialized code tripped.
        method: u32,
        /// Guard id within the method's deopt side table.
        guard: u32,
        /// Receiver object, or [`NO_ID`] for static-state guards.
        obj: u32,
        /// True when the failure was injector-forced.
        forced: bool,
    },
    /// A frame remapped onto baseline code after a guard failure.
    Deopt {
        /// The deoptimized method.
        method: u32,
        /// Code id the frame was executing (the specialized version).
        from_code: u32,
        /// Baseline code id the frame resumes in.
        to_code: u32,
        /// Receiver object, or [`NO_ID`].
        obj: u32,
    },
    /// The deoptimized frame's resume point in baseline code — emitted
    /// when the remap is complete, i.e. after any baseline compile stall.
    BaselineResume {
        /// The deoptimized method.
        method: u32,
        /// Baseline code id.
        code: u32,
        /// Resume block index.
        block: u32,
        /// Resume op index.
        op: u32,
    },
    /// Sampled inline-cache hits (interface call sites, the only ones
    /// with a cache): one event per `sampled` probes.
    IcHit {
        /// Method whose call site probed the cache (the caller).
        method: u32,
        /// Call-site id within that method.
        site: u32,
        /// Number of hits this event stands for.
        sampled: u32,
    },
    /// Sampled inline-cache misses (interface call sites): one event per
    /// `sampled` probes.
    IcMiss {
        /// Method whose call site probed the cache (the caller).
        method: u32,
        /// Call-site id within that method.
        site: u32,
        /// Number of misses this event stands for.
        sampled: u32,
    },
    /// A (billed) garbage collection began.
    GcStart {
        /// Heap bytes in use when the collection started.
        used_bytes: u64,
    },
    /// The collection finished.
    GcEnd {
        /// Heap bytes in use after sweeping.
        used_bytes: u64,
        /// Modeled cycles the collection was billed.
        gc_cycles: u64,
    },
    /// The adaptive system took a method sample (timer tick).
    Sample {
        /// Sampled method.
        method: u32,
        /// That method's cumulative sample count.
        count: u64,
    },
    /// The fault injector fired.
    FaultInjected {
        /// Which fault.
        kind: FaultKind,
        /// Method on top of the stack when it fired, or [`NO_ID`].
        method: u32,
    },
    /// The compiled-code cache answered a compilation request: a
    /// previously produced version was reinstalled without rerunning the
    /// optimizer pipeline (billing is unchanged; only host work is elided).
    CodeCacheHit {
        /// Method whose compilation was requested.
        method: u32,
        /// The cached code that was reused.
        code: u32,
        /// Optimization level of the request.
        level: u32,
        /// True when the request was for a state-specialized version.
        special: bool,
    },
    /// The compiled-code cache evicted an entry to stay within its LRU
    /// capacity bound (the code itself is immortal; only the mapping is
    /// dropped, so a later identical request recompiles).
    CodeCacheEvict {
        /// Method of the evicted version.
        method: u32,
        /// The evicted code id.
        code: u32,
        /// Optimization level of the evicted version.
        level: u32,
    },
    /// The resilience governor throttled respecialization of a
    /// (method, special-state) site after a deopt storm: the site is
    /// pinned to general code until the backoff deadline passes.
    SpecialThrottled {
        /// Method whose special version was throttled.
        method: u32,
        /// Throttle episode count for this site (drives the exponential
        /// backoff: episode N backs off `base << (N-1)` cycles, capped).
        episode: u32,
        /// Modeled cycle at which respecialization may resume.
        until_cycle: u64,
    },
    /// The governor blacklisted a (method, special-state) site for good:
    /// lifetime guard-failure churn crossed the blacklist threshold.
    SpecialBlacklisted {
        /// Method whose special version was blacklisted.
        method: u32,
        /// Lifetime guard failures the site accumulated.
        fails: u64,
    },
    /// The governor quarantined a (method, opt-level) compile pair after
    /// repeated compilation failures; retries resume at the deadline.
    CompileQuarantine {
        /// Method whose compilation keeps failing.
        method: u32,
        /// Requested optimization level.
        level: u32,
        /// Failures accumulated for the pair.
        fails: u32,
        /// Modeled cycle at which a retry is allowed.
        until_cycle: u64,
    },
    /// The cycle-attribution profiler took a stack sample (a 0-cycle,
    /// host-side observation; see [`profile`]). Rendered as a Perfetto
    /// counter track by [`export::chrome_trace`].
    ProfileSample {
        /// Method on top of the modeled stack when the sample fired.
        method: u32,
        /// Stack depth at the sample (frames).
        depth: u32,
        /// Cumulative samples taken so far, this one included.
        samples: u64,
    },
    /// A heap/state census walk completed (GC-triggered or on demand).
    /// Rendered as a Perfetto counter track by [`export::chrome_trace`].
    Census {
        /// Live (unswept) heap objects, arrays excluded.
        live_objects: u64,
        /// Bytes held by all unswept cells (objects and arrays).
        live_bytes: u64,
        /// Objects currently sitting in a special-state TIB.
        in_special_state: u64,
    },
}

impl TraceEvent {
    /// Stable event name (the Chrome trace-event `name` field).
    pub fn name(&self) -> &'static str {
        match self {
            TraceEvent::TibFlip { .. } => "TibFlip",
            TraceEvent::StateTransition { .. } => "StateTransition",
            TraceEvent::SpecialCompile { .. } => "SpecialCompile",
            TraceEvent::Recompile { .. } => "Recompile",
            TraceEvent::GuardFail { .. } => "GuardFail",
            TraceEvent::Deopt { .. } => "Deopt",
            TraceEvent::BaselineResume { .. } => "BaselineResume",
            TraceEvent::IcHit { .. } => "IcHit",
            TraceEvent::IcMiss { .. } => "IcMiss",
            TraceEvent::GcStart { .. } => "GcStart",
            TraceEvent::GcEnd { .. } => "GcEnd",
            TraceEvent::Sample { .. } => "Sample",
            TraceEvent::FaultInjected { .. } => "FaultInjected",
            TraceEvent::CodeCacheHit { .. } => "CodeCacheHit",
            TraceEvent::CodeCacheEvict { .. } => "CodeCacheEvict",
            TraceEvent::SpecialThrottled { .. } => "SpecialThrottled",
            TraceEvent::SpecialBlacklisted { .. } => "SpecialBlacklisted",
            TraceEvent::CompileQuarantine { .. } => "CompileQuarantine",
            TraceEvent::ProfileSample { .. } => "ProfileSample",
            TraceEvent::Census { .. } => "Census",
        }
    }

    /// Category the event belongs to (the Chrome trace-event `cat` field).
    pub fn category(&self) -> &'static str {
        match self {
            TraceEvent::TibFlip { .. } | TraceEvent::StateTransition { .. } => "mutation",
            TraceEvent::SpecialCompile { .. }
            | TraceEvent::Recompile { .. }
            | TraceEvent::CodeCacheHit { .. }
            | TraceEvent::CodeCacheEvict { .. } => "compile",
            TraceEvent::GuardFail { .. }
            | TraceEvent::Deopt { .. }
            | TraceEvent::BaselineResume { .. } => "deopt",
            TraceEvent::IcHit { .. } | TraceEvent::IcMiss { .. } => "ic",
            TraceEvent::GcStart { .. } | TraceEvent::GcEnd { .. } => "gc",
            TraceEvent::Sample { .. } => "adaptive",
            TraceEvent::FaultInjected { .. } => "fault",
            TraceEvent::SpecialThrottled { .. }
            | TraceEvent::SpecialBlacklisted { .. }
            | TraceEvent::CompileQuarantine { .. } => "governor",
            TraceEvent::ProfileSample { .. } => "profile",
            TraceEvent::Census { .. } => "census",
        }
    }

    /// The method id carried by the event, if any.
    pub fn method(&self) -> Option<u32> {
        match *self {
            TraceEvent::SpecialCompile { method, .. }
            | TraceEvent::Recompile { method, .. }
            | TraceEvent::GuardFail { method, .. }
            | TraceEvent::Deopt { method, .. }
            | TraceEvent::BaselineResume { method, .. }
            | TraceEvent::IcHit { method, .. }
            | TraceEvent::IcMiss { method, .. }
            | TraceEvent::Sample { method, .. }
            | TraceEvent::FaultInjected { method, .. }
            | TraceEvent::CodeCacheHit { method, .. }
            | TraceEvent::CodeCacheEvict { method, .. }
            | TraceEvent::SpecialThrottled { method, .. }
            | TraceEvent::SpecialBlacklisted { method, .. }
            | TraceEvent::CompileQuarantine { method, .. }
            | TraceEvent::ProfileSample { method, .. } => {
                (method != NO_ID).then_some(method)
            }
            _ => None,
        }
    }

    /// The object id carried by the event, if any.
    pub fn object(&self) -> Option<u32> {
        match *self {
            TraceEvent::TibFlip { obj, .. }
            | TraceEvent::StateTransition { obj, .. }
            | TraceEvent::GuardFail { obj, .. }
            | TraceEvent::Deopt { obj, .. } => (obj != NO_ID).then_some(obj),
            _ => None,
        }
    }
}

/// A recorded event: payload plus its stamps. `seq` is strictly monotone
/// over the whole run (it survives ring overwrites); `cycle` is the modeled
/// clock at emission, monotone because the clock never rewinds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Stamped {
    /// Emission index, starting at 0.
    pub seq: u64,
    /// Modeled cycle clock at emission.
    pub cycle: u64,
    /// The event.
    pub event: TraceEvent,
}

/// Fixed-capacity overwrite-oldest ring of [`Stamped`] events — the
/// tracer's sink. Single-writer (the VM is single-threaded), so no
/// synchronization is needed; recording is an index bump and a `Copy`
/// store.
#[derive(Clone, Debug)]
pub struct TraceBuffer {
    buf: Vec<Stamped>,
    cap: usize,
    /// Index of the oldest event once the ring has wrapped.
    start: usize,
    /// Total events ever recorded (≥ `len`).
    recorded: u64,
}

impl TraceBuffer {
    /// Creates a ring holding at most `capacity` events.
    ///
    /// # Panics
    /// Panics if `capacity` is 0.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "trace ring capacity must be non-zero");
        TraceBuffer {
            buf: Vec::with_capacity(capacity.min(4096)),
            cap: capacity,
            start: 0,
            recorded: 0,
        }
    }

    /// Ring capacity.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Total events ever recorded, including overwritten ones.
    pub fn recorded(&self) -> u64 {
        self.recorded
    }

    /// Events lost to overwriting (`recorded - len`).
    pub fn dropped(&self) -> u64 {
        self.recorded - self.buf.len() as u64
    }

    /// Iterates the held events oldest-first.
    pub fn iter(&self) -> impl Iterator<Item = &Stamped> {
        self.buf[self.start..].iter().chain(self.buf[..self.start].iter())
    }

    /// The held events oldest-first, as a vector.
    pub fn to_vec(&self) -> Vec<Stamped> {
        self.iter().copied().collect()
    }

    /// The most recent `n` events, oldest of those first.
    pub fn last(&self, n: usize) -> Vec<Stamped> {
        let all = self.to_vec();
        let skip = all.len().saturating_sub(n);
        all[skip..].to_vec()
    }

    fn record(&mut self, ev: Stamped) {
        if self.buf.len() < self.cap {
            self.buf.push(ev);
        } else {
            self.buf[self.start] = ev;
            self.start = (self.start + 1) % self.cap;
        }
        self.recorded += 1;
    }
}

/// The VM-side tracing front end: an optional ring plus the sequence
/// counter and the inline-cache sampling state. Lives inside `VmState`;
/// every emission site is gated on [`Tracer::on`], so a detached tracer
/// costs the fast path exactly one predictable branch.
pub struct Tracer {
    sink: Option<TraceBuffer>,
    seq: u64,
    pending_ic_hits: u32,
    pending_ic_misses: u32,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::off()
    }
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer")
            .field("on", &self.on())
            .field("seq", &self.seq)
            .finish()
    }
}

impl Tracer {
    /// A detached tracer — the default; emission sites reduce to one
    /// branch.
    pub fn off() -> Self {
        Tracer {
            sink: None,
            seq: 0,
            pending_ic_hits: 0,
            pending_ic_misses: 0,
        }
    }

    /// A tracer recording into a fresh ring of `capacity` events.
    pub fn ring(capacity: usize) -> Self {
        let mut t = Tracer::off();
        t.enable_ring(capacity);
        t
    }

    /// Attaches a fresh ring of `capacity` events (replacing any current
    /// one).
    pub fn enable_ring(&mut self, capacity: usize) {
        self.sink = Some(TraceBuffer::new(capacity));
    }

    /// Whether a ring is attached. This is *the* fast-path check: inlined
    /// to a test of the `Option` discriminant.
    #[inline(always)]
    pub fn on(&self) -> bool {
        self.sink.is_some()
    }

    /// Stamps and records `event` at modeled clock `cycle`. A no-op when
    /// detached, so callers may skip their own [`Tracer::on`] gate when
    /// the event payload is cheap to build.
    #[inline]
    pub fn emit(&mut self, cycle: u64, event: TraceEvent) {
        if let Some(sink) = self.sink.as_mut() {
            let seq = self.seq;
            self.seq += 1;
            sink.record(Stamped { seq, cycle, event });
        }
    }

    /// Counts an inline-cache hit; every
    /// [`DEFAULT_IC_SAMPLE_PERIOD`]-th probe emits one
    /// sampled [`TraceEvent::IcHit`] carrying the caller/site of the probe
    /// that closed the window.
    #[inline]
    pub fn ic_hit(&mut self, cycle: u64, method: u32, site: u32) {
        if self.sink.is_none() {
            return;
        }
        self.pending_ic_hits += 1;
        if self.pending_ic_hits >= DEFAULT_IC_SAMPLE_PERIOD {
            let sampled = self.pending_ic_hits;
            self.pending_ic_hits = 0;
            self.emit(cycle, TraceEvent::IcHit { method, site, sampled });
        }
    }

    /// Counts an inline-cache miss; sampled like [`Tracer::ic_hit`].
    #[inline]
    pub fn ic_miss(&mut self, cycle: u64, method: u32, site: u32) {
        if self.sink.is_none() {
            return;
        }
        self.pending_ic_misses += 1;
        if self.pending_ic_misses >= DEFAULT_IC_SAMPLE_PERIOD {
            let sampled = self.pending_ic_misses;
            self.pending_ic_misses = 0;
            self.emit(cycle, TraceEvent::IcMiss { method, site, sampled });
        }
    }

    /// The attached ring, if any.
    pub fn buffer(&self) -> Option<&TraceBuffer> {
        self.sink.as_ref()
    }

    /// Buffered events oldest-first; empty when detached.
    pub fn events(&self) -> Vec<Stamped> {
        self.buffer().map(TraceBuffer::to_vec).unwrap_or_default()
    }

    /// The most recent `n` buffered events.
    pub fn last(&self, n: usize) -> Vec<Stamped> {
        self.buffer().map(|b| b.last(n)).unwrap_or_default()
    }

    /// Events lost to ring overwriting so far.
    pub fn dropped(&self) -> u64 {
        self.buffer().map(TraceBuffer::dropped).unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(i: u32) -> TraceEvent {
        TraceEvent::Sample { method: i, count: i as u64 }
    }

    #[test]
    fn off_tracer_records_nothing() {
        let mut t = Tracer::off();
        assert!(!t.on());
        t.emit(1, ev(0));
        t.ic_hit(1, 0, 0);
        assert!(t.events().is_empty());
        assert_eq!(t.dropped(), 0);
    }

    #[test]
    fn ring_keeps_most_recent_and_counts_drops() {
        let mut t = Tracer::ring(4);
        for i in 0..10u32 {
            t.emit(i as u64, ev(i));
        }
        let evs = t.events();
        assert_eq!(evs.len(), 4);
        // Oldest-first, and the oldest 6 were overwritten.
        assert_eq!(evs[0].seq, 6);
        assert_eq!(evs[3].seq, 9);
        assert_eq!(t.dropped(), 6);
        let b = t.buffer().unwrap();
        assert_eq!(b.recorded(), 10);
        assert_eq!(b.capacity(), 4);
        // `last` clamps to what is held.
        assert_eq!(t.last(2).iter().map(|e| e.seq).collect::<Vec<_>>(), [8, 9]);
        assert_eq!(t.last(100).len(), 4);
    }

    #[test]
    fn stamps_are_monotone() {
        let mut t = Tracer::ring(16);
        t.emit(5, ev(0));
        t.emit(5, ev(1));
        t.emit(9, ev(2));
        let evs = t.events();
        assert!(evs.windows(2).all(|w| w[0].seq < w[1].seq));
        assert!(evs.windows(2).all(|w| w[0].cycle <= w[1].cycle));
    }

    #[test]
    fn ic_probes_are_sampled() {
        let period = DEFAULT_IC_SAMPLE_PERIOD;
        let mut t = Tracer::ring(16);
        for _ in 0..2 * period + period / 2 {
            t.ic_hit(1, 3, 0);
        }
        t.ic_miss(2, 3, 1);
        let evs = t.events();
        // 2.5 periods of hits -> 2 events; 1 miss -> below threshold.
        assert_eq!(evs.len(), 2);
        for e in &evs {
            assert_eq!(
                e.event,
                TraceEvent::IcHit {
                    method: 3,
                    site: 0,
                    sampled: period
                }
            );
        }
    }

    #[test]
    fn accessors_expose_method_and_object() {
        let e = TraceEvent::GuardFail { method: 7, guard: 0, obj: 9, forced: false };
        assert_eq!(e.method(), Some(7));
        assert_eq!(e.object(), Some(9));
        assert_eq!(e.name(), "GuardFail");
        assert_eq!(e.category(), "deopt");
        let g = TraceEvent::GcStart { used_bytes: 0 };
        assert_eq!(g.method(), None);
        assert_eq!(g.object(), None);
        let s = TraceEvent::GuardFail { method: 1, guard: 0, obj: NO_ID, forced: true };
        assert_eq!(s.object(), None);
    }
}
