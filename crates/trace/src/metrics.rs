//! Metrics snapshots: folds a recorded event stream into per-method and
//! per-class histograms — the aggregate view complementing the raw
//! timeline of [`crate::export`].
//!
//! Derived quantities (all in modeled cycles):
//!
//! * **Deopt latency** per method: `GuardFail` → `BaselineResume` distance,
//!   i.e. how long a tripped frame stalled before resuming in baseline
//!   code (the one-time baseline compile on a method's first deopt; ~0
//!   afterwards).
//! * **Time in specialization** per method: `SpecialCompile` → first
//!   subsequent `GuardFail` of the same method (or end of run), the window
//!   a specialized version was live and unbroken.
//! * **State residency** per class: `StateTransition{entered}` →
//!   `StateTransition{left}` distance per object, how long objects
//!   actually stayed in a hot state.
//!
//! Built entirely from the (possibly ring-truncated) event slice; spans
//! whose opening event was overwritten are simply not counted, and
//! [`MetricsSnapshot::events_dropped`] reports how much of the stream was
//! lost.

use crate::{Stamped, TraceEvent};
use serde::Serialize;
use std::collections::BTreeMap;

/// A log2-bucketed histogram of `u64` samples (bucket `i` counts values
/// `v` with `v.ilog2() == i`; bucket 0 also holds `v == 0`).
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize)]
pub struct Histogram {
    /// Number of samples recorded.
    pub count: u64,
    /// Smallest sample (0 when empty).
    pub min: u64,
    /// Largest sample (0 when empty).
    pub max: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// Log2 bucket counts; index `i` covers `[2^i, 2^(i+1))`. Trailing
    /// empty buckets are not stored.
    pub buckets: Vec<u64>,
}

impl Histogram {
    /// Records one sample.
    pub fn record(&mut self, v: u64) {
        if self.count == 0 {
            self.min = v;
            self.max = v;
        } else {
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
        self.count += 1;
        self.sum += v;
        let bucket = if v == 0 { 0 } else { v.ilog2() as usize };
        if self.buckets.len() <= bucket {
            self.buckets.resize(bucket + 1, 0);
        }
        self.buckets[bucket] += 1;
    }

    /// True when no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Mean sample value (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// Per-method metrics derived from the event stream.
#[derive(Clone, Debug, Default, Serialize)]
pub struct MethodMetrics {
    /// The method id.
    pub method: u32,
    /// Special versions compiled for this method.
    pub special_compiles: u64,
    /// General (re)compiles installed for this method.
    pub recompiles: u64,
    /// Guard failures observed.
    pub guard_fails: u64,
    /// Frames deoptimized.
    pub deopts: u64,
    /// `GuardFail` → `BaselineResume` latency, modeled cycles.
    pub deopt_latency: Histogram,
    /// `SpecialCompile` → first subsequent `GuardFail` (or end of run),
    /// modeled cycles.
    pub time_in_special: Histogram,
}

/// Per-class hot-state residency derived from `StateTransition` events.
#[derive(Clone, Debug, Default, Serialize)]
pub struct ClassMetrics {
    /// The class id.
    pub class: u32,
    /// Hot-state entries observed.
    pub entries: u64,
    /// Hot-state exits observed.
    pub exits: u64,
    /// Enter → leave distance per object, modeled cycles. Objects still in
    /// a hot state at end of run are measured to `end_cycle`.
    pub state_residency: Histogram,
}

/// The full snapshot: stream accounting plus the per-method / per-class
/// breakdowns, all deterministically ordered by id.
#[derive(Clone, Debug, Default, Serialize)]
pub struct MetricsSnapshot {
    /// Events available to the fold (post-ring).
    pub events_seen: u64,
    /// Events lost to ring overwriting before the fold.
    pub events_dropped: u64,
    /// Modeled clock at the end of the traced run.
    pub end_cycle: u64,
    /// TIB flips in the stream.
    pub tib_flips: u64,
    /// GC spans in the stream (paired `GcStart`/`GcEnd`).
    pub gcs: u64,
    /// Injected faults in the stream.
    pub faults_injected: u64,
    /// Per-method metrics, ascending method id; methods with no relevant
    /// events are absent.
    pub per_method: Vec<MethodMetrics>,
    /// Per-class metrics, ascending class id.
    pub per_class: Vec<ClassMetrics>,
}

impl MetricsSnapshot {
    /// Folds `events` (oldest-first) into a snapshot. `end_cycle` is the
    /// modeled clock when the run finished; `dropped` the ring's overwrite
    /// count.
    pub fn build(events: &[Stamped], end_cycle: u64, dropped: u64) -> Self {
        let mut snap = MetricsSnapshot {
            events_seen: events.len() as u64,
            events_dropped: dropped,
            end_cycle,
            ..Default::default()
        };
        let mut methods: BTreeMap<u32, MethodMetrics> = BTreeMap::new();
        let mut classes: BTreeMap<u32, ClassMetrics> = BTreeMap::new();
        // Open spans: value is the opening cycle.
        let mut open_guard: BTreeMap<u32, u64> = BTreeMap::new();
        let mut open_special: BTreeMap<u32, u64> = BTreeMap::new();
        let mut open_state: BTreeMap<(u32, u32), u64> = BTreeMap::new();

        for e in events {
            match e.event {
                TraceEvent::TibFlip { .. } => snap.tib_flips += 1,
                TraceEvent::GcEnd { .. } => snap.gcs += 1,
                TraceEvent::FaultInjected { .. } => snap.faults_injected += 1,
                TraceEvent::SpecialCompile { method, .. } => {
                    let m = methods.entry(method).or_default();
                    m.special_compiles += 1;
                    open_special.entry(method).or_insert(e.cycle);
                }
                TraceEvent::Recompile { method, .. } => {
                    methods.entry(method).or_default().recompiles += 1;
                }
                TraceEvent::GuardFail { method, .. } => {
                    let m = methods.entry(method).or_default();
                    m.guard_fails += 1;
                    if let Some(since) = open_special.remove(&method) {
                        m.time_in_special.record(e.cycle - since);
                    }
                    open_guard.insert(method, e.cycle);
                }
                TraceEvent::Deopt { method, .. } => {
                    methods.entry(method).or_default().deopts += 1;
                }
                TraceEvent::BaselineResume { method, .. } => {
                    if let Some(since) = open_guard.remove(&method) {
                        methods
                            .entry(method)
                            .or_default()
                            .deopt_latency
                            .record(e.cycle - since);
                    }
                }
                TraceEvent::StateTransition { obj, class, entered, .. } => {
                    let c = classes.entry(class).or_default();
                    if entered {
                        c.entries += 1;
                        open_state.insert((class, obj), e.cycle);
                    } else {
                        c.exits += 1;
                        if let Some(since) = open_state.remove(&(class, obj)) {
                            c.state_residency.record(e.cycle - since);
                        }
                    }
                }
                _ => {}
            }
        }
        // Spans still open at end of run measure to the final clock.
        for (method, since) in open_special {
            methods
                .entry(method)
                .or_default()
                .time_in_special
                .record(end_cycle - since);
        }
        for ((class, _), since) in open_state {
            classes
                .entry(class)
                .or_default()
                .state_residency
                .record(end_cycle - since);
        }
        snap.per_method = methods
            .into_iter()
            .map(|(id, mut m)| {
                m.method = id;
                m
            })
            .collect();
        snap.per_class = classes
            .into_iter()
            .map(|(id, mut c)| {
                c.class = id;
                c
            })
            .collect();
        snap
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NO_ID;

    fn st(seq: u64, cycle: u64, event: TraceEvent) -> Stamped {
        Stamped { seq, cycle, event }
    }

    #[test]
    fn histogram_buckets_by_log2() {
        let mut h = Histogram::default();
        for v in [0, 1, 2, 3, 4, 1000] {
            h.record(v);
        }
        assert_eq!(h.count, 6);
        assert_eq!(h.min, 0);
        assert_eq!(h.max, 1000);
        assert_eq!(h.sum, 1010);
        // 0 and 1 -> bucket 0; 2,3 -> bucket 1; 4 -> bucket 2; 1000 -> bucket 9.
        assert_eq!(h.buckets[0], 2);
        assert_eq!(h.buckets[1], 2);
        assert_eq!(h.buckets[2], 1);
        assert_eq!(h.buckets[9], 1);
        assert_eq!(h.buckets.len(), 10);
        assert!((h.mean() - 1010.0 / 6.0).abs() < 1e-9);
    }

    #[test]
    fn deopt_latency_and_time_in_special() {
        let events = vec![
            st(0, 100, TraceEvent::SpecialCompile { method: 7, code: 1, level: 2, size_bytes: 64 }),
            st(1, 500, TraceEvent::GuardFail { method: 7, guard: 0, obj: 3, forced: false }),
            st(2, 650, TraceEvent::Deopt { method: 7, from_code: 1, to_code: 2, obj: 3 }),
            st(3, 650, TraceEvent::BaselineResume { method: 7, code: 2, block: 0, op: 1 }),
        ];
        let snap = MetricsSnapshot::build(&events, 1000, 0);
        assert_eq!(snap.per_method.len(), 1);
        let m = &snap.per_method[0];
        assert_eq!(m.method, 7);
        assert_eq!(m.guard_fails, 1);
        assert_eq!(m.deopts, 1);
        assert_eq!(m.deopt_latency.count, 1);
        assert_eq!(m.deopt_latency.sum, 150);
        assert_eq!(m.time_in_special.sum, 400);
    }

    #[test]
    fn open_spans_measure_to_end_of_run() {
        let events = vec![
            st(0, 100, TraceEvent::SpecialCompile { method: 1, code: 0, level: 2, size_bytes: 8 }),
            st(
                1,
                200,
                TraceEvent::StateTransition { obj: 4, class: 2, entered: true, state: 0 },
            ),
        ];
        let snap = MetricsSnapshot::build(&events, 1000, 5);
        assert_eq!(snap.events_dropped, 5);
        assert_eq!(snap.per_method[0].time_in_special.sum, 900);
        assert_eq!(snap.per_class[0].state_residency.sum, 800);
        assert_eq!(snap.per_class[0].entries, 1);
        assert_eq!(snap.per_class[0].exits, 0);
    }

    #[test]
    fn snapshot_serializes_to_json() {
        let events = vec![
            st(0, 1, TraceEvent::TibFlip { obj: 0, from_tib: 0, to_tib: 1 }),
            st(1, 2, TraceEvent::FaultInjected { kind: crate::FaultKind::Gc, method: NO_ID }),
        ];
        let snap = MetricsSnapshot::build(&events, 10, 0);
        assert_eq!(snap.tib_flips, 1);
        assert_eq!(snap.faults_injected, 1);
        let json = serde_json::to_string(&snap).unwrap();
        assert!(json.contains("\"tib_flips\":1"));
        assert!(json.contains("\"per_method\":[]"));
    }
}
