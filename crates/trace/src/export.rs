//! Chrome trace-event / Perfetto export.
//!
//! Renders a recorded event stream as the Chrome trace-event JSON object
//! format (`{"traceEvents": [...]}`), loadable in Perfetto
//! (<https://ui.perfetto.dev>) and `chrome://tracing`. The modeled cycle
//! clock maps to the `ts` field one cycle = one microsecond, so timeline
//! distances are exact modeled-cycle distances; nothing here consults the
//! wall clock.
//!
//! Event phases: GC spans become `B`/`E` begin/end pairs; every other event
//! is a thread-scoped instant (`i`). Two `M` metadata records name the
//! process and thread.

use crate::{Stamped, TraceEvent, NO_ID};
use serde::Value;

/// Synthetic process id for the single modeled VM.
const PID: i64 = 1;
/// Synthetic thread id for the single modeled mutator thread.
const TID: i64 = 1;

fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(fields.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
}

fn int(v: u64) -> Value {
    Value::Int(v as i64)
}

/// An id field: [`NO_ID`] renders as `null`.
fn id(v: u32) -> Value {
    if v == NO_ID {
        Value::Null
    } else {
        Value::Int(v as i64)
    }
}

fn args(ev: &TraceEvent) -> Value {
    match *ev {
        TraceEvent::TibFlip { obj: o, from_tib, to_tib } => obj(vec![
            ("obj", id(o)),
            ("from_tib", int(from_tib as u64)),
            ("to_tib", int(to_tib as u64)),
        ]),
        TraceEvent::StateTransition { obj: o, class, entered, state } => obj(vec![
            ("obj", id(o)),
            ("class", int(class as u64)),
            ("entered", Value::Bool(entered)),
            ("state", int(state as u64)),
        ]),
        TraceEvent::SpecialCompile { method, code, level, size_bytes }
        | TraceEvent::Recompile { method, code, level, size_bytes } => obj(vec![
            ("method", id(method)),
            ("code", int(code as u64)),
            ("level", int(level as u64)),
            ("size_bytes", int(size_bytes as u64)),
        ]),
        TraceEvent::GuardFail { method, guard, obj: o, forced } => obj(vec![
            ("method", id(method)),
            ("guard", int(guard as u64)),
            ("obj", id(o)),
            ("forced", Value::Bool(forced)),
        ]),
        TraceEvent::Deopt { method, from_code, to_code, obj: o } => obj(vec![
            ("method", id(method)),
            ("from_code", int(from_code as u64)),
            ("to_code", int(to_code as u64)),
            ("obj", id(o)),
        ]),
        TraceEvent::BaselineResume { method, code, block, op } => obj(vec![
            ("method", id(method)),
            ("code", int(code as u64)),
            ("block", int(block as u64)),
            ("op", int(op as u64)),
        ]),
        TraceEvent::GcStart { used_bytes } => obj(vec![("used_bytes", int(used_bytes))]),
        TraceEvent::GcEnd { used_bytes, gc_cycles } => obj(vec![
            ("used_bytes", int(used_bytes)),
            ("gc_cycles", int(gc_cycles)),
        ]),
        TraceEvent::Sample { method, count } => {
            obj(vec![("method", id(method)), ("count", int(count))])
        }
        TraceEvent::FaultInjected { kind, method } => obj(vec![
            ("kind", Value::Str(format!("{kind:?}"))),
            ("method", id(method)),
        ]),
        TraceEvent::CodeCacheHit { method, code, level, special } => obj(vec![
            ("method", id(method)),
            ("code", int(code as u64)),
            ("level", int(level as u64)),
            ("special", Value::Bool(special)),
        ]),
        TraceEvent::CodeCacheEvict { method, code, level } => obj(vec![
            ("method", id(method)),
            ("code", int(code as u64)),
            ("level", int(level as u64)),
        ]),
        TraceEvent::SpecialThrottled { method, episode, until_cycle } => obj(vec![
            ("method", id(method)),
            ("episode", int(episode as u64)),
            ("until_cycle", int(until_cycle)),
        ]),
        TraceEvent::SpecialBlacklisted { method, fails } => obj(vec![
            ("method", id(method)),
            ("fails", int(fails)),
        ]),
        TraceEvent::CompileQuarantine { method, level, fails, until_cycle } => obj(vec![
            ("method", id(method)),
            ("level", int(level as u64)),
            ("fails", int(fails as u64)),
            ("until_cycle", int(until_cycle)),
        ]),
        // Counter events: args must be numeric-only — Perfetto plots each
        // key as one series on the counter track.
        TraceEvent::ProfileSample { samples, .. } => obj(vec![("samples", int(samples))]),
        TraceEvent::Census { live_objects, live_bytes, in_special_state } => obj(vec![
            ("live_objects", int(live_objects)),
            ("live_bytes", int(live_bytes)),
            ("in_special_state", int(in_special_state)),
        ]),
    }
}

fn metadata(name: &str, what: &str) -> Value {
    obj(vec![
        ("name", Value::Str(name.to_owned())),
        ("ph", Value::Str("M".to_owned())),
        ("ts", Value::Int(0)),
        ("pid", Value::Int(PID)),
        ("tid", Value::Int(TID)),
        ("args", obj(vec![("name", Value::Str(what.to_owned()))])),
    ])
}

/// Renders `events` (oldest-first) as a Chrome trace-event JSON value.
pub fn chrome_trace(events: &[Stamped]) -> Value {
    let mut out = Vec::with_capacity(events.len() + 2);
    out.push(metadata("process_name", "dchm-vm (modeled)"));
    out.push(metadata("thread_name", "mutator / modeled clock"));
    for e in events {
        let (name, ph) = match e.event {
            // GC renders as a span so its modeled duration is visible.
            TraceEvent::GcStart { .. } => ("GC", "B"),
            TraceEvent::GcEnd { .. } => ("GC", "E"),
            // Attribution events render as counter tracks: the cumulative
            // profile-sample count and the census aggregates plot as
            // series over the modeled timeline.
            TraceEvent::ProfileSample { .. } => ("ProfileSamples", "C"),
            TraceEvent::Census { .. } => ("HeapCensus", "C"),
            ref ev => (ev.name(), "i"),
        };
        let mut fields = vec![
            ("name", Value::Str(name.to_owned())),
            ("cat", Value::Str(e.event.category().to_owned())),
            ("ph", Value::Str(ph.to_owned())),
            ("ts", int(e.cycle)),
            ("pid", Value::Int(PID)),
            ("tid", Value::Int(TID)),
        ];
        if ph == "i" {
            // Thread-scoped instants draw as small arrows, not full-height
            // lines, keeping dense traces readable.
            fields.push(("s", Value::Str("t".to_owned())));
        }
        fields.push(("seq", int(e.seq)));
        fields.push(("args", args(&e.event)));
        out.push(obj(fields));
    }
    obj(vec![
        ("traceEvents", Value::Array(out)),
        ("displayTimeUnit", Value::Str("ms".to_owned())),
        (
            "otherData",
            obj(vec![(
                "clock",
                Value::Str("modeled cycles (1 cycle rendered as 1 us)".to_owned()),
            )]),
        ),
    ])
}

/// Renders `events` as pretty-printed Chrome trace-event JSON text.
pub fn chrome_trace_json(events: &[Stamped]) -> String {
    serde_json::to_string_pretty(&chrome_trace(events)).expect("trace serialization is infallible")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_events() -> Vec<Stamped> {
        vec![
            Stamped {
                seq: 0,
                cycle: 10,
                event: TraceEvent::TibFlip { obj: 3, from_tib: 0, to_tib: 5 },
            },
            Stamped { seq: 1, cycle: 20, event: TraceEvent::GcStart { used_bytes: 100 } },
            Stamped {
                seq: 2,
                cycle: 30,
                event: TraceEvent::GcEnd { used_bytes: 40, gc_cycles: 10 },
            },
            Stamped {
                seq: 3,
                cycle: 31,
                event: TraceEvent::GuardFail { method: 2, guard: 0, obj: NO_ID, forced: true },
            },
        ]
    }

    #[test]
    fn trace_shape_matches_chrome_schema() {
        let v = chrome_trace(&sample_events());
        let Value::Object(top) = &v else { panic!("top level must be an object") };
        let (_, events) = top.iter().find(|(k, _)| k == "traceEvents").unwrap();
        let Value::Array(events) = events else { panic!("traceEvents must be an array") };
        // 2 metadata + 4 events.
        assert_eq!(events.len(), 6);
        for e in events {
            let Value::Object(fields) = e else { panic!("event must be an object") };
            for key in ["name", "ph", "ts", "pid", "tid"] {
                assert!(fields.iter().any(|(k, _)| k == key), "missing {key}");
            }
        }
    }

    #[test]
    fn gc_becomes_a_span_and_null_ids_render_null() {
        let json = chrome_trace_json(&sample_events());
        assert!(json.contains("\"ph\": \"B\""));
        assert!(json.contains("\"ph\": \"E\""));
        // The static-guard failure has no receiver object.
        assert!(json.contains("\"obj\": null"));
        // Timestamps are the modeled cycles.
        assert!(json.contains("\"ts\": 31"));
    }

    #[test]
    fn timestamps_monotone_in_export_order() {
        let v = chrome_trace(&sample_events());
        let Value::Object(top) = &v else { unreachable!() };
        let events = match top.iter().find(|(k, _)| k == "traceEvents").unwrap() {
            (_, Value::Array(evs)) => evs,
            _ => unreachable!(),
        };
        let ts: Vec<i64> = events
            .iter()
            .map(|e| {
                let Value::Object(f) = e else { unreachable!() };
                let (_, Value::Int(t)) = f.iter().find(|(k, _)| k == "ts").unwrap() else {
                    unreachable!()
                };
                *t
            })
            .collect();
        assert!(ts.windows(2).all(|w| w[0] <= w[1]));
    }
}
