//! Stage timing and the traced run's span recorder.
//!
//! Every call the benchmark makes into a layer of the measured program is
//! bracketed by [`Recorder::open`] / [`Recorder::close`]. `close` always
//! returns the elapsed nanoseconds (that is how the untraced pass gets its
//! stage timings); only a recorder that is *on* also keeps a [`Span`].
//! Spans stay in memory and are written out as Chrome trace-event JSON when
//! the pass ends. They are recorded from the benchmark's own files: nothing
//! inside the measured program is instrumented.

use serde::Value;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// One timed interval around a call into a layer.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `core.analysis.build_plan`.
    pub name: &'static str,
    /// Start, nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder's epoch.
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Thread lane: 0 is the benchmark thread, `1 + shard` a fleet worker.
    pub lane: u32,
    /// Program the span belongs to (with workload and iteration, its id).
    pub program: Arc<str>,
    /// Timed iteration the span belongs to.
    pub iteration: u32,
}

impl Span {
    /// Span length in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle returned by [`Recorder::open`].
#[derive(Clone, Copy, Debug)]
pub struct Open {
    start: Instant,
    index: Option<usize>,
}

/// Span recorder; off by default.
#[derive(Debug)]
pub struct Recorder {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    program: Arc<str>,
    iteration: u32,
}

impl Recorder {
    /// A recorder that times stages but keeps no spans.
    pub fn off() -> Self {
        Recorder {
            on: false,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            program: Arc::from(""),
            iteration: 0,
        }
    }

    /// A recorder that keeps every span.
    pub fn on() -> Self {
        Recorder {
            on: true,
            ..Self::off()
        }
    }

    /// True when spans are kept.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Sets the (program, iteration) id stamped on spans opened from now on.
    pub fn set_id(&mut self, program: &Arc<str>, iteration: u32) {
        if self.on {
            self.program = Arc::clone(program);
            self.iteration = iteration;
        }
    }

    /// Starts timing `name`; the innermost open span becomes its parent.
    pub fn open(&mut self, name: &'static str) -> Open {
        let index = self.on.then(|| {
            let i = self.spans.len();
            self.spans.push(Span {
                name,
                start_ns: 0,
                end_ns: 0,
                parent: self.stack.last().copied(),
                lane: 0,
                program: Arc::clone(&self.program),
                iteration: self.iteration,
            });
            self.stack.push(i);
            i
        });
        Open {
            start: Instant::now(),
            index,
        }
    }

    /// Stops timing; returns the elapsed nanoseconds.
    pub fn close(&mut self, open: Open) -> u64 {
        let end = Instant::now();
        if let Some(i) = open.index {
            let popped = self.stack.pop();
            debug_assert_eq!(popped, Some(i), "spans must close innermost first");
            self.spans[i].start_ns = self.since_epoch(open.start);
            self.spans[i].end_ns = self.since_epoch(end);
        }
        (end - open.start).as_nanos() as u64
    }

    /// Adds a span measured on another thread (a fleet tenant) as a child
    /// of the innermost open span.
    pub fn add_remote(
        &mut self,
        name: &'static str,
        lane: u32,
        start: Instant,
        end: Instant,
        program: &Arc<str>,
    ) {
        if self.on {
            self.spans.push(Span {
                name,
                start_ns: self.since_epoch(start),
                end_ns: self.since_epoch(end),
                parent: self.stack.last().copied(),
                lane,
                program: Arc::clone(program),
                iteration: self.iteration,
            });
        }
    }

    fn since_epoch(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: its length minus the part of that interval its
/// child spans cover (children on parallel lanes may overlap, so the
/// covered part is the union of the child intervals).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let lo = s.start_ns.max(spans[p].start_ns);
            let hi = s.end_ns.min(spans[p].end_ns);
            if hi > lo {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for &(lo, hi) in kids.iter() {
                if hi > reach {
                    covered += hi - lo.max(reach);
                    reach = hi;
                }
            }
            s.dur_ns() - covered
        })
        .collect()
}

/// One row of a program's stage table.
#[derive(Clone, Debug, PartialEq)]
pub struct StageRow {
    /// Span name of the stage.
    pub name: &'static str,
    /// Total nanoseconds of the stage, summed over its occurrences.
    pub total_ns: u64,
    /// Self nanoseconds (total minus nested stages).
    pub self_ns: u64,
}

/// A program's stage table: where the wall of its `root` spans went.
#[derive(Clone, Debug, PartialEq)]
pub struct StageTable {
    /// Program the table describes.
    pub program: Arc<str>,
    /// Summed wall of the program's root spans.
    pub root_ns: u64,
    /// Direct children of the root, in first-seen order.
    pub rows: Vec<StageRow>,
}

impl StageTable {
    /// Share of the root wall the rows account for.
    pub fn coverage(&self) -> f64 {
        self.rows.iter().map(|r| r.total_ns).sum::<u64>() as f64 / self.root_ns.max(1) as f64
    }
}

/// Builds one stage table per program from the spans named `root` and
/// their direct children.
pub fn stage_tables(spans: &[Span], root: &str) -> Vec<StageTable> {
    let selfs = self_times(spans);
    let mut order: Vec<Arc<str>> = Vec::new();
    let mut tables: BTreeMap<Arc<str>, StageTable> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        let is_root = s.name == root;
        let under_root = s.parent.is_some_and(|p| spans[p].name == root);
        if !is_root && !under_root {
            continue;
        }
        let t = tables.entry(Arc::clone(&s.program)).or_insert_with(|| {
            order.push(Arc::clone(&s.program));
            StageTable {
                program: Arc::clone(&s.program),
                root_ns: 0,
                rows: Vec::new(),
            }
        });
        if is_root {
            t.root_ns += s.dur_ns();
            continue;
        }
        let row = match t.rows.iter_mut().find(|r| r.name == s.name) {
            Some(r) => r,
            None => {
                t.rows.push(StageRow {
                    name: s.name,
                    total_ns: 0,
                    self_ns: 0,
                });
                t.rows.last_mut().expect("just pushed")
            }
        };
        row.total_ns += s.dur_ns();
        row.self_ns += selfs[i];
    }
    order
        .iter()
        .map(|p| tables.remove(p).expect("table per seen program"))
        .collect()
}

/// Chrome trace-event JSON (`ph: "X"` complete events, microsecond times)
/// for `spans` of `workload`; `pid` separates workloads in a merged file.
pub fn chrome_events(spans: &[Span], workload: &str, pid: i64) -> Vec<Value> {
    let selfs = self_times(spans);
    let mut events = vec![Value::Object(vec![
        ("name".into(), Value::Str("process_name".into())),
        ("ph".into(), Value::Str("M".into())),
        ("pid".into(), Value::Int(pid)),
        (
            "args".into(),
            Value::Object(vec![("name".into(), Value::Str(workload.into()))]),
        ),
    ])];
    events.extend(spans.iter().enumerate().map(|(i, s)| {
        Value::Object(vec![
            ("name".into(), Value::Str(s.name.into())),
            (
                "cat".into(),
                Value::Str(s.name.split('.').next().unwrap_or("").into()),
            ),
            ("ph".into(), Value::Str("X".into())),
            ("ts".into(), Value::Float(s.start_ns as f64 / 1e3)),
            ("dur".into(), Value::Float(s.dur_ns() as f64 / 1e3)),
            ("pid".into(), Value::Int(pid)),
            ("tid".into(), Value::Int(i64::from(s.lane))),
            (
                "args".into(),
                Value::Object(vec![
                    ("span".into(), Value::Int(i as i64)),
                    (
                        "parent".into(),
                        s.parent.map_or(Value::Null, |p| Value::Int(p as i64)),
                    ),
                    ("workload".into(), Value::Str(workload.into())),
                    ("program".into(), Value::Str(s.program.to_string())),
                    ("iteration".into(), Value::Int(i64::from(s.iteration))),
                    ("self_us".into(), Value::Float(selfs[i] as f64 / 1e3)),
                ]),
            ),
        ])
    }));
    events
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>, lane: u32) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            lane,
            program: Arc::from("P"),
            iteration: 0,
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        // root 0..100; a 10..30 with a nested grandchild 15..20; b 50..70;
        // two parallel tenants under b overlapping on 55..65.
        let spans = vec![
            span("root", 0, 100, None, 0),
            span("a", 10, 30, Some(0), 0),
            span("a.inner", 15, 20, Some(1), 0),
            span("b", 50, 70, Some(0), 0),
            span("tenant", 52, 65, Some(3), 1),
            span("tenant", 55, 68, Some(3), 2),
        ];
        let st = self_times(&spans);
        assert_eq!(
            st[0],
            100 - 20 - 20,
            "root loses a and b, not the grandchild"
        );
        assert_eq!(st[1], 20 - 5);
        assert_eq!(st[2], 5);
        assert_eq!(st[3], 20 - 16, "overlapping tenants cover 52..68 once");
        assert_eq!(st[4], 13);
        assert_eq!(st[5], 13);
    }

    #[test]
    fn child_spilling_past_its_parent_is_clipped() {
        let spans = vec![
            span("root", 10, 20, None, 0),
            span("late", 15, 40, Some(0), 1),
        ];
        assert_eq!(self_times(&spans)[0], 5);
    }

    #[test]
    fn stage_table_sums_rows_under_the_root() {
        let spans = vec![
            span("whole_path", 0, 100, None, 0),
            span("bytecode.assemble", 0, 10, Some(0), 0),
            span("vm.run", 10, 95, Some(0), 0),
            span("whole_path", 200, 300, None, 0),
            span("vm.run", 210, 300, Some(3), 0),
        ];
        let t = stage_tables(&spans, "whole_path");
        assert_eq!(t.len(), 1);
        assert_eq!(t[0].root_ns, 200);
        assert_eq!(t[0].rows.len(), 2);
        assert_eq!(
            t[0].rows[1],
            StageRow {
                name: "vm.run",
                total_ns: 175,
                self_ns: 175
            }
        );
        assert!((t[0].coverage() - 185.0 / 200.0).abs() < 1e-12);
    }

    #[test]
    fn recorder_off_times_but_keeps_nothing() {
        let mut r = Recorder::off();
        let o = r.open("x");
        let _ = r.close(o);
        assert!(r.spans().is_empty());
    }

    #[test]
    fn recorder_on_links_parents_and_ids() {
        let mut r = Recorder::on();
        let prog: Arc<str> = Arc::from("SalaryDB");
        r.set_id(&prog, 3);
        let outer = r.open("whole_path");
        let inner = r.open("vm.run");
        r.close(inner);
        let now = Instant::now();
        r.add_remote("vm.fleet.tenant", 2, now, now, &prog);
        r.close(outer);
        let s = r.spans();
        assert_eq!(s.len(), 3);
        assert_eq!(
            (s[0].parent, s[1].parent, s[2].parent),
            (None, Some(0), Some(0))
        );
        assert_eq!(
            (&*s[1].program, s[1].iteration, s[2].lane),
            ("SalaryDB", 3, 2)
        );
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
        let ev = chrome_events(s, "catalog_full", 1);
        assert_eq!(ev.len(), 4);
        let text = serde_json::to_string(&Value::Array(ev)).unwrap();
        assert!(
            serde_json::from_str::<Value>(&text).is_ok(),
            "trace must be loadable JSON"
        );
    }
}
