#![warn(missing_docs)]

//! # dchm-benchmark
//!
//! The repository's one benchmark: five workloads measured on the host
//! clock, end to end (untraced pass) and layer by layer (traced pass), with
//! every run checked against `expected.json`. It measures the program from
//! outside — timed calls into public functions, counters the VM already
//! exposes — and changes nothing in the measured crates. See `README.md`
//! for the workloads, metrics, bounds and how to read the output.

pub mod affinity;
pub mod contract;
pub mod engine;
pub mod expected;
pub mod metrics;
pub mod probes;
pub mod programs;
pub mod span;
pub mod stages;
pub mod stats;
pub mod workloads;

use contract::{END_TO_END, PER_LAYER};
use engine::{Budget, Ctx};
use metrics::{Clock, Metric};
use serde::Value;
use span::{chrome_events, Recorder};
use stats::summarize;
use workloads::{end_to_end, per_layer, print_summary, timed_set_up, Kind};

/// The default seed (the paper's conference date).
pub const DEFAULT_SEED: u64 = 20_060_326;

/// One invocation on one workload.
#[derive(Clone, Debug)]
pub struct Args {
    /// Workload to run.
    pub kind: Kind,
    /// Input seed.
    pub seed: u64,
    /// Traced pass (per-layer metrics) instead of the untraced pass.
    pub trace: bool,
    /// Measuring time and smoke mode.
    pub budget: Budget,
}

/// What one invocation measured.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// Every run matched its expected output and every check held.
    pub correct: bool,
    /// Runs attempted.
    pub attempted: u64,
    /// Runs that trapped or missed the expected output.
    pub failed: u64,
    /// The contract's metrics for this pass, in table order.
    pub metrics: Vec<Metric>,
    /// Chrome trace events of the traced pass (empty for the untraced one).
    pub trace_events: Vec<Value>,
}

impl RunResult {
    /// The result object a harness reads from the last line of stdout.
    pub fn to_json(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                let v = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect::<Vec<_>>()
            .join(", ");
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.correct, self.attempted, self.failed
        )
    }
}

/// Peak resident set of this process in MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn print_metric(tag: &str, workload: &str, m: &Metric, note: &str) {
    println!("{tag} {workload} {} {} {}{note}", m.name, m.value, m.unit);
}

/// Runs one pass of one workload in this process and prints its report.
pub fn run(args: &Args) -> RunResult {
    let w = args.kind.name();
    println!(
        "info {w} seed {} pass {} nproc {}",
        args.seed,
        if args.trace { "traced" } else { "untraced" },
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    let pin = affinity::Pin::to_one_cpu();
    match &pin {
        Some(p) => println!("info {w} pinned to cpu {}", p.cpu),
        None => println!("info {w} not pinned: affinity cannot be set here"),
    }
    let (setup, setup_times) = timed_set_up(args.kind, args.seed, args.budget.quick);
    let rec = if args.trace {
        Recorder::on()
    } else {
        Recorder::off()
    };
    let mut ctx = Ctx::new(w, rec, pin);

    let mut metrics = Vec::new();
    let mut trace_events = Vec::new();
    if args.trace {
        let measured = per_layer(args.kind, &mut ctx, &setup, args.budget);
        for (name, unit, _) in PER_LAYER {
            let m = measured
                .iter()
                .find(|m| m.name == name)
                .cloned()
                .unwrap_or_else(|| Metric::host(name, 0.0, unit));
            assert_eq!(m.unit, unit, "{name}: unit differs from the contract table");
            let note = match (m.clock, m.exact) {
                (Clock::Modeled, _) => " modeled exact",
                (Clock::Host, true) => " exact",
                (Clock::Host, false) => "",
            };
            print_metric("layer", w, &m, note);
            metrics.push(m);
        }
        trace_events = chrome_events(ctx.rec.spans(), w, args.kind as i64 + 1);
    } else {
        let e2e = end_to_end(args.kind, &mut ctx, &setup, args.budget);
        let s = summarize(&setup_times);
        print_summary(w, "setup", "s", &s);
        // The named timings share the bound of the gated pair that carries them.
        let timing_bound = END_TO_END[0].3;
        for m in &e2e.named {
            print_metric("e2e", w, m, &format!(" bound={timing_bound}"));
        }
        let values = [e2e.wall_ms, e2e.work_per_s, peak_rss_mb(), s.typical()];
        for ((name, unit, _, bound), value) in END_TO_END.into_iter().zip(values) {
            let m = Metric::host(name, value, unit);
            print_metric("e2e", w, &m, &format!(" bound={bound}"));
            metrics.push(m);
        }
        println!(
            "e2e {w} failure_ratio {} failed/attempted bound=0 ({} of {})",
            ctx.failed as f64 / ctx.attempted.max(1) as f64,
            ctx.failed,
            ctx.attempted
        );
    }
    RunResult {
        correct: ctx.correct(),
        attempted: ctx.attempted.max(1),
        failed: ctx.failed,
        metrics,
        trace_events,
    }
}

/// Runs every program of every pool once and renders `expected.json`.
pub fn bless() -> String {
    use dchm_workloads::Scale;
    use expected::Expected;
    use programs::{
        alloc_subjects, calm_of, catalog_subjects, fuzz_subject, storm_subjects, CHURN_VARIANTS,
        FUZZ_POOL,
    };

    let mut pools: Vec<(&str, Vec<programs::Subject>)> = vec![
        ("catalog_full", catalog_subjects(Scale::Full)),
        (
            "short_programs",
            (0..FUZZ_POOL)
                .map(fuzz_subject)
                .chain(catalog_subjects(Scale::Small))
                .collect(),
        ),
        (
            "alloc_gc",
            (0..CHURN_VARIANTS)
                .map(|v| alloc_subjects(v).remove(0))
                .collect(),
        ),
        ("deopt_storm", storm_subjects(DEFAULT_SEED)),
        ("fleet_fanout", catalog_subjects(Scale::Small)),
    ];
    pools[2].1.push(alloc_subjects(0).remove(1));
    let calm = calm_of(&pools[3].1[1]);
    pools[3].1.push(calm);

    let mut expected = Expected::default();
    for (workload, subjects) in &pools {
        for s in subjects {
            let out = stages::whole_path(s, &mut Recorder::off());
            assert!(
                out.error.is_none(),
                "{workload}/{}: {:?}",
                s.name,
                out.error
            );
            let entry = out.entry().expect("a finished run has a fingerprint");
            expected.insert(workload, &s.name, entry);
        }
    }
    expected.to_json()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_json_has_the_contract_shape() {
        let r = RunResult {
            correct: true,
            attempted: 1000,
            failed: 0,
            metrics: vec![
                Metric::host("wall_ms", 1.2034, "ms"),
                Metric::host("setup_s", f64::NAN, "s"),
            ],
            trace_events: Vec::new(),
        };
        let doc: Value = serde_json::from_str(&r.to_json()).unwrap();
        let Value::Object(fields) = &doc else {
            panic!("not an object")
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(
            serde::helpers::field(&doc, "attempted").unwrap(),
            &Value::Int(1000)
        );
        let wall =
            serde::helpers::field(serde::helpers::field(&doc, "metrics").unwrap(), "wall_ms")
                .unwrap();
        assert_eq!(
            serde::helpers::field(wall, "value").unwrap(),
            &Value::Float(1.2034)
        );
        assert_eq!(
            serde::helpers::field(wall, "unit").unwrap(),
            &Value::Str("ms".into())
        );
        assert!(
            !r.to_json().contains("NaN"),
            "a result line must stay valid JSON"
        );
    }

    /// `--quick` end to end on `short_programs`: both passes, every metric
    /// of the contract present, outputs checked, trace loadable.
    #[test]
    fn quick_short_programs_end_to_end() {
        let budget = Budget {
            seconds: 0.0,
            quick: true,
        };
        let mut args = Args {
            kind: Kind::ShortPrograms,
            seed: DEFAULT_SEED,
            trace: false,
            budget,
        };
        let r = run(&args);
        assert!(r.correct && r.failed == 0, "untraced pass failed");
        // Warm-up + 2 timed iterations of 103 programs, plus the warm-up's
        // mutation-off comparisons.
        assert_eq!(r.attempted, 4 * 103);
        let names: Vec<&str> = r.metrics.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(names, END_TO_END.map(|m| m.0));
        assert!(
            r.metrics.iter().all(|m| m.value > 0.0),
            "end-to-end metrics are never 0: {:?}",
            r.metrics
        );

        args.trace = true;
        let r = run(&args);
        assert!(r.correct, "traced pass failed");
        let names: Vec<&str> = r.metrics.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(names, PER_LAYER.map(|m| m.0));
        let v = |n: &str| r.metrics.iter().find(|m| m.name == n).unwrap().value;
        assert!(
            v("vm.compiler.compiles_l2") > 0.0
                && v("core.synth.plan_us") > 0.0
                && v("ir.pass.dce_rewrites") > 0.0
        );
        assert!(v("trace.stage_coverage_min") > 0.5);
        let text = serde_json::to_string(&Value::Array(r.trace_events)).unwrap();
        assert!(serde_json::from_str::<Value>(&text).is_ok());
    }
}
