//! The shared machinery of every workload: the correctness gate, the timed
//! untraced pass and the traced pass over a list of subjects.

use crate::affinity::Pin;
use crate::expected::Expected;
use crate::metrics::{Counts, ExactGuard, Metric};
use crate::probes::{probe_codecache, probe_compiler, probe_construct, probe_heap, probe_ir, Sums};
use crate::programs::{PlanSource, Subject};
use crate::span::{stage_tables, Recorder, Span, StageTable};
use crate::stages::{
    check_staged_plan, check_text_roundtrip, exact_counts, mutation_off_run, whole_path, Outcome,
    StageNs, WHOLE_PATH,
};
use crate::stats::{geomean, steady, typical};
use std::rc::Rc;
use std::time::Instant;

/// How long a pass runs.
#[derive(Clone, Copy, Debug)]
pub struct Budget {
    /// Measuring time in seconds; iterations stop at the first boundary
    /// past it.
    pub seconds: f64,
    /// Smoke mode: exactly two timed iterations, whatever the clock says.
    pub quick: bool,
}

impl Budget {
    /// True when the pass that started at `start` and has finished `done`
    /// timed iterations should stop.
    pub fn spent(&self, start: Instant, done: usize) -> bool {
        if self.quick {
            done >= 2
        } else {
            done >= 2 && start.elapsed().as_secs_f64() >= self.seconds
        }
    }
}

/// Correctness gate and bookkeeping shared by both passes of a workload.
pub struct Ctx {
    /// Workload name (the first half of every `expected.json` key).
    pub workload: &'static str,
    expected: Expected,
    guard: ExactGuard,
    /// Runs checked so far.
    pub attempted: u64,
    /// Runs that trapped or missed their expected output.
    pub failed: u64,
    /// Failure and violation messages, for the report.
    pub messages: Vec<String>,
    /// Checks other than runs that did not hold (exact counts that moved,
    /// workload-validity asserts, staged-plan equality).
    pub violations: u64,
    /// The span recorder of the traced pass.
    pub rec: Recorder,
    /// The one-CPU pin the measurements run under, if it could be set.
    pub pin: Option<Pin>,
}

impl Ctx {
    /// A fresh gate for `workload` with the committed reference file.
    pub fn new(workload: &'static str, rec: Recorder, pin: Option<Pin>) -> Self {
        Ctx {
            workload,
            expected: Expected::committed(),
            guard: ExactGuard::default(),
            attempted: 0,
            failed: 0,
            messages: Vec::new(),
            violations: 0,
            rec,
            pin,
        }
    }

    fn note(&mut self, msg: String) {
        eprintln!("FAIL {}: {msg}", self.workload);
        if self.messages.len() < 32 {
            self.messages.push(msg);
        }
    }

    /// Counts one attempted run; `problem` marks it failed.
    pub fn attempt(&mut self, problem: Option<String>) {
        self.attempted += 1;
        if let Some(msg) = problem {
            self.failed += 1;
            self.note(msg);
        }
    }

    /// Records a violated check that is not a run.
    pub fn require(&mut self, held: Result<(), String>) {
        if let Err(msg) = held {
            self.violations += 1;
            self.note(msg);
        }
    }

    /// Checks a run's fingerprint against `expected.json` and its exact
    /// counts against the earlier iterations of this invocation.
    pub fn check_entry(&mut self, program: &str, entry: crate::expected::Entry, counts: &Counts) {
        let verdict = self.expected.check(self.workload, program, &entry).err();
        self.attempt(verdict);
        let repeat = self.check_counts(program, counts);
        self.require(repeat);
    }

    /// Checks that named exact counts repeat across this invocation.
    ///
    /// # Errors
    /// Names the count that moved.
    pub fn check_counts(&mut self, program: &str, counts: &Counts) -> Result<(), String> {
        self.guard.check(program, counts)
    }

    /// The gate for one whole path.
    pub fn check(&mut self, s: &Subject, out: &Outcome) {
        match (&out.error, &out.vm) {
            (None, Some(vm)) => {
                let entry = out.entry().expect("a finished VM has a fingerprint");
                self.check_entry(&s.name, entry, &exact_counts(vm));
            }
            (err, _) => {
                let why = err.clone().unwrap_or_else(|| "no VM".into());
                self.attempt(Some(format!("{}: {why}", s.name)));
            }
        }
    }

    /// True when every run and every check held.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.violations == 0
    }
}

/// Milliseconds of CPU time the hypervisor has stolen from this machine
/// since boot (`steal` of the first line of `/proc/stat`, 10 ms ticks);
/// 0 where the kernel does not report it.
pub fn stolen_ms() -> u64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| {
            s.lines()
                .next()?
                .split_whitespace()
                .nth(8)?
                .parse::<u64>()
                .ok()
        })
        .map_or(0, |ticks| ticks * 10)
}

/// Watches one timed iteration for stolen CPU time.
pub struct StealWatch {
    start: Instant,
    stolen_at_start: u64,
}

impl StealWatch {
    /// Starts watching.
    pub fn start() -> Self {
        StealWatch {
            start: Instant::now(),
            stolen_at_start: stolen_ms(),
        }
    }

    /// True when at least 2% of the wall since `start` was stolen: the
    /// iteration measured the neighbours, not the program.
    pub fn dirty(&self) -> bool {
        let stolen = stolen_ms().saturating_sub(self.stolen_at_start) as f64;
        stolen >= 0.02 * self.start.elapsed().as_secs_f64() * 1e3 && stolen > 0.0
    }
}

/// One timed whole path of one subject.
#[derive(Clone, Copy, Debug, Default)]
pub struct Sample {
    /// Stage timings.
    pub st: StageNs,
    /// `compile_wall_nanos` of the run's VM.
    pub compile_ns: u64,
    /// The iteration this sample belongs to lost CPU time to the hypervisor.
    pub dirty: bool,
}

/// Everything measured on one subject during a pass.
#[derive(Clone, Debug, Default)]
pub struct SubjectLog {
    /// One sample per timed iteration.
    pub samples: Vec<Sample>,
    /// Exact counts of the subject's run (identical every iteration).
    pub counts: Counts,
}

impl SubjectLog {
    /// The steady samples of a per-sample quantity (see [`steady`]).
    pub fn steady_of(&self, f: impl Fn(&Sample) -> f64) -> Vec<f64> {
        let values: Vec<f64> = self.samples.iter().map(f).collect();
        let dirty: Vec<bool> = self.samples.iter().map(|x| x.dirty).collect();
        steady(&values, &dirty)
    }

    /// The typical wall of a stage over the steady iterations, in seconds.
    pub fn typical_s(&self, stage: impl Fn(&StageNs) -> u64) -> f64 {
        typical(&self.steady_of(|x| stage(&x.st) as f64 / 1e9))
    }

    /// An exact count by name (0 when absent).
    pub fn count(&self, name: &str) -> u64 {
        self.counts
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0, |(_, v)| *v)
    }
}

fn log_run(log: &mut SubjectLog, out: &Outcome) {
    let Some(vm) = &out.vm else { return };
    log.samples.push(Sample {
        st: out.stages,
        compile_ns: vm.state.compile_wall_nanos,
        dirty: false,
    });
    log.counts = exact_counts(vm);
}

/// The one-off checks of the warm-up iteration: the text form round-trips
/// and the mutated run's output equals the mutation-off run's. Returns the
/// mutation-off run wall in nanoseconds.
fn warm_up_checks(ctx: &mut Ctx, s: &Subject, out: &Outcome) -> Option<u64> {
    ctx.require(check_text_roundtrip(s));
    let mutated = out.vm.as_ref()?;
    match mutation_off_run(s) {
        Ok((base, ns)) => {
            let same = base.state.output.checksum == mutated.state.output.checksum
                && base.state.output.text == mutated.state.output.text;
            ctx.attempt((!same).then(|| {
                format!(
                    "{}: mutated output differs from the mutation-off run",
                    s.name
                )
            }));
            Some(ns)
        }
        Err(e) => {
            ctx.attempt(Some(e));
            None
        }
    }
}

/// The untraced pass: one warm-up iteration that also hosts the one-off
/// checks, then timed iterations until the budget is spent. Every run is
/// checked; checks sit outside the timed intervals.
pub fn untraced_pass(ctx: &mut Ctx, subjects: &[Subject], budget: Budget) -> Vec<SubjectLog> {
    let mut off = Recorder::off();
    for s in subjects {
        let out = whole_path(s, &mut off);
        ctx.check(s, &out);
        warm_up_checks(ctx, s, &out);
    }
    let mut logs = vec![SubjectLog::default(); subjects.len()];
    let start = Instant::now();
    let mut done = 0;
    while !budget.spent(start, done) {
        let watch = StealWatch::start();
        for (s, log) in subjects.iter().zip(&mut logs) {
            let out = whole_path(s, &mut off);
            ctx.check(s, &out);
            log_run(log, &out);
        }
        mark_iteration(&mut logs, done, watch.dirty());
        done += 1;
    }
    report_dirty(ctx.workload, &logs);
    logs
}

/// Flags the samples of iteration `index` (a failed run leaves none).
fn mark_iteration(logs: &mut [SubjectLog], index: usize, dirty: bool) {
    for log in logs.iter_mut().filter(|l| l.samples.len() == index + 1) {
        log.samples[index].dirty = dirty;
    }
}

fn report_dirty(workload: &str, logs: &[SubjectLog]) {
    if let Some(log) = logs.first() {
        let dirty = log.samples.iter().filter(|x| x.dirty).count();
        println!(
            "info {workload} iterations {} of which {dirty} lost CPU time to the hypervisor",
            log.samples.len()
        );
    }
}

/// What the traced pass measured.
pub struct Traced {
    /// Per-subject logs of the iterations run with spans on.
    pub traced: Vec<SubjectLog>,
    /// Per-subject logs of the interleaved iterations with spans off.
    pub plain: Vec<SubjectLog>,
    /// Direct-probe sums over the subjects.
    pub sums: Sums,
    /// Traced iterations run.
    pub iterations: usize,
}

/// Runs `variant` of a subject once with the plan already made; returns
/// the run-stage nanoseconds.
fn variant_run_ns(
    ctx: &mut Ctx,
    s: &Subject,
    out: &Outcome,
    vm_tracing: bool,
    profile_period: Option<u64>,
) -> Option<u64> {
    let mut v = s.clone();
    v.plan = PlanSource::Given(out.plan.clone(), out.olc.clone());
    v.vm_tracing = vm_tracing;
    if let Some(p) = profile_period {
        v.config.profile_period = p;
    }
    let r = whole_path(&v, &mut Recorder::off());
    // Tracing and profiling are transparent: same fingerprint as the plain run.
    ctx.check(s, &r);
    r.vm.as_ref().map(|_| r.stages.run)
}

/// The traced pass: a warm-up with the one-off checks, then iterations
/// with spans on interleaved with iterations with spans off (their
/// difference is the span overhead), the direct layer probes on each
/// subject, and one run each with VM tracing on and with the profiler off.
pub fn traced_pass(ctx: &mut Ctx, subjects: &[Subject], budget: Budget) -> Traced {
    let n = subjects.len();
    let mut sums = Sums::default();
    let mut off = Recorder::off();

    // Warm-up (spans off): one-off checks, mutation-off wall, overhead runs.
    for s in subjects {
        let out = whole_path(s, &mut off);
        ctx.check(s, &out);
        if let Some(ns) = warm_up_checks(ctx, s, &out) {
            if matches!(s.plan, PlanSource::Profile) {
                sums.add("mutation_off_profiled_us", ns as f64 / 1e3);
            }
            if out.stages.run > 0 {
                sums.add(
                    "mutation_speedup_ln",
                    (ns as f64 / out.stages.run as f64).ln(),
                );
                sums.add("mutation_speedup_n", 1.0);
            }
        }
        if out.vm.is_some() {
            sums.add("variant_base_us", out.stages.run as f64 / 1e3);
            if let Some(ns) = variant_run_ns(ctx, s, &out, true, None) {
                sums.add("variant_tracing_us", ns as f64 / 1e3);
            }
            if let Some(ns) = variant_run_ns(ctx, s, &out, false, Some(0)) {
                sums.add("variant_unprofiled_us", ns as f64 / 1e3);
            }
        }
    }

    let mut traced = vec![SubjectLog::default(); n];
    let mut plain = vec![SubjectLog::default(); n];
    let half = Budget {
        seconds: budget.seconds / 2.0,
        quick: budget.quick,
    };
    let start = Instant::now();
    let mut done = 0;
    while done == 0 || !(half.quick || half.spent(start, done)) {
        let watch = StealWatch::start();
        for (i, s) in subjects.iter().enumerate() {
            ctx.rec.set_id(&s.name, done as u32);
            let mut out = whole_path(s, &mut ctx.rec);
            ctx.check(s, &out);
            log_run(&mut traced[i], &out);
            if done == 0 {
                ctx.require(check_staged_plan(s, &out.plan));
                probe_subject(ctx, s, &mut out, &mut sums);
            }
        }
        mark_iteration(&mut traced, done, watch.dirty());
        let watch = StealWatch::start();
        for (s, log) in subjects.iter().zip(&mut plain) {
            let out = whole_path(s, &mut off);
            ctx.check(s, &out);
            log_run(log, &out);
        }
        mark_iteration(&mut plain, done, watch.dirty());
        done += 1;
    }
    // One more plain iteration on every CPU the process may use: what the
    // pin hides (the program's own worker threads) shows as a ratio.
    if let Some(pin) = ctx.pin.filter(Pin::widen) {
        for (s, log) in subjects.iter().zip(&plain) {
            let out = whole_path(s, &mut off);
            ctx.check(s, &out);
            if out.vm.is_some() && !log.samples.is_empty() {
                sums.add("unpinned_whole_us", out.stages.whole as f64 / 1e3);
                sums.add("pinned_whole_us", log.typical_s(|st| st.whole) * 1e6);
            }
        }
        pin.narrow();
    }
    Traced {
        traced,
        plain,
        sums,
        iterations: done,
    }
}

/// All direct probes on one subject, using the plan and the end-of-run VM
/// of its first traced iteration.
fn probe_subject(ctx: &mut Ctx, s: &Subject, out: &mut Outcome, sums: &mut Sums) {
    let Some(vm) = out.vm.as_mut() else { return };
    let program = Rc::clone(&vm.state.program);
    let rec = &mut ctx.rec;
    sums.add("plan_classes", out.plan.classes.len() as f64);
    sums.add("plan_states", out.plan.total_states() as f64);
    sums.add(
        "program_instrs",
        program.methods.iter().map(|m| m.code.len()).sum::<usize>() as f64,
    );
    // The heap probe first, while the heap is as the run left it.
    let gc_count = vm.state.heap.stats.gc_count;
    let before = (
        sums.get("vm.heap.gc_now_us"),
        sums.get("vm.heap.gc_now_calls"),
    );
    probe_heap(rec, vm, sums);
    let per_gc_us =
        (sums.get("vm.heap.gc_now_us") - before.0) / (sums.get("vm.heap.gc_now_calls") - before.1);
    sums.add("gc_estimate_us", gc_count as f64 * per_gc_us);
    probe_construct(rec, s, &program, sums);
    probe_ir(rec, &program, &out.plan, sums);
    probe_compiler(rec, s, &program, &out.plan, &out.olc, sums);
    probe_codecache(rec, s, &program, &out.plan, &out.olc, sums);
}

/// Total microseconds of the spans called `name`.
fn span_total_us(spans: &[Span], name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur_ns() as f64 / 1e3)
        .sum()
}

fn sum_counts(logs: &[SubjectLog], name: &str) -> u64 {
    logs.iter().map(|l| l.count(name)).sum()
}

/// Sum over the subjects of a stage's typical wall, in seconds.
pub fn sum_typical_s(logs: &[SubjectLog], stage: impl Fn(&StageNs) -> u64 + Copy) -> f64 {
    logs.iter()
        .filter(|l| !l.samples.is_empty())
        .map(|l| l.typical_s(stage))
        .sum()
}

/// Prints the per-program stage tables and returns them.
pub fn print_stage_tables(workload: &str, spans: &[Span]) -> Vec<StageTable> {
    let tables = stage_tables(spans, WHOLE_PATH);
    for t in &tables {
        println!(
            "stage {workload} {} whole_path {:.3} ms, rows cover {:.1}%",
            t.program,
            t.root_ns as f64 / 1e6,
            100.0 * t.coverage()
        );
        for r in &t.rows {
            println!(
                "stage {workload} {}   {:<34} total {:>10.3} ms  self {:>10.3} ms  {:>5.1}%",
                t.program,
                r.name,
                r.total_ns as f64 / 1e6,
                r.self_ns as f64 / 1e6,
                100.0 * r.total_ns as f64 / t.root_ns.max(1) as f64
            );
        }
    }
    tables
}

/// Derives the generic per-layer metrics from a traced pass. Fleet and
/// storm-specific metrics are added by their workloads.
pub fn layer_metrics(
    ctx: &Ctx,
    subjects: &[Subject],
    t: &Traced,
    tables: &[StageTable],
) -> Vec<Metric> {
    let spans = ctx.rec.spans();
    let iters = t.iterations.max(1) as f64;
    let per_iter_us = |name: &str| span_total_us(spans, name) / iters;
    let s = &t.sums;
    let logs = &t.traced;
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let mut m: Vec<Metric> = Vec::new();
    let mut host = |name: &str, v: f64, unit: &'static str| m.push(Metric::host(name, v, unit));

    let assemble_us = per_iter_us("bytecode.assemble");
    host("bytecode.assemble_us", assemble_us, "us");
    host(
        "bytecode.assemble_instrs_per_s",
        ratio(s.get("program_instrs"), assemble_us / 1e6),
        "1/s",
    );
    host("bytecode.verify_us", per_iter_us("bytecode.verify"), "us");

    host(
        "profile.hot_run_ms",
        per_iter_us("profile.hot_methods") / 1e3,
        "ms",
    );
    let value_us = per_iter_us("profile.field_values");
    host("profile.value_run_ms", value_us / 1e3, "ms");
    host(
        "profile.observer_overhead_ratio",
        ratio(value_us, s.get("mutation_off_profiled_us")),
        "ratio",
    );

    host(
        "core.analysis.find_state_fields_us",
        per_iter_us("core.analysis.find_state_fields"),
        "us",
    );
    host(
        "core.analysis.build_plan_us",
        per_iter_us("core.analysis.build_plan"),
        "us",
    );
    host("core.olc.analyze_us", per_iter_us("core.olc.analyze"), "us");
    host("core.synth.plan_us", per_iter_us("core.synth.plan"), "us");
    host(
        "core.engine.attach_us",
        per_iter_us("core.engine.attach"),
        "us",
    );
    let speedup_n = s.get("mutation_speedup_n");
    host(
        "core.mutation.wall_speedup",
        if speedup_n > 0.0 {
            (s.get("mutation_speedup_ln") / speedup_n).exp()
        } else {
            0.0
        },
        "ratio",
    );

    host(
        "ir.lift_us_per_method",
        ratio(s.get("ir.lift_us"), s.get("ir.lift_methods")),
        "us",
    );
    for pass in [
        "specialize",
        "constprop",
        "lvn",
        "copyprop",
        "strength",
        "dce",
        "simplify_cfg",
        "inline",
    ] {
        let key = format!("ir.pass.{pass}_us");
        host(&key, s.get(&key), "us");
    }
    for key in [
        "vm.compiler.compile_us_l0",
        "vm.compiler.compile_us_l1",
        "vm.compiler.compile_us_l2",
        "vm.compiler.special_us",
    ] {
        host(key, s.get(key), "us");
    }
    let run_s = sum_typical_s(logs, |st| st.run);
    let compile_ms: f64 = logs
        .iter()
        .filter(|l| !l.samples.is_empty())
        .map(|l| typical(&l.steady_of(|x| x.compile_ns as f64 / 1e6)))
        .sum();
    host("vm.compiler.wall_ms", compile_ms, "ms");
    host(
        "vm.compiler.wall_share",
        ratio(compile_ms / 1e3, run_s),
        "ratio",
    );

    host(
        "vm.codecache.cold_sweep_us",
        s.get("vm.codecache.cold_sweep_us"),
        "us",
    );
    host(
        "vm.codecache.warm_sweep_us",
        s.get("vm.codecache.warm_sweep_us"),
        "us",
    );
    host(
        "vm.codecache.probe_ns",
        ratio(
            s.get("vm.codecache.probe_us") * 1e3,
            s.get("vm.codecache.probe_calls"),
        ),
        "ns",
    );

    host("vm.interp.run_ms", run_s * 1e3, "ms");
    let ops = sum_counts(logs, "modeled.ops");
    host("vm.interp.ns_per_op", ratio(run_s * 1e9, ops as f64), "ns");
    host(
        "vm.interp.construct_us",
        s.get("vm.interp.construct_us"),
        "us",
    );

    host(
        "vm.heap.alloc_object_ns",
        ratio(
            s.get("vm.heap.alloc_object_us") * 1e3,
            s.get("vm.heap.alloc_object_calls"),
        ),
        "ns",
    );
    host(
        "vm.heap.gc_now_us",
        ratio(s.get("vm.heap.gc_now_us"), s.get("vm.heap.gc_now_calls")),
        "us",
    );
    host(
        "vm.heap.gc_wall_share",
        ratio(s.get("gc_estimate_us") / 1e6, run_s),
        "ratio",
    );
    host("vm.heap.census_us", s.get("vm.heap.census_us"), "us");

    let base = s.get("variant_base_us");
    let pct = |with: f64, without: f64| {
        if without > 0.0 {
            100.0 * (with - without) / without
        } else {
            0.0
        }
    };
    host(
        "trace.vm_tracing_overhead_pct",
        pct(s.get("variant_tracing_us"), base),
        "%",
    );
    host(
        "trace.profiler_overhead_pct",
        pct(base, s.get("variant_unprofiled_us")),
        "%",
    );
    host(
        "trace.span_overhead_pct",
        pct(
            sum_typical_s(&t.traced, |st| st.whole),
            sum_typical_s(&t.plain, |st| st.whole),
        ),
        "%",
    );
    host(
        "host.unpinned_wall_ratio",
        ratio(s.get("unpinned_whole_us"), s.get("pinned_whole_us")),
        "ratio",
    );
    host(
        "trace.stage_coverage_min",
        tables
            .iter()
            .map(StageTable::coverage)
            .fold(f64::INFINITY, f64::min)
            .min(1.0),
        "ratio",
    );

    let mut exact = |name: &str, v: u64| m.push(Metric::exact(name, v));
    exact("core.plan.classes", s.get("plan_classes") as u64);
    exact("core.plan.states", s.get("plan_states") as u64);
    exact("ir.lift_ops", s.get("ir.lift_ops") as u64);
    for pass in [
        "specialize",
        "constprop",
        "lvn",
        "copyprop",
        "strength",
        "dce",
        "simplify_cfg",
        "inline",
    ] {
        let key = format!("ir.pass.{pass}_rewrites");
        exact(&key, s.get(&key) as u64);
    }
    for key in ["ir.ops_after_l0", "ir.ops_after_l1", "ir.ops_after_l2"] {
        exact(key, s.get(key) as u64);
    }
    for key in [
        "core.engine.special_tibs",
        "vm.compiler.compiles_l0",
        "vm.compiler.compiles_l1",
        "vm.compiler.compiles_l2",
        "vm.compiler.special_compiles",
        "vm.compiler.code_bytes",
        "vm.interp.ic_invalidations",
        "vm.interp.samples_taken",
        "vm.tib.flips",
        "vm.tib.special_tib_bytes",
        "vm.heap.gc_count",
        "vm.heap.bytes_allocated",
        "vm.deopt.guards_executed",
        "vm.deopt.guard_failures",
        "vm.deopt.baseline_compiles",
        "vm.governor.throttled",
        "vm.governor.blacklisted",
        "vm.governor.quarantines",
    ] {
        exact(key, sum_counts(logs, key));
    }
    exact("vm.interp.ops", ops);
    // Deopts split by whether the run's governor was on.
    let deopts = |governed: bool| -> u64 {
        subjects
            .iter()
            .zip(logs)
            .filter(|(s, _)| s.config.governor.enabled == governed)
            .map(|(_, l)| l.count("vm.deopt.count"))
            .sum()
    };
    exact("vm.deopt.count", deopts(false));
    exact("vm.deopt.count_governed", deopts(true));

    let mut exact_ratio =
        |name: &str, num: u64, den: u64| m.push(Metric::exact_ratio(name, num, den));
    let (ic_h, ic_m) = (
        sum_counts(logs, "vm.interp.ic_hits"),
        sum_counts(logs, "vm.interp.ic_misses"),
    );
    exact_ratio("vm.interp.ic_hit_ratio", ic_h, ic_h + ic_m);
    let (ch, cm) = (
        sum_counts(logs, "vm.codecache.hits"),
        sum_counts(logs, "vm.codecache.misses"),
    );
    exact_ratio("vm.codecache.hit_ratio", ch, ch + cm);
    let (lh, lm) = (
        sum_counts(logs, "vm.codecache.lift_hits"),
        sum_counts(logs, "vm.codecache.lift_misses"),
    );
    exact_ratio("vm.codecache.lift_hit_ratio", lh, lh + lm);

    for (name, key, unit) in [
        ("modeled.clock_cycles", "modeled.clock_cycles", "cycles"),
        ("modeled.ops", "modeled.ops", "count"),
    ] {
        m.push(
            Metric::modeled(name, sum_counts(logs, key), unit)
                .expect("modeled metrics carry no rate unit"),
        );
    }
    m
}

/// Geometric mean over subjects of `count / median stage seconds`.
pub fn geomean_rate(
    logs: &[SubjectLog],
    count: &str,
    stage: impl Fn(&StageNs) -> u64 + Copy,
) -> f64 {
    geomean(
        &logs
            .iter()
            .filter(|l| !l.samples.is_empty())
            .map(|l| l.count(count) as f64 / l.typical_s(stage))
            .collect::<Vec<_>>(),
    )
}
