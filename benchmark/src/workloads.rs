//! The five workloads: what each sets up, what one iteration runs, and how
//! its end-to-end and workload-specific per-layer metrics are derived.

use crate::engine::{
    geomean_rate, layer_metrics, print_stage_tables, sum_typical_s, traced_pass, untraced_pass,
    Budget, Ctx, StealWatch, SubjectLog, Traced,
};
use crate::expected::{Entry, Expected};
use crate::metrics::Metric;
use crate::programs::{
    alloc_subjects, calm_of, catalog_subjects, short_subjects, shuffle, storm_subjects, PlanSource,
    Subject,
};
use crate::span::Recorder;
use crate::stages::{stats_counts, whole_path, StageNs};
use crate::stats::{median, steady, summarize, typical, Summary};
use dchm_testutil::fleet::{run_jobs_fleet, FleetJob, JobReport};
use dchm_vm::fleet::{run_fleet, FleetConfig};
use dchm_vm::SharedCodeCache;
use dchm_workloads::Scale;
use std::sync::Arc;
use std::time::Instant;

/// A workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Seven catalog programs at full scale, whole path.
    CatalogFull,
    /// 96 generated + 7 small catalog programs, whole path.
    ShortPrograms,
    /// Allocation and collection under a tight heap.
    AllocGc,
    /// Forced guard failures, governed and ungoverned.
    DeoptStorm,
    /// 56 tenants through the fleet executor.
    FleetFanout,
}

impl Kind {
    /// Every workload, in report order.
    pub const ALL: [Kind; 5] = [
        Kind::CatalogFull,
        Kind::ShortPrograms,
        Kind::AllocGc,
        Kind::DeoptStorm,
        Kind::FleetFanout,
    ];

    /// The workload's name.
    pub fn name(self) -> &'static str {
        crate::contract::WORKLOADS[self as usize].0
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// Replicas of each small catalog program in a fleet batch.
const FLEET_REPLICAS: usize = 8;

/// What a workload's set-up produces.
pub struct Setup {
    /// Programs under test.
    pub subjects: Vec<Subject>,
    /// `fleet_fanout`: the tenant jobs of one batch, in submission order.
    pub jobs: Vec<FleetJob>,
}

/// Replaces a profiled plan source by the plan the pipeline produces, so
/// the timed path starts from a prepared program.
fn preplan(s: &mut Subject) {
    if matches!(s.plan, PlanSource::Profile) {
        let out = whole_path(s, &mut Recorder::off());
        s.plan = PlanSource::Given(out.plan, out.olc);
    }
}

/// Generates a workload's inputs from `seed`.
pub fn set_up(kind: Kind, seed: u64) -> Setup {
    let mut setup = Setup {
        subjects: Vec::new(),
        jobs: Vec::new(),
    };
    match kind {
        Kind::CatalogFull => {
            setup.subjects = catalog_subjects(Scale::Full);
            shuffle(&mut setup.subjects, seed);
        }
        Kind::ShortPrograms => setup.subjects = short_subjects(seed),
        Kind::AllocGc => {
            setup.subjects = alloc_subjects(seed);
            setup.subjects.iter_mut().for_each(preplan);
        }
        Kind::DeoptStorm => setup.subjects = storm_subjects(seed),
        Kind::FleetFanout => {
            setup.subjects = catalog_subjects(Scale::Small);
            let base: Vec<FleetJob> = setup
                .subjects
                .iter()
                .map(|s| FleetJob::for_workload(&s.workload))
                .collect();
            setup.jobs = (0..FLEET_REPLICAS)
                .flat_map(|_| base.iter().cloned())
                .collect();
            shuffle(&mut setup.jobs, seed);
        }
    }
    setup
}

/// Sets up repeatedly (inputs, plans made ahead of the timed path, the
/// expected-file load) for about half a second — at least 3 and at most
/// 200 times, once in smoke mode — and returns the last set-up with every
/// set-up time.
pub fn timed_set_up(kind: Kind, seed: u64, quick: bool) -> (Setup, Vec<f64>) {
    let start = Instant::now();
    let mut times = Vec::new();
    loop {
        let t = Instant::now();
        let setup = set_up(kind, seed);
        std::hint::black_box(Expected::committed());
        times.push(t.elapsed().as_secs_f64());
        let enough = times.len() >= 3 && start.elapsed().as_secs_f64() >= 0.5;
        if quick || enough || times.len() >= 200 {
            return (setup, times);
        }
    }
}

/// Cores the host delivers to `workers` spinning threads right now: the
/// wall of a fixed arithmetic loop (~0.15 s, long enough to outlast a
/// scheduler quota period — a 30 ms burst got two cores while a sustained
/// load got one) on one thread against the same loop on every worker at
/// once. `nproc` says how many CPUs the machine shows, not how much of
/// them a shared host hands out at the moment.
pub fn host_cores(workers: usize) -> f64 {
    fn spin() -> std::time::Duration {
        let t = Instant::now();
        let mut x = 1u64;
        for i in 0..150_000_000u64 {
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(i);
        }
        std::hint::black_box(x);
        t.elapsed()
    }
    let alone = spin().as_secs_f64();
    let together = std::thread::scope(|s| {
        let threads: Vec<_> = (0..workers).map(|_| s.spawn(spin)).collect();
        threads
            .into_iter()
            .map(|t| {
                t.join()
                    .expect("a spinning thread cannot panic")
                    .as_secs_f64()
            })
            .fold(0.0, f64::max)
    });
    workers as f64 * alone / together
}

/// Worker threads of a fleet batch: `min(2, nproc)`.
pub fn fleet_workers() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(2)
}

/// The untraced pass's result: the two gated timings plus the workload's
/// named end-to-end metrics.
pub struct EndToEnd {
    /// `wall_ms` as defined for this workload.
    pub wall_ms: f64,
    /// `work_per_s` as defined for this workload.
    pub work_per_s: f64,
    /// The workload's end-to-end metrics under their own names.
    pub named: Vec<Metric>,
}

/// Prints a timing's distribution as a `dist` line.
pub fn print_summary(workload: &str, name: &str, unit: &str, s: &Summary) {
    println!(
        "dist {workload} {name} typical {:.6} {unit} n={} min {:.6} q1 {:.6} median {:.6} q3 {:.6} max {:.6}",
        s.typical(),
        s.n,
        s.min,
        s.q1,
        s.median,
        s.q3,
        s.max
    );
}

/// Prints each program's timing distribution for one stage.
fn print_rows(
    workload: &str,
    subjects: &[Subject],
    logs: &[SubjectLog],
    what: &str,
    stage: impl Fn(&StageNs) -> u64,
) {
    for (s, l) in subjects.iter().zip(logs) {
        if l.samples.is_empty() {
            continue;
        }
        let v = l.steady_of(|x| stage(&x.st) as f64 / 1e9);
        print_summary(workload, &format!("{}.{what}", s.name), "s", &summarize(&v));
    }
}

/// Wall of each steady timed iteration: the whole paths of all subjects,
/// summed.
fn iteration_walls(logs: &[SubjectLog]) -> Vec<f64> {
    let n = logs.iter().map(|l| l.samples.len()).min().unwrap_or(0);
    let walls: Vec<f64> = (0..n)
        .map(|j| {
            logs.iter()
                .map(|l| l.samples[j].st.whole as f64 / 1e9)
                .sum()
        })
        .collect();
    let dirty: Vec<bool> = (0..n).map(|j| logs[0].samples[j].dirty).collect();
    steady(&walls, &dirty)
}

/// The untraced pass of `kind`.
pub fn end_to_end(kind: Kind, ctx: &mut Ctx, setup: &Setup, budget: Budget) -> EndToEnd {
    let w = kind.name();
    if kind == Kind::FleetFanout {
        return fleet_end_to_end(ctx, setup, budget);
    }
    let logs = untraced_pass(ctx, &setup.subjects, budget);
    if logs.iter().any(|l| l.samples.is_empty()) {
        // A program never finished a run: nothing to time, the failures
        // are already counted.
        return EndToEnd {
            wall_ms: f64::NAN,
            work_per_s: f64::NAN,
            named: Vec::new(),
        };
    }
    match kind {
        Kind::CatalogFull => {
            print_rows(w, &setup.subjects, &logs, "whole_path", |st| st.whole);
            print_rows(w, &setup.subjects, &logs, "run", |st| st.run);
            let pipeline = sum_typical_s(&logs, |st| st.whole);
            let prepare = sum_typical_s(&logs, |st| st.plan);
            let rate = geomean_rate(&logs, "modeled.ops", |st| st.run);
            EndToEnd {
                wall_ms: pipeline * 1e3,
                work_per_s: rate,
                named: vec![
                    Metric::host("pipeline_wall_s", pipeline, "s"),
                    Metric::host("prepare_wall_s", prepare, "s"),
                    Metric::host("run_ops_per_s", rate, "ops/s"),
                ],
            }
        }
        Kind::ShortPrograms => {
            let walls = summarize(&iteration_walls(&logs));
            print_summary(w, "iteration_wall", "s", &walls);
            let wall = walls.typical();
            let rate = setup.subjects.len() as f64 / wall;
            EndToEnd {
                wall_ms: wall * 1e3,
                work_per_s: rate,
                named: vec![Metric::host("programs_per_s", rate, "programs/s")],
            }
        }
        Kind::AllocGc => {
            print_rows(w, &setup.subjects, &logs, "run", |st| st.run);
            for (s, l) in setup.subjects.iter().zip(&logs) {
                println!(
                    "row {w} {} alloc_mb_per_s {:.3} MB/s",
                    s.name,
                    l.count("vm.heap.bytes_allocated") as f64 / 1e6 / l.typical_s(|st| st.run)
                );
            }
            let rate = geomean_rate(&logs, "vm.heap.bytes_allocated", |st| st.run) / 1e6;
            EndToEnd {
                wall_ms: sum_typical_s(&logs, |st| st.run) * 1e3,
                work_per_s: rate,
                named: vec![Metric::host("alloc_mb_per_s", rate, "MB/s")],
            }
        }
        Kind::DeoptStorm => {
            print_rows(w, &setup.subjects, &logs, "whole_path", |st| st.whole);
            let governed = logs[0].typical_s(|st| st.whole);
            let rate = logs[1].count("vm.deopt.count") as f64 / logs[1].typical_s(|st| st.whole);
            EndToEnd {
                wall_ms: governed * 1e3,
                work_per_s: rate,
                named: vec![
                    Metric::host("storm_governed_wall_s", governed, "s"),
                    Metric::host("storm_deopts_per_s", rate, "deopts/s"),
                ],
            }
        }
        Kind::FleetFanout => unreachable!("handled above"),
    }
}

/// Checks every tenant report of one batch against `expected.json`.
fn check_batch(ctx: &mut Ctx, jobs: &[FleetJob], reports: &[JobReport]) {
    for (job, r) in jobs.iter().zip(reports) {
        let entry = Entry {
            checksum: r.obs.checksum,
            ops: r.obs.ops,
            clock: r.obs.clock,
        };
        ctx.check_entry(&job.name, entry, &stats_counts(&r.stats, r.obs.clock));
    }
}

/// The gated fleet timing runs its batches on **one** worker. On the shared
/// host this was developed on, the two CPUs deliver anything between one
/// and two cores from minute to minute (`host_cores`), so a two-worker
/// batch takes 42 ms or 77 ms depending on the neighbours; one worker
/// always gets its core. The N-worker rate and speed-up are per-layer
/// metrics of the traced pass (`vm.fleet.tenants_per_s`, `wall_speedup`).
fn fleet_end_to_end(ctx: &mut Ctx, setup: &Setup, budget: Budget) -> EndToEnd {
    let cfg = FleetConfig::dynamic(1);
    let batch = |ctx: &mut Ctx| {
        let shared = Arc::new(SharedCodeCache::new(1024));
        let watch = StealWatch::start();
        let t = Instant::now();
        let reports = run_jobs_fleet(&cfg, &setup.jobs, Some(&shared));
        let wall = t.elapsed().as_secs_f64();
        let dirty = watch.dirty();
        check_batch(ctx, &setup.jobs, &reports);
        (wall, dirty)
    };
    batch(ctx);
    let (mut walls, mut dirty) = (Vec::new(), Vec::new());
    let start = Instant::now();
    while !budget.spent(start, walls.len()) {
        let (wall, lost) = batch(ctx);
        walls.push(wall);
        dirty.push(lost);
    }
    println!(
        "info {} iterations {} of which {} lost CPU time to the hypervisor",
        ctx.workload,
        walls.len(),
        dirty.iter().filter(|d| **d).count()
    );
    let s = summarize(&steady(&walls, &dirty));
    print_summary(ctx.workload, "batch_wall", "s", &s);
    let wall = s.typical();
    let rate = setup.jobs.len() as f64 / wall;
    EndToEnd {
        wall_ms: wall * 1e3,
        work_per_s: rate,
        named: vec![Metric::host("fleet_tenants_per_s", rate, "tenants/s")],
    }
}

/// One tenant's timings inside a traced fleet batch.
struct TenantTrace {
    shard: usize,
    start: Instant,
    built: Instant,
    end: Instant,
    report: JobReport,
}

/// One fleet batch whose closure times each tenant (construction and run)
/// and notes the worker it ran on.
fn traced_batch(jobs: &[FleetJob], workers: usize) -> (f64, Vec<TenantTrace>) {
    let shared = Arc::new(SharedCodeCache::new(1024));
    let t = Instant::now();
    let run = run_fleet(&FleetConfig::dynamic(workers), jobs, |shard, job| {
        let start = Instant::now();
        let mut vm = job.prepared.make_vm_shared(job.config.clone(), &shared);
        let built = Instant::now();
        let ran = job.workload.run(&mut vm);
        let end = Instant::now();
        assert!(ran.is_ok(), "fleet tenant {} trapped: {ran:?}", job.name);
        TenantTrace {
            shard: shard.shard,
            start,
            built,
            end,
            report: JobReport::of(&vm),
        }
    });
    (t.elapsed().as_secs_f64(), run.results)
}

/// `vm.fleet.*`: 1-worker and N-worker batches interleaved, one span per
/// tenant carrying its worker id.
fn fleet_layer_metrics(ctx: &mut Ctx, setup: &Setup, budget: Budget) -> Vec<Metric> {
    // The only part of the benchmark that wants every CPU.
    let pin = ctx.pin.filter(|p| p.widen());
    let workers = fleet_workers();
    let rounds = if budget.quick { 2 } else { 10 };
    let (mut solo_walls, mut fleet_walls) = (Vec::new(), Vec::new());
    let (mut busy_share, mut imbalance_ms, mut construct_us) = (Vec::new(), Vec::new(), Vec::new());
    let (mut hits, mut misses) = (0, 0);
    for round in 0..rounds {
        // One worker: submission order is execution order, so the shared
        // cache's hit count is exact.
        let (wall, tenants) = traced_batch(&setup.jobs, 1);
        solo_walls.push(wall);
        let reports: Vec<JobReport> = tenants.into_iter().map(|t| t.report).collect();
        check_batch(ctx, &setup.jobs, &reports);
        hits = reports.iter().map(|r| r.shared_hits).sum();
        misses = reports.iter().map(|r| r.shared_misses).sum();
        // The shared cache's counts of a 1-worker batch must repeat exactly.
        let counts = vec![
            ("vm.fleet.shared_hits", hits),
            ("vm.fleet.shared_misses", misses),
        ];
        let repeat = ctx.check_counts("1-worker-batch", &counts);
        ctx.require(repeat);

        let name: Arc<str> = Arc::from("batch");
        ctx.rec.set_id(&name, round as u32);
        let o = ctx.rec.open("vm.fleet.batch");
        let (wall, tenants) = traced_batch(&setup.jobs, workers);
        ctx.rec.close(o);
        fleet_walls.push(wall);
        let mut busy = vec![0.0f64; workers];
        for (job, t) in setup.jobs.iter().zip(&tenants) {
            busy[t.shard] += (t.end - t.start).as_secs_f64();
            construct_us.push((t.built - t.start).as_nanos() as f64 / 1e3);
            // Lane 0 is the benchmark thread; workers follow.
            let program: Arc<str> = Arc::from(job.name.as_str());
            ctx.rec.add_remote(
                "vm.fleet.tenant",
                t.shard as u32 + 1,
                t.start,
                t.end,
                &program,
            );
        }
        busy_share.push(busy.iter().sum::<f64>() / (workers as f64 * wall));
        let (lo, hi) = busy.iter().fold((f64::INFINITY, 0.0f64), |(lo, hi), &b| {
            (lo.min(b), hi.max(b))
        });
        imbalance_ms.push((hi - lo) * 1e3);
        let reports: Vec<JobReport> = tenants.into_iter().map(|t| t.report).collect();
        check_batch(ctx, &setup.jobs, &reports);
    }
    let fleet_wall = typical(&fleet_walls);
    let cores = host_cores(workers);
    if let Some(pin) = pin {
        pin.narrow();
    }
    println!(
        "info {} host delivers {cores:.2} cores to {workers} spinning threads",
        ctx.workload
    );
    vec![
        Metric::host("host.cores", cores, "cores"),
        Metric::host(
            "vm.fleet.tenants_per_s",
            setup.jobs.len() as f64 / fleet_wall,
            "1/s",
        ),
        Metric::host(
            "vm.fleet.wall_speedup",
            typical(&solo_walls) / fleet_wall,
            "ratio",
        ),
        Metric::host("vm.fleet.worker_busy_share", median(&busy_share), "ratio"),
        Metric::host("vm.fleet.queue_imbalance_ms", median(&imbalance_ms), "ms"),
        Metric::host("vm.fleet.tenant_construct_us", median(&construct_us), "us"),
        Metric::exact("vm.fleet.shared_hits", hits),
        Metric::exact_ratio("vm.codecache.shared_hit_ratio", hits, hits + misses),
    ]
}

/// `vm.deopt.ns_per_deopt`: the ungoverned storm's wall minus the same
/// program's wall with no injected failures, per deopt.
fn storm_layer_metrics(ctx: &mut Ctx, setup: &Setup, traced: &Traced) -> Vec<Metric> {
    let calm = &calm_of(&setup.subjects[1]);
    let mut walls = Vec::new();
    for _ in 0..3 {
        let out = whole_path(calm, &mut Recorder::off());
        ctx.check(calm, &out);
        walls.push(out.stages.whole as f64);
    }
    let ungoverned = &traced.traced[1];
    let storm_ns = ungoverned.typical_s(|st| st.whole) * 1e9;
    let deopts = ungoverned.count("vm.deopt.count").max(1) as f64;
    vec![Metric::host(
        "vm.deopt.ns_per_deopt",
        (storm_ns - typical(&walls)) / deopts,
        "ns",
    )]
}

fn metric_value(metrics: &[Metric], name: &str) -> f64 {
    metrics
        .iter()
        .find(|m| m.name == name)
        .map_or(0.0, |m| m.value)
}

/// A bound a per-layer metric must respect for its workload to be valid.
enum Limit {
    AtLeast(f64),
    AtMost(f64),
}

/// The workload-validity limits `(metric, limit, is a share of wall)`: the
/// measured reason each workload exists. A later change to the programs
/// that voids one fails the traced pass loudly.
fn validity_limits(kind: Kind) -> &'static [(&'static str, Limit, bool)] {
    match kind {
        Kind::CatalogFull => &[
            ("vm.compiler.wall_share", Limit::AtMost(0.05), true),
            ("trace.stage_coverage_min", Limit::AtLeast(0.9), true),
        ],
        Kind::ShortPrograms => &[("vm.compiler.wall_share", Limit::AtLeast(0.35), true)],
        Kind::AllocGc => &[
            ("vm.heap.gc_count", Limit::AtLeast(25.0), false),
            ("vm.heap.gc_wall_share", Limit::AtLeast(0.4), true),
        ],
        Kind::DeoptStorm => &[
            ("vm.deopt.count", Limit::AtLeast(300_000.0), false),
            ("vm.deopt.count_governed", Limit::AtMost(1_000.0), false),
        ],
        Kind::FleetFanout => &[("vm.fleet.wall_speedup", Limit::AtLeast(1.2), true)],
    }
}

fn validity(kind: Kind, metrics: &[Metric]) -> Vec<Result<(), String>> {
    validity_limits(kind)
        .iter()
        // Shares of wall describe the optimized build the benchmark
        // measures; a debug build (the unit tests) only checks the counts.
        .filter(|(_, _, share)| !(*share && cfg!(debug_assertions)))
        // No speed-up can be asked of a host that hands out one core,
        // whatever `nproc` says.
        .filter(|(name, _, _)| {
            !(*name == "vm.fleet.wall_speedup" && metric_value(metrics, "host.cores") < 1.5)
        })
        .map(|(name, limit, _)| {
            let v = metric_value(metrics, name);
            let (held, want) = match limit {
                Limit::AtLeast(x) => (v >= *x, format!(">= {x}")),
                Limit::AtMost(x) => (v <= *x, format!("<= {x}")),
            };
            if held {
                Ok(())
            } else {
                Err(format!(
                    "workload no longer valid: {name} is {v}, must be {want}"
                ))
            }
        })
        .collect()
}

/// The traced pass of `kind`: every per-layer metric, the stage tables and
/// the validity asserts. Metrics a workload does not exercise are absent
/// here and reported as 0 by the caller.
pub fn per_layer(kind: Kind, ctx: &mut Ctx, setup: &Setup, budget: Budget) -> Vec<Metric> {
    let traced = traced_pass(ctx, &setup.subjects, budget);
    let tables = print_stage_tables(kind.name(), ctx.rec.spans());
    let mut metrics = layer_metrics(ctx, &setup.subjects, &traced, &tables);
    match kind {
        Kind::DeoptStorm => metrics.extend(storm_layer_metrics(ctx, setup, &traced)),
        Kind::FleetFanout => metrics.extend(fleet_layer_metrics(ctx, setup, budget)),
        _ => {}
    }
    metrics.push(Metric::exact("trace.spans", ctx.rec.spans().len() as u64));
    for check in validity(kind, &metrics) {
        ctx.require(check);
    }
    metrics
}
