//! Real-time interpreter throughput: `BENCH_interp.json` emitter.
//!
//! Unlike every other number in this repo (which is *modeled* cycles), this
//! harness measures the host-side speed of the evaluator itself: wall-clock
//! ops/sec executing the Figure 9 workloads with mutation off. It writes
//! `BENCH_interp.json` at the repo root, comparing against the recorded
//! pre-optimization (seed) throughput so the interpreter fast-path work is
//! tracked release over release.
//!
//! Usage:
//! `cargo run --release -p dchm-bench --bin bench_interp [--small] [--trace <dir>]
//!  [--profile <dir>] [--profile-overhead-check <pct>]`
//!
//! `--trace <dir>` adds one extra traced run per workload *after* the timed
//! repeats (so the timing itself stays tracing-off) and writes
//! `<dir>/<name>.trace.json` + `<dir>/<name>.metrics.json`.
//!
//! `--profile <dir>` likewise adds an untimed profiled run per workload and
//! writes `<dir>/<name>.folded` + `<dir>/<name>.census.json`.
//!
//! `--profile-overhead-check <pct>` is the CI gate for the attribution
//! profiler: per workload, profiling at the default period vs. off must
//! leave clock, op count and output bit-identical (hard assert) and cost at
//! most `pct` percent extra wall time (best-of-3).

use std::fmt::Write as _;
use std::time::Instant;

use dchm_bench::artifacts::{
    profile_dir_flag, trace_dir_flag, write_profile_artifacts, write_trace_artifacts,
};
use dchm_bench::measured_config;
use dchm_bench::runner::{best_of, flag_value, has_flag, scale_from_args, BenchJson};
use dchm_vm::Vm;
use dchm_workloads::{catalog, Workload};

/// Seed throughput (ops/sec, best of 3) recorded on this repo's reference
/// machine immediately before the interpreter fast-path rewrite, at
/// `Scale::Full` with mutation off. Regenerate with `--print-baseline` on a
/// pre-rewrite checkout if the workloads themselves change.
const SEED_OPS_PER_SEC: &[(&str, f64)] = &[
    ("SalaryDB", 75144209.0),
    ("SimLogic", 84786772.0),
    ("CSVToXML", 122177776.0),
    ("Java2XHTML", 111944970.0),
    ("Weka", 113385189.0),
    ("SPECjbb2000", 95386067.0),
    ("SPECjbb2005", 101876591.0),
];

/// The rates committed in `BENCH_interp.json` immediately before the linear
/// form got its fused instruction forms (PR 14 tree: one dispatch per IR op
/// but for `ICmpBr`; same harness, same reference machine): the
/// `prev_ops_per_sec` column, so the file reads as a trajectory
/// seed -> prev -> now.
const PREV_OPS_PER_SEC: &[(&str, f64)] = &[
    ("SalaryDB", 147849234.0),
    ("SimLogic", 160686645.0),
    ("CSVToXML", 214181738.0),
    ("Java2XHTML", 223182269.0),
    ("Weka", 220435474.0),
    ("SPECjbb2000", 165970311.0),
    ("SPECjbb2005", 191828921.0),
];

struct Row {
    name: &'static str,
    ops_per_sec: f64,
    ops_executed: u64,
    wall_ms: f64,
}

fn measure_throughput(w: &Workload, repeats: u32) -> Row {
    // The op count is deterministic, so the fastest run is the best rate.
    let (ops_executed, secs) = best_of(repeats, || {
        let mut vm = Vm::new(w.program.clone(), measured_config(w));
        let start = Instant::now();
        w.run(&mut vm).expect("workload must not trap");
        (vm.stats().ops_executed, start.elapsed().as_secs_f64())
    });
    Row {
        name: w.name,
        ops_per_sec: ops_executed as f64 / secs.max(1e-12),
        ops_executed,
        wall_ms: secs * 1e3,
    }
}

/// Profiling on (default period) vs. off for one workload: modeled
/// observables must be bit-identical (hard assert); returns the best-of-5
/// wall seconds of each side for the aggregate gate.
fn profile_overhead_measure(w: &Workload) -> (f64, f64) {
    let run = |period: u64| {
        let mut cfg = measured_config(w);
        cfg.profile_period = period;
        let mut vm = Vm::new(w.program.clone(), cfg);
        let start = Instant::now();
        w.run(&mut vm).expect("workload must not trap");
        let secs = start.elapsed().as_secs_f64();
        let obs = (vm.cycles(), vm.stats().ops_executed, vm.state.output.checksum);
        (obs, secs)
    };
    let mut best_off = f64::MAX;
    let mut best_on = f64::MAX;
    let mut obs_off = None;
    let mut obs_on = None;
    for _ in 0..5 {
        let (obs, secs) = run(0);
        best_off = best_off.min(secs);
        obs_off = Some(obs);
        let (obs, secs) = run(dchm_vm::VmConfig::default().profile_period);
        best_on = best_on.min(secs);
        obs_on = Some(obs);
    }
    // The hard, deterministic property: samples stamp the modeled clock but
    // never charge it.
    assert_eq!(
        obs_on, obs_off,
        "{}: profiling moved the modeled clock or the output",
        w.name
    );
    println!(
        "{:<12} profiled-run wall overhead {:+.2}% (off {:.1} ms, on {:.1} ms)",
        w.name,
        (best_on / best_off - 1.0) * 100.0,
        best_off * 1e3,
        best_on * 1e3,
    );
    (best_off, best_on)
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let print_baseline = has_flag(&args, "--print-baseline");
    let trace_dir = trace_dir_flag(&args);
    let profile_dir = profile_dir_flag(&args);
    let scale = scale_from_args(&args);

    if let Some(pct) = flag_value(&args, "--profile-overhead-check") {
        let budget: f64 = pct.parse().expect("--profile-overhead-check takes a percentage");
        // Gate on the suite aggregate: single-workload wall times are a few
        // tens of milliseconds and jitter more than the profiler costs;
        // over the summed suite the noise amortizes and the budget is
        // meaningful.
        let (mut total_off, mut total_on) = (0.0, 0.0);
        for w in catalog(scale) {
            let (off, on) = profile_overhead_measure(&w);
            total_off += off;
            total_on += on;
        }
        let overhead = (total_on / total_off - 1.0) * 100.0;
        let ok = overhead <= budget;
        println!(
            "suite        profiled-run wall overhead {:+.2}% (budget {:.1}%, off {:.1} ms, on {:.1} ms) {}",
            overhead,
            budget,
            total_off * 1e3,
            total_on * 1e3,
            if ok { "ok" } else { "OVER BUDGET" }
        );
        if !ok {
            std::process::exit(1);
        }
        return;
    }

    // Best-of-5: wall-clock rates on shared machines are noisy and only the
    // fastest run approximates the interpreter's actual cost.
    let rows: Vec<Row> = catalog(scale)
        .iter()
        .map(|w| measure_throughput(w, 5))
        .collect();

    if print_baseline {
        println!("const SEED_OPS_PER_SEC: &[(&str, f64)] = &[");
        for r in &rows {
            println!("    (\"{}\", {:.0}.0),", r.name, r.ops_per_sec);
        }
        println!("];");
        return;
    }

    let mut doc = BenchJson::new("interpreter_throughput", scale, "ops_per_sec_wall_clock");
    for r in &rows {
        let baseline = |table: &[(&str, f64)]| {
            let rate = table.iter().find(|(n, _)| *n == r.name).map_or(0.0, |(_, v)| *v);
            (rate, if rate > 0.0 { r.ops_per_sec / rate } else { 0.0 })
        };
        let (seed, vs_seed) = baseline(SEED_OPS_PER_SEC);
        let (prev, vs_prev) = baseline(PREV_OPS_PER_SEC);
        let mut row = String::new();
        let _ = write!(
            row,
            "{{\"name\": \"{}\", \"ops_per_sec\": {:.0}, \"ops_executed\": {}, \"wall_ms\": {:.3}, \"seed_ops_per_sec\": {:.0}, \"speedup_vs_seed\": {:.3}, \"prev_ops_per_sec\": {:.0}, \"speedup_vs_prev\": {:.3}}}",
            r.name, r.ops_per_sec, r.ops_executed, r.wall_ms, seed, vs_seed, prev, vs_prev
        );
        doc.row(row);
    }
    let json = doc.write("BENCH_interp.json");
    print!("{json}");
    for r in &rows {
        println!("{:<12} {:>12.0} ops/sec ({:.1} ms)", r.name, r.ops_per_sec, r.wall_ms);
    }

    if let Some(dir) = trace_dir {
        // Untimed traced pass: same config as the measured runs, with the
        // flight recorder on.
        for w in catalog(scale) {
            let mut vm = Vm::new(w.program.clone(), measured_config(&w));
            vm.enable_tracing(64 * 1024);
            w.run(&mut vm).expect("workload must not trap");
            let (t, m) = write_trace_artifacts(&dir, w.name, &vm).expect("write artifacts");
            eprintln!("traced {}: {} + {}", w.name, t.display(), m.display());
        }
    }

    if let Some(dir) = profile_dir {
        // Untimed profiled pass (profiling is on by default in VmConfig).
        for w in catalog(scale) {
            let mut vm = Vm::new(w.program.clone(), measured_config(&w));
            w.run(&mut vm).expect("workload must not trap");
            let (f, c) = write_profile_artifacts(&dir, w.name, &vm).expect("write artifacts");
            eprintln!("profiled {}: {} + {}", w.name, f.display(), c.display());
        }
    }
}
