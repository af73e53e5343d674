//! Sharded multi-tenant serving: `BENCH_fleet.json` emitter.
//!
//! Two experiments over the `dchm_vm::fleet` executor:
//!
//! 1. **Scaling** — the 7-workload catalog replicated ×4 (28 tenant jobs)
//!    through the fleet's dynamic queue at 1 worker and at
//!    `available_parallelism()` workers. The rows carry *measured* host
//!    wall seconds (fastest of three alternating rounds) and the speed-up
//!    derived from them — the only host-dependent columns; on a one-core
//!    host there is one row and no speed-up to report. Every job of every
//!    round is asserted bit-identical to its solo golden.
//! 2. **64-tenant fan-out** — identical SalaryDB tenants with the shared
//!    compile-artifact cache on vs off: the summed host compile wall must
//!    collapse when every tenant past the first adopts published
//!    artifacts, with zero modeled divergence.
//!
//! Usage:
//! `cargo run --release -p dchm-bench --bin bench_fleet [--small]
//!  [--tenants N]`

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

use dchm_bench::runner::{flag_value, scale_from_args, BenchJson};
use dchm_bench::{measured_config, prepare_workload};
use dchm_testutil::fleet::{run_job, run_jobs_fleet, FleetJob, JobReport};
use dchm_vm::fleet::FleetConfig;
use dchm_vm::SharedCodeCache;
use dchm_workloads::{catalog, Workload};

/// Replicas of each catalog workload in the scaling job list.
const REPLICAS: usize = 4;

/// The measured-config fleet job for `w`, sharing one prepared pipeline.
fn job_for(w: &Workload, prepared: &Arc<dchm_core::pipeline::Prepared>, name: String) -> FleetJob {
    FleetJob {
        name,
        workload: w.clone(),
        prepared: Arc::clone(prepared),
        config: measured_config(w),
        fault: None,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let scale = scale_from_args(&args);
    let tenants: usize = flag_value(&args, "--tenants")
        .map(|v| v.parse().expect("--tenants takes a count"))
        .unwrap_or(64);

    let mut doc = BenchJson::new("fleet_scaling", scale, "wall_secs");
    doc.meta("replicas_per_workload", &REPLICAS.to_string());

    // Offline pipelines once per workload, shared by every replica and
    // both experiments.
    let workloads = catalog(scale);
    let prepared: Vec<Arc<dchm_core::pipeline::Prepared>> = workloads
        .iter()
        .map(|w| {
            eprintln!("preparing {}", w.name);
            Arc::new(prepare_workload(w))
        })
        .collect();

    // Solo goldens: each job's stats/folded are the bit-identity oracle.
    let goldens: Vec<JobReport> = workloads
        .iter()
        .zip(&prepared)
        .map(|(w, p)| {
            eprintln!("solo {}", w.name);
            run_job(&job_for(w, p, w.name.to_string()), None)
        })
        .collect();

    let mut jobs: Vec<FleetJob> = Vec::new();
    let mut golden_of: Vec<usize> = Vec::new();
    for replica in 0..REPLICAS {
        for (i, w) in workloads.iter().enumerate() {
            jobs.push(job_for(w, &prepared[i], format!("{}[{replica}]", w.name)));
            golden_of.push(i);
        }
    }

    // This host's wall clock swings by tens of percent between minutes:
    // the two worker counts alternate and each row keeps its fastest round.
    const ROUNDS: usize = 3;
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    doc.meta("available_parallelism", &cores.to_string());
    doc.meta("rounds", &ROUNDS.to_string());
    let mut worker_counts = vec![1, cores];
    worker_counts.dedup();
    let mut best_secs = vec![f64::INFINITY; worker_counts.len()];
    for _ in 0..ROUNDS {
        for (best, &workers) in best_secs.iter_mut().zip(&worker_counts) {
            let t0 = Instant::now();
            let reports = run_jobs_fleet(&FleetConfig::dynamic(workers), &jobs, None);
            *best = best.min(t0.elapsed().as_secs_f64());
            let output_match = reports
                .iter()
                .zip(&golden_of)
                .all(|(r, &g)| r.modeled() == goldens[g].modeled());
            assert!(output_match, "{workers}-worker fleet diverged from solo");
        }
    }
    for (&workers, &wall_secs) in worker_counts.iter().zip(&best_secs) {
        let speedup = best_secs[0] / wall_secs;
        let mut row = String::new();
        let _ = write!(
            row,
            "{{\"name\": \"workers-{workers}\", \"workers\": {workers}, \
             \"jobs\": {}, \"wall_secs\": {wall_secs:.3}, \
             \"wall_speedup_vs_1\": {speedup:.3}, \"output_match\": true}}",
            jobs.len(),
        );
        doc.row(row);
        println!("workers {workers}: wall {wall_secs:.2}s (x{speedup:.2} vs 1 worker)");
    }

    // 64-tenant fan-out: identical SalaryDB tenants, shared cache off/on.
    let salary_idx = workloads
        .iter()
        .position(|w| w.name == "SalaryDB")
        .expect("SalaryDB is in the catalog");
    let fan_jobs: Vec<FleetJob> = (0..tenants)
        .map(|t| {
            job_for(
                &workloads[salary_idx],
                &prepared[salary_idx],
                format!("SalaryDB[{t}]"),
            )
        })
        .collect();
    let fan_golden = &goldens[salary_idx];
    let cfg = FleetConfig::dynamic(4);

    eprintln!("fan-out: {tenants} tenants, shared cache off");
    let off = run_jobs_fleet(&cfg, &fan_jobs, None);
    eprintln!("fan-out: {tenants} tenants, shared cache on");
    let shared = Arc::new(SharedCodeCache::new(4096));
    let on = run_jobs_fleet(&cfg, &fan_jobs, Some(&shared));

    let fan_match = off
        .iter()
        .chain(&on)
        .all(|r| r.modeled() == fan_golden.modeled());
    assert!(fan_match, "fan-out tenants diverged from solo");
    let wall_off: u64 = off.iter().map(|r| r.compile_wall_nanos).sum();
    let wall_on: u64 = on.iter().map(|r| r.compile_wall_nanos).sum();
    let hits: u64 = on.iter().map(|r| r.shared_hits).sum();
    let misses: u64 = on.iter().map(|r| r.shared_misses).sum();
    let reduction = (1.0 - wall_on as f64 / (wall_off as f64).max(1e-9)) * 100.0;

    let mut fanout = String::new();
    let _ = write!(
        fanout,
        "{{\"workload\": \"SalaryDB\", \"tenants\": {tenants}, \
         \"compile_wall_ms_shared_off\": {:.3}, \
         \"compile_wall_ms_shared_on\": {:.3}, \
         \"compile_wall_reduction_pct\": {reduction:.2}, \
         \"shared_hits\": {hits}, \"shared_misses\": {misses}, \
         \"output_match\": {fan_match}}}",
        wall_off as f64 / 1e6,
        wall_on as f64 / 1e6,
    );
    doc.meta("fanout", &fanout);
    println!(
        "fan-out {tenants} tenants: compile wall {:.1} ms -> {:.1} ms \
         ({reduction:.1}% saved), {hits} shared hits",
        wall_off as f64 / 1e6,
        wall_on as f64 / 1e6
    );

    let json = doc.write("BENCH_fleet.json");
    print!("{json}");
    eprintln!("wrote BENCH_fleet.json");
}
