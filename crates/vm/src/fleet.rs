//! Sharded multi-tenant execution: run many independent VM jobs in
//! parallel, each on its own shard, without perturbing a single modeled
//! observable.
//!
//! The executor is deliberately VM-agnostic: [`run_fleet`] drives a plain
//! `Fn(&ShardCtx, &J) -> R` over a job list, because `Vm` (holding
//! `Rc`-backed program state) is not `Send` — each worker thread builds
//! its jobs' VMs locally from the `Send + Sync` job description (program,
//! plan, config). Everything modeled stays per-shard by construction:
//! clock, stats, tracer ring, profiler, governor, local code cache and
//! inline caches all live inside the shard's VM. The only cross-shard
//! object is the [`crate::codecache::SharedCodeCache`] a caller may attach
//! to every shard's VM, and that is host-side only — which is exactly why
//! a job's run inside any fleet is bit-identical to its solo run.
//!
//! Scheduling is one dynamic queue (an atomic work index): which shard
//! runs which job depends on host timing, results still land in job order.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Fleet shape: how many workers pull from the job queue.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FleetConfig {
    /// Number of worker shards (clamped to at least 1).
    pub workers: usize,
}

impl FleetConfig {
    /// A dynamic fleet of `workers` shards.
    pub fn dynamic(workers: usize) -> Self {
        FleetConfig { workers }
    }
}

/// What a job closure learns about where it runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShardCtx {
    /// This shard's index in `0..workers`.
    pub shard: usize,
    /// Total worker count of the fleet.
    pub workers: usize,
}

/// The outcome of one fleet run.
#[derive(Debug)]
pub struct FleetRun<R> {
    /// One result per job, in job order (independent of scheduling).
    pub results: Vec<R>,
    /// `shard_of[i]` is the shard that ran job `i`.
    pub shard_of: Vec<usize>,
}

/// Runs every job in `jobs` exactly once across `cfg.workers` parallel
/// shards, each pulling the next unclaimed job from a shared atomic index,
/// and returns the results in job order.
///
/// # Panics
/// Panics when a job closure panics (the panic propagates once all workers
/// have been joined by the scope).
pub fn run_fleet<J, R, F>(cfg: &FleetConfig, jobs: &[J], run: F) -> FleetRun<R>
where
    J: Sync,
    R: Send,
    F: Fn(&ShardCtx, &J) -> R + Sync,
{
    let workers = cfg.workers.max(1);
    let out: Mutex<Vec<Option<(usize, R)>>> = Mutex::new((0..jobs.len()).map(|_| None).collect());
    let next = AtomicUsize::new(0);
    rayon::scope(|s| {
        for shard in 0..workers.min(jobs.len()) {
            let (out, next, run) = (&out, &next, &run);
            s.spawn(move |_| {
                let ctx = ShardCtx { shard, workers };
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= jobs.len() {
                        break;
                    }
                    let r = run(&ctx, &jobs[i]);
                    out.lock().expect("fleet worker poisoned")[i] = Some((shard, r));
                }
            });
        }
    });
    let mut results = Vec::with_capacity(jobs.len());
    let mut shard_of = Vec::with_capacity(jobs.len());
    for slot in out.into_inner().expect("fleet worker poisoned") {
        let (s, r) = slot.expect("every job runs exactly once");
        shard_of.push(s);
        results.push(r);
    }
    FleetRun { results, shard_of }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn dynamic_fleet_runs_every_job_once_in_order() {
        let jobs: Vec<u64> = (0..37).collect();
        // 0 workers clamps to one.
        for (requested, workers) in [(4, 4), (0, 1)] {
            let ran = AtomicU64::new(0);
            let fleet = run_fleet(&FleetConfig::dynamic(requested), &jobs, |ctx, &j| {
                assert_eq!(ctx.workers, workers);
                assert!(ctx.shard < ctx.workers);
                ran.fetch_add(1, Ordering::Relaxed);
                j * 2
            });
            assert_eq!(ran.load(Ordering::Relaxed), 37);
            assert_eq!(
                fleet.results,
                jobs.iter().map(|j| j * 2).collect::<Vec<_>>()
            );
            assert_eq!(fleet.shard_of.len(), 37);
            assert!(fleet.shard_of.iter().all(|&s| s < workers));
        }
    }

    #[test]
    fn single_worker_fleet_is_serial_in_job_order() {
        let jobs: Vec<usize> = (0..10).collect();
        let seen = Mutex::new(Vec::new());
        let fleet = run_fleet(&FleetConfig::dynamic(1), &jobs, |_, &j| {
            seen.lock().unwrap().push(j);
            j
        });
        assert_eq!(*seen.lock().unwrap(), jobs);
        assert_eq!(fleet.shard_of, vec![0; 10]);
    }

    #[test]
    fn empty_jobs_yield_empty_run() {
        let jobs: [u8; 0] = [];
        let fleet = run_fleet(&FleetConfig::dynamic(4), &jobs, |_, &j| j);
        assert!(fleet.results.is_empty());
    }
}
