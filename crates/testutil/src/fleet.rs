//! Fleet-run glue for the differential suites and benchmarks: a
//! self-contained job description (workload + prepared pipeline + VM
//! config + optional fault injection), a full-fidelity per-tenant report,
//! and runners that execute a job list solo or inside a
//! [`dchm_vm::fleet`] shard pool with an optional shared artifact cache.
//!
//! The report deliberately captures *every* observable the bit-identity
//! contract covers — output fingerprint, full stats, the `.folded`
//! profile — plus the host-side shared-cache counters the contract
//! excludes, so suites can assert both halves: modeled state identical,
//! host work actually elided.

use crate::{observe, Obs};
use dchm_core::pipeline::Prepared;
use dchm_vm::fleet::{run_fleet, FleetConfig};
use dchm_vm::{FaultConfig, FaultInjector, SharedCodeCache, Vm, VmConfig, VmStats};
use dchm_workloads::Workload;
use std::sync::Arc;

/// One tenant job: everything a shard needs to build and run a VM.
/// `Send + Sync` plain data — the VM itself is constructed on the shard's
/// thread (VMs hold `Rc`s and never cross threads).
#[derive(Clone, Debug)]
pub struct FleetJob {
    /// Display name (workload name, possibly suffixed by the replica id).
    pub name: String,
    /// The workload driving the run.
    pub workload: Workload,
    /// The offline pipeline products (shareable across replicas).
    pub prepared: Arc<Prepared>,
    /// Tenant VM configuration.
    pub config: VmConfig,
    /// Deterministic fault injection for this tenant, if any.
    pub fault: Option<FaultConfig>,
}

impl FleetJob {
    /// The standard harness job for a workload: offline pipeline under
    /// [`crate::harness_config`], mutation on, no faults.
    pub fn for_workload(w: &Workload) -> Self {
        let prepared = Arc::new(crate::prepare_workload(w));
        FleetJob {
            name: w.name.to_string(),
            workload: w.clone(),
            prepared,
            config: crate::harness_config(w),
            fault: None,
        }
    }
}

/// The complete modeled + host observables of one finished tenant run.
#[derive(Clone, Debug)]
pub struct JobReport {
    /// Modeled fingerprint (output, checksum, clock, cycle split, ops).
    pub obs: Obs,
    /// Full VM statistics (compared with `==`: `VmStats` is `PartialEq`).
    pub stats: VmStats,
    /// The `.folded` cycle-attribution profile (empty when profiling off).
    pub folded: String,
    /// Host wall nanoseconds this tenant spent inside compiler pipelines.
    pub compile_wall_nanos: u64,
    /// Shared-cache probes answered with an artifact (0 outside a fleet).
    pub shared_hits: u64,
    /// Shared-cache probes that fell through to this tenant's compiler.
    pub shared_misses: u64,
}

impl JobReport {
    /// Extracts the report from a finished VM.
    pub fn of(vm: &Vm) -> Self {
        JobReport {
            obs: observe(vm),
            stats: vm.stats().clone(),
            folded: vm.profile_folded(),
            compile_wall_nanos: vm.state.compile_wall_nanos,
            shared_hits: vm.state.shared_hits,
            shared_misses: vm.state.shared_misses,
        }
    }
}

/// Builds and runs one tenant VM for `job`, attaching `shared` when given.
///
/// # Panics
/// Panics if the run traps — fleet jobs are built from the catalog and
/// must not trap.
pub fn run_job(job: &FleetJob, shared: Option<&Arc<SharedCodeCache>>) -> JobReport {
    let mut vm = match shared {
        Some(sc) => job.prepared.make_vm_shared(job.config.clone(), sc),
        None => job.prepared.make_vm(job.config.clone()),
    };
    if let Some(f) = job.fault {
        vm.state.injector = Some(FaultInjector::new(f));
    }
    job.workload
        .run(&mut vm)
        .unwrap_or_else(|e| panic!("fleet job {} must not trap: {e:?}", job.name));
    JobReport::of(&vm)
}

/// Runs every job inside a fleet of `cfg.workers` shards, each tenant VM
/// built on its shard's thread, all probing `shared` when given. Returns
/// reports in job order.
pub fn run_jobs_fleet(
    cfg: &FleetConfig,
    jobs: &[FleetJob],
    shared: Option<&Arc<SharedCodeCache>>,
) -> Vec<JobReport> {
    run_fleet(cfg, jobs, |_ctx, job| run_job(job, shared)).results
}
