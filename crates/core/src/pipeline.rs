//! The end-to-end offline pipeline (paper Figure 3):
//!
//! 1. collect each field's branch-use and assignment sites (the
//!    hotness-independent half of the EQ 1 static analysis),
//! 2. profile once: hot methods, and values stored to branch-tested fields,
//! 3. score the sites (EQ 1); the state fields' histograms give hot states,
//! 4. run object-lifetime-constant analysis,
//! 5. feed everything into a fresh VM at startup.
//!
//! The paper profiles twice because it had two tools. Here one VM yields
//! both artifacts, and EQ 1 can only pick a branch-tested field, so a run
//! watching all of those observes exactly what a second run would have.

use crate::analysis::{plan_from_scores, AnalysisConfig, FieldSites};
use crate::engine::MutationEngine;
use crate::olc::{analyze_olc, OlcReport};
use crate::plan::MutationPlan;
use dchm_bytecode::Program;
use dchm_profile::{profile, HotMethodReport};
use dchm_vm::{program_fingerprint, SharedCodeCache, Vm, VmConfig};
use std::sync::{Arc, OnceLock};

/// Pipeline configuration.
#[derive(Clone, Debug, Default)]
pub struct PipelineConfig {
    /// Static-analysis tunables (EQ 1 parameters, state caps).
    pub analysis: AnalysisConfig,
    /// VM configuration used for the profiling run.
    pub profile_vm: VmConfig,
}

/// Everything the offline pipeline produced.
#[derive(Debug)]
pub struct Prepared {
    /// The program (unchanged).
    pub program: Program,
    /// The mutation plan.
    pub plan: MutationPlan,
    /// Object-lifetime-constant analysis results.
    pub olc: OlcReport,
    /// Hot-method profile of the profiling run (diagnostics).
    pub hot: HotMethodReport,
    /// [`program_fingerprint`] of `program`, computed by the first
    /// [`Self::make_vm_shared`] and reused by every later tenant.
    program_fp: OnceLock<u64>,
}

impl Prepared {
    /// Builds a VM with the mutation engine installed.
    pub fn make_vm(&self, config: VmConfig) -> Vm {
        let engine = MutationEngine::new(self.plan.clone(), self.olc.clone());
        engine.attach(self.program.clone(), config)
    }

    /// [`Self::make_vm`] for a fleet tenant: attaches the fleet-wide shared
    /// compile-artifact cache right after engine attach. Attach installs
    /// patch points but compiles nothing, so the cache observes every
    /// compile of the subsequent run, the engine's special versions
    /// included.
    pub fn make_vm_shared(&self, config: VmConfig, shared: &Arc<SharedCodeCache>) -> Vm {
        let mut vm = self.make_vm(config);
        let fp = *self
            .program_fp
            .get_or_init(|| program_fingerprint(&self.program));
        vm.state.attach_shared_cache(Arc::clone(shared), fp);
        vm
    }

    /// Builds a mutation-off VM over the same program (the baseline the
    /// paper's speedups compare against).
    pub fn make_baseline_vm(&self, config: VmConfig) -> Vm {
        Vm::new(self.program.clone(), config)
    }
}

/// Runs the offline pipeline. `driver` runs the workload on a profiling VM
/// and is invoked exactly once.
pub fn prepare(
    program: Program,
    cfg: &PipelineConfig,
    driver: impl FnOnce(&mut Vm),
) -> Prepared {
    // Step 1: EQ 1 sites; the branch-tested fields are the watch set.
    let sites = FieldSites::scan(&program);
    // Step 2: the profiling run; its cycle-attribution profile would be
    // dropped unread, and that profiler is clock-transparent.
    let profile_vm = VmConfig {
        profile_period: 0,
        ..cfg.profile_vm.clone()
    };
    let (hot, mut values) = profile(program.clone(), profile_vm, sites.branch_tested(), driver);
    // Step 3: state fields, and what a run watching only them would report.
    let candidates = sites.score(&program, &hot, &cfg.analysis);
    values.retain_fields(|f| candidates.iter().any(|c| c.field == f));
    let plan = plan_from_scores(&program, candidates, &values, &cfg.analysis);
    // Step 4: OLC analysis restricted to the mutable classes.
    let targets = plan.classes.iter().map(|c| c.class).collect();
    let olc = analyze_olc(&program, Some(&targets));
    Prepared {
        program,
        plan,
        olc,
        hot,
        program_fp: OnceLock::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dchm_bytecode::{CmpOp, MethodSig, ProgramBuilder, Ty};

    /// Logic-simulator-flavoured program: a Gate with a `kind` field and an
    /// eval() branching on it, hammered in a loop.
    fn gates() -> (Program, dchm_bytecode::ClassId) {
        let mut pb = ProgramBuilder::new();
        let gate = pb.class("Gate").build();
        let kind = pb.instance_field(gate, "kind", Ty::Int);
        let mut m = pb.ctor(gate, vec![Ty::Int]);
        let this = m.this();
        let k = m.param(0);
        m.put_field(this, kind, k);
        m.ret(None);
        m.build();
        let mut m = pb.method(gate, "eval", MethodSig::new(vec![Ty::Int, Ty::Int], Some(Ty::Int)));
        let this = m.this();
        let a = m.param(0);
        let b = m.param(1);
        let k = m.reg();
        m.get_field(k, this, kind);
        let l_or = m.label();
        let out = m.reg();
        m.br_icmp_imm(CmpOp::Ne, k, 0, l_or);
        m.ibin(dchm_bytecode::IBinOp::And, out, a, b);
        m.ret(Some(out));
        m.bind(l_or);
        m.ibin(dchm_bytecode::IBinOp::Or, out, a, b);
        m.ret(Some(out));
        m.build();

        let mut m = pb.static_method(gate, "main", MethodSig::void());
        let g0 = m.reg();
        let zero = m.imm(0);
        m.new_init(g0, gate, vec![zero]);
        let i = m.reg();
        m.const_i(i, 0);
        let head = m.label();
        let done = m.label();
        m.bind(head);
        let lim = m.imm(4000);
        m.br_icmp(CmpOp::Ge, i, lim, done);
        let one = m.imm(1);
        let v = m.reg();
        m.call_virtual(Some(v), g0, "eval", vec![i, one]);
        m.sink_int(v);
        m.iadd_imm(i, i, 1);
        m.jmp(head);
        m.bind(done);
        m.ret(None);
        let main = m.build();
        pb.set_entry(main);
        (pb.finish().unwrap(), gate)
    }

    #[test]
    fn pipeline_end_to_end_preserves_behaviour() {
        let (p, gate) = gates();
        let cfg = PipelineConfig::default();
        let prepared = prepare(p, &cfg, |vm| {
            vm.run_entry().unwrap();
        });
        assert!(prepared.plan.class(gate).is_some());

        let fast = VmConfig {
            sample_period: 10_000,
            opt1_samples: 2,
            opt2_samples: 4,
            ..Default::default()
        };

        let mut base = prepared.make_baseline_vm(fast.clone());
        base.run_entry().unwrap();
        let mut mutated = prepared.make_vm(fast);
        mutated.run_entry().unwrap();
        assert_eq!(base.state.output.checksum, mutated.state.output.checksum);
        assert!(mutated.stats().special_tibs > 0);
    }

    #[test]
    fn shared_cache_tenants_stay_bit_identical_and_second_skips_the_compiler() {
        let (p, _) = gates();
        let prepared = prepare(p, &PipelineConfig::default(), |vm| {
            vm.run_entry().unwrap();
        });
        let fast = VmConfig {
            sample_period: 10_000,
            opt1_samples: 2,
            opt2_samples: 4,
            ..Default::default()
        };
        let mut solo = prepared.make_vm(fast.clone());
        solo.run_entry().unwrap();

        let shared = Arc::new(SharedCodeCache::new(1024));
        let mut t1 = prepared.make_vm_shared(fast.clone(), &shared);
        t1.run_entry().unwrap();
        let mut t2 = prepared.make_vm_shared(fast, &shared);
        t2.run_entry().unwrap();

        // Sharing is invisible to every modeled observable.
        assert_eq!(solo.state.output.checksum, t1.state.output.checksum);
        assert_eq!(solo.cycles(), t1.cycles());
        assert_eq!(t1.cycles(), t2.cycles());
        assert_eq!(t1.stats(), t2.stats());
        // The second identical tenant never runs a compiler pipeline.
        assert!(t1.state.shared_misses > 0);
        assert!(t2.state.shared_hits > 0);
        assert_eq!(t2.state.compile_wall_nanos, 0);
        assert!(shared.stats().hits >= t2.state.shared_hits);
    }

    #[test]
    fn plan_survives_json_roundtrip_through_pipeline() {
        let (p, _) = gates();
        let prepared = prepare(p, &PipelineConfig::default(), |vm| {
            vm.run_entry().unwrap();
        });
        let json = prepared.plan.to_json().unwrap();
        let back = MutationPlan::from_json(&json).unwrap();
        assert_eq!(prepared.plan, back);
    }
}
