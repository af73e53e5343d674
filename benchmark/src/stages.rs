//! The whole path of one program, from assembler text to a finished run:
//! `assemble → verify → plan → attach → run`, each stage a call into a
//! public function of the measured program, bracketed by the recorder.
//!
//! With the recorder off the plan stage is the one call a user makes
//! (`core::pipeline::prepare`); with it on, the stage functions `prepare`
//! wraps are called one by one so each gets a span, and [`check_staged_plan`]
//! asserts the result equals `prepare`'s.

use crate::expected::Entry;
use crate::metrics::Counts;
use crate::programs::{PlanSource, Subject};
use crate::span::Recorder;
use dchm_bytecode::{assemble, print_asm, verify_program, Program};
use dchm_core::pipeline::{prepare, PipelineConfig};
use dchm_core::{
    analyze_olc, build_plan, find_state_fields, synthesize_plan, AnalysisConfig, MutationEngine,
    MutationPlan, OlcReport,
};
use dchm_profile::{profile_field_values, profile_hot_methods};
use dchm_vm::{FaultInjector, Vm, VmConfig, VmStats};
use dchm_workloads::Workload;
use std::cell::RefCell;
use std::time::Instant;

/// Name of the span that brackets one whole path.
pub const WHOLE_PATH: &str = "whole_path";

/// Wall nanoseconds of each stage of one whole path.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StageNs {
    /// `bytecode::assemble`.
    pub assemble: u64,
    /// `bytecode::verify_program`.
    pub verify: u64,
    /// Producing the mutation plan (profiling pipeline or synthesis).
    pub plan: u64,
    /// `Vm::new` + `MutationEngine::attach`.
    pub attach: u64,
    /// The measured run.
    pub run: u64,
    /// First stage to last, including the gaps between stages.
    pub whole: u64,
}

/// What one whole path produced.
pub struct Outcome {
    /// Stage timings.
    pub stages: StageNs,
    /// The finished VM; `None` when the path failed before a run.
    pub vm: Option<Vm>,
    /// The plan the run used.
    pub plan: MutationPlan,
    /// The object-lifetime-constant report the run used.
    pub olc: OlcReport,
    /// Why the path failed (assembly error, trap, …), if it did.
    pub error: Option<String>,
}

impl Outcome {
    fn failed(stages: StageNs, error: String) -> Self {
        Outcome {
            stages,
            vm: None,
            plan: empty_plan(),
            olc: OlcReport::default(),
            error: Some(error),
        }
    }

    /// The fingerprint compared with `expected.json`.
    pub fn entry(&self) -> Option<Entry> {
        self.vm.as_ref().map(|vm| Entry {
            checksum: vm.state.output.checksum,
            ops: vm.stats().ops_executed,
            clock: vm.cycles(),
        })
    }
}

fn empty_plan() -> MutationPlan {
    MutationPlan {
        classes: Vec::new(),
        mutation_level: 2,
        k: 0,
        emit_guards: true,
    }
}

/// Runs `workload` on `vm`, turning a trap into a message.
fn drive(workload: &Workload, vm: &mut Vm) -> Result<(), String> {
    workload.run(vm).map_err(|e| format!("trapped: {e}"))
}

/// The profiling pipeline with one span per stage function.
fn staged_prepare(
    program: &Program,
    profile_vm: &VmConfig,
    driver: impl Fn(&mut Vm),
    rec: &mut Recorder,
) -> (MutationPlan, OlcReport) {
    let analysis = AnalysisConfig::default();
    let o = rec.open("profile.hot_methods");
    let hot = profile_hot_methods(program.clone(), profile_vm.clone(), &driver);
    rec.close(o);
    let o = rec.open("core.analysis.find_state_fields");
    let candidates = find_state_fields(program, &hot, &analysis);
    rec.close(o);
    let o = rec.open("profile.field_values");
    let values = profile_field_values(
        program.clone(),
        profile_vm.clone(),
        candidates.iter().map(|c| c.field),
        &driver,
    );
    rec.close(o);
    let o = rec.open("core.analysis.build_plan");
    let plan = build_plan(program, &hot, &values, &analysis);
    rec.close(o);
    let o = rec.open("core.olc.analyze");
    let targets = plan.classes.iter().map(|c| c.class).collect();
    let olc = analyze_olc(program, Some(&targets));
    rec.close(o);
    (plan, olc)
}

/// One whole path of `s`. Never panics on a failing program: the failure
/// is returned and counted by the caller.
pub fn whole_path(s: &Subject, rec: &mut Recorder) -> Outcome {
    let mut st = StageNs::default();
    let whole = rec.open(WHOLE_PATH);

    let o = rec.open("bytecode.assemble");
    let assembled = assemble(&s.text);
    st.assemble = rec.close(o);
    let program = match assembled {
        Ok(p) => p,
        Err(e) => {
            st.whole = rec.close(whole);
            return Outcome::failed(st, format!("assemble: {e}"));
        }
    };

    let o = rec.open("bytecode.verify");
    let verified = verify_program(&program);
    st.verify = rec.close(o);
    if let Err(e) = verified {
        st.whole = rec.close(whole);
        return Outcome::failed(st, format!("verify: {e}"));
    }

    let workload = Workload {
        program: program.clone(),
        ..s.workload.clone()
    };
    let profile_trap: RefCell<Option<String>> = RefCell::new(None);
    let driver = |vm: &mut Vm| {
        if let Err(e) = drive(&workload, vm) {
            *profile_trap.borrow_mut() = Some(format!("profiling run {e}"));
        }
    };
    let plan_start = Instant::now();
    let (plan, olc) = match &s.plan {
        PlanSource::Profile if rec.is_on() => staged_prepare(&program, &s.config, driver, rec),
        PlanSource::Profile => {
            let cfg = PipelineConfig {
                profile_vm: s.config.clone(),
                ..Default::default()
            };
            let prepared = prepare(program.clone(), &cfg, driver);
            (prepared.plan, prepared.olc)
        }
        PlanSource::Synth => {
            let o = rec.open("core.synth.plan");
            let plan = synthesize_plan(&program, &dchm_fuzz::synth_config());
            rec.close(o);
            (plan, OlcReport::default())
        }
        PlanSource::Given(plan, olc) => (plan.clone(), olc.clone()),
    };
    st.plan = plan_start.elapsed().as_nanos() as u64;
    if let Some(e) = profile_trap.into_inner() {
        st.whole = rec.close(whole);
        return Outcome::failed(st, e);
    }

    let o = rec.open("core.engine.attach");
    let mut vm = MutationEngine::new(plan.clone(), olc.clone()).attach(program, s.config.clone());
    if let Some(f) = s.fault {
        vm.state.injector = Some(FaultInjector::new(f));
    }
    if s.vm_tracing {
        vm.enable_tracing(64 * 1024);
    }
    st.attach = rec.close(o);

    let o = rec.open("vm.run");
    let ran = drive(&workload, &mut vm);
    st.run = rec.close(o);
    st.whole = rec.close(whole);

    Outcome {
        stages: st,
        vm: Some(vm),
        plan,
        olc,
        error: ran.err(),
    }
}

/// The traced pass's cross-check: the plan assembled stage by stage must
/// equal what `core::pipeline::prepare` returns for the same program.
///
/// # Errors
/// Says which program's plans differ.
pub fn check_staged_plan(s: &Subject, staged: &MutationPlan) -> Result<(), String> {
    if !matches!(s.plan, PlanSource::Profile) {
        return Ok(());
    }
    let program = assemble(&s.text).map_err(|e| format!("{}: assemble: {e}", s.name))?;
    let workload = Workload {
        program: program.clone(),
        ..s.workload.clone()
    };
    let cfg = PipelineConfig {
        profile_vm: s.config.clone(),
        ..Default::default()
    };
    let reference = prepare(program, &cfg, |vm| {
        let _ = workload.run(vm);
    });
    if &reference.plan == staged {
        Ok(())
    } else {
        Err(format!(
            "{}: staged plan differs from pipeline::prepare's",
            s.name
        ))
    }
}

/// `print_asm(assemble(text)) == text`: the text form is a full
/// persistence format, so the timed path starts from the whole program.
///
/// # Errors
/// Says which program does not round-trip.
pub fn check_text_roundtrip(s: &Subject) -> Result<(), String> {
    let program = assemble(&s.text).map_err(|e| format!("{}: assemble: {e}", s.name))?;
    if print_asm(&program) == s.text {
        Ok(())
    } else {
        Err(format!("{}: print_asm(assemble(text)) != text", s.name))
    }
}

/// The same program with mutation off (no plan, no patch points): the
/// baseline the mutated run's output must equal.
pub fn mutation_off_run(s: &Subject) -> Result<(Vm, u64), String> {
    let program = assemble(&s.text).map_err(|e| format!("{}: assemble: {e}", s.name))?;
    let workload = Workload {
        program: program.clone(),
        ..s.workload.clone()
    };
    let mut vm = Vm::new(program, s.config.clone());
    let mut rec = Recorder::off();
    let o = rec.open("vm.run");
    let ran = drive(&workload, &mut vm);
    let ns = rec.close(o);
    ran.map(|()| (vm, ns))
        .map_err(|e| format!("{}: mutation-off run {e}", s.name))
}

/// The exact counts `VmStats` and the modeled clock carry: what a fleet
/// tenant's report still holds after its VM is gone.
pub fn stats_counts(s: &VmStats, clock: u64) -> Counts {
    vec![
        ("modeled.clock_cycles", clock),
        ("modeled.ops", s.ops_executed),
        ("vm.interp.ic_hits", s.ic_hits),
        ("vm.interp.ic_misses", s.ic_misses),
        ("vm.interp.ic_invalidations", s.ic_invalidations),
        ("vm.interp.samples_taken", s.samples_taken),
        ("vm.compiler.compiles_l0", s.compiles_by_level[0]),
        ("vm.compiler.compiles_l1", s.compiles_by_level[1]),
        ("vm.compiler.compiles_l2", s.compiles_by_level[2]),
        ("vm.compiler.special_compiles", s.special_compiles),
        (
            "vm.compiler.code_bytes",
            s.general_code_bytes() + s.special_code_bytes,
        ),
        ("vm.codecache.hits", s.code_cache_hits),
        ("vm.codecache.misses", s.code_cache_misses),
        ("vm.tib.flips", s.tib_flips),
        ("vm.tib.special_tib_bytes", s.special_tib_bytes),
        ("core.engine.special_tibs", s.special_tibs),
        ("vm.deopt.count", s.deopts),
        ("vm.deopt.guards_executed", s.guards_executed),
        ("vm.deopt.guard_failures", s.guard_failures),
        ("vm.deopt.baseline_compiles", s.deopt_baseline_compiles),
        ("vm.governor.throttled", s.specials_throttled),
        ("vm.governor.blacklisted", s.specials_blacklisted),
        ("vm.governor.quarantines", s.compile_quarantines),
    ]
}

/// The exact counts of a finished run: every one must repeat bit-for-bit.
pub fn exact_counts(vm: &Vm) -> Counts {
    let h = &vm.state.heap.stats;
    let lc = &vm.state.lift_cache;
    let mut counts = stats_counts(vm.stats(), vm.cycles());
    counts.extend([
        ("vm.codecache.lift_hits", lc.hits),
        ("vm.codecache.lift_misses", lc.misses),
        ("vm.heap.gc_count", h.gc_count),
        ("vm.heap.bytes_allocated", h.bytes_allocated),
    ]);
    counts
}
