//! Hot-method profiling — the reproduction's Intel VTune.

use dchm_bytecode::{MethodId, Program};
use dchm_vm::{Vm, VmConfig};

/// Per-method hotness derived from a profiling run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct HotMethodReport {
    /// `hotness[m]` = fraction of application cycles spent in method `m`
    /// (self time), in `[0, 1]`.
    pub hotness: Vec<f64>,
    /// Raw self-cycles per method.
    pub cycles: Vec<u64>,
    /// Invocation counts per method.
    pub invocations: Vec<u64>,
    /// Total application cycles of the profiling run.
    pub total_cycles: u64,
}

impl HotMethodReport {
    /// Hotness of one method.
    #[cfg(test)]
    fn hotness_of(&self, m: MethodId) -> f64 {
        self.hotness.get(m.index()).copied().unwrap_or(0.0)
    }

    /// The `n` hottest methods, hottest first.
    pub fn top(&self, n: usize) -> Vec<MethodId> {
        let mut ids: Vec<MethodId> = (0..self.hotness.len()).map(MethodId::from_index).collect();
        ids.sort_by(|a, b| {
            self.hotness[b.index()]
                .partial_cmp(&self.hotness[a.index()])
                .unwrap()
                .then(a.cmp(b))
        });
        ids.truncate(n);
        ids
    }

    /// Extracts the report from a finished VM.
    pub fn from_vm(vm: &Vm) -> Self {
        let stats = vm.stats();
        let total: u64 = stats.per_method.iter().map(|p| p.cycles).sum();
        let cycles: Vec<u64> = stats.per_method.iter().map(|p| p.cycles).collect();
        let invocations: Vec<u64> = stats.per_method.iter().map(|p| p.invocations).collect();
        let hotness = cycles
            .iter()
            .map(|&c| {
                if total == 0 {
                    0.0
                } else {
                    c as f64 / total as f64
                }
            })
            .collect();
        HotMethodReport {
            hotness,
            cycles,
            invocations,
            total_cycles: total,
        }
    }
}

/// Runs `driver` on a fresh mutation-off VM and reports method hotness:
/// [`crate::profile`] watching no field.
///
/// The driver receives the VM and runs the workload (usually
/// `vm.run_entry()` or a sequence of `call_static`s).
pub fn profile_hot_methods(
    program: Program,
    config: VmConfig,
    driver: impl FnOnce(&mut Vm),
) -> HotMethodReport {
    crate::profile(program, config, [], driver).0
}

#[cfg(test)]
mod tests {
    use super::*;
    use dchm_bytecode::{CmpOp, MethodSig, ProgramBuilder, Ty};

    #[test]
    fn hot_loop_method_dominates() {
        let mut pb = ProgramBuilder::new();
        let c = pb.class("C").build();
        // cold(): one add. hot(): 10_000 adds.
        let mut m = pb.static_method(c, "cold", MethodSig::new(vec![], Some(Ty::Int)));
        let r = m.imm(1);
        m.ret(Some(r));
        let cold = m.build();
        let mut m = pb.static_method(c, "hot", MethodSig::new(vec![], Some(Ty::Int)));
        let i = m.reg();
        m.const_i(i, 0);
        let head = m.label();
        let done = m.label();
        m.bind(head);
        let lim = m.imm(10_000);
        m.br_icmp(CmpOp::Ge, i, lim, done);
        m.iadd_imm(i, i, 1);
        m.jmp(head);
        m.bind(done);
        m.ret(Some(i));
        let hot = m.build();
        let mut m = pb.static_method(c, "main", MethodSig::void());
        let a = m.reg();
        m.call_static(Some(a), cold, vec![]);
        m.call_static(Some(a), hot, vec![]);
        m.ret(None);
        let main = m.build();
        pb.set_entry(main);
        let p = pb.finish().unwrap();

        let report = profile_hot_methods(p, VmConfig::default(), |vm| {
            vm.run_entry().unwrap();
        });
        assert_eq!(report.top(1), vec![hot]);
        assert!(report.hotness_of(hot) > 0.9);
        assert!(report.hotness_of(cold) < 0.01);
        assert_eq!(report.invocations[hot.index()], 1);
        let sum: f64 = report.hotness.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9);
    }
}
