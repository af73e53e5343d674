//! Execution, compilation and space statistics — the raw material for every
//! figure in the paper's evaluation.

use dchm_bytecode::MethodId;
use serde::Serialize;
use std::fmt;

/// Per-method profile counters. Sampling information is keyed by *method*,
/// not compiled method, so general and special compiled code share hotness
/// (paper Sec. 3.2.3, last paragraph).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize)]
pub struct MethodProfile {
    /// Invocation count.
    pub invocations: u64,
    /// Adaptive-system samples attributed to this method.
    pub samples: u64,
    /// Cycles executed while this method's frame was on top.
    pub cycles: u64,
    /// Current optimization level of the valid general compiled method
    /// (`None` until first compiled).
    pub level: Option<u8>,
    /// Times recompiled (level promotions).
    pub recompiles: u32,
}

impl fmt::Display for MethodProfile {
    /// One stable line: `inv N  samples N  cycles N  level L  recompiles N`
    /// (`level -` until first compiled).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "inv {:<10} samples {:<6} cycles {:<12} level {:<5} recompiles {}",
            self.invocations,
            self.samples,
            self.cycles,
            match self.level {
                Some(l) => format!("opt{l}"),
                None => "-".to_string(),
            },
            self.recompiles
        )
    }
}

/// Whole-VM statistics.
#[derive(Clone, Debug, Default, PartialEq, Serialize)]
pub struct VmStats {
    /// Cycles spent executing application code.
    pub exec_cycles: u64,
    /// Cycles spent in the optimizing compiler (all levels, specials
    /// included).
    pub compile_cycles: u64,
    /// Cycles spent compiling *special* (mutation) versions only.
    pub special_compile_cycles: u64,
    /// Cycles spent in GC.
    pub gc_cycles: u64,
    /// Ops executed.
    pub ops_executed: u64,
    /// Samples taken by the adaptive system.
    pub samples_taken: u64,
    /// Number of general compiled methods ever produced, by level (0, 1, 2).
    pub compiles_by_level: [u64; 3],
    /// Bytes of general compiled code ever produced, by level.
    pub code_bytes_by_level: [u64; 3],
    /// Number of special (state-specialized) compiled methods produced.
    pub special_compiles: u64,
    /// Bytes of special compiled code produced.
    pub special_code_bytes: u64,
    /// Bytes of class TIBs (created at startup).
    pub class_tib_bytes: u64,
    /// Bytes of special TIBs (created by the mutation engine) — Figure 12.
    pub special_tib_bytes: u64,
    /// Number of special TIBs created.
    pub special_tibs: u64,
    /// Object-TIB-pointer flips performed by the mutation engine.
    pub tib_flips: u64,
    /// Code-pointer patches applied to TIBs/JTOC by the engine: writes that
    /// changed a slot or override (a write of the value already there is
    /// not made, so not counted).
    pub code_patches: u64,
    /// Interface call sites whose IMT search was memoized for the
    /// receiver's class (host-side; no effect on modeled cycles). Virtual,
    /// static and special sites have no cache and count nothing.
    pub ic_hits: u64,
    /// Interface call sites that searched the IMT (empty, stale-generation
    /// or other-class entries).
    pub ic_misses: u64,
    /// Global interface-cache invalidations: the fault injector's IC bumps,
    /// the one thing that empties the caches.
    pub ic_invalidations: u64,
    /// State guards executed in specialized code (passing or failing).
    pub guards_executed: u64,
    /// Guard failures observed (state mismatch or forced by the injector).
    pub guard_failures: u64,
    /// Frames deoptimized onto baseline code after a guard failure.
    pub deopts: u64,
    /// Baseline (deopt-target) code versions compiled on first deopt of a
    /// method.
    pub deopt_baseline_compiles: u64,
    /// Compilation requests answered by the compiled-code cache (the stored
    /// version was reinstalled; modeled billing unchanged, host pipeline
    /// work elided).
    pub code_cache_hits: u64,
    /// Compilation requests that ran the full pipeline and populated the
    /// cache (silent fault-injected recompiles are never counted).
    pub code_cache_misses: u64,
    /// Entries dropped by the cache's LRU capacity bound.
    pub code_cache_evictions: u64,
    /// Whole-cache flushes caused by compiler-environment changes (plan
    /// installs, guard-config or inlining-config changes).
    pub code_cache_invalidations: u64,
    /// Specials throttled by the resilience governor (deopt-storm backoff
    /// episodes started).
    pub specials_throttled: u64,
    /// Specials permanently blacklisted by the governor after repeated
    /// storm episodes.
    pub specials_blacklisted: u64,
    /// Injected or organic compilation failures observed (the compile was
    /// abandoned and tiered down; nothing was cached).
    pub compile_failures: u64,
    /// `(method, level)` pairs quarantined by the governor after repeated
    /// compile failures.
    pub compile_quarantines: u64,
    /// Per-method profiles, indexed by [`MethodId`].
    pub per_method: Vec<MethodProfile>,
}

impl VmStats {
    /// Creates stats sized for `num_methods`.
    pub fn new(num_methods: usize) -> Self {
        VmStats {
            per_method: vec![MethodProfile::default(); num_methods],
            ..Default::default()
        }
    }

    /// Total modeled cycles: execution + compilation + GC. This is the
    /// "wall clock" all throughput numbers divide by.
    pub fn total_cycles(&self) -> u64 {
        self.exec_cycles + self.compile_cycles + self.gc_cycles
    }

    /// Total bytes of opt-compiled code (general, all levels).
    pub fn general_code_bytes(&self) -> u64 {
        self.code_bytes_by_level.iter().sum()
    }

    /// Profile for one method.
    ///
    /// # Panics
    /// Panics if `m` is out of range.
    pub fn method(&self, m: MethodId) -> &MethodProfile {
        &self.per_method[m.index()]
    }

    /// Methods sorted by self-cycles, hottest first — the reproduction's
    /// stand-in for the paper's VTune hot-function list.
    pub fn hot_methods(&self) -> Vec<(MethodId, MethodProfile)> {
        let mut v: Vec<(MethodId, MethodProfile)> = self
            .per_method
            .iter()
            .enumerate()
            .map(|(i, p)| (MethodId::from_index(i), *p))
            .collect();
        v.sort_by(|a, b| b.1.cycles.cmp(&a.1.cycles).then(a.0.cmp(&b.0)));
        v
    }
}

impl fmt::Display for VmStats {
    /// A stable eight-row summary table (the bench bins' standard dump):
    /// cycles, ops, compiles, TIB/mutation work, inline caches, the
    /// compiled-code cache, guards, the resilience governor. Layout and
    /// field order are part of the output contract — scripts may grep it.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let total = self.total_cycles();
        let pct = |part: u64| {
            if total == 0 {
                0.0
            } else {
                part as f64 / total as f64 * 100.0
            }
        };
        writeln!(
            f,
            "cycles    total {}  exec {} ({:.1}%)  compile {} ({:.1}%)  gc {} ({:.1}%)",
            total,
            self.exec_cycles,
            pct(self.exec_cycles),
            self.compile_cycles,
            pct(self.compile_cycles),
            self.gc_cycles,
            pct(self.gc_cycles)
        )?;
        writeln!(
            f,
            "ops       executed {}  samples {}",
            self.ops_executed, self.samples_taken
        )?;
        writeln!(
            f,
            "compiles  opt0 {} ({} B)  opt1 {} ({} B)  opt2 {} ({} B)  special {} ({} B)",
            self.compiles_by_level[0],
            self.code_bytes_by_level[0],
            self.compiles_by_level[1],
            self.code_bytes_by_level[1],
            self.compiles_by_level[2],
            self.code_bytes_by_level[2],
            self.special_compiles,
            self.special_code_bytes
        )?;
        writeln!(
            f,
            "tibs      class {} B  special {} ({} B)  flips {}  code patches {}",
            self.class_tib_bytes,
            self.special_tibs,
            self.special_tib_bytes,
            self.tib_flips,
            self.code_patches
        )?;
        writeln!(
            f,
            "icache    hits {}  misses {}  invalidations {}",
            self.ic_hits, self.ic_misses, self.ic_invalidations
        )?;
        writeln!(
            f,
            "codecache hits {}  misses {}  evictions {}  invalidations {}",
            self.code_cache_hits,
            self.code_cache_misses,
            self.code_cache_evictions,
            self.code_cache_invalidations
        )?;
        writeln!(
            f,
            "guards    executed {}  failed {}  deopts {}  baseline compiles {}",
            self.guards_executed,
            self.guard_failures,
            self.deopts,
            self.deopt_baseline_compiles
        )?;
        write!(
            f,
            "governor  throttled {}  blacklisted {}  compile failures {}  quarantines {}",
            self.specials_throttled,
            self.specials_blacklisted,
            self.compile_failures,
            self.compile_quarantines
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_add_up() {
        let mut s = VmStats::new(2);
        s.exec_cycles = 10;
        s.compile_cycles = 5;
        s.gc_cycles = 1;
        assert_eq!(s.total_cycles(), 16);
        s.code_bytes_by_level = [100, 200, 300];
        assert_eq!(s.general_code_bytes(), 600);
    }

    #[test]
    fn hot_methods_sorted_desc() {
        let mut s = VmStats::new(3);
        s.per_method[0].cycles = 5;
        s.per_method[1].cycles = 50;
        s.per_method[2].cycles = 10;
        let hot = s.hot_methods();
        assert_eq!(hot[0].0, MethodId(1));
        assert_eq!(hot[1].0, MethodId(2));
        assert_eq!(hot[2].0, MethodId(0));
    }

    #[test]
    fn display_is_a_stable_table() {
        let mut s = VmStats::new(1);
        s.exec_cycles = 75;
        s.compile_cycles = 25;
        s.ops_executed = 10;
        s.compiles_by_level = [2, 1, 0];
        s.code_bytes_by_level = [64, 32, 0];
        s.tib_flips = 3;
        let text = s.to_string();
        assert!(text.contains("cycles    total 100  exec 75 (75.0%)  compile 25 (25.0%)"));
        assert!(text.contains("ops       executed 10  samples 0"));
        assert!(text.contains("compiles  opt0 2 (64 B)  opt1 1 (32 B)"));
        assert!(text.contains("flips 3"));
        assert!(text.contains("codecache hits 0  misses 0  evictions 0  invalidations 0"));
        assert!(text.contains("guards    executed 0"));
        assert!(text.contains("governor  throttled 0  blacklisted 0  compile failures 0  quarantines 0"));
        assert_eq!(text.lines().count(), 8);

        let p = MethodProfile { invocations: 4, level: Some(2), ..Default::default() };
        let line = p.to_string();
        assert!(line.contains("inv 4"));
        assert!(line.contains("level opt2"));
        assert!(MethodProfile::default().to_string().contains("level -"));
    }

    #[test]
    fn stats_serialize_to_json() {
        let mut s = VmStats::new(2);
        s.exec_cycles = 5;
        s.compiles_by_level = [1, 2, 3];
        s.per_method[1].invocations = 9;
        s.per_method[1].level = Some(1);
        let json = serde_json::to_string(&s).unwrap();
        assert!(json.contains("\"exec_cycles\":5"));
        assert!(json.contains("\"compiles_by_level\":[1,2,3]"));
        assert!(json.contains("\"invocations\":9"));
        // `Option<u8>` levels render as null / the number.
        assert!(json.contains("\"level\":null"));
        assert!(json.contains("\"level\":1"));
    }
}
