//! The compiled-code caches: the per-VM, state-keyed [`CodeCache`] and the
//! fleet-wide [`SharedCodeCache`] of finished artifacts. A compile request
//! that passes the governor/injector gate probes them in that order, then
//! runs the pipeline on the VM's memoized baseline lift
//! ([`dchm_ir::LiftCache`]), and ends in one store-and-bill tail
//! (`VmState::compile_admitted`).
//!
//! Compilation is deterministic: the same `(method, level, canonicalized
//! state-binding)` request against the same compiler environment (patch
//! spec, hints, inlining configuration) always produces the same code and
//! the same modeled compile cost. The cache exploits that to elide the
//! *host-side* pipeline work of redundant requests — flip-flopping hot
//! states, fault-injected silent recompiles, plan-reload churn — while
//! leaving every modeled observable untouched: a hit re-bills the stored
//! compile cycles (identical to what recompilation would bill) and reuses
//! the already-stored [`CompiledId`], so clock, output and per-method
//! profiles are bit-identical with the cache on or off.
//!
//! Invalidation is explicit and coarse: every probe carries a fingerprint
//! of the compiler environment ([`crate::compiler::CompileEnv::fingerprint`]);
//! when it changes — a mutation plan was (re)installed, guard emission was
//! toggled, inlining parameters moved — the whole cache is flushed, because
//! any entry might have been produced under assumptions that no longer
//! hold. Capacity is bounded with LRU eviction on a deterministic access
//! tick (never wall time), so cache behaviour is reproducible run to run.

use crate::compiler::Fnv;
use crate::state::CompiledId;
use dchm_bytecode::Program;
use dchm_ir::passes::Bindings;
use std::collections::HashMap;

/// Canonicalized fingerprint of a specialization request's state bindings.
///
/// Instance and static bindings are folded in sorted field order, values
/// with the same equivalence as `Value::key_eq` (doubles by bit pattern).
/// `None` (general code) and `Some` of empty bindings hash differently,
/// mirroring the compiler's distinction between the two.
pub fn binding_fingerprint(bindings: Option<&Bindings>) -> u64 {
    let mut h = Fnv::new();
    match bindings {
        None => h.mix_u64(0),
        Some(b) => {
            h.mix_u64(1);
            let mut inst: Vec<_> = b.instance.iter().map(|(f, v)| (*f, *v)).collect();
            inst.sort_by_key(|(f, _)| *f);
            for (f, v) in inst {
                h.mix_u64(2);
                h.mix_u64(f.index() as u64);
                h.mix_value(&v);
            }
            let mut stat: Vec<_> = b.statics.iter().map(|(f, v)| (*f, *v)).collect();
            stat.sort_by_key(|(f, _)| *f);
            for (f, v) in stat {
                h.mix_u64(3);
                h.mix_u64(f.index() as u64);
                h.mix_value(&v);
            }
        }
    }
    h.finish()
}

/// FNV fingerprint of a program's full `Debug` text: the program half of a
/// [`SharedCodeCache`] scope key. It formats the whole program, so callers
/// compute it once per program and hand it to every tenant's
/// [`crate::VmState::attach_shared_cache`].
pub fn program_fingerprint(program: &Program) -> u64 {
    let mut h = Fnv::new();
    for chunk in format!("{program:?}").as_bytes().chunks(8) {
        let mut v = [0u8; 8];
        v[..chunk.len()].copy_from_slice(chunk);
        h.mix_u64(u64::from_le_bytes(v));
    }
    h.finish()
}

#[derive(Clone, Copy, Debug)]
struct Entry {
    cid: CompiledId,
    compile_cycles: u64,
    last_used: u64,
}

/// Result of a cache probe.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Probe {
    /// The cache is disabled (capacity 0); compile without touching it.
    Disabled,
    /// A previously produced version can be reinstalled.
    Hit {
        /// The cached code.
        cid: CompiledId,
        /// The modeled cost the original compilation billed; a hit bills
        /// exactly this again (determinism: identical to recomputation).
        compile_cycles: u64,
    },
    /// Nothing cached for this key; compile and [`CodeCache::insert`].
    Miss {
        /// True when this probe flushed the cache because the compiler
        /// environment fingerprint changed.
        invalidated: bool,
    },
}

/// What [`CodeCache::insert`] evicted to stay within capacity.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Evicted {
    /// Method of the evicted version.
    pub method: u32,
    /// Level of the evicted version.
    pub level: u8,
    /// The evicted code id (the code itself is immortal; only the cache
    /// mapping is dropped).
    pub cid: CompiledId,
}

/// LRU cache of compilation results keyed by
/// `(method, level, binding fingerprint)` and scoped to one compiler
/// environment. See the module docs for the determinism contract.
#[derive(Debug, Default)]
pub struct CodeCache {
    map: HashMap<(u32, u8, u64), Entry>,
    capacity: usize,
    /// Deterministic access counter standing in for time in the LRU order.
    tick: u64,
    env_fp: Option<u64>,
}

impl CodeCache {
    /// A cache holding at most `capacity` entries; 0 disables caching.
    pub fn new(capacity: usize) -> Self {
        CodeCache {
            capacity,
            ..Default::default()
        }
    }

    /// True when caching is active.
    pub fn enabled(&self) -> bool {
        self.capacity > 0
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when no entries are cached.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Drops every entry.
    pub fn flush(&mut self) {
        self.map.clear();
    }

    /// Drops every entry for `(method, level)` regardless of binding
    /// fingerprint — the quarantine hook: once the governor quarantines a
    /// compile pair, versions cached before the failing environment change
    /// must not be served as stale hits. Returns how many entries dropped.
    pub fn invalidate_method(&mut self, method: u32, level: u8) -> usize {
        let before = self.map.len();
        self.map.retain(|&(m, l, _), _| m != method || l != level);
        before - self.map.len()
    }

    /// Flushes when `env_fp` differs from the environment the entries were
    /// produced under; returns true if a non-empty cache was dropped.
    fn sync_env(&mut self, env_fp: u64) -> bool {
        if self.env_fp == Some(env_fp) {
            return false;
        }
        let dropped = !self.map.is_empty();
        self.flush();
        self.env_fp = Some(env_fp);
        dropped
    }

    /// Looks up `(method, level, binding_fp)` under environment `env_fp`.
    /// A hit refreshes the entry's LRU position.
    pub fn probe(&mut self, method: u32, level: u8, binding_fp: u64, env_fp: u64) -> Probe {
        if !self.enabled() {
            return Probe::Disabled;
        }
        let invalidated = self.sync_env(env_fp);
        match self.map.get_mut(&(method, level, binding_fp)) {
            Some(e) => {
                e.last_used = self.tick;
                self.tick += 1;
                Probe::Hit {
                    cid: e.cid,
                    compile_cycles: e.compile_cycles,
                }
            }
            None => Probe::Miss { invalidated },
        }
    }

    /// Records a freshly compiled version. Evicts the least-recently-used
    /// entry when full (ties broken by smallest key, so eviction is fully
    /// deterministic). No-op when disabled.
    pub fn insert(
        &mut self,
        method: u32,
        level: u8,
        binding_fp: u64,
        env_fp: u64,
        cid: CompiledId,
        compile_cycles: u64,
    ) -> Option<Evicted> {
        if !self.enabled() {
            return None;
        }
        self.sync_env(env_fp);
        let mut evicted = None;
        if self.map.len() >= self.capacity && !self.map.contains_key(&(method, level, binding_fp))
        {
            let victim = self
                .map
                .iter()
                .min_by_key(|(k, e)| (e.last_used, **k))
                .map(|(k, e)| (*k, e.cid));
            if let Some((key, vcid)) = victim {
                self.map.remove(&key);
                evicted = Some(Evicted {
                    method: key.0,
                    level: key.1,
                    cid: vcid,
                });
            }
        }
        let e = Entry {
            cid,
            compile_cycles,
            last_used: self.tick,
        };
        self.tick += 1;
        self.map.insert((method, level, binding_fp), e);
        evicted
    }
}

// --------------------------------------------------------------------------
// Fleet-shared artifact cache
// --------------------------------------------------------------------------

/// One immutable compilation product in the form the fleet shares it:
/// everything a tenant VM needs to install the code locally, behind `Arc`s
/// so any number of tenants reference a single allocation. A hit hands out
/// clones of these handles — never indices into another VM's code table —
/// so eviction can only drop the *map entry*; every artifact a tenant has
/// already adopted (or holds mid-install) stays alive through its `Arc`s.
/// That is the structural fix for cross-tenant LRU churn: one tenant's
/// evictions can never invalidate another tenant's in-flight code.
///
/// `compile_cycles` is the modeled cost the original compilation billed;
/// each adopting shard re-bills it in full, so a shard's modeled clock is
/// bit-identical whether its compile was answered here or run locally.
#[derive(Clone, Debug)]
pub struct SharedArtifact {
    /// The executable form, deopt resume entries included — lowered once
    /// per artifact, not once per adopting tenant.
    pub lin: std::sync::Arc<crate::linear::LinearCode>,
    /// Modeled machine-code size in bytes.
    pub size_bytes: usize,
    /// Modeled cycles the compilation costs (re-billed per adopting shard).
    pub compile_cycles: u64,
    /// Deopt side table for guarded specialized versions.
    pub deopt: Option<std::sync::Arc<crate::compiler::DeoptInfo>>,
}

/// A point-in-time read of the shared cache's host-side counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SharedCacheStats {
    /// Probes answered with an artifact.
    pub hits: u64,
    /// Probes that fell through to a tenant's compiler.
    pub misses: u64,
    /// Artifacts published (first publisher per key wins).
    pub inserts: u64,
    /// Map entries dropped by the capacity bound.
    pub evictions: u64,
    /// Artifacts currently mapped.
    pub entries: usize,
}

#[derive(Debug)]
struct SharedEntry {
    artifact: SharedArtifact,
    /// Logical access tick; atomic so probes only need the read lock.
    last_used: std::sync::atomic::AtomicU64,
}

/// The fleet-wide, read-mostly compile-artifact cache shared by every shard.
///
/// Keys extend the local [`CodeCache`] key `(method, level, binding_fp)`
/// with a *scope* fingerprint folding the tenant's full program text and
/// its compiler-environment fingerprint. Compilation is a pure function of
/// exactly those inputs, so two tenants that agree on the scope would
/// produce bit-identical artifacts — sharing is safe across different
/// programs in one fleet because their scopes never collide.
///
/// Concurrency: probes take only a read lock (the LRU tick per entry is an
/// atomic), publishes take the write lock. Under racing publishers for one
/// key the first insert wins and later ones are dropped — harmless, both
/// racers hold bit-identical artifacts. Only finished artifacts are
/// shared: each tenant lifts its own baselines, because a shared lift only
/// ever saved the loser of such a race one lift of a few µs while it still
/// ran the whole pipeline. All counters are host-side only;
/// nothing here touches a modeled observable, a [`crate::stats::VmStats`]
/// field, or a trace ring, which is what keeps every shard's run
/// bit-identical to its solo twin.
#[derive(Debug)]
pub struct SharedCodeCache {
    artifacts: std::sync::RwLock<HashMap<(u64, u32, u8, u64), SharedEntry>>,
    capacity: usize,
    tick: std::sync::atomic::AtomicU64,
    hits: std::sync::atomic::AtomicU64,
    misses: std::sync::atomic::AtomicU64,
    inserts: std::sync::atomic::AtomicU64,
    evictions: std::sync::atomic::AtomicU64,
}

impl SharedCodeCache {
    /// A cache holding at most `capacity` artifacts (0 disables it).
    pub fn new(capacity: usize) -> Self {
        SharedCodeCache {
            artifacts: std::sync::RwLock::default(),
            capacity,
            tick: Default::default(),
            hits: Default::default(),
            misses: Default::default(),
            inserts: Default::default(),
            evictions: Default::default(),
        }
    }

    /// Folds a program fingerprint and a compiler-environment fingerprint
    /// into the scope key component.
    pub fn scope_of(program_fp: u64, env_fp: u64) -> u64 {
        let mut h = Fnv::new();
        h.mix_u64(program_fp);
        h.mix_u64(env_fp);
        h.finish()
    }

    /// Looks up the artifact for a compile request. Read lock only.
    pub fn probe(&self, scope: u64, method: u32, level: u8, binding_fp: u64) -> Option<SharedArtifact> {
        use std::sync::atomic::Ordering::Relaxed;
        if self.capacity == 0 {
            return None;
        }
        let artifacts = self.artifacts.read().expect("shared cache poisoned");
        match artifacts.get(&(scope, method, level, binding_fp)) {
            Some(e) => {
                e.last_used
                    .store(self.tick.fetch_add(1, Relaxed) + 1, Relaxed);
                self.hits.fetch_add(1, Relaxed);
                Some(e.artifact.clone())
            }
            None => {
                self.misses.fetch_add(1, Relaxed);
                None
            }
        }
    }

    /// Publishes a freshly compiled artifact. First publisher per key wins;
    /// at capacity the least-recently-used entry (ties broken on the
    /// smallest key, as in [`CodeCache`]) is dropped from the map — held
    /// `Arc`s keep it alive for everyone who already adopted it.
    pub fn insert(&self, scope: u64, method: u32, level: u8, binding_fp: u64, artifact: SharedArtifact) {
        use std::sync::atomic::Ordering::Relaxed;
        if self.capacity == 0 {
            return;
        }
        let mut artifacts = self.artifacts.write().expect("shared cache poisoned");
        let key = (scope, method, level, binding_fp);
        if artifacts.contains_key(&key) {
            return;
        }
        if artifacts.len() >= self.capacity {
            let victim = artifacts
                .iter()
                .min_by_key(|(k, e)| (e.last_used.load(Relaxed), **k))
                .map(|(k, _)| *k);
            if let Some(v) = victim {
                artifacts.remove(&v);
                self.evictions.fetch_add(1, Relaxed);
            }
        }
        artifacts.insert(
            key,
            SharedEntry {
                artifact,
                last_used: std::sync::atomic::AtomicU64::new(self.tick.fetch_add(1, Relaxed) + 1),
            },
        );
        self.inserts.fetch_add(1, Relaxed);
    }

    /// Snapshot of the host-side counters and sizes.
    pub fn stats(&self) -> SharedCacheStats {
        use std::sync::atomic::Ordering::Relaxed;
        SharedCacheStats {
            hits: self.hits.load(Relaxed),
            misses: self.misses.load(Relaxed),
            inserts: self.inserts.load(Relaxed),
            evictions: self.evictions.load(Relaxed),
            entries: self.artifacts.read().expect("shared cache poisoned").len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dchm_bytecode::{FieldId, Value};

    #[test]
    fn binding_fp_is_order_insensitive_and_nan_stable() {
        let a = Bindings {
            instance: [(FieldId(1), Value::Int(3)), (FieldId(2), Value::Double(f64::NAN))]
                .into_iter()
                .collect(),
            statics: [(FieldId(9), Value::Null)].into_iter().collect(),
        };
        let b = Bindings {
            instance: [(FieldId(2), Value::Double(f64::NAN)), (FieldId(1), Value::Int(3))]
                .into_iter()
                .collect(),
            statics: [(FieldId(9), Value::Null)].into_iter().collect(),
        };
        assert_eq!(
            binding_fingerprint(Some(&a)),
            binding_fingerprint(Some(&b))
        );
        assert_ne!(binding_fingerprint(Some(&a)), binding_fingerprint(None));
        assert_ne!(
            binding_fingerprint(Some(&Bindings::default())),
            binding_fingerprint(None),
            "empty bindings are not general code"
        );
    }

    #[test]
    fn probe_insert_roundtrip() {
        let mut c = CodeCache::new(4);
        assert_eq!(
            c.probe(1, 2, 77, 5),
            Probe::Miss { invalidated: false }
        );
        assert!(c.insert(1, 2, 77, 5, CompiledId(10), 1234).is_none());
        assert_eq!(
            c.probe(1, 2, 77, 5),
            Probe::Hit { cid: CompiledId(10), compile_cycles: 1234 }
        );
        // Different binding fingerprint: distinct key.
        assert_eq!(
            c.probe(1, 2, 78, 5),
            Probe::Miss { invalidated: false }
        );
    }

    #[test]
    fn env_change_flushes() {
        let mut c = CodeCache::new(4);
        c.insert(1, 2, 77, 5, CompiledId(10), 100);
        assert_eq!(c.len(), 1);
        assert_eq!(
            c.probe(1, 2, 77, 6),
            Probe::Miss { invalidated: true },
            "new env fingerprint must flush"
        );
        assert!(c.is_empty());
        // Returning to the previous fingerprint does NOT resurrect entries.
        assert_eq!(c.probe(1, 2, 77, 5), Probe::Miss { invalidated: false });
    }

    #[test]
    fn lru_evicts_least_recent_deterministically() {
        let mut c = CodeCache::new(2);
        c.insert(1, 0, 0, 9, CompiledId(1), 10);
        c.insert(2, 0, 0, 9, CompiledId(2), 20);
        // Touch entry 1 so entry 2 is the LRU victim.
        assert!(matches!(c.probe(1, 0, 0, 9), Probe::Hit { .. }));
        let ev = c.insert(3, 0, 0, 9, CompiledId(3), 30).expect("evicts");
        assert_eq!(ev, Evicted { method: 2, level: 0, cid: CompiledId(2) });
        assert_eq!(c.len(), 2);
        assert!(matches!(c.probe(1, 0, 0, 9), Probe::Hit { .. }));
        assert!(matches!(c.probe(3, 0, 0, 9), Probe::Hit { .. }));
        assert!(matches!(c.probe(2, 0, 0, 9), Probe::Miss { .. }));
    }

    #[test]
    fn reinserting_same_key_does_not_evict() {
        let mut c = CodeCache::new(1);
        c.insert(1, 0, 0, 9, CompiledId(1), 10);
        assert!(c.insert(1, 0, 0, 9, CompiledId(1), 10).is_none());
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn invalidate_method_drops_only_that_pair() {
        let mut c = CodeCache::new(8);
        c.insert(1, 2, 77, 5, CompiledId(10), 100);
        c.insert(1, 2, 78, 5, CompiledId(11), 100);
        c.insert(1, 1, 77, 5, CompiledId(12), 100);
        c.insert(2, 2, 77, 5, CompiledId(13), 100);
        assert_eq!(c.invalidate_method(1, 2), 2);
        assert_eq!(c.len(), 2);
        assert!(matches!(c.probe(1, 2, 77, 5), Probe::Miss { .. }));
        assert!(matches!(c.probe(1, 2, 78, 5), Probe::Miss { .. }));
        assert!(matches!(c.probe(1, 1, 77, 5), Probe::Hit { .. }));
        assert!(matches!(c.probe(2, 2, 77, 5), Probe::Hit { .. }));
        assert_eq!(c.invalidate_method(1, 2), 0);
    }

    #[test]
    fn disabled_cache_is_inert() {
        let mut c = CodeCache::new(0);
        assert_eq!(c.probe(1, 0, 0, 9), Probe::Disabled);
        assert!(c.insert(1, 0, 0, 9, CompiledId(1), 10).is_none());
        assert!(c.is_empty());
    }

    // ---------------------------------------------------------------- shared

    use std::sync::Arc;

    fn artifact(cycles: u64) -> SharedArtifact {
        let func = dchm_ir::Function {
            blocks: vec![],
            num_regs: 0,
            arg_count: 0,
        };
        let program = dchm_bytecode::ProgramBuilder::new().finish().unwrap();
        let lin = Arc::new(crate::linear::lower(&func, &program, &[]));
        SharedArtifact {
            lin,
            size_bytes: 16,
            compile_cycles: cycles,
            deopt: None,
        }
    }

    #[test]
    fn shared_probe_insert_roundtrip_counts() {
        let c = SharedCodeCache::new(8);
        assert!(c.probe(1, 2, 0, 9).is_none());
        c.insert(1, 2, 0, 9, artifact(123));
        let hit = c.probe(1, 2, 0, 9).expect("hit after insert");
        assert_eq!(hit.compile_cycles, 123);
        // A different scope never sees another tenant's artifact.
        assert!(c.probe(2, 2, 0, 9).is_none());
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.inserts, s.entries), (1, 2, 1, 1));
    }

    #[test]
    fn shared_first_publisher_wins() {
        let c = SharedCodeCache::new(8);
        c.insert(1, 2, 0, 9, artifact(100));
        c.insert(1, 2, 0, 9, artifact(200));
        assert_eq!(c.probe(1, 2, 0, 9).unwrap().compile_cycles, 100);
        assert_eq!(c.stats().inserts, 1);
    }

    #[test]
    fn shared_eviction_never_invalidates_adopted_artifacts() {
        // The stale-hit regression (mirrors the quarantine stale-hit test of
        // the governor suite, but for cross-tenant LRU churn): tenant A
        // adopts an artifact, tenant B's inserts churn it out of the map —
        // A's handle must stay fully usable because eviction only drops the
        // map entry, never the allocation.
        let c = SharedCodeCache::new(1);
        c.insert(1, 7, 2, 9, artifact(500));
        let adopted = c.probe(1, 7, 2, 9).expect("tenant A adopts");
        c.insert(1, 8, 2, 9, artifact(600)); // tenant B evicts A's entry
        assert!(c.probe(1, 7, 2, 9).is_none(), "entry churned out");
        assert_eq!(c.stats().evictions, 1);
        assert_eq!(adopted.compile_cycles, 500);
        assert!(adopted.lin.calls.is_empty());
        assert!(Arc::strong_count(&adopted.lin) >= 1);
    }

    #[test]
    fn shared_lru_evicts_least_recently_probed() {
        let c = SharedCodeCache::new(2);
        c.insert(1, 1, 0, 9, artifact(1));
        c.insert(1, 2, 0, 9, artifact(2));
        // Touch method 1 so method 2 is the LRU victim.
        assert!(c.probe(1, 1, 0, 9).is_some());
        c.insert(1, 3, 0, 9, artifact(3));
        assert!(c.probe(1, 1, 0, 9).is_some());
        assert!(c.probe(1, 2, 0, 9).is_none());
        assert!(c.probe(1, 3, 0, 9).is_some());
    }

    #[test]
    fn shared_disabled_is_inert() {
        let c = SharedCodeCache::new(0);
        c.insert(1, 2, 0, 9, artifact(1));
        assert!(c.probe(1, 2, 0, 9).is_none());
        let s = c.stats();
        assert_eq!((s.inserts, s.entries, s.hits, s.misses), (0, 0, 0, 0));
    }
}
