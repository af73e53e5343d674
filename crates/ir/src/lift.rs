//! Lifting linear bytecode into the CFG IR, and the [`LiftCache`] that
//! memoizes the lifted (instrumented) baseline form per method so every
//! specialization of a method starts from one shared lift instead of
//! re-running the frontend.

use crate::func::{Block, BlockId, Function, Term};
use dchm_bytecode::Instr;
use std::collections::HashMap;
use std::sync::Arc;

/// Lifts a bytecode body into a [`Function`].
///
/// Block leaders are: instruction 0, every branch target, and every
/// instruction following a branch/jump. The mapping is purely structural —
/// no optimization happens here, so the baseline tier executes exactly the
/// frontend's code.
///
/// # Panics
/// Panics on malformed code (labels out of range, missing terminator);
/// verified programs never trigger this.
pub fn lift(code: &[Instr], num_regs: u16, arg_count: u16) -> Function {
    assert!(!code.is_empty(), "cannot lift empty code");

    // 1. Find leaders.
    let mut is_leader = vec![false; code.len()];
    is_leader[0] = true;
    for (i, instr) in code.iter().enumerate() {
        match instr {
            Instr::Jmp(t) => {
                is_leader[t.index()] = true;
                if i + 1 < code.len() {
                    is_leader[i + 1] = true;
                }
            }
            Instr::BrIf { target, .. } => {
                is_leader[target.index()] = true;
                if i + 1 < code.len() {
                    is_leader[i + 1] = true;
                }
            }
            Instr::Ret(_) => {
                if i + 1 < code.len() {
                    is_leader[i + 1] = true;
                }
            }
            Instr::Op(_) => {}
        }
    }

    // 2. Assign block ids to leaders in instruction order.
    let mut block_of: HashMap<usize, BlockId> = HashMap::new();
    let mut leaders: Vec<usize> = Vec::new();
    for (i, &l) in is_leader.iter().enumerate() {
        if l {
            block_of.insert(i, BlockId::from_index(leaders.len()));
            leaders.push(i);
        }
    }

    // 3. Emit blocks.
    let mut blocks = Vec::with_capacity(leaders.len());
    for (bi, &start) in leaders.iter().enumerate() {
        let end = leaders.get(bi + 1).copied().unwrap_or(code.len());
        let mut ops = Vec::new();
        let mut term: Option<Term> = None;
        for (i, instr) in code[start..end].iter().enumerate() {
            let at = start + i;
            match instr {
                Instr::Op(op) => ops.push(op.clone()),
                Instr::Jmp(t) => {
                    term = Some(Term::Jmp(block_of[&t.index()]));
                    debug_assert_eq!(at + 1, end);
                }
                Instr::BrIf { cond, target } => {
                    let fall = at + 1;
                    term = Some(Term::Br {
                        cond: *cond,
                        t: block_of[&target.index()],
                        f: block_of[&fall],
                    });
                    debug_assert_eq!(at + 1, end);
                }
                Instr::Ret(v) => {
                    term = Some(Term::Ret(*v));
                    debug_assert_eq!(at + 1, end);
                }
            }
        }
        // A block that ends because the next instruction is a leader (pure
        // fallthrough) jumps to that leader.
        let term = term.unwrap_or_else(|| Term::Jmp(block_of[&end]));
        blocks.push(Block { ops, term });
    }

    let f = Function {
        blocks,
        num_regs,
        arg_count,
    };
    debug_assert!(f.validate().is_ok(), "lift produced invalid IR");
    f
}

/// Memoizes lifted baseline IR per method, hash-consing structurally equal
/// functions so all users share one allocation.
///
/// The cache is keyed by raw method index and scoped to one *patch
/// configuration*: the caller passes a fingerprint of whatever
/// instrumentation it applies after lifting (patch spec, hints), and any
/// change to that fingerprint flushes the cache — the memoized functions
/// would no longer match what a fresh lift-plus-instrument would produce.
///
/// Entries are `Arc<Function>` so a compilation pipeline can clone a handle
/// and optimize a private copy while the baseline stays immutable. The
/// cache is per VM: fleet tenants share finished artifacts, not lifts.
#[derive(Debug, Default)]
pub struct LiftCache {
    by_method: HashMap<u32, Arc<Function>>,
    by_fingerprint: HashMap<u64, Vec<Arc<Function>>>,
    env_fp: Option<u64>,
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to run the build closure.
    pub misses: u64,
    /// Freshly built functions replaced by an existing structurally equal
    /// one (hash-consing successes across methods).
    pub consed: u64,
    /// Full flushes caused by an environment-fingerprint change.
    pub flushes: u64,
}

impl LiftCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of memoized methods.
    pub fn len(&self) -> usize {
        self.by_method.len()
    }

    /// True when nothing is memoized.
    pub fn is_empty(&self) -> bool {
        self.by_method.is_empty()
    }

    /// Drops every entry (counters survive).
    pub fn flush(&mut self) {
        self.by_method.clear();
        self.by_fingerprint.clear();
    }

    /// Returns the memoized baseline for `method`, building it with `build`
    /// on a miss. `env_fp` fingerprints the instrumentation environment the
    /// build closure bakes in; when it differs from the previous call's the
    /// whole cache is flushed first.
    ///
    /// A freshly built function is hash-consed: if a structurally equal
    /// function is already cached (for any method), that allocation is
    /// reused and the new one dropped.
    pub fn get_or_lift(
        &mut self,
        method: u32,
        env_fp: u64,
        build: impl FnOnce() -> Function,
    ) -> Arc<Function> {
        if self.env_fp != Some(env_fp) {
            if self.env_fp.is_some() && !self.by_method.is_empty() {
                self.flushes += 1;
            }
            self.flush();
            self.env_fp = Some(env_fp);
        }
        if let Some(f) = self.by_method.get(&method) {
            self.hits += 1;
            return Arc::clone(f);
        }
        self.misses += 1;
        let built = build();
        let bucket = self.by_fingerprint.entry(built.fingerprint()).or_default();
        let shared = match bucket.iter().find(|c| ***c == built) {
            Some(existing) => {
                self.consed += 1;
                Arc::clone(existing)
            }
            None => {
                let f = Arc::new(built);
                bucket.push(Arc::clone(&f));
                f
            }
        };
        self.by_method.insert(method, Arc::clone(&shared));
        shared
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::func::Term;
    use dchm_bytecode::{CmpOp, MethodSig, ProgramBuilder, Ty};

    fn body(build: impl FnOnce(&mut dchm_bytecode::MethodBuilder<'_>)) -> (Vec<Instr>, u16) {
        let mut pb = ProgramBuilder::new();
        let c = pb.class("C").build();
        let mut m = pb.static_method(c, "f", MethodSig::new(vec![Ty::Int], Some(Ty::Int)));
        build(&mut m);
        let mid = m.build();
        let p = pb.finish().unwrap();
        (p.method(mid).code.clone(), p.method(mid).num_regs)
    }

    #[test]
    fn straight_line_is_one_block() {
        let (code, nregs) = body(|m| {
            let r = m.reg();
            m.const_i(r, 1);
            m.ret(Some(r));
        });
        let f = lift(&code, nregs, 1);
        assert_eq!(f.blocks.len(), 1);
        assert_eq!(f.blocks[0].ops.len(), 1);
        assert!(matches!(f.blocks[0].term, Term::Ret(Some(_))));
    }

    #[test]
    fn loop_produces_back_edge() {
        let (code, nregs) = body(|m| {
            let n = m.param(0);
            let i = m.reg();
            m.const_i(i, 0);
            let head = m.label();
            let done = m.label();
            m.bind(head);
            m.br_icmp(CmpOp::Ge, i, n, done);
            m.iadd_imm(i, i, 1);
            m.jmp(head);
            m.bind(done);
            m.ret(Some(i));
        });
        let f = lift(&code, nregs, 1);
        assert!(f.validate().is_ok());
        // Some block jumps backwards to the loop head.
        let mut has_back_edge = false;
        for (i, b) in f.blocks.iter().enumerate() {
            for s in b.term.successors() {
                if s.index() <= i {
                    has_back_edge = true;
                }
            }
        }
        assert!(has_back_edge);
        // Exactly one return.
        let rets = f
            .blocks
            .iter()
            .filter(|b| matches!(b.term, Term::Ret(_)))
            .count();
        assert_eq!(rets, 1);
    }

    #[test]
    fn fallthrough_block_gets_jmp() {
        // br_if makes the following instr a leader; the branch block's false
        // edge must point at it.
        let (code, nregs) = body(|m| {
            let n = m.param(0);
            let skip = m.label();
            m.br_icmp_imm(CmpOp::Gt, n, 10, skip);
            m.iadd_imm(n, n, 1);
            m.bind(skip);
            m.ret(Some(n));
        });
        let f = lift(&code, nregs, 1);
        assert!(f.validate().is_ok());
        let entry = &f.blocks[0];
        match entry.term {
            Term::Br { t, f: fb, .. } => assert_ne!(t, fb),
            ref other => panic!("expected Br, got {other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "empty code")]
    fn empty_code_panics() {
        lift(&[], 0, 0);
    }

    #[test]
    fn lift_cache_memoizes_per_method() {
        let (code, nregs) = body(|m| {
            let r = m.reg();
            m.const_i(r, 1);
            m.ret(Some(r));
        });
        let mut cache = LiftCache::new();
        let mut builds = 0;
        let a = cache.get_or_lift(0, 7, || {
            builds += 1;
            lift(&code, nregs, 1)
        });
        let b = cache.get_or_lift(0, 7, || {
            builds += 1;
            lift(&code, nregs, 1)
        });
        assert_eq!(builds, 1, "second lookup must be a hit");
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!((cache.hits, cache.misses), (1, 1));
    }

    #[test]
    fn lift_cache_hash_conses_across_methods() {
        let (code, nregs) = body(|m| {
            let r = m.reg();
            m.const_i(r, 1);
            m.ret(Some(r));
        });
        let mut cache = LiftCache::new();
        let a = cache.get_or_lift(0, 7, || lift(&code, nregs, 1));
        // A different method with a structurally identical body shares the
        // same allocation.
        let b = cache.get_or_lift(1, 7, || lift(&code, nregs, 1));
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(cache.consed, 1);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn lift_cache_flushes_on_env_change() {
        let (code, nregs) = body(|m| {
            let r = m.reg();
            m.const_i(r, 1);
            m.ret(Some(r));
        });
        let mut cache = LiftCache::new();
        let a = cache.get_or_lift(0, 7, || lift(&code, nregs, 1));
        // New environment fingerprint: previous entries are invalid.
        let b = cache.get_or_lift(0, 8, || lift(&code, nregs, 1));
        assert!(!Arc::ptr_eq(&a, &b), "env change must rebuild");
        assert_eq!(cache.flushes, 1);
        assert_eq!(cache.misses, 2);
        assert_eq!(cache.len(), 1);
    }
}
