//! IR function, block and terminator types.

use crate::error::IrError;
use dchm_bytecode::{Op, Reg};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifies a basic block within one [`Function`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct BlockId(pub u32);

impl BlockId {
    /// The entry block of every function.
    pub const ENTRY: BlockId = BlockId(0);

    /// Raw index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// From raw index.
    ///
    /// # Panics
    /// Panics on `u32` overflow; use [`BlockId::try_from_index`] where the
    /// index is not already known to fit.
    #[inline]
    pub fn from_index(i: usize) -> Self {
        match Self::try_from_index(i) {
            Ok(id) => id,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible version of [`BlockId::from_index`]: reports `u32` overflow
    /// as a typed error instead of panicking.
    ///
    /// # Errors
    /// Returns [`IrError::BlockIdOverflow`] when `i` does not fit in `u32`.
    #[inline]
    pub fn try_from_index(i: usize) -> Result<Self, IrError> {
        u32::try_from(i)
            .map(BlockId)
            .map_err(|_| IrError::BlockIdOverflow { blocks: i })
    }
}

impl fmt::Debug for BlockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b{}", self.0)
    }
}

impl fmt::Display for BlockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b{}", self.0)
    }
}

/// A block terminator.
#[derive(Clone, PartialEq, Debug, Serialize, Deserialize)]
pub enum Term {
    /// Unconditional transfer.
    Jmp(BlockId),
    /// Two-way branch on an integer condition register.
    Br {
        /// Condition (0 = false).
        cond: Reg,
        /// Target when `cond != 0`.
        t: BlockId,
        /// Target when `cond == 0`.
        f: BlockId,
    },
    /// Function return with optional value.
    Ret(Option<Reg>),
    /// Unreachable filler produced when a pass proves a block dead but wants
    /// to keep ids stable; executing it is a VM bug.
    Unreachable,
}

impl Term {
    /// Successor blocks of this terminator.
    pub fn successors(&self) -> Vec<BlockId> {
        match *self {
            Term::Jmp(b) => vec![b],
            Term::Br { t, f, .. } => vec![t, f],
            Term::Ret(_) | Term::Unreachable => vec![],
        }
    }

    /// Calls `g` with a mutable ref to each successor id (for retargeting).
    pub fn map_successors(&mut self, mut g: impl FnMut(BlockId) -> BlockId) {
        match self {
            Term::Jmp(b) => *b = g(*b),
            Term::Br { t, f, .. } => {
                *t = g(*t);
                *f = g(*f);
            }
            Term::Ret(_) | Term::Unreachable => {}
        }
    }
}

/// A basic block: straight-line ops plus one terminator.
#[derive(Clone, PartialEq, Debug, Serialize, Deserialize)]
pub struct Block {
    /// The straight-line operations.
    pub ops: Vec<Op>,
    /// The terminator.
    pub term: Term,
}

impl Block {
    /// An empty block ending in `term`.
    pub fn new(term: Term) -> Self {
        Block {
            ops: Vec::new(),
            term,
        }
    }
}

/// An IR function: the unit of compilation and execution.
#[derive(Clone, PartialEq, Debug, Serialize, Deserialize)]
pub struct Function {
    /// Basic blocks; [`BlockId::ENTRY`] is the entry.
    pub blocks: Vec<Block>,
    /// Frame size in registers.
    pub num_regs: u16,
    /// Number of argument registers occupied on entry (receiver included).
    pub arg_count: u16,
}

impl Function {
    /// Creates a function with a single empty block returning void.
    pub fn new(num_regs: u16, arg_count: u16) -> Self {
        Function {
            blocks: vec![Block::new(Term::Ret(None))],
            num_regs,
            arg_count,
        }
    }

    /// Shared access to a block.
    ///
    /// # Panics
    /// Panics if `b` is out of range.
    #[inline]
    pub fn block(&self, b: BlockId) -> &Block {
        &self.blocks[b.index()]
    }

    /// Total static op count (terminators included), the unit of the
    /// paper's "compiled code size" measurements.
    pub fn size(&self) -> usize {
        self.blocks.iter().map(|b| b.ops.len() + 1).sum()
    }

    /// Blocks reachable from entry, in reverse post-order.
    #[cfg(test)]
    fn reverse_postorder(&self) -> Vec<BlockId> {
        let n = self.blocks.len();
        let mut visited = vec![false; n];
        let mut post = Vec::with_capacity(n);
        // Iterative DFS with explicit post-visit.
        let mut stack: Vec<(BlockId, usize)> = vec![(BlockId::ENTRY, 0)];
        visited[0] = true;
        while let Some(&mut (b, ref mut next)) = stack.last_mut() {
            let succs = self.block(b).term.successors();
            if *next < succs.len() {
                let s = succs[*next];
                *next += 1;
                if !visited[s.index()] {
                    visited[s.index()] = true;
                    stack.push((s, 0));
                }
            } else {
                post.push(b);
                stack.pop();
            }
        }
        post.reverse();
        post
    }

    /// Predecessor lists for all blocks (unreachable blocks included).
    pub fn predecessors(&self) -> Vec<Vec<BlockId>> {
        let mut preds = vec![Vec::new(); self.blocks.len()];
        for (i, b) in self.blocks.iter().enumerate() {
            for s in b.term.successors() {
                preds[s.index()].push(BlockId::from_index(i));
            }
        }
        preds
    }

    /// Order-sensitive FNV-1a fingerprint of the whole function (blocks,
    /// ops with payloads, terminators, register/argument counts).
    ///
    /// Hashes the `Debug` rendering: every op payload is an ordered struct
    /// or `Vec` (no hash maps), and `Debug` of `f64` is total and
    /// deterministic (including NaN), so equal functions always fingerprint
    /// equal and the value is stable across runs on the same build. Its one
    /// user is [`crate::LiftCache`]'s hash-consing, which still confirms
    /// structural equality with `PartialEq` before two functions are
    /// shared. (The VM's compiled-code cache keys on the request — method,
    /// level, binding fingerprint — not on any function.)
    pub fn fingerprint(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let text = format!("{self:?}");
        for b in text.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }

    /// Checks structural sanity (all block refs and registers in range).
    /// Used by tests and debug assertions, not on hot paths.
    pub fn validate(&self) -> Result<(), String> {
        for (i, b) in self.blocks.iter().enumerate() {
            for s in b.term.successors() {
                if s.index() >= self.blocks.len() {
                    return Err(format!("block b{i} has bad successor {s}"));
                }
            }
            let mut bad: Option<Reg> = None;
            for op in &b.ops {
                if let Some(d) = op.def() {
                    if d.0 >= self.num_regs {
                        bad = Some(d);
                    }
                }
                op.for_each_use(|r| {
                    if r.0 >= self.num_regs && bad.is_none() {
                        bad = Some(r);
                    }
                });
            }
            if let Term::Br { cond, .. } = b.term {
                if cond.0 >= self.num_regs {
                    bad = Some(cond);
                }
            }
            if let Term::Ret(Some(r)) = b.term {
                if r.0 >= self.num_regs {
                    bad = Some(r);
                }
            }
            if let Some(r) = bad {
                return Err(format!("block b{i} uses out-of-range register {r}"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dchm_bytecode::Reg;

    fn diamond() -> Function {
        // b0 -> b1 / b2 -> b3
        let mut f = Function::new(2, 1);
        f.blocks.clear();
        f.blocks.push(Block::new(Term::Br {
            cond: Reg(0),
            t: BlockId(1),
            f: BlockId(2),
        }));
        f.blocks.push(Block::new(Term::Jmp(BlockId(3))));
        f.blocks.push(Block::new(Term::Jmp(BlockId(3))));
        f.blocks.push(Block::new(Term::Ret(None)));
        f
    }

    #[test]
    fn rpo_visits_entry_first_and_join_last() {
        let f = diamond();
        let rpo = f.reverse_postorder();
        assert_eq!(rpo.first(), Some(&BlockId(0)));
        assert_eq!(rpo.last(), Some(&BlockId(3)));
        assert_eq!(rpo.len(), 4);
    }

    #[test]
    fn predecessors_of_join() {
        let f = diamond();
        let preds = f.predecessors();
        let mut j = preds[3].clone();
        j.sort();
        assert_eq!(j, vec![BlockId(1), BlockId(2)]);
        assert!(preds[0].is_empty());
    }

    #[test]
    fn validate_catches_bad_successor() {
        let mut f = diamond();
        f.blocks[1].term = Term::Jmp(BlockId(99));
        assert!(f.validate().is_err());
    }

    #[test]
    fn validate_catches_bad_reg() {
        let mut f = diamond();
        f.blocks[3].term = Term::Ret(Some(Reg(55)));
        assert!(f.validate().is_err());
    }

    #[test]
    fn size_counts_ops_and_terms() {
        let f = diamond();
        assert_eq!(f.size(), 4);
    }

    #[test]
    fn fingerprint_distinguishes_structure() {
        let a = diamond();
        let b = diamond();
        assert_eq!(a.fingerprint(), b.fingerprint(), "equal funcs, equal fp");
        let mut c = diamond();
        c.blocks[3].term = Term::Ret(Some(Reg(0)));
        assert_ne!(a.fingerprint(), c.fingerprint(), "terminator change");
        let mut d = diamond();
        d.num_regs += 1;
        assert_ne!(a.fingerprint(), d.fingerprint(), "frame-size change");
    }

    #[test]
    fn block_id_overflow_is_typed() {
        assert!(BlockId::try_from_index(17).is_ok());
        assert_eq!(
            BlockId::try_from_index(usize::MAX),
            Err(crate::IrError::BlockIdOverflow { blocks: usize::MAX })
        );
    }
}
