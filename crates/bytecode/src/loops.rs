//! Loop-nesting analysis on bytecode.
//!
//! The paper's EQ 1 weighs a state-field use/assignment by the loop nesting
//! level of the instruction it occurs at (`Li`/`li`). This module computes
//! that level for every instruction of a method: build the instruction-level
//! CFG, find back edges by DFS, expand each back edge to its natural loop,
//! and count how many loops contain each instruction.

use crate::instr::Instr;

/// Per-method loop information.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LoopInfo {
    /// `nesting[i]` = number of natural loops containing instruction `i`.
    pub nesting: Vec<u32>,
    /// Number of distinct back edges (≈ number of loops).
    pub loop_count: usize,
}

impl LoopInfo {
    /// The deepest nesting level in the method.
    #[cfg(test)]
    fn max_nesting(&self) -> u32 {
        self.nesting.iter().copied().max().unwrap_or(0)
    }
}

/// Successor instruction indices of instruction `i`.
fn successors(code: &[Instr], i: usize) -> Vec<usize> {
    match &code[i] {
        Instr::Jmp(t) => vec![t.index()],
        Instr::BrIf { target, .. } => {
            let mut v = vec![target.index()];
            if i + 1 < code.len() {
                v.push(i + 1);
            }
            v
        }
        Instr::Ret(_) => vec![],
        Instr::Op(_) => {
            if i + 1 < code.len() {
                vec![i + 1]
            } else {
                vec![]
            }
        }
    }
}

/// Computes loop nesting levels for a method body.
///
/// Instructions unreachable from entry get nesting 0.
pub fn loop_nesting(code: &[Instr]) -> LoopInfo {
    let n = code.len();
    let mut nesting = vec![0u32; n];
    if n == 0 {
        return LoopInfo {
            nesting,
            loop_count: 0,
        };
    }

    // Iterative DFS from instruction 0, collecting back edges
    // (edges into a node currently on the DFS stack).
    #[derive(Clone, Copy, PartialEq)]
    enum Color {
        White,
        Gray,
        Black,
    }
    let mut color = vec![Color::White; n];
    let mut back_edges: Vec<(usize, usize)> = Vec::new();
    // Stack of (node, next-successor-index).
    let mut stack: Vec<(usize, usize)> = vec![(0, 0)];
    color[0] = Color::Gray;
    while let Some(&mut (u, ref mut next)) = stack.last_mut() {
        let succs = successors(code, u);
        if *next < succs.len() {
            let v = succs[*next];
            *next += 1;
            match color[v] {
                Color::White => {
                    color[v] = Color::Gray;
                    stack.push((v, 0));
                }
                Color::Gray => back_edges.push((u, v)),
                Color::Black => {}
            }
        } else {
            color[u] = Color::Black;
            stack.pop();
        }
    }

    // Natural loop of back edge (tail -> head): head plus all nodes that
    // reach tail without going through head (walk predecessors backwards).
    let mut preds: Vec<Vec<usize>> = vec![Vec::new(); n];
    for i in 0..n {
        for s in successors(code, i) {
            preds[s].push(i);
        }
    }
    let loop_count = back_edges.len();
    for &(tail, head) in &back_edges {
        let mut in_loop = vec![false; n];
        in_loop[head] = true;
        let mut work = vec![tail];
        while let Some(u) = work.pop() {
            if in_loop[u] {
                continue;
            }
            in_loop[u] = true;
            for &p in &preds[u] {
                if !in_loop[p] {
                    work.push(p);
                }
            }
        }
        for (i, &inside) in in_loop.iter().enumerate() {
            if inside {
                nesting[i] += 1;
            }
        }
    }

    LoopInfo {
        nesting,
        loop_count,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;
    use crate::class::MethodSig;
    use crate::value::{CmpOp, Ty};

    fn straight_line() -> Vec<Instr> {
        let mut pb = ProgramBuilder::new();
        let c = pb.class("C").build();
        let mut m = pb.static_method(c, "f", MethodSig::void());
        let r = m.reg();
        m.const_i(r, 1);
        m.sink_int(r);
        m.ret(None);
        let mid = m.build();
        pb.finish().unwrap().method(mid).code.clone()
    }

    #[test]
    fn straight_line_has_no_loops() {
        let info = loop_nesting(&straight_line());
        assert_eq!(info.loop_count, 0);
        assert!(info.nesting.iter().all(|&d| d == 0));
        assert_eq!(info.max_nesting(), 0);
    }

    #[test]
    fn single_loop_counts_once() {
        let mut pb = ProgramBuilder::new();
        let c = pb.class("C").build();
        let mut m = pb.static_method(c, "f", MethodSig::new(vec![Ty::Int], None));
        let n = m.param(0);
        let i = m.reg();
        m.const_i(i, 0);
        let head = m.label();
        let done = m.label();
        m.bind(head);
        m.br_icmp(CmpOp::Ge, i, n, done);
        m.sink_int(i);
        m.iadd_imm(i, i, 1);
        m.jmp(head);
        m.bind(done);
        m.ret(None);
        let mid = m.build();
        let p = pb.finish().unwrap();
        let info = loop_nesting(&p.method(mid).code);
        assert_eq!(info.loop_count, 1);
        assert_eq!(info.max_nesting(), 1);
        // First instruction (i = 0) is outside the loop.
        assert_eq!(info.nesting[0], 0);
        // The jump back is inside.
        let jmp_idx = p.method(mid).code.len() - 2;
        assert_eq!(info.nesting[jmp_idx], 1);
    }

    #[test]
    fn nested_loops_stack() {
        let mut pb = ProgramBuilder::new();
        let c = pb.class("C").build();
        let mut m = pb.static_method(c, "f", MethodSig::new(vec![Ty::Int], None));
        let n = m.param(0);
        let i = m.reg();
        let j = m.reg();
        m.const_i(i, 0);
        let outer = m.label();
        let outer_done = m.label();
        m.bind(outer);
        m.br_icmp(CmpOp::Ge, i, n, outer_done);
        m.const_i(j, 0);
        let inner = m.label();
        let inner_done = m.label();
        m.bind(inner);
        m.br_icmp(CmpOp::Ge, j, n, inner_done);
        m.sink_int(j); // innermost body
        m.iadd_imm(j, j, 1);
        m.jmp(inner);
        m.bind(inner_done);
        m.iadd_imm(i, i, 1);
        m.jmp(outer);
        m.bind(outer_done);
        m.ret(None);
        let mid = m.build();
        let p = pb.finish().unwrap();
        let code = &p.method(mid).code;
        let info = loop_nesting(code);
        assert_eq!(info.loop_count, 2);
        assert_eq!(info.max_nesting(), 2);
        // Find the SinkInt op and check it's at depth 2.
        let sink_idx = code
            .iter()
            .position(|ins| {
                matches!(
                    ins,
                    Instr::Op(crate::Op::Intrinsic {
                        kind: crate::IntrinsicKind::SinkInt,
                        ..
                    })
                )
            })
            .unwrap();
        assert_eq!(info.nesting[sink_idx], 2);
    }

    #[test]
    fn empty_code() {
        let info = loop_nesting(&[]);
        assert_eq!(info.loop_count, 0);
        assert!(info.nesting.is_empty());
    }
}
