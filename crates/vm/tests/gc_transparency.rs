//! GC transparency: a program must compute the same results regardless of
//! heap size (i.e., regardless of how many collections run). Exercises
//! allocation-heavy object graphs with cross-references, arrays of
//! references and dead cycles, drawn from seeded RNG cases.

use dchm_bytecode::{CmpOp, ElemKind, MethodSig, ProgramBuilder, Ty};
use dchm_fuzz::gen::Rng;
use dchm_vm::{Vm, VmConfig};

/// Builds a program that creates `churn` linked nodes per round for
/// `rounds` rounds, keeping only every `keep_mod`-th node alive in a ref
/// array, then folds the survivors' payloads into the checksum.
fn churn_program(rounds: i64, churn: i64, keep_mod: i64) -> dchm_bytecode::Program {
    let mut pb = ProgramBuilder::new();
    let node = pb.class("Node").build();
    let payload = pb.instance_field(node, "payload", Ty::Int);
    let next = pb.instance_field(node, "next", Ty::Ref(node));
    let mut m = pb.ctor(node, vec![Ty::Int]);
    let this = m.this();
    let p = m.param(0);
    m.put_field(this, payload, p);
    m.ret(None);
    m.build();

    let mut m = pb.static_method(node, "main", MethodSig::void());
    let keep_n = m.imm(64);
    let keep = m.reg();
    m.new_arr(keep, ElemKind::Ref, keep_n);
    let slot = m.reg();
    m.const_i(slot, 0);
    let r = m.reg();
    m.const_i(r, 0);
    let rh = m.label();
    let rd = m.label();
    m.bind(rh);
    let rlim = m.imm(rounds);
    m.br_icmp(CmpOp::Ge, r, rlim, rd);
    // Build a chain of `churn` nodes; most become garbage immediately.
    let prev = m.reg();
    m.const_null(prev);
    let i = m.reg();
    m.const_i(i, 0);
    let ih = m.label();
    let id = m.label();
    m.bind(ih);
    let clim = m.imm(churn);
    m.br_icmp(CmpOp::Ge, i, clim, id);
    let val = m.reg();
    m.imul(val, r, clim);
    m.iadd(val, val, i);
    let n = m.reg();
    m.new_obj(n, node);
    m.call_ctor(n, node, vec![val]);
    m.put_field(n, next, prev);
    m.mov(prev, n);
    // Keep every keep_mod-th node.
    let km = m.imm(keep_mod);
    let rem = m.reg();
    m.irem(rem, val, km);
    let skip = m.label();
    let zero = m.imm(0);
    m.br_icmp(CmpOp::Ne, rem, zero, skip);
    let sslot = m.reg();
    let k64 = m.imm(64);
    m.irem(sslot, slot, k64);
    m.astore(keep, sslot, n);
    m.iadd_imm(slot, slot, 1);
    m.bind(skip);
    m.iadd_imm(i, i, 1);
    m.jmp(ih);
    m.bind(id);
    m.iadd_imm(r, r, 1);
    m.jmp(rh);
    m.bind(rd);

    // Fold surviving payloads (walking next-chains a few hops).
    let j = m.reg();
    m.const_i(j, 0);
    let sh = m.label();
    let sd = m.label();
    m.bind(sh);
    let k64b = m.imm(64);
    m.br_icmp(CmpOp::Ge, j, k64b, sd);
    let cur = m.reg();
    m.aload(cur, keep, j);
    let nil = m.reg();
    m.const_null(nil);
    let hops = m.reg();
    m.const_i(hops, 0);
    let wh = m.label();
    let wd = m.label();
    m.bind(wh);
    let isnil = m.reg();
    m.ref_eq(isnil, cur, nil);
    m.br_if(isnil, wd);
    let three = m.imm(3);
    m.br_icmp(CmpOp::Ge, hops, three, wd);
    let pv = m.reg();
    m.get_field(pv, cur, payload);
    m.sink_int(pv);
    m.get_field(cur, cur, next);
    m.iadd_imm(hops, hops, 1);
    m.jmp(wh);
    m.bind(wd);
    m.iadd_imm(j, j, 1);
    m.jmp(sh);
    m.bind(sd);
    m.ret(None);
    let main = m.build();
    pb.set_entry(main);
    pb.finish().unwrap()
}

fn run_with_heap(p: &dchm_bytecode::Program, heap: usize) -> (u64, u64, u64) {
    let cfg = VmConfig {
        heap_bytes: heap,
        fuel: Some(20_000_000),
        ..Default::default()
    };
    let mut vm = Vm::new(p.clone(), cfg);
    vm.run_entry().unwrap();
    (
        vm.state.output.checksum,
        vm.state.heap.stats.gc_count,
        vm.state.heap.stats.bytes_allocated,
    )
}

#[test]
fn gc_never_changes_results() {
    // Two pinned shapes that once failed, then 24 random ones.
    let random = (0..24).map(|case| {
        let mut rng = Rng::new(case);
        let rounds = 2 + rng.below(6) as i64;
        let churn = 10 + rng.below(70) as i64;
        let keep_mod = 2 + rng.below(7) as i64;
        (rounds, churn, keep_mod)
    });
    for (rounds, churn, keep_mod) in [(2, 10, 2), (4, 46, 3)].into_iter().chain(random) {
        let p = churn_program(rounds, churn, keep_mod);
        // Small heap: many GCs. Large heap: none.
        let (sum_small, gcs_small, allocated) = run_with_heap(&p, 448 << 10);
        let (sum_large, gcs_large, _) = run_with_heap(&p, 64 << 20);
        let case = format!("rounds {rounds} churn {churn} keep_mod {keep_mod}");
        assert_eq!(
            sum_small, sum_large,
            "{case}: GC changed observable behaviour"
        );
        assert_eq!(gcs_large, 0, "{case}");
        // Whenever total allocation exceeded the small heap, collections
        // must actually have happened.
        if allocated > (448 << 10) {
            assert!(gcs_small > 0, "{case}: small heap never collected");
        }
    }
}

#[test]
fn chains_survive_collections_through_next_pointers() {
    let p = churn_program(16, 120, 3);
    let (sum, gcs, _) = run_with_heap(&p, 48 << 10);
    assert!(gcs > 0);
    assert_ne!(sum, 0);
}
