//! State residency read from the object header: an object's TIB pointer
//! says which special state it is in and its `since` stamp says from when,
//! so the census finds every open stay in the heap walk it already makes.
//! The census is pinned from the commit before the open-stay map was
//! deleted; open stays now equal the objects in special states by
//! construction, injected collections included; and a collection allocates
//! nothing on the host.

use dchm::bytecode::value::ObjRef;
use dchm::bytecode::{ClassId, Program, ProgramBuilder, Ty};
use dchm::vm::{CensusSnapshot, FaultConfig, FaultInjector, TibId, Vm, VmConfig};
use dchm::workloads::{catalog, jbb, Scale, Workload};
use dchm_testutil::{harness_config, prepare_workload};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Counts this thread's heap allocations (the harness runs tests on
/// parallel threads, so a process-wide count would pick up the neighbours).
struct CountingAlloc;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// The census in one line: an FNV-1a of its JSON (every field, byte for
/// byte), then readably the objects in special states, every TIB's
/// `objects/bytes`, and every (class, state) residency as exits, count,
/// sum, min, max and its non-empty log2 buckets `index:count`.
fn digest(c: &CensusSnapshot) -> String {
    let json = serde_json::to_string(c).expect("census serializes");
    let fnv = json.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    });
    let tibs: Vec<String> = c
        .per_tib
        .iter()
        .map(|t| format!("{}:{}/{}", t.tib, t.objects, t.bytes))
        .collect();
    let stays: Vec<String> = c
        .residency
        .iter()
        .map(|r| {
            let h = &r.residency;
            let buckets: Vec<String> = (h.buckets.iter().enumerate())
                .filter(|&(_, &n)| n > 0)
                .map(|(i, n)| format!("{i}:{n}"))
                .collect();
            format!(
                "c{}s{} x{} n{} {} {}..{} [{}]",
                r.class,
                r.state,
                r.exits,
                h.count,
                h.sum,
                h.min,
                h.max,
                buckets.join(" ")
            )
        })
        .collect();
    format!(
        "{fnv:016x} special {} | {} | {}",
        c.in_special_state,
        tibs.join(" "),
        stays.join("; ")
    )
}

/// Open stays — recorded stays that have not exited — against the objects
/// the same walk finds in special-state TIBs.
fn open_vs_special(c: &CensusSnapshot) -> (u64, u64) {
    let open = c
        .residency
        .iter()
        .map(|r| r.residency.count - r.exits)
        .sum();
    (open, c.in_special_state)
}

fn run(w: &Workload, config: VmConfig) -> Vm {
    let prepared = prepare_workload(w);
    let mut vm = prepared.make_vm(config);
    w.run(&mut vm).expect("runs");
    vm
}

/// The seven Table-1 programs at `Scale::Small` through `pipeline::prepare`,
/// census at the end of the run. No catalog program leaves a special state
/// at this scale (every `x0`), so each stay here is open.
#[rustfmt::skip]
const CATALOG: [&str; 7] = [
    "1501ba2454548298 special 24 | 6:11/352 7:7/224 8:4/128 9:2/64 | c4s0 x0 n11 3329139 301538..304079 [18:11]; c4s1 x0 n7 2119115 301659..303837 [18:7]; c4s2 x0 n4 1215227 302748..304321 [18:4]; c4s3 x0 n2 606827 303232..303595 [18:2]",
    "6a5dd9fe35b9d97c special 24 | 3:6/336 4:6/336 5:6/336 6:6/336 | c1s0 x0 n6 1104972 182122..186202 [17:6]; c1s1 x0 n6 1103748 181918..185998 [17:6]; c1s2 x0 n6 1102524 181714..185794 [17:6]; c1s3 x0 n6 1101300 181510..185590 [17:6]",
    "bd09b71056c594be special 1 | 4:1/32 | c1s0 x0 n1 297274 297274..297274 [18:1]",
    "3723a28f12da8137 special 1 | 4:1/32 | c1s0 x0 n1 244379 244379..244379 [17:1]",
    "2213786c27edbaa6 special 1 | 3:1/32 | c1s0 x0 n1 244878 244878..244878 [17:1]",
    "4c0ca09ed5a40ba6 special 34 | 2:80/2560 3:152/4864 4:10/480 9:152/2432 10:166/2656 11:15/240 12:10/240 13:17/272 16:16/896 17:4/224 18:4/224 19:10/320 | c6s0 x0 n16 12189818 759686..763610 [19:16]; c6s1 x0 n4 3045542 760760..762722 [19:4]; c6s2 x0 n4 3042128 759503..762362 [19:4]; c7s0 x0 n10 3596949 3951..626062 [11:1 15:1 17:2 18:2 19:4]",
    "11cba302a8aa46cf special 31 | 2:80/2560 3:85/2720 4:10/480 6:1/56 9:85/1360 10:97/1552 11:13/208 12:8/192 13:8/128 14:89/1424 16:15/840 17:5/280 18:3/168 19:8/256 | c6s0 x0 n15 18498198 1231478..1235285 [20:15]; c6s1 x0 n5 6162112 1230893..1234712 [20:5]; c6s2 x0 n3 3700314 1232612..1234331 [20:3]; c7s0 x0 n8 4031204 46388..1109800 [15:1 16:1 17:1 18:2 19:2 20:1]",
];

/// Each program's census is the parent's, with a tracer attached too, and
/// its open stays are exactly its objects in special states.
#[test]
fn catalog_census_is_that_of_the_parent() {
    for (w, want) in catalog(Scale::Small).into_iter().zip(CATALOG) {
        let prepared = prepare_workload(&w);
        for traced in [false, true] {
            let mut vm = prepared.make_vm(harness_config(&w));
            if traced {
                vm.enable_tracing(1 << 12);
            }
            w.run(&mut vm).expect("runs");
            let census = vm.state.census();
            assert_eq!(digest(&census), want, "{}, traced: {traced}", w.name);
            let (open, special) = open_vs_special(&census);
            assert_eq!(open, special, "{}", w.name);
        }
    }
}

/// SPECjbb2000 and SPECjbb2005 at full scale under 1/32 of their catalog
/// heap, as the benchmark's collector workload runs SPECjbb2005: (GCs,
/// census). Special-state objects die and their ids are reused.
#[rustfmt::skip]
const JBB_TIGHT: [(u64, &str); 2] = [
    (19, "8297812d4013dfdb special 160 | 2:600/19200 3:114/3648 4:10/480 7:8/256 9:105/1680 10:86/1376 11:8/128 12:7/168 13:13/208 16:99/5544 17:25/1400 18:25/1400 19:11/616 | c6s0 x0 n99 3553517826 35879227..35907661 [25:99]; c6s1 x0 n25 897366382 35879587..35905882 [25:25]; c6s2 x0 n25 897264304 35879404..35904448 [25:25]; c6s3 x0 n11 394805072 35880658..35906239 [25:11]"),
    (14, "012865f40c7a96b7 special 160 | 2:600/19200 3:311/9952 4:10/480 7:28/896 9:301/4816 10:287/4592 11:30/480 12:27/648 13:29/464 14:287/4592 16:87/4872 17:34/1904 18:31/1736 19:8/448 | c6s0 x0 n87 5560448609 63897639..63928463 [25:87]; c6s1 x0 n34 2172999031 63897832..63928074 [25:34]; c6s2 x0 n31 1981334341 63898221..63928656 [25:31]; c6s3 x0 n8 511321343 63904071..63925939 [25:8]"),
];

#[test]
fn census_after_collections_is_that_of_the_parent() {
    for (v, (gcs, want)) in [jbb::JbbVariant::Jbb2000, jbb::JbbVariant::Jbb2005]
        .into_iter()
        .zip(JBB_TIGHT)
    {
        let w = jbb::build(v, Scale::Full);
        let vm = run(
            &w,
            VmConfig {
                heap_bytes: w.heap_bytes / 32,
                ..harness_config(&w)
            },
        );
        assert_eq!(vm.state.heap.stats.gc_count, gcs, "{}", w.name);
        assert_eq!(digest(&vm.state.census()), want, "{}", w.name);
    }
}

/// A collection the fault injector draws at an allocation point sweeps
/// like any other, so no dead object's stay is left open.
#[test]
fn injected_collections_leave_no_phantom_stays() {
    for w in catalog(Scale::Small) {
        let prepared = prepare_workload(&w);
        let mut vm = prepared.make_vm(harness_config(&w));
        vm.state.injector = Some(FaultInjector::new(FaultConfig {
            seed: 7,
            gc_at_alloc: true,
            recompiles: false,
            force_guard_fail: false,
            compile_fails: false,
            oom_at_alloc: false,
            panic_at_op: false,
            period: 3,
        }));
        w.run(&mut vm).expect("runs");
        assert!(
            vm.state.injector.as_ref().is_some_and(|i| i.gcs > 0),
            "{}",
            w.name
        );
        let (open, special) = open_vs_special(&vm.state.census());
        assert_eq!(open, special, "{}", w.name);
    }
}

/// After each step of [`hand_built`].
#[rustfmt::skip]
const HAND_BUILT: [&str; 6] = [
    "6a51bbea946ced10 special 2 | 0:3/72 1:1/24 2:1/24 | c0s0 x0 n1 12 12..12 [3:1]; c0s1 x0 n1 0 0..0 [0:1]",
    "45ec1375fcfeeac1 special 1 | 1:1/24 | c0s0 x0 n1 36 36..36 [5:1]",
    "f30265dba8dab789 special 1 | 0:1/24 1:1/24 | c0s0 x0 n1 39 39..39 [5:1]",
    "6388d5e2f82c5e99 special 0 | 0:2/48 | c0s0 x1 n1 39 39..39 [5:1]",
    "d9a51cc456c8bd3b special 1 | 0:3/72 2:1/24 | c0s0 x1 n1 39 39..39 [5:1]; c0s1 x0 n1 3 3..3 [1:1]",
    "5d697dd83463ebcd special 2 | 0:3/72 1:1/24 2:1/24 | c0s0 x1 n2 42 3..39 [1:1 5:1]; c0s1 x1 n2 6 3..3 [1:2]",
];

#[test]
fn a_reused_id_starts_with_no_stay() {
    assert_eq!(hand_built(), HAND_BUILT);
}

/// 100 collections of a warmed heap, tracing off: the roots stream into the
/// mark and the mark bits, mark stack and free list keep their capacity.
#[test]
fn a_collection_allocates_nothing() {
    let w = jbb::build(jbb::JbbVariant::Jbb2000, Scale::Small);
    let mut vm = run(&w, harness_config(&w));
    vm.state.gc_now();
    let before = allocations();
    for _ in 0..100 {
        vm.state.gc_now();
    }
    let allocated = allocations() - before;
    assert_eq!(allocated, 0, "100 collections allocated {allocated} times");
    assert_eq!(vm.state.heap.stats.gc_count, 101);
}

/// `Cell { st }`: the one class of the hand-built heap.
fn cell_program() -> (Program, ClassId) {
    let mut pb = ProgramBuilder::new();
    let cell = pb.class("Cell").build();
    pb.instance_field(cell, "st", Ty::Int);
    pb.trivial_ctor(cell);
    (pb.finish().expect("verifies"), cell)
}

/// Objects die inside special states and their ids come back: once as an
/// object that stays in the class TIB, once as one that flips in. The
/// census after each step.
fn hand_built() -> Vec<String> {
    let (program, cell) = cell_program();
    let mut vm = Vm::new(program, VmConfig::default());
    let st = &mut vm.state;
    let specials: [TibId; 2] = [
        st.create_special_tib(cell, 0),
        st.create_special_tib(cell, 1),
    ];
    let class_tib = st.class_tib(cell);
    let new = |st: &mut dchm::vm::VmState| -> ObjRef { st.alloc_object(cell).expect("room") };
    let mut census = Vec::new();

    let keep = new(st);
    st.add_handle(keep);
    st.set_object_tib(keep, specials[0]);
    for _ in 0..3 {
        new(st);
    }
    // The sweep rebuilds the free list in id order and allocation pops its
    // end, so the highest dead id comes back first.
    let doomed = new(st);
    st.set_object_tib(doomed, specials[1]);
    census.push(st.census());
    st.gc_now();
    census.push(st.census());

    let stays_out = new(st);
    assert_eq!(stays_out, doomed, "the dead object's id is reused");
    st.add_handle(stays_out);
    census.push(st.census());
    st.set_object_tib(keep, class_tib);
    census.push(st.census());

    let doomed = new(st);
    st.set_object_tib(doomed, specials[0]);
    new(st);
    st.gc_now();
    let flips_in = new(st);
    assert_eq!(flips_in, doomed, "the dead object's id is reused");
    st.add_handle(flips_in);
    st.set_object_tib(flips_in, specials[1]);
    new(st);
    census.push(st.census());
    st.set_object_tib(flips_in, specials[0]);
    st.set_object_tib(keep, specials[1]);
    new(st);
    census.push(st.census());
    census.iter().map(digest).collect()
}
