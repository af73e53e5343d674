//! Patch-point deliveries — constructor exit and state-field store into
//! `MutationEngine`, through `update_object_tib` to `set_object_tib` — on
//! both clocks: what the model can see of them is pinned from the commit
//! before the delivery path was rebuilt on install-time tables, and on the
//! host a steady-state delivery allocates nothing.

use dchm::bytecode::value::ObjRef;
use dchm::bytecode::{
    ClassId, CmpOp, FieldId, MethodId, MethodSig, Program, ProgramBuilder, Ty, Value,
};
use dchm::core::{HotState, MutableClass, MutationEngine, MutationPlan, OlcReport};
use dchm::vm::{FaultConfig, FaultInjector, MutationHandler, TibId, Vm, VmConfig, VmState};
use dchm_testutil::{attach_plan, storm_config, storm_salarydb};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::rc::Rc;

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

/// What a delivery can move in the model: checksum, clock, ops, TIB flips,
/// deopts, throttle episodes.
type Row = [u64; 6];

fn row(vm: &Vm) -> Row {
    let s = vm.stats();
    [
        vm.state.output.checksum,
        vm.cycles(),
        s.ops_executed,
        s.tib_flips,
        s.deopts,
        s.specials_throttled,
    ]
}

/// `storm_salarydb(24, 40)` under period-1 forced guard failures: every
/// `raise()` deopts, restores the class TIB and is flipped straight back by
/// its own state re-store.
fn storm(governed: bool) -> Vm {
    let (p, plan) = storm_salarydb(24, 40);
    let mut config = storm_config();
    config.governor.enabled = governed;
    let mut vm = attach_plan(&p, plan, config);
    vm.state.injector = Some(FaultInjector::new(FaultConfig {
        period: 1,
        ..FaultConfig::guard_failures(1)
    }));
    vm.run_entry().expect("storm run completes");
    vm
}

const STORM_GOVERNED: Row = [11186941474388312064, 268935, 19185, 152, 64, 8];
const STORM_UNGOVERNED: Row = [11186941474388312064, 561967, 56817, 1944, 960, 0];

/// (d) The first throttle pins a special, which opens the flip-in re-sync;
/// from there the governed storm dispatches exactly where it did before.
#[test]
fn storm_counts_are_those_of_the_parent() {
    let on = storm(true);
    assert_eq!(row(&on), STORM_GOVERNED);
    assert!(on.stats().specials_throttled > 0 && on.state.has_pinned());

    let off = storm(false);
    assert_eq!(row(&off), STORM_UNGOVERNED);
    assert!(!off.state.has_pinned());
}

/// Generated programs 0..16 under the fuzzer's synthesis settings, adaptive
/// cadence so specials are regenerated as methods climb the tiers.
const GENERATED: [Row; 16] = [
    [1601311518093452335, 208653, 6498, 307, 0, 0],
    [8629021445064854120, 284535, 12356, 959, 16, 2],
    [17009820724622465118, 123572, 1868, 223, 16, 2],
    [1605691315576273256, 54540, 2579, 297, 8, 1],
    [13705636952842889668, 66638, 2357, 2, 0, 0],
    [17393248233198596066, 315498, 5670, 297, 16, 2],
    [3119168956414708376, 118444, 8378, 1100, 8, 1],
    [8187858166241111852, 57341, 1994, 1, 0, 0],
    [3348443299920991375, 221191, 20914, 3534, 0, 0],
    [6427929810600744139, 67195, 1679, 108, 0, 0],
    [16954045814596402501, 123492, 7650, 723, 0, 0],
    [6492228878874986230, 169764, 16149, 1515, 0, 0],
    [281905338501784224, 158638, 13190, 1497, 16, 2],
    [8639946935219929319, 373041, 22506, 3065, 0, 0],
    [7757675646042580205, 310652, 4042, 477, 16, 2],
    [1383617198288758957, 297070, 5697, 765, 32, 4],
];

#[test]
fn generated_program_counts_are_those_of_the_parent() {
    let rows: Vec<Row> = (0..16)
        .map(|seed| {
            let (p, plan) = dchm_fuzz::compile_spec(&dchm_fuzz::generate(seed)).expect("lowers");
            let config = VmConfig {
                sample_period: 600,
                opt1_samples: 2,
                opt2_samples: 4,
                fuel: Some(20_000_000),
                ..VmConfig::default()
            };
            let mut vm = attach_plan(&p, plan, config);
            let _ = vm.run_entry();
            row(&vm)
        })
        .collect();
    assert_eq!(rows, GENERATED);
}

/// Classes in id order: `Cell` (instance state `st`, static state `mode`,
/// mutable `get`), `SubCell extends Cell`, `Plain` (not in the plan),
/// `Switch` (static state only, mutable `read`), `Last` (not in the plan;
/// the program's highest class id).
struct Fixture {
    program: Program,
    cell: ClassId,
    sub: ClassId,
    plain: ClassId,
    switch: ClassId,
    last: ClassId,
    st: FieldId,
    mode: FieldId,
    flag: FieldId,
    get: MethodId,
    read: MethodId,
}

fn fixture() -> Fixture {
    let mut pb = ProgramBuilder::new();
    let cell = pb.class("Cell").build();
    let st = pb.instance_field(cell, "st", Ty::Int);
    let mode = pb.static_field(cell, "mode", Ty::Int, Value::Int(1));
    pb.trivial_ctor(cell);
    let mut m = pb.method(cell, "get", MethodSig::new(vec![], Some(Ty::Int)));
    let (this, a, b) = (m.this(), m.reg(), m.reg());
    m.get_field(a, this, st);
    m.get_static(b, mode);
    m.iadd(a, a, b);
    m.ret(Some(a));
    let get = m.build();

    let sub = pb.class("SubCell").extends(cell).build();
    pb.trivial_ctor(sub);

    let plain = pb.class("Plain").build();
    pb.instance_field(plain, "x", Ty::Int);
    pb.trivial_ctor(plain);

    let switch = pb.class("Switch").build();
    let flag = pb.static_field(switch, "flag", Ty::Int, Value::Int(0));
    pb.trivial_ctor(switch);
    let mut m = pb.method(switch, "read", MethodSig::new(vec![], Some(Ty::Int)));
    let r = m.reg();
    m.get_static(r, flag);
    m.ret(Some(r));
    let read = m.build();

    let last = pb.class("Last").build();
    pb.instance_field(last, "y", Ty::Int);
    pb.trivial_ctor(last);

    let program = pb.finish().expect("fixture verifies");
    assert_eq!(last.index(), program.classes.len() - 1);
    Fixture { program, cell, sub, plain, switch, last, st, mode, flag, get, read }
}

impl Fixture {
    fn plan(&self) -> MutationPlan {
        let hot = |instance_values, static_values| HotState {
            instance_values,
            static_values,
            frequency: 0.5,
        };
        MutationPlan {
            classes: vec![
                MutableClass {
                    class: self.cell,
                    instance_state_fields: vec![self.st],
                    static_state_fields: vec![self.mode],
                    hot_states: vec![
                        hot(vec![(self.st, Value::Int(7))], vec![(self.mode, Value::Int(1))]),
                        hot(vec![(self.st, Value::Int(9))], vec![(self.mode, Value::Int(1))]),
                    ],
                    mutable_methods: vec![self.get],
                    field_scores: vec![],
                },
                MutableClass {
                    class: self.switch,
                    instance_state_fields: vec![],
                    static_state_fields: vec![self.flag],
                    hot_states: vec![hot(vec![], vec![(self.flag, Value::Int(0))])],
                    mutable_methods: vec![self.read],
                    field_scores: vec![],
                },
            ],
            mutation_level: 0,
            k: 0,
            emit_guards: true,
        }
    }

    /// A VM with the plan installed and both mutable methods compiled (so
    /// their specials exist), the engine kept outside it so the test makes
    /// the deliveries itself. Sampling is out of reach: nothing recompiles.
    fn vm(&self) -> (Vm, MutationEngine) {
        let config = VmConfig { sample_period: u64::MAX, ..VmConfig::default() };
        let mut vm = Vm::new(self.program.clone(), config);
        let mut engine = MutationEngine::new(self.plan(), OlcReport::default());
        engine.install(&mut vm.state);
        for m in [self.get, self.read] {
            vm.state.ensure_compiled(m);
            for (mid, level) in vm.state.take_recompile_events() {
                engine.on_recompiled(&mut vm.state, mid, level);
            }
        }
        (vm, engine)
    }
}

fn new_object(vm: &mut Vm, class: ClassId) -> ObjRef {
    let obj = vm.state.alloc_object(class).expect("heap has room");
    vm.state.add_handle(obj);
    obj
}

/// (b) 10,000 deliveries in steady state — the store that enters a hot
/// state, the re-store that stays in it, the move to another hot state, the
/// store that leaves, the re-store outside, a constructor exit, and the
/// static store that re-evaluates both classes — allocate nothing.
#[test]
fn steady_state_deliveries_do_not_allocate() {
    let f = fixture();
    let (mut vm, mut engine) = f.vm();
    let obj = new_object(&mut vm, f.cell);
    let slot = f.program.field(f.st).slot as usize;
    let class_tib = vm.state.class_tib(f.cell);
    let round = |vm: &mut Vm, engine: &mut MutationEngine| {
        let mut specials = 0;
        for v in [7, 7, 9, 3, 3] {
            vm.state.heap.object_mut(obj).fields[slot] = Value::Int(v);
            engine.on_instance_store(&mut vm.state, obj, f.cell, f.st);
            specials += u64::from(vm.state.heap.object(obj).tib != class_tib);
        }
        engine.on_ctor_exit(&mut vm.state, obj, f.cell);
        engine.on_static_store(&mut vm.state, f.mode);
        engine.on_static_store(&mut vm.state, f.flag);
        specials
    };
    // Warm-up: the residency table and the stats reach their working size.
    round(&mut vm, &mut engine);

    let flips = vm.stats().tib_flips;
    let before = allocations();
    let mut in_special = 0;
    for _ in 0..1250 {
        in_special += round(&mut vm, &mut engine);
    }
    let allocated = allocations() - before;
    assert_eq!(allocated, 0, "1250 rounds of 8 deliveries allocated {allocated} times");
    // Each round: in (7), stay, across (9), out (3), stay.
    assert_eq!(in_special, 3 * 1250);
    assert_eq!(vm.stats().tib_flips - flips, 3 * 1250);
}

/// (c) Deliveries the engine must ignore: special code never propagates to
/// a subclass (Fig. 6), classes outside the plan have no runtime record —
/// the last class id is the dense table's bound — and a static-only class
/// has no special TIB to flip to.
#[test]
fn deliveries_for_other_classes_change_nothing() {
    let f = fixture();
    let (mut vm, mut engine) = f.vm();
    let slot = f.program.field(f.st).slot as usize;
    let objects: Vec<(ObjRef, ClassId)> = [f.sub, f.plain, f.switch, f.last]
        .into_iter()
        .map(|c| (new_object(&mut vm, c), c))
        .collect();
    // The subclass instance even holds a hot value of the inherited field.
    vm.state.heap.object_mut(objects[0].0).fields[slot] = Value::Int(7);

    let before = vm.stats().clone();
    for &(obj, class) in &objects {
        engine.on_ctor_exit(&mut vm.state, obj, class);
        engine.on_instance_store(&mut vm.state, obj, class, f.st);
        assert_eq!(vm.state.heap.object(obj).tib, vm.state.class_tib(class));
    }
    assert_eq!(*vm.stats(), before);
}

/// The engine, checking at every delivery that follows a silent recompile
/// that each slot of the special TIB dispatches where the class TIB's does.
struct SlotsFollow {
    engine: MutationEngine,
    class_tib: TibId,
    special: TibId,
    slots: u32,
    /// Silent recompiles seen so far; checks made.
    seen: u64,
    checks: Rc<Cell<u64>>,
}

impl SlotsFollow {
    fn check(&mut self, vm: &VmState) {
        let recompiles = vm.injector.as_ref().map_or(0, |i| i.recompiles);
        if recompiles == self.seen {
            return;
        }
        self.seen = recompiles;
        for v in 0..self.slots {
            assert_eq!(vm.tib_slot(self.special, v), vm.tib_slot(self.class_tib, v), "slot {v}");
        }
        self.checks.set(self.checks.get() + 1);
    }
}

impl MutationHandler for SlotsFollow {
    fn on_instance_store(&mut self, vm: &mut VmState, obj: ObjRef, class: ClassId, field: FieldId) {
        self.engine.on_instance_store(vm, obj, class, field);
        self.check(vm);
    }
    fn on_static_store(&mut self, vm: &mut VmState, field: FieldId) {
        self.engine.on_static_store(vm, field);
        self.check(vm);
    }
    fn on_ctor_exit(&mut self, vm: &mut VmState, obj: ObjRef, class: ClassId) {
        self.engine.on_ctor_exit(vm, obj, class);
        self.check(vm);
    }
    fn on_recompiled(&mut self, vm: &mut VmState, method: MethodId, level: u8) {
        self.engine.on_recompiled(vm, method, level);
        self.check(vm);
    }
}

/// The one general install that reaches no handler is the fault injector's
/// silent recompile: with the code cache off it puts a new code id into the
/// class TIB. `make` allocates (the injector draws at allocation points),
/// is mutable, and has no special (the plan specializes at level 2, the
/// run stays at level 0), so every slot of the special TIB inherits, and
/// the new code reaches it with no re-sync. Checksum, clock and ops are the
/// parent's, which copied the code id at the next flip-in instead.
#[test]
fn silent_recompiles_reach_special_tibs_by_inheritance() {
    let mut pb = ProgramBuilder::new();
    let c = pb.class("C").build();
    let st = pb.instance_field(c, "st", Ty::Int);
    let mut m = pb.ctor(c, vec![Ty::Int]);
    let (this, k) = (m.this(), m.param(0));
    m.put_field(this, st, k);
    m.ret(None);
    m.build();
    let mut m = pb.method(c, "make", MethodSig::new(vec![], Some(Ty::Int)));
    let (this, a, o) = (m.this(), m.reg(), m.reg());
    m.get_field(a, this, st);
    m.new_init(o, c, vec![a]);
    m.ret(Some(a));
    let make = m.build();
    let mut m = pb.static_method(c, "main", MethodSig::void());
    let (o, i, r) = (m.reg(), m.reg(), m.reg());
    let (seven, three) = (m.imm(7), m.imm(3));
    m.new_init(o, c, vec![three]);
    m.const_i(i, 0);
    let (head, done) = (m.label(), m.label());
    m.bind(head);
    m.br_icmp_imm(CmpOp::Ge, i, 50, done);
    m.call_virtual(Some(r), o, "make", vec![]);
    m.put_field(o, st, seven);
    m.put_field(o, st, three);
    m.iadd_imm(i, i, 1);
    m.jmp(head);
    m.bind(done);
    m.ret(None);
    let main = m.build();
    pb.set_entry(main);
    let p = pb.finish().expect("verifies");
    let plan = MutationPlan {
        classes: vec![MutableClass {
            class: c,
            instance_state_fields: vec![st],
            static_state_fields: vec![],
            hot_states: vec![HotState {
                instance_values: vec![(st, Value::Int(7))],
                static_values: vec![],
                frequency: 1.0,
            }],
            mutable_methods: vec![make],
            field_scores: vec![],
        }],
        mutation_level: 2,
        k: 0,
        emit_guards: true,
    };
    let rows: Vec<(u64, u64, u64)> = (0..4)
        .map(|seed| {
            let config = VmConfig {
                code_cache_capacity: 0,
                sample_period: u64::MAX,
                ..VmConfig::default()
            };
            let mut vm = Vm::new(p.clone(), config);
            let mut engine = MutationEngine::new(plan.clone(), OlcReport::default());
            engine.install(&mut vm.state);
            let class_tib = vm.state.class_tib(c);
            // Special TIBs are appended after the one TIB of every class.
            let special = TibId(p.classes.len() as u32);
            let slots = p.class(c).vtable.len() as u32;
            let checks = Rc::new(Cell::new(0));
            let handler =
                SlotsFollow { engine, class_tib, special, slots, seen: 0, checks: checks.clone() };
            vm.set_handler(Box::new(handler));
            vm.state.injector = Some(FaultInjector::new(FaultConfig {
                period: 1,
                ..FaultConfig::transparent(seed)
            }));
            vm.run_entry().expect("runs");
            assert!(checks.get() > 0, "seed {seed}: no silent recompile was checked");
            assert!(vm.stats().tib_flips > 0);
            (vm.state.output.checksum, vm.cycles(), vm.stats().ops_executed)
        })
        .collect();
    assert_eq!(rows, SILENT_RECOMPILE_ROWS);
}

const SILENT_RECOMPILE_ROWS: [(u64, u64, u64); 4] = [(0, 11382, 760); 4];

/// An injected recompile swaps the running method's general code for its
/// twin only where that code sits. `Switch` has static state only, so the
/// engine specializes its class TIB itself, and `read` allocates, so the
/// injector fires inside it. Rewriting every class-TIB slot of `read`, as
/// a normal recompile does (its event then makes the engine re-pick the
/// slots), would put general code over the special entry with no event to
/// restore it, and the cycle-transparent fault would move the clock.
#[test]
fn injected_recompiles_keep_a_static_only_class_special() {
    let mut pb = ProgramBuilder::new();
    let switch = pb.class("Switch").build();
    let flag = pb.static_field(switch, "flag", Ty::Int, Value::Int(0));
    pb.trivial_ctor(switch);
    let mut m = pb.method(switch, "read", MethodSig::new(vec![], Some(Ty::Int)));
    let (r, o) = (m.reg(), m.reg());
    m.new_init(o, switch, vec![]);
    m.get_static(r, flag);
    let skip = m.label();
    m.br_icmp_imm(CmpOp::Ne, r, 0, skip);
    m.iadd_imm(r, r, 5);
    m.imul(r, r, r);
    m.bind(skip);
    m.ret(Some(r));
    let read = m.build();
    let mut m = pb.static_method(switch, "main", MethodSig::void());
    let (o, i, r) = (m.reg(), m.reg(), m.reg());
    m.new_init(o, switch, vec![]);
    m.const_i(i, 0);
    let (head, done) = (m.label(), m.label());
    m.bind(head);
    m.br_icmp_imm(CmpOp::Ge, i, 200, done);
    m.call_virtual(Some(r), o, "read", vec![]);
    m.sink_int(r);
    m.iadd_imm(i, i, 1);
    m.jmp(head);
    m.bind(done);
    m.ret(None);
    let main = m.build();
    pb.set_entry(main);
    let p = pb.finish().expect("verifies");
    let plan = MutationPlan {
        classes: vec![MutableClass {
            class: switch,
            instance_state_fields: vec![],
            static_state_fields: vec![flag],
            hot_states: vec![HotState {
                instance_values: vec![],
                static_values: vec![(flag, Value::Int(0))],
                frequency: 1.0,
            }],
            mutable_methods: vec![read],
            field_scores: vec![],
        }],
        mutation_level: 0,
        k: 0,
        emit_guards: true,
    };
    let run = |recompiles: bool| {
        let mut vm = attach_plan(&p, plan.clone(), VmConfig::default());
        vm.state.injector = Some(FaultInjector::new(FaultConfig {
            gc_at_alloc: false,
            ic_bumps: false,
            recompiles,
            period: 5,
            ..FaultConfig::transparent(0)
        }));
        vm.run_entry().expect("runs");
        let injected = vm.state.injector.as_ref().map_or(0, |i| i.recompiles);
        ((vm.state.output.checksum, vm.cycles(), vm.stats().ops_executed), injected)
    };
    let (quiet, injected) = (run(false), run(true));
    assert_eq!(quiet, ((9321279187403844240, 25281, 3005), 0));
    assert!(injected.1 > 0, "no recompile was injected");
    assert_eq!(injected.0, quiet.0);
}

/// Not a check: prints the host cost of one delivery, fastest of five
/// batches. `cargo test --release --test patch_points -- --ignored
/// --nocapture`; to compare revisions, run this file in a checkout of each.
#[test]
#[ignore = "a measurement"]
fn delivery_cost() {
    const N: u32 = 1_000_000;
    let f = fixture();
    let (mut vm, mut engine) = f.vm();
    let obj = new_object(&mut vm, f.cell);
    let slot = f.program.field(f.st).slot as usize;
    let mut fastest = [f64::INFINITY; 2];
    for _ in 0..5 {
        // A constructor exit that finds the object where it belongs.
        vm.state.heap.object_mut(obj).fields[slot] = Value::Int(7);
        engine.on_ctor_exit(&mut vm.state, obj, f.cell);
        let t = std::time::Instant::now();
        for _ in 0..N {
            engine.on_ctor_exit(&mut vm.state, obj, f.cell);
        }
        fastest[0] = fastest[0].min(t.elapsed().as_nanos() as f64 / f64::from(N));
        // A state store that flips: into the hot state, out of it, …
        let t = std::time::Instant::now();
        for i in 0..N {
            vm.state.heap.object_mut(obj).fields[slot] = Value::Int(if i % 2 == 0 { 3 } else { 7 });
            engine.on_instance_store(&mut vm.state, obj, f.cell, f.st);
        }
        fastest[1] = fastest[1].min(t.elapsed().as_nanos() as f64 / f64::from(N));
    }
    assert_eq!(vm.stats().tib_flips, 1 + 5 * u64::from(N));
    println!("delivery, no flip: {:.1} ns; with a flip: {:.1} ns", fastest[0], fastest[1]);
}
