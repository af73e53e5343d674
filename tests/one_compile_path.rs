//! Every compile request runs one admitted sequence, one request at a
//! time: a mutable method's special versions compile in state order, and
//! `MutationEngine::install_online` re-instruments compiled methods in
//! method order. What the model sees of those fan-outs — clock, ops,
//! compiles per tier, code-cache traffic and the order code versions were
//! stored in — is pinned from the commit before the threaded batch compiler
//! was deleted.

use dchm::bytecode::Value;
use dchm::core::{HotState, MutableClass, MutationEngine, MutationPlan};
use dchm::ir::Function;
use dchm::vm::compiler::{lift_baseline, CompileEnv};
use dchm::vm::{FaultConfig, FaultInjector, SharedCodeCache, Vm, VmConfig};
use dchm::workloads::{catalog, jbb, Driver, Scale};
use dchm_testutil::{acct_program, attach_plan, find_workload, harness_config, prepare_workload};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::Instant;

/// `[clock, ops, compiles at l0, l1, l2, special compiles, code-cache hits,
/// misses, evictions, code versions stored, FNV of their (method, level,
/// special, binding fingerprint) sequence]`.
type Row = [u64; 11];

fn row(vm: &Vm) -> Row {
    let s = vm.stats();
    let code = &vm.state.code;
    let mut fp: u64 = 0xcbf2_9ce4_8422_2325;
    for c in code {
        for v in [
            u64::from(c.method.0),
            u64::from(c.level),
            u64::from(c.special),
            c.binding_fp,
        ] {
            fp = (fp ^ v).wrapping_mul(0x0100_0000_01b3);
        }
    }
    [
        vm.cycles(),
        s.ops_executed,
        s.compiles_by_level[0],
        s.compiles_by_level[1],
        s.compiles_by_level[2],
        s.special_compiles,
        s.code_cache_hits,
        s.code_cache_misses,
        s.code_cache_evictions,
        code.len() as u64,
        fp,
    ]
}

/// `(method, level, special)` of every stored code version from `from` on.
fn stored(vm: &Vm, from: usize) -> Vec<(u32, u8, bool)> {
    vm.state.code[from..]
        .iter()
        .map(|c| (c.method.0, c.level, c.special))
        .collect()
}

/// The fuzzer's adaptive cadence: generated programs climb the tiers
/// within a short run, and every tier-up regenerates the specials.
fn adaptive(code_cache_capacity: usize) -> VmConfig {
    VmConfig {
        sample_period: 600,
        opt1_samples: 2,
        opt2_samples: 4,
        fuel: Some(20_000_000),
        code_cache_capacity,
        ..VmConfig::default()
    }
}

/// The seven Table-1 programs at `Scale::Small` through `pipeline::prepare`.
/// SalaryDB's four hot states are the one four-wide fan-out.
#[rustfmt::skip]
const CATALOG: [Row; 7] = [
    [314683, 48201, 4, 1, 1, 4, 0, 10, 0, 10, 13862862985866206157],
    [199341, 41162, 4, 2, 0, 0, 0, 6, 0, 6, 11434958267258543368],
    [358410, 135536, 6, 2, 1, 0, 0, 9, 0, 9, 13907068301143346519],
    [285801, 129889, 6, 2, 0, 0, 0, 8, 0, 8, 12743150108010730597],
    [273757, 60912, 5, 1, 1, 1, 0, 8, 0, 8, 16867532807259350012],
    [796711, 143793, 28, 5, 1, 0, 0, 34, 0, 34, 4231795483123274412],
    [1268386, 429664, 30, 5, 2, 0, 0, 37, 0, 37, 9371666574230793906],
];

/// Each program runs once as pinned, then with the code cache off: no
/// catalog request repeats a key, so only the cache's own counters differ.
#[test]
fn catalog_fan_outs_are_those_of_the_parent() {
    for (w, want) in catalog(Scale::Small).into_iter().zip(CATALOG) {
        let prepared = prepare_workload(&w);
        let mut vm = prepared.make_vm(harness_config(&w));
        w.run(&mut vm).expect("runs");
        assert_eq!(row(&vm), want, "{}", w.name);

        let mut vm = prepared.make_vm(VmConfig {
            code_cache_capacity: 0,
            ..harness_config(&w)
        });
        w.run(&mut vm).expect("runs");
        let mut no_cache = want;
        no_cache[6..8].fill(0);
        assert_eq!(row(&vm), no_cache, "{} without a code cache", w.name);
    }
}

/// Generated programs 0..24 through `synthesize_plan`, cache on.
#[rustfmt::skip]
const GENERATED: [Row; 24] = [
    [208653, 6498, 10, 9, 7, 15, 3, 38, 0, 38, 5228011561812238899],
    [284535, 12356, 10, 7, 6, 18, 0, 41, 0, 41, 3176960897346804792],
    [123572, 1868, 6, 4, 2, 7, 0, 19, 0, 19, 10895337642027188229],
    [54540, 2579, 3, 2, 1, 3, 0, 9, 0, 9, 10900054864868198953],
    [66638, 2357, 7, 4, 2, 9, 0, 22, 0, 22, 10535872007489491069],
    [315498, 5670, 10, 7, 6, 25, 3, 45, 0, 45, 18366881020519911411],
    [118444, 8378, 8, 4, 3, 4, 0, 19, 0, 19, 7717821121685943268],
    [57341, 1994, 6, 4, 3, 6, 0, 19, 0, 19, 5988792938034936556],
    [221191, 20914, 8, 5, 5, 6, 0, 24, 0, 24, 4412198858917758387],
    [67195, 1679, 7, 5, 3, 3, 0, 18, 0, 18, 9313136839349436949],
    [123492, 7650, 7, 5, 4, 6, 0, 22, 0, 22, 12423568445018408825],
    [169764, 16149, 4, 3, 3, 6, 0, 16, 0, 16, 7587969204416348075],
    [158638, 13190, 4, 3, 2, 4, 0, 13, 0, 13, 17759229373030377406],
    [373041, 22506, 8, 7, 6, 18, 0, 39, 0, 39, 10933528103546813891],
    [310652, 4042, 7, 5, 5, 14, 0, 31, 0, 31, 5292564957444989329],
    [297070, 5697, 11, 9, 4, 18, 0, 42, 0, 42, 1213644453753660667],
    [224235, 6024, 9, 7, 3, 11, 0, 30, 0, 30, 14671643447281166103],
    [49802, 2640, 4, 2, 2, 6, 0, 14, 0, 14, 8654367042408782371],
    [219531, 13020, 9, 7, 6, 27, 3, 46, 0, 46, 6252086237590345945],
    [287018, 15176, 8, 7, 3, 8, 2, 24, 0, 24, 4469730050994904735],
    [402320, 14521, 5, 5, 5, 6, 0, 21, 0, 21, 1120512194636573258],
    [254544, 4709, 6, 5, 4, 6, 0, 21, 0, 21, 3705873906597085103],
    [162137, 4272, 9, 6, 6, 14, 0, 35, 0, 35, 14914395274452549426],
    [225772, 16536, 8, 6, 5, 10, 0, 29, 0, 29, 10492498850991424856],
];

/// The same programs with the code cache off: a request that hit above
/// compiles (and stores) again here.
#[rustfmt::skip]
const GENERATED_NO_CACHE: [Row; 24] = [
    [208653, 6498, 10, 9, 7, 15, 0, 0, 0, 41, 11863648603914557863],
    [284535, 12356, 10, 7, 6, 18, 0, 0, 0, 41, 3176960897346804792],
    [123572, 1868, 6, 4, 2, 7, 0, 0, 0, 19, 10895337642027188229],
    [54540, 2579, 3, 2, 1, 3, 0, 0, 0, 9, 10900054864868198953],
    [66638, 2357, 7, 4, 2, 9, 0, 0, 0, 22, 10535872007489491069],
    [315498, 5670, 10, 7, 6, 25, 0, 0, 0, 48, 1777177401897327633],
    [118444, 8378, 8, 4, 3, 4, 0, 0, 0, 19, 7717821121685943268],
    [57341, 1994, 6, 4, 3, 6, 0, 0, 0, 19, 5988792938034936556],
    [221191, 20914, 8, 5, 5, 6, 0, 0, 0, 24, 4412198858917758387],
    [67195, 1679, 7, 5, 3, 3, 0, 0, 0, 18, 9313136839349436949],
    [123492, 7650, 7, 5, 4, 6, 0, 0, 0, 22, 12423568445018408825],
    [169764, 16149, 4, 3, 3, 6, 0, 0, 0, 16, 7587969204416348075],
    [158638, 13190, 4, 3, 2, 4, 0, 0, 0, 13, 17759229373030377406],
    [373041, 22506, 8, 7, 6, 18, 0, 0, 0, 39, 10933528103546813891],
    [310652, 4042, 7, 5, 5, 14, 0, 0, 0, 31, 5292564957444989329],
    [297070, 5697, 11, 9, 4, 18, 0, 0, 0, 42, 1213644453753660667],
    [224235, 6024, 9, 7, 3, 11, 0, 0, 0, 30, 14671643447281166103],
    [49802, 2640, 4, 2, 2, 6, 0, 0, 0, 14, 8654367042408782371],
    [219531, 13020, 9, 7, 6, 27, 0, 0, 0, 49, 11224793388926745246],
    [287018, 15176, 8, 7, 3, 8, 0, 0, 0, 26, 13647291659392124048],
    [402320, 14521, 5, 5, 5, 6, 0, 0, 0, 21, 1120512194636573258],
    [254544, 4709, 6, 5, 4, 6, 0, 0, 0, 21, 3705873906597085103],
    [162137, 4272, 9, 6, 6, 14, 0, 0, 0, 35, 14914395274452549426],
    [225772, 16536, 8, 6, 5, 10, 0, 0, 0, 29, 10492498850991424856],
];

#[test]
fn generated_fan_outs_are_those_of_the_parent() {
    for seed in 0..24 {
        let (p, plan) = dchm_fuzz::compile_spec(&dchm_fuzz::generate(seed)).expect("lowers");
        for (cap, want) in [
            (1024, GENERATED[seed as usize]),
            (0, GENERATED_NO_CACHE[seed as usize]),
        ] {
            let mut vm = attach_plan(&p, plan.clone(), adaptive(cap));
            let _ = vm.run_entry();
            assert_eq!(row(&vm), want, "seed {seed}, cache capacity {cap}");
        }
    }
}

/// The same programs under injected compile failures (period 2), with
/// `(compile failures, quarantines)` beside each row.
#[rustfmt::skip]
const GENERATED_CFAIL: [(Row, u64, u64); 24] = [
    ([267033, 6397, 10, 8, 4, 3, 0, 25, 0, 25, 10054924326439498864], 13, 1),
    ([164947, 13008, 10, 4, 5, 8, 0, 27, 0, 27, 10292831520672782271], 17, 2),
    ([119590, 1852, 7, 3, 2, 5, 1, 16, 0, 16, 3989419861950139676], 6, 0),
    ([49993, 2579, 3, 2, 1, 2, 0, 8, 0, 8, 15724499028112783848], 3, 0),
    ([69382, 2357, 7, 3, 2, 3, 0, 15, 0, 15, 17740198661712986463], 8, 1),
    ([279491, 5618, 10, 6, 5, 15, 0, 36, 0, 36, 867284436374368814], 13, 0),
    ([116139, 8389, 9, 3, 3, 2, 1, 16, 0, 16, 7158552355689238924], 9, 0),
    ([50933, 1941, 6, 4, 2, 3, 0, 15, 0, 15, 11022189997037357071], 10, 0),
    ([199287, 20914, 8, 2, 4, 3, 0, 17, 0, 17, 6691046078012126881], 12, 0),
    ([50376, 1644, 7, 4, 2, 1, 0, 14, 0, 14, 14460625578355069743], 8, 0),
    ([97728, 7640, 7, 1, 3, 3, 0, 14, 0, 14, 15587008750648655609], 15, 1),
    ([150220, 16149, 4, 1, 2, 4, 0, 11, 0, 11, 267781094813858173], 11, 2),
    ([147623, 13190, 4, 1, 3, 2, 0, 10, 0, 10, 5025562077953310133], 7, 0),
    ([556765, 22379, 8, 6, 7, 8, 0, 29, 0, 29, 11808022678926213280], 19, 3),
    ([150002, 3896, 8, 5, 3, 3, 1, 18, 0, 18, 1796955948834157490], 15, 2),
    ([187860, 5697, 11, 5, 4, 11, 0, 31, 0, 31, 8014110938575763955], 14, 1),
    ([148201, 6024, 9, 6, 3, 6, 0, 24, 0, 24, 7929703908852052466], 10, 1),
    ([35365, 2707, 4, 1, 2, 2, 0, 9, 0, 9, 10465535164884122975], 8, 0),
    ([374928, 12515, 9, 5, 5, 7, 0, 26, 0, 26, 14233537014553934482], 29, 3),
    ([208378, 15176, 8, 3, 4, 6, 0, 21, 0, 21, 3227508340505373162], 8, 0),
    ([387424, 14521, 5, 4, 4, 4, 0, 17, 0, 17, 492507115549104568], 8, 0),
    ([129156, 4721, 6, 4, 2, 6, 0, 18, 0, 18, 18095663083555995747], 5, 0),
    ([127398, 4084, 9, 3, 5, 6, 0, 23, 0, 23, 11241636376655332502], 16, 0),
    ([282869, 16536, 8, 5, 5, 5, 0, 23, 0, 23, 11595348311170593360], 12, 0),
];

#[test]
fn generated_counts_under_compile_failures() {
    for seed in 0..24 {
        let (p, plan) = dchm_fuzz::compile_spec(&dchm_fuzz::generate(seed)).expect("lowers");
        let mut vm = attach_plan(&p, plan, adaptive(1024));
        vm.state.injector = Some(FaultInjector::new(FaultConfig::compile_failures(seed)));
        let _ = vm.run_entry();
        let s = vm.stats();
        let got = (row(&vm), s.compile_failures, s.compile_quarantines);
        assert_eq!(got, GENERATED_CFAIL[seed as usize], "seed {seed}");
    }
}

/// Two hot states whose bindings are identical: with a cache the second
/// request is a hit on the first one's entry; without one it compiles and
/// stores a second copy. Either way both bill, so the clock agrees.
#[test]
fn identical_bindings_compile_once_with_a_cache_and_twice_without() {
    let (p, acct, s, _keep, go) = acct_program();
    let hot = || HotState {
        instance_values: vec![(s, Value::Int(7))],
        static_values: vec![],
        frequency: 0.5,
    };
    let plan = MutationPlan {
        classes: vec![MutableClass {
            class: acct,
            instance_state_fields: vec![s],
            static_state_fields: vec![],
            hot_states: vec![hot(), hot()],
            mutable_methods: vec![go],
            field_scores: vec![],
        }],
        mutation_level: 0,
        k: 0,
        emit_guards: true,
    };
    let general = [(2, 0, false), (0, 0, false), (1, 0, false)];
    for (cap, hits, specials) in [(1024, 1, 1), (0, 0, 2)] {
        let config = VmConfig {
            code_cache_capacity: cap,
            ..VmConfig::default()
        };
        let mut vm = attach_plan(&p, plan.clone(), config);
        vm.run_entry().expect("runs");
        let r = row(&vm);
        assert_eq!(r[..6], [7846, 27, 3, 0, 0, 2], "cache capacity {cap}");
        assert_eq!(r[6], hits, "cache capacity {cap}");
        let mut want = general.to_vec();
        want.extend(std::iter::repeat_n((1, 0, true), specials));
        assert_eq!(stored(&vm, 0), want, "cache capacity {cap}");
    }
}

/// `MutationEngine::install_online` on SPECjbb2000: warehouses 1 and 2 run
/// on a plain VM, the plan and OLC report of `pipeline::prepare` go in
/// between 2 and 3. The install re-instruments seven compiled methods, one
/// `recompile` each, in method order.
#[rustfmt::skip]
const ONLINE: Row = [1030800, 142786, 32, 7, 2, 3, 0, 44, 0, 44, 9374359820127346224];

#[test]
fn online_install_recompiles_in_method_order() {
    let w = jbb::build(jbb::JbbVariant::Jbb2000, Scale::Small);
    let Driver::Warehouse {
        setup,
        run,
        txns,
        warehouses,
    } = w.driver
    else {
        unreachable!("SPECjbb2000 is warehouse-driven")
    };
    assert_eq!(warehouses, 3);
    let mut vm = Vm::new(w.program.clone(), harness_config(&w));
    vm.call_static(setup, &[]).expect("setup");
    for _ in 0..2 {
        vm.call_static(run, &[Value::Int(txns)])
            .expect("warehouses 1-2");
    }
    let prepared = prepare_workload(&w);
    assert_eq!(prepared.plan.classes.len(), 3);
    let before = vm.state.code.len();
    MutationEngine::new(prepared.plan, prepared.olc).install_online(&mut vm);
    assert_eq!(before, 33);
    assert_eq!(
        stored(&vm, before),
        [
            (8, 1, false),
            (9, 0, false),
            (10, 1, false),
            (11, 0, false),
            (14, 0, false),
            (15, 1, false),
            (30, 0, false)
        ]
    );
    vm.call_static(run, &[Value::Int(txns)])
        .expect("warehouse 3");

    let mut plain = Vm::new(w.program.clone(), harness_config(&w));
    w.run(&mut plain).expect("runs");
    assert_eq!(vm.state.output.checksum, plain.state.output.checksum);
    assert_eq!(row(&vm), ONLINE);
}

/// Two identical tenants over one `SharedCodeCache`: the first misses on
/// every compile and publishes it, the second is answered on every one, and
/// both carry the solo row.
#[test]
fn second_tenant_is_answered_from_the_shared_cache() {
    for (name, solo, compiles) in [
        ("SalaryDB", CATALOG[0], 10),
        ("SPECjbb2000", CATALOG[5], 34),
    ] {
        let w = find_workload(name);
        let prepared = prepare_workload(&w);
        let shared = Arc::new(SharedCodeCache::new(1024));
        for (hits, misses) in [(0, compiles), (compiles, 0)] {
            let mut vm = prepared.make_vm_shared(harness_config(&w), &shared);
            w.run(&mut vm).expect("runs");
            assert_eq!(row(&vm), solo, "{name}");
            assert_eq!(
                (vm.state.shared_hits, vm.state.shared_misses),
                (hits, misses),
                "{name}"
            );
        }
    }
}

/// The governor's throttle gate is asked for every state at the clock a
/// fan-out starts at, before any of its compiles bills. On these generated
/// storms (forced guard failures, default governor) a state's throttle
/// expires while an earlier state of the same fan-out is billed: asking
/// the gate inside the loop would admit one more special and move the
/// clock by 10.8k–13.1k cycles. The compile-quarantine gate needs no such
/// care: it is keyed by (method, level), shared by every request of a
/// fan-out, and once closed it admits nothing, so nothing bills and the
/// clock that would reopen it stands still until the fan-out ends.
#[test]
fn throttle_gate_is_asked_at_the_fan_out_clock() {
    let storm = dchm_fuzz::lattice()
        .into_iter()
        .find(|c| c.name == "adaptive-mut-storm1")
        .expect("lattice has the storm twins");
    for (seed, clock) in [(68, 417_614), (182, 286_845), (188, 153_224)] {
        let (p, plan) = dchm_fuzz::compile_spec(&dchm_fuzz::generate(seed)).expect("lowers");
        let obs = dchm_fuzz::run_config(&p, &plan, &storm);
        assert_eq!(obs.obs.clock, clock, "seed {seed}");
        assert!(obs.specials_throttled > 0, "seed {seed}");
    }
}

/// Host nanoseconds of hash-consing a run's lifts, and the run's compile
/// window. Consing (`Function::fingerprint`, which formats the whole
/// function, then an equality scan of its bucket) runs inside
/// `compile_wall_nanos` on every lift miss. This replays it on one fresh
/// lift, under the run's final compiler environment, of each method the
/// run compiled, and scales the sum by the run's lift misses per method
/// replayed (a plan install flushes the lift memo, so a method can be
/// lifted twice).
fn consing_and_window(vm: &Vm) -> (f64, u64) {
    let env = CompileEnv::of(&vm.state);
    let mut seen = HashSet::new();
    let mut buckets: HashMap<u64, Vec<Function>> = HashMap::new();
    let mut nanos = 0u64;
    for c in &vm.state.code {
        if !seen.insert(c.method) {
            continue;
        }
        let f = lift_baseline(env.program, env.patch_spec, c.method);
        let t = Instant::now();
        let bucket = buckets.entry(f.fingerprint()).or_default();
        if !bucket.contains(&f) {
            bucket.push(f);
        }
        nanos += t.elapsed().as_nanos() as u64;
    }
    let per_lift = nanos as f64 / seen.len().max(1) as f64;
    (per_lift * vm.state.lift_cache.misses as f64, vm.state.compile_wall_nanos)
}

/// Not a check: sizes the next compile cut — dropping the lift memo's
/// hash-consing — as consing's share of the compile window, over the
/// 384-program pool `short_programs` draws from (generator seeds from
/// 20,060,326, synthesized plans, the fuzzer's cadence) and the seven
/// catalog programs at `Scale::Small`. `cargo test --release --test
/// one_compile_path -- --ignored --nocapture lift_consing_share`.
#[test]
#[ignore = "a measurement"]
fn lift_consing_share() {
    let (mut consing, mut window, mut lifts) = (0.0, 0u64, 0u64);
    for k in 0..384 {
        let spec = dchm_fuzz::generate(20_060_326 + k);
        let (p, plan) = dchm_fuzz::compile_spec(&spec).expect("lowers");
        let mut vm = attach_plan(&p, plan, adaptive(1024));
        let _ = vm.run_entry();
        let (c, w) = consing_and_window(&vm);
        (consing, window, lifts) = (consing + c, window + w, lifts + vm.state.lift_cache.misses);
    }
    println!(
        "pool: {lifts} lifts, window {:.1} ms, consing {:.2} ms = {:.1}%",
        window as f64 / 1e6,
        consing / 1e6,
        100.0 * consing / window as f64
    );
    for w in catalog(Scale::Small) {
        let prepared = prepare_workload(&w);
        let mut vm = prepared.make_vm(harness_config(&w));
        w.run(&mut vm).expect("runs");
        let (c, win) = consing_and_window(&vm);
        println!(
            "{}: {} lifts, window {:.2} ms, consing {:.3} ms = {:.1}%",
            w.name,
            vm.state.lift_cache.misses,
            win as f64 / 1e6,
            c / 1e6,
            100.0 * c / win as f64
        );
    }
}
