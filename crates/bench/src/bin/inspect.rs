//! `inspect` — diagnostic deep-dive into one benchmark: the mutation plan,
//! hot methods, final compilation levels and special-code usage for both
//! the baseline and mutated runs.
//!
//! ```text
//! inspect SalaryDB [--small]
//! ```

use dchm_bench::runner::scale_from_args;
use dchm_bench::{measured_config, prepare_workload};
use dchm_workloads::catalog;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let name = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .cloned()
        .unwrap_or_else(|| "SalaryDB".into());
    let scale = scale_from_args(&args);
    let Some(w) = catalog(scale).into_iter().find(|w| w.name == name) else {
        eprintln!("unknown benchmark {name}");
        std::process::exit(2);
    };

    let prepared = prepare_workload(&w);
    println!("== plan for {} ==", w.name);
    for mc in &prepared.plan.classes {
        let p = &w.program;
        println!(
            "mutable class {}: inst fields {:?}, static fields {:?}, {} hot states",
            p.class(mc.class).name,
            mc.instance_state_fields
                .iter()
                .map(|&f| p.field(f).name.clone())
                .collect::<Vec<_>>(),
            mc.static_state_fields
                .iter()
                .map(|&f| p.field(f).name.clone())
                .collect::<Vec<_>>(),
            mc.hot_states.len(),
        );
        for &m in &mc.mutable_methods {
            println!("    mutable method {}", p.method(m).name);
        }
    }
    println!("olc refs: {}", prepared.olc.len());

    for (label, mutated) in [("baseline", false), ("mutated", true)] {
        let mut vm = if mutated {
            prepared.make_vm(measured_config(&w))
        } else {
            prepared.make_baseline_vm(measured_config(&w))
        };
        w.run(&mut vm).unwrap();
        let s = vm.stats();
        println!("\n== {label} run ==");
        // The VmStats Display table is the standard dump (stable layout,
        // shared with the bench bins).
        println!("{s}");
        println!("hot methods:");
        for (mid, prof) in s.hot_methods().into_iter().take(10) {
            let md = w.program.method(mid);
            println!(
                "  {prof}  {}::{}",
                w.program.class(md.owner).name,
                md.name
            );
        }
    }
}
