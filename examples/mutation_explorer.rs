//! Mutation explorer: shows the machinery at work for one benchmark —
//! the EQ 1 field scores, the plan, the object-lifetime constants, and the
//! general vs specialized IR of a mutable method (the paper's Figure 2(b)
//! "mutated versions", generated automatically).
//!
//! ```text
//! cargo run --release --example mutation_explorer -- SalaryDB
//! ```

use dchm::bytecode::Value;
use dchm::core::analysis::{find_state_fields, AnalysisConfig};
use dchm::core::pipeline::{prepare, PipelineConfig};
use dchm::ir::passes::{run_pipeline, specialize, Bindings, OptConfig};
use dchm::ir::lift;
use dchm::profile::profile_hot_methods;
use dchm::workloads::{catalog, Scale};

fn main() {
    let name = std::env::args().nth(1).unwrap_or_else(|| "SalaryDB".into());
    let Some(w) = catalog(Scale::Small).into_iter().find(|w| w.name == name) else {
        eprintln!("unknown benchmark {name}; try one of the Table 1 names");
        std::process::exit(2);
    };
    let p = &w.program;

    // EQ 1 scores.
    let wl = w.clone();
    let hot = profile_hot_methods(p.clone(), w.vm_config(), move |vm| {
        wl.run(vm).unwrap();
    });
    println!("== EQ 1 state-field scores ==");
    for fs in find_state_fields(p, &hot, &AnalysisConfig::default()) {
        let fd = p.field(fs.field);
        println!(
            "  V = {:>8.4}   {}.{}{}",
            fs.score,
            p.class(fd.owner).name,
            fd.name,
            if fd.is_static { " (static)" } else { "" }
        );
    }

    // The plan.
    let cfg = PipelineConfig {
        profile_vm: w.vm_config(),
        ..Default::default()
    };
    let wl = w.clone();
    let prepared = prepare(p.clone(), &cfg, move |vm| {
        wl.run(vm).unwrap();
    });
    println!("\n== mutation plan ==");
    println!("{}", prepared.plan.to_json().unwrap());
    if !prepared.olc.is_empty() {
        println!("== object lifetime constants ==");
        for (f, info) in &prepared.olc.infos {
            println!(
                "  via {}.{} -> exact {} with {} constant field(s)",
                p.class(p.field(*f).owner).name,
                p.field(*f).name,
                p.class(info.exact_class).name,
                info.bindings.len()
            );
        }
    }

    // General vs specialized IR of the first mutable method / hot state.
    let Some(mc) = prepared.plan.classes.first() else {
        println!("no mutable classes found");
        return;
    };
    let Some(&mid) = mc.mutable_methods.first() else {
        return;
    };
    let md = p.method(mid);
    println!(
        "\n== {}::{} — general (opt2) ==",
        p.class(md.owner).name,
        md.name
    );
    let mut general = lift(&md.code, md.num_regs, md.arg_count() as u16);
    run_pipeline(&mut general, &OptConfig::level(2));
    println!("{general}");

    if let Some(state) = mc.hot_states.first() {
        let bind = Bindings {
            instance: state.instance_values.iter().copied().collect(),
            statics: state.static_values.iter().copied().collect(),
        };
        let describe = |vals: &[(dchm::bytecode::FieldId, Value)]| {
            vals.iter()
                .map(|(f, v)| format!("{}={v}", p.field(*f).name))
                .collect::<Vec<_>>()
                .join(", ")
        };
        println!(
            "== specialized for hot state [{}{}] ==",
            describe(&state.instance_values),
            describe(&state.static_values),
        );
        let mut special = lift(&md.code, md.num_regs, md.arg_count() as u16);
        specialize(&mut special, &bind);
        run_pipeline(&mut special, &OptConfig::level(2));
        println!("{special}");
        println!(
            "size: general {} ops -> specialized {} ops",
            general.size(),
            special.size()
        );
        // What the evaluator actually runs: the flat pre-decoded form with
        // segment costs folded into calls and terminators.
        println!("== specialized, lowered ==");
        print!("{}", dchm::vm::lower(&special, p, &[]));
    }
}
