//! `repro` — regenerates every table and figure of the paper's evaluation.
//!
//! ```text
//! repro table1            # Table 1: benchmark inventory
//! repro fig9              # overall speedups
//! repro fig10             # code size increase
//! repro fig11             # compilation time increase
//! repro fig12             # TIB space increase
//! repro fig13             # JBB2000 per-warehouse throughput delta
//! repro fig14             # ... with accelerated hotness detection
//! repro fig15             # JBB2005 per-warehouse throughput delta
//! repro all               # everything above (the default target)
//! repro all --small       # ... at test scale (fast); --small goes anywhere
//! repro ablations         # modeled effect of R, k, mutation level, state cap
//! repro plan <benchmark>  # print the mutation plan JSON for one benchmark
//! ```

use dchm_bench::scale_from_args;
use dchm_bench::{
    measure, measure_suite, measure_with_analysis, prepare_workload, table1, Measurement,
};
use dchm_core::AnalysisConfig;
use dchm_workloads::{catalog, jbb, salarydb, Scale, Workload};

fn pct(x: f64) -> String {
    format!("{:+.1}%", x * 100.0)
}

fn print_table1(scale: Scale) {
    println!("== Table 1: Benchmarks used in the empirical study ==");
    println!("{:<14} {:>8} {:>8}", "Program", "Classes", "Methods");
    for (name, c, m) in table1(scale) {
        println!("{name:<14} {c:>8} {m:>8}");
    }
    println!("(paper: SalaryDB 3/8, SimLogic 3/29, CSVToXML 5/32, Java2XHTML 2/8,");
    println!(" Weka 22/423, SPECjbb2000 81/978, SPECjbb2005 65/702 — full apps;");
    println!(" our reconstructions carry the hot structure, not the full class count)");
    println!();
}

fn print_fig9(suite: &[Measurement]) {
    println!("== Figure 9: Overall performance improvement ==");
    println!("{:<14} {:>10}   paper", "Program", "speedup");
    let paper = [
        ("SalaryDB", "31.4%"),
        ("SimLogic", "~8%"),
        ("CSVToXML", "3.3%"),
        ("Java2XHTML", "2.9%"),
        ("Weka", "4.7%"),
        ("SPECjbb2000", "4.5%"),
        ("SPECjbb2005", "1.9%"),
    ];
    for m in suite {
        let p = paper
            .iter()
            .find(|(n, _)| *n == m.name)
            .map(|(_, v)| *v)
            .unwrap_or("-");
        println!("{:<14} {:>10}   {p}", m.name, pct(m.speedup()));
    }
    println!();
}

fn print_fig10(suite: &[Measurement]) {
    println!("== Figure 10: Code size increase ==");
    println!("{:<14} {:>10}  (paper: <8% everywhere)", "Program", "increase");
    for m in suite {
        println!("{:<14} {:>10}", m.name, pct(m.code_size_increase()));
    }
    println!();
}

fn print_fig11(suite: &[Measurement]) {
    println!("== Figure 11: Opt compiler's compilation time increase ==");
    println!(
        "{:<14} {:>10} {:>18}  (paper: <=17%, fractions 0.3%-3.1%)",
        "Program", "increase", "compile/total"
    );
    for m in suite {
        println!(
            "{:<14} {:>10} {:>17}%",
            m.name,
            pct(m.compile_time_increase()),
            format!("{:.1}", m.compile_fraction() * 100.0)
        );
    }
    println!();
}

fn print_fig12(suite: &[Measurement]) {
    println!("== Figure 12: TIB space increase ==");
    println!(
        "{:<14} {:>12} {:>10}  (paper: <=~1000 bytes)",
        "Program", "bytes", "relative"
    );
    for m in suite {
        println!(
            "{:<14} {:>12} {:>10}",
            m.name,
            m.tib_increase_bytes(),
            pct(m.tib_increase_rel())
        );
    }
    println!();
}

fn print_warehouse_fig(title: &str, deltas: &[f64], paper_note: &str) {
    println!("== {title} ==");
    print!("warehouse: ");
    for i in 0..deltas.len() {
        print!("{:>8}", format!("wh{}", i + 1));
    }
    println!();
    print!("delta:     ");
    for d in deltas {
        print!("{:>8}", format!("{:+.1}%", d * 100.0));
    }
    println!("\n({paper_note})\n");
}

/// The tunables the paper calls out (`R` of EQ 1, `k` of the Section 5
/// inline-vs-specialize heuristic, the level special code is generated at,
/// special TIBs allowed per class), one measured row per value.
fn print_ablations(scale: Scale) {
    let salary = salarydb::build(scale);
    let jbb2000 = jbb::build(jbb::JbbVariant::Jbb2000, scale);
    let mut rows: Vec<(&str, &Workload, String, AnalysisConfig)> = Vec::new();
    for r in [0.0, 1.0, 100.0] {
        let cfg = AnalysisConfig {
            r,
            ..Default::default()
        };
        rows.push(("R", &salary, r.to_string(), cfg));
    }
    for k in [-5, 0, 5] {
        let cfg = AnalysisConfig {
            k,
            ..Default::default()
        };
        rows.push(("k", &jbb2000, k.to_string(), cfg));
    }
    for mutation_level in [1, 2] {
        let cfg = AnalysisConfig {
            mutation_level,
            ..Default::default()
        };
        rows.push(("level", &salary, mutation_level.to_string(), cfg));
    }
    for cap in [1, 2, 4, 8] {
        let cfg = AnalysisConfig {
            max_hot_states_per_class: cap,
            ..Default::default()
        };
        rows.push(("cap", &salary, cap.to_string(), cfg));
    }
    println!("== Ablations: modeled effect of the analysis tunables ==");
    println!(
        "{:<6} {:>5}  {:<12} {:>9} {:>15} {:>14}",
        "sweep", "value", "program", "speedup", "special code B", "special TIB B"
    );
    for (sweep, w, value, cfg) in rows {
        let m = measure_with_analysis(w, cfg);
        println!(
            "{sweep:<6} {value:>5}  {:<12} {:>9} {:>15} {:>14}",
            m.name,
            pct(m.speedup()),
            m.mutated.special_code_bytes,
            m.mutated.special_tib_bytes
        );
    }
    println!();
}

/// What `all` prints, in order.
const ALL: [&str; 8] = [
    "table1", "fig9", "fig10", "fig11", "fig12", "fig13", "fig14", "fig15",
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let scale = scale_from_args(&args);
    // The target is the first non-flag argument, wherever `--small` sits.
    let mut words = args
        .iter()
        .map(String::as_str)
        .filter(|a| !a.starts_with("--"));
    let what = words.next().unwrap_or("all");
    let targets = if what == "all" { &ALL[..] } else { &[what][..] };

    let need_suite = targets
        .iter()
        .any(|t| matches!(*t, "fig9" | "fig10" | "fig11" | "fig12"));
    let suite = if need_suite {
        eprintln!("measuring full suite at {scale:?} scale (2 runs per benchmark)...");
        measure_suite(scale)
    } else {
        Vec::new()
    };

    for target in targets {
        match *target {
            "plan" => {
                let name = words.next().unwrap_or("SalaryDB");
                let Some(w) = catalog(scale).into_iter().find(|w| w.name == name) else {
                    eprintln!("unknown benchmark {name}; use a Table 1 name");
                    std::process::exit(2);
                };
                let prepared = prepare_workload(&w);
                println!("{}", prepared.plan.to_json().expect("serializable"));
            }
            "ablations" => print_ablations(scale),
            "table1" => print_table1(scale),
            "fig9" => print_fig9(&suite),
            "fig10" => print_fig10(&suite),
            "fig11" => print_fig11(&suite),
            "fig12" => print_fig12(&suite),
            "fig13" => {
                let m = measure(&jbb::build(jbb::JbbVariant::Jbb2000, scale), false);
                print_warehouse_fig(
                    "Figure 13: SPECjbb2000 throughput change due to mutation",
                    &m.warehouse_deltas(),
                    "paper: wh1-2 dip from compilation, later warehouses gain ~4-5%",
                );
            }
            "fig14" => {
                let m = measure(&jbb::build(jbb::JbbVariant::Jbb2000, scale), true);
                print_warehouse_fig(
                    "Figure 14: SPECjbb2000 with accelerated hotness detection",
                    &m.warehouse_deltas(),
                    "paper: sharper wh1 dip, steady state arrives one warehouse earlier",
                );
            }
            "fig15" => {
                let m = measure(&jbb::build(jbb::JbbVariant::Jbb2005, scale), false);
                print_warehouse_fig(
                    "Figure 15: SPECjbb2005 throughput change due to mutation",
                    &m.warehouse_deltas(),
                    "paper: wh1-3 dip, smaller steady-state gain (~2%)",
                );
            }
            other => {
                eprintln!(
                    "unknown target {other}; use table1|fig9..fig15|all|ablations|plan <benchmark> [--small]"
                );
                std::process::exit(2);
            }
        }
    }
}
