//! The `dchm-fuzz` CLI: drive seed ranges through the configuration
//! lattice, shrink and persist any divergence, and (re)generate the
//! checked-in corpus.
//!
//! ```text
//! dchm-fuzz [--seeds A..B] [--budget-secs N] [--out DIR] [--break-guards]
//! dchm-fuzz --write-corpus [DIR]
//! ```
//!
//! Exit status 0 means every seed conformed; 1 means a divergence was
//! found, minimized, and written to the out directory as JSON.

use dchm_fuzz::{check_spec, corpus_specs, generate, lattice, minimize, tampered, Spec};
use serde::Serialize;
use std::time::Instant;

/// A minimized divergence, as persisted to `--out`.
#[derive(Serialize)]
struct Repro {
    seed: u64,
    kind: String,
    config_a: String,
    config_b: String,
    detail: String,
    spec: Spec,
}

fn flag_value(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn parse_range(s: &str) -> Option<(u64, u64)> {
    let (a, b) = s.split_once("..")?;
    Some((a.parse().ok()?, b.parse().ok()?))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();

    if args.iter().any(|a| a == "--write-corpus") {
        let dir = flag_value(&args, "--write-corpus")
            .filter(|v| !v.starts_with("--"))
            .unwrap_or_else(|| format!("{}/corpus", env!("CARGO_MANIFEST_DIR")));
        std::fs::create_dir_all(&dir).expect("create corpus dir");
        for (name, spec) in corpus_specs() {
            let path = format!("{dir}/{name}.json");
            let json = serde_json::to_string_pretty(&spec).expect("serialize spec");
            std::fs::write(&path, json + "\n").expect("write corpus spec");
            println!("wrote {path}");
        }
        return;
    }

    let (lo, hi) = flag_value(&args, "--seeds")
        .as_deref()
        .map(|s| parse_range(s).unwrap_or_else(|| panic!("bad --seeds range: {s}")))
        .unwrap_or((0, 50));
    let budget_secs: Option<u64> = flag_value(&args, "--budget-secs").map(|v| {
        v.parse()
            .unwrap_or_else(|_| panic!("bad --budget-secs: {v}"))
    });
    let out_dir = flag_value(&args, "--out").unwrap_or_else(|| "fuzz-repros".into());
    let break_guards = args.iter().any(|a| a == "--break-guards");

    let mut configs = lattice();
    if break_guards {
        // The deliberate bug: one mutation-on config silently loses its
        // guards while staying in the strict comparison groups.
        configs = tampered(&configs, "adaptive-mut");
        eprintln!("break-guards: guard emission disabled on `adaptive-mut`");
    }
    eprintln!(
        "fuzzing seeds {lo}..{hi} across {} configs{}",
        configs.len(),
        budget_secs
            .map(|b| format!(", budget {b}s"))
            .unwrap_or_default()
    );

    let start = Instant::now();
    let mut ran = 0u64;
    for seed in lo..hi {
        if let Some(b) = budget_secs {
            if start.elapsed().as_secs() >= b {
                eprintln!("budget exhausted after {ran} seeds");
                break;
            }
        }
        let spec = generate(seed);
        if let Err(d) = check_spec(&spec, &configs) {
            eprintln!(
                "seed {seed}: {} divergence between {} and {} — shrinking",
                d.kind, d.config_a, d.config_b
            );
            let min = minimize(&spec, &configs, d.kind);
            let d = check_spec(&min, &configs).expect_err("minimized spec still diverges");
            let repro = Repro {
                seed,
                kind: d.kind.to_string(),
                config_a: d.config_a.clone(),
                config_b: d.config_b.clone(),
                detail: d.detail.clone(),
                spec: min,
            };
            std::fs::create_dir_all(&out_dir).expect("create out dir");
            let path = format!("{out_dir}/seed-{seed}.json");
            std::fs::write(
                &path,
                serde_json::to_string_pretty(&repro).expect("serialize repro") + "\n",
            )
            .expect("write repro");
            eprintln!("minimized repro written to {path}");
            eprintln!("{}", d.detail);
            std::process::exit(1);
        }
        ran += 1;
        if ran.is_multiple_of(25) {
            let rate = ran as f64 / start.elapsed().as_secs_f64();
            eprintln!("  {ran} seeds, {rate:.1} programs/sec");
        }
    }
    let rate = ran as f64 / start.elapsed().as_secs_f64().max(1e-9);
    println!(
        "{ran} seeds, 0 divergences, {:.1} programs/sec across {} configs",
        rate,
        configs.len()
    );
}
