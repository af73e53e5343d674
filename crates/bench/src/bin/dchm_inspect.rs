//! `dchm-inspect` — producer and offline reader of the attribution
//! artifacts: `<name>.trace.json` (Chrome trace-event/Perfetto),
//! `<name>.metrics.json` (VM counters + event-derived histograms),
//! `<name>.folded` (cycle-attribution profiler stacks) and
//! `<name>.census.json` (heap & state census).
//!
//! Subcommands:
//!
//! * `run [--small] [--workload NAME|all] [--dir traces]` — one mutated run
//!   per workload (default SalaryDB) under the measured configuration with
//!   tracing and profiling on; writes the four artifacts into the directory
//!   and prints the `VmStats` table and the trace's event counts. The
//!   committed `traces/SalaryDB.*` are `run --small`'s output.
//! * `report [--dir traces] [--workload NAME|all] [--top K]` — per
//!   workload: top-K attribution cells by estimated exec cycles, the
//!   exec/compile/GC cycle breakdown, heap census and state-residency
//!   tables.
//! * `diff <A.folded> <B.folded> [--threshold PCT]` — per-cell sample
//!   deltas between two profiles. Exits 2 when any cell in B exceeds its A
//!   count by more than the threshold (default 10%) — the regression gate.
//!   Two identical profiles always report zero delta and exit 0.
//! * `export --prometheus [--dir traces] [--workload NAME]` — renders the
//!   workload's metrics/census/profile artifacts in the Prometheus text
//!   exposition format: a gauge per VM counter, census gauges per class,
//!   residency histograms with log2 `le` buckets, and per-cell sample
//!   counters.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use dchm_bench::{flag_value, has_flag, measured_config, prepare_workload, scale_from_args};
use dchm_vm::trace::export::chrome_trace_json;
use dchm_vm::trace::metrics::MetricsSnapshot;
use dchm_vm::trace::profile::{folded_leaf_cells, parse_folded};
use dchm_vm::Vm;
use dchm_workloads::{catalog, Workload};
use serde::{Serialize, Value};

fn field<'a>(v: &'a Value, k: &str) -> Option<&'a Value> {
    match v {
        Value::Object(fields) => fields.iter().find(|(n, _)| n == k).map(|(_, v)| v),
        _ => None,
    }
}

fn as_u64(v: &Value) -> Option<u64> {
    match v {
        Value::Int(i) => u64::try_from(*i).ok(),
        _ => None,
    }
}

fn load_json(path: &Path) -> Option<Value> {
    let text = std::fs::read_to_string(path).ok()?;
    match serde_json::from_str::<Value>(&text) {
        Ok(v) => Some(v),
        Err(e) => {
            eprintln!("warning: {}: {e}", path.display());
            None
        }
    }
}

/// Workload stems with a `.folded` file in `dir`, sorted.
fn discover(dir: &Path) -> Vec<String> {
    let mut stems = Vec::new();
    if let Ok(entries) = std::fs::read_dir(dir) {
        for e in entries.flatten() {
            let name = e.file_name().to_string_lossy().into_owned();
            if let Some(stem) = name.strip_suffix(".folded") {
                stems.push(stem.to_string());
            }
        }
    }
    stems.sort();
    stems
}

// ------------------------------------------------------------------- run

/// Trace ring capacity of a `run`. Events past it are dropped, counted in
/// the metrics document and printed.
const RING_CAPACITY: usize = 64 * 1024;

/// Writes `{"workload": name, ...fields}` pretty-printed to `path`.
fn write_doc(path: &Path, name: &str, fields: Vec<(&str, Value)>) -> std::io::Result<()> {
    let mut doc = vec![("workload".to_string(), Value::Str(name.to_string()))];
    doc.extend(fields.into_iter().map(|(k, v)| (k.to_string(), v)));
    let json = serde_json::to_string_pretty(&Value::Object(doc))
        .expect("Value serialization is infallible");
    std::fs::write(path, json)
}

/// Writes the four artifacts of a finished traced, profiled run of `name`.
fn write_artifacts(dir: &Path, name: &str, vm: &Vm) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let path = |ext: &str| dir.join(format!("{name}.{ext}"));
    let events = vm.trace_events();
    std::fs::write(path("trace.json"), chrome_trace_json(&events))?;
    let snapshot = MetricsSnapshot::build(&events, vm.cycles(), vm.state.tracer.dropped());
    write_doc(
        &path("metrics.json"),
        name,
        vec![
            ("vm_stats", vm.stats().to_json_value()),
            ("trace_metrics", snapshot.to_json_value()),
        ],
    )?;
    std::fs::write(path("folded"), vm.profile_folded())?;
    let census = vm.state.census().to_json_value();
    write_doc(&path("census.json"), name, vec![("census", census)])
}

/// One mutated run of `w` with tracing on (profiling is on by default),
/// its artifacts written to `dir` and its stats printed.
fn run_workload(w: &Workload, dir: &Path) -> std::io::Result<()> {
    let prepared = prepare_workload(w);
    let mut vm = prepared.make_vm(measured_config(w));
    vm.enable_tracing(RING_CAPACITY);
    w.run(&mut vm).expect("workload must not trap");
    write_artifacts(dir, w.name, &vm)?;

    let events = vm.trace_events();
    println!("== {} ==", w.name);
    println!("{}", vm.stats());
    println!(
        "trace     events {} (dropped {})  ring {RING_CAPACITY}",
        events.len(),
        vm.state.tracer.dropped(),
    );
    let mut by_cat: Vec<(&str, usize)> = Vec::new();
    for e in &events {
        let cat = e.event.category();
        match by_cat.iter_mut().find(|(c, _)| *c == cat) {
            Some((_, n)) => *n += 1,
            None => by_cat.push((cat, 1)),
        }
    }
    for (cat, n) in &by_cat {
        println!("          {cat:<10} {n}");
    }
    println!(
        "wrote {}/{}.{{trace.json,metrics.json,folded,census.json}}",
        dir.display(),
        w.name
    );
    Ok(())
}

fn run(args: &[String], dir: &Path) -> ExitCode {
    let which = flag_value(args, "--workload").unwrap_or_else(|| "SalaryDB".to_string());
    let workloads: Vec<Workload> = catalog(scale_from_args(args))
        .into_iter()
        .filter(|w| which == "all" || w.name == which)
        .collect();
    if workloads.is_empty() {
        eprintln!("unknown workload {which}");
        return ExitCode::FAILURE;
    }
    for w in &workloads {
        if let Err(e) = run_workload(w, dir) {
            eprintln!("{}: {e}", dir.display());
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

// ---------------------------------------------------------------- report

fn report_workload(dir: &Path, stem: &str, top: usize) {
    println!("== {stem} ==");

    // Cycle breakdown from the metrics document, if present.
    let metrics = load_json(&dir.join(format!("{stem}.metrics.json")));
    let mut exec_cycles = None;
    if let Some(stats) = metrics.as_ref().and_then(|m| field(m, "vm_stats")) {
        let get = |k: &str| field(stats, k).and_then(as_u64).unwrap_or(0);
        let (exec, compile, gc) = (get("exec_cycles"), get("compile_cycles"), get("gc_cycles"));
        let total = (exec + compile + gc).max(1);
        println!(
            "cycles    exec {exec} ({:.1}%)  compile {compile} ({:.1}%)  gc {gc} ({:.1}%)",
            exec as f64 * 100.0 / total as f64,
            compile as f64 * 100.0 / total as f64,
            gc as f64 * 100.0 / total as f64,
        );
        exec_cycles = Some(exec);
    }

    // Top attribution cells from the folded profile.
    match std::fs::read_to_string(dir.join(format!("{stem}.folded"))) {
        Ok(text) => {
            let cells = folded_leaf_cells(&text);
            let total: u64 = cells.values().sum();
            let mut ranked: Vec<(&String, &u64)> = cells.iter().collect();
            ranked.sort_by(|a, b| b.1.cmp(a.1).then(a.0.cmp(b.0)));
            println!("profile   {} samples across {} cells", total, cells.len());
            println!("{:>7}  {:>6}  {:>14}  cell", "samples", "share", "est cycles");
            for (cell, n) in ranked.into_iter().take(top) {
                let share = *n as f64 / total.max(1) as f64;
                // Scale the sample share onto the measured exec cycles when
                // the metrics document is present.
                let est = exec_cycles
                    .map(|e| format!("{:.0}", share * e as f64))
                    .unwrap_or_else(|| "-".to_string());
                println!("{n:>7}  {:>5.1}%  {est:>14}  {cell}", share * 100.0);
            }
        }
        Err(e) => println!("profile   (no folded profile: {e})"),
    }

    // Heap census and state residency.
    if let Some(doc) = load_json(&dir.join(format!("{stem}.census.json"))) {
        let census = field(&doc, "census").unwrap_or(&doc);
        let get = |k: &str| field(census, k).and_then(as_u64).unwrap_or(0);
        println!(
            "census    at cycle {}: {} objects + {} arrays, {} bytes live ({} in special state)",
            get("at_cycle"),
            get("live_objects"),
            get("live_arrays"),
            get("object_bytes") + get("array_bytes"),
            get("in_special_state"),
        );
        if let Some(Value::Array(classes)) = field(census, "per_class") {
            let mut rows: Vec<(&Value, u64)> =
                classes.iter().map(|c| (c, field(c, "bytes").and_then(as_u64).unwrap_or(0))).collect();
            rows.sort_by_key(|r| std::cmp::Reverse(r.1));
            for (c, bytes) in rows.into_iter().take(top) {
                let name = match field(c, "name") {
                    Some(Value::Str(s)) => s.clone(),
                    _ => "?".to_string(),
                };
                println!(
                    "          {:<24} {:>8} objects  {bytes:>10} bytes",
                    name,
                    field(c, "objects").and_then(as_u64).unwrap_or(0),
                );
            }
        }
        if let Some(Value::Array(res)) = field(census, "residency") {
            for r in res {
                let h = field(r, "residency");
                let (count, sum, max) = h
                    .map(|h| {
                        let g = |k: &str| field(h, k).and_then(as_u64).unwrap_or(0);
                        (g("count"), g("sum"), g("max"))
                    })
                    .unwrap_or((0, 0, 0));
                println!(
                    "residency class {} state {}: {} exits, {} stays, mean {:.0} cy (max {max})",
                    field(r, "class").and_then(as_u64).unwrap_or(0),
                    field(r, "state").and_then(as_u64).unwrap_or(0),
                    field(r, "exits").and_then(as_u64).unwrap_or(0),
                    count,
                    if count == 0 { 0.0 } else { sum as f64 / count as f64 },
                );
            }
        }
    }
    println!();
}

fn report(dir: &Path, which: &str, top: usize) -> ExitCode {
    // A named workload none of whose artifacts exist is a mistyped name,
    // not an empty report.
    let named = |ext: &str| dir.join(format!("{which}.{ext}")).exists();
    let stems = if which == "all" {
        discover(dir)
    } else if ["folded", "metrics.json", "census.json"]
        .into_iter()
        .any(named)
    {
        vec![which.to_string()]
    } else {
        Vec::new()
    };
    if stems.is_empty() {
        eprintln!("no artifacts for workload {which} under {}", dir.display());
        return ExitCode::FAILURE;
    }
    for stem in &stems {
        report_workload(dir, stem, top);
    }
    ExitCode::SUCCESS
}

// ------------------------------------------------------------------ diff

fn diff(a_path: &Path, b_path: &Path, threshold_pct: f64) -> ExitCode {
    let read = |p: &Path| {
        std::fs::read_to_string(p).unwrap_or_else(|e| {
            eprintln!("{}: {e}", p.display());
            std::process::exit(1);
        })
    };
    let a = folded_leaf_cells(&read(a_path));
    let b = folded_leaf_cells(&read(b_path));
    let mut cells: Vec<&String> = a.keys().chain(b.keys()).collect();
    cells.sort();
    cells.dedup();

    let mut regressions = 0u32;
    let mut changed = 0u32;
    println!("{:>10} {:>10} {:>9}  cell", "A samples", "B samples", "delta");
    for cell in cells {
        let (&na, &nb) = (a.get(cell).unwrap_or(&0), b.get(cell).unwrap_or(&0));
        if na == nb {
            continue;
        }
        changed += 1;
        // A cell regresses when B exceeds A by more than the threshold; a
        // cell absent from A regresses on any B samples.
        let regressed = nb as f64 > na as f64 * (1.0 + threshold_pct / 100.0);
        if regressed {
            regressions += 1;
        }
        let delta = nb as i64 - na as i64;
        println!("{na:>10} {nb:>10} {delta:>+9}  {cell}{}", if regressed { "  REGRESSED" } else { "" });
    }
    if changed == 0 {
        println!("profiles identical: {} cells, zero per-cell delta", a.len());
    }
    println!(
        "{changed} cells changed, {regressions} regressed (threshold {threshold_pct}%)"
    );
    if regressions > 0 {
        ExitCode::from(2)
    } else {
        ExitCode::SUCCESS
    }
}

// ---------------------------------------------------------------- export

fn metric_name(parts: &[&str]) -> String {
    let joined = parts.join("_");
    joined
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() || c == '_' || c == ':' { c } else { '_' })
        .collect()
}

/// True for objects with the trace `Histogram` shape.
fn is_histogram(v: &Value) -> bool {
    ["count", "min", "max", "sum", "buckets"].iter().all(|k| field(v, k).is_some())
}

fn emit_histogram(name: &str, labels: &str, v: &Value) {
    let get = |k: &str| field(v, k).and_then(as_u64).unwrap_or(0);
    let buckets = match field(v, "buckets") {
        Some(Value::Array(b)) => b.iter().filter_map(as_u64).collect(),
        _ => Vec::new(),
    };
    let mut cumulative = 0u64;
    let sep = if labels.is_empty() { "" } else { "," };
    for (i, n) in buckets.iter().enumerate() {
        cumulative += n;
        // Log2 bucket i covers [2^i, 2^(i+1)): upper bound exclusive.
        println!(
            "{name}_bucket{{{labels}{sep}le=\"{}\"}} {cumulative}",
            2u128 << i
        );
    }
    println!("{name}_bucket{{{labels}{sep}le=\"+Inf\"}} {}", get("count"));
    if labels.is_empty() {
        println!("{name}_sum {}", get("sum"));
        println!("{name}_count {}", get("count"));
    } else {
        println!("{name}_sum{{{labels}}} {}", get("sum"));
        println!("{name}_count{{{labels}}} {}", get("count"));
    }
}

/// Flattens a JSON value into Prometheus gauges under `prefix`. Arrays of
/// numbers become indexed series; histogram-shaped objects become
/// histograms; arrays of objects are skipped (handled by callers that know
/// their schema).
fn emit_flat(prefix: &[&str], v: &Value) {
    match v {
        Value::Int(i) => println!("{} {i}", metric_name(prefix)),
        Value::Float(f) => println!("{} {f}", metric_name(prefix)),
        Value::Bool(b) => println!("{} {}", metric_name(prefix), u8::from(*b)),
        Value::Object(fields) => {
            if is_histogram(v) {
                emit_histogram(&metric_name(prefix), "", v);
            } else {
                for (k, inner) in fields {
                    let mut parts = prefix.to_vec();
                    parts.push(k);
                    emit_flat(&parts, inner);
                }
            }
        }
        Value::Array(items) => {
            if items.iter().all(|i| matches!(i, Value::Int(_) | Value::Float(_))) {
                for (idx, item) in items.iter().enumerate() {
                    match item {
                        Value::Int(i) => {
                            println!("{}{{index=\"{idx}\"}} {i}", metric_name(prefix));
                        }
                        Value::Float(f) => {
                            println!("{}{{index=\"{idx}\"}} {f}", metric_name(prefix));
                        }
                        _ => unreachable!(),
                    }
                }
            }
        }
        Value::Str(_) | Value::Null => {}
    }
}

fn export_prometheus(dir: &Path, stem: &str) -> ExitCode {
    let mut found = false;

    if let Some(doc) = load_json(&dir.join(format!("{stem}.metrics.json"))) {
        found = true;
        if let Some(stats) = field(&doc, "vm_stats") {
            println!("# TYPE dchm_vm gauge");
            emit_flat(&["dchm_vm"], stats);
        }
        if let Some(Value::Object(fields)) = field(&doc, "trace_metrics") {
            // Scalar stream accounting only; the per-method/per-class
            // breakdowns stay in the JSON document.
            for (k, v) in fields {
                if matches!(v, Value::Int(_) | Value::Float(_)) {
                    emit_flat(&["dchm_trace", k], v);
                }
            }
        }
    }

    if let Some(doc) = load_json(&dir.join(format!("{stem}.census.json"))) {
        found = true;
        let census = field(&doc, "census").unwrap_or(&doc);
        if let Value::Object(fields) = census {
            for (k, v) in fields {
                if matches!(v, Value::Int(_) | Value::Float(_)) {
                    emit_flat(&["dchm_census", k], v);
                }
            }
        }
        if let Some(Value::Array(classes)) = field(census, "per_class") {
            for c in classes {
                let name = match field(c, "name") {
                    Some(Value::Str(s)) => s.clone(),
                    _ => continue,
                };
                for k in ["objects", "bytes"] {
                    if let Some(n) = field(c, k).and_then(as_u64) {
                        println!("dchm_census_class_{k}{{class=\"{name}\"}} {n}");
                    }
                }
            }
        }
        if let Some(Value::Array(res)) = field(census, "residency") {
            for r in res {
                let class = field(r, "class").and_then(as_u64).unwrap_or(0);
                let state = field(r, "state").and_then(as_u64).unwrap_or(0);
                let labels = format!("class=\"{class}\",state=\"{state}\"");
                if let Some(n) = field(r, "exits").and_then(as_u64) {
                    println!("dchm_census_state_exits{{{labels}}} {n}");
                }
                if let Some(h) = field(r, "residency") {
                    emit_histogram("dchm_census_state_residency_cycles", &labels, h);
                }
            }
        }
    }

    if let Ok(text) = std::fs::read_to_string(dir.join(format!("{stem}.folded"))) {
        found = true;
        let stacks = parse_folded(&text);
        let total: u64 = stacks.iter().map(|(_, n)| n).sum();
        println!("dchm_profile_samples_total {total}");
        let mut cells: Vec<(&String, &u64)> = Vec::new();
        let leaves = folded_leaf_cells(&text);
        cells.extend(leaves.iter());
        for (cell, n) in cells {
            println!("dchm_profile_cell_samples{{cell=\"{cell}\"}} {n}");
        }
    }

    if found {
        ExitCode::SUCCESS
    } else {
        eprintln!("no artifacts for {stem} under {}", dir.display());
        ExitCode::FAILURE
    }
}

// ------------------------------------------------------------------ main

fn usage() -> ExitCode {
    eprintln!(
        "usage: dchm-inspect run [--small] [--workload NAME|all] [--dir traces]\n       \
         dchm-inspect report [--dir traces] [--workload NAME|all] [--top K]\n       \
         dchm-inspect diff <A.folded> <B.folded> [--threshold PCT]\n       \
         dchm-inspect export --prometheus [--dir traces] [--workload NAME]"
    );
    ExitCode::from(2)
}

/// Flags that take a value; any other `--flag` is a switch.
const VALUE_FLAGS: [&str; 4] = ["--dir", "--workload", "--top", "--threshold"];

/// The arguments that are neither a flag nor a flag's value.
fn positionals(args: &[String]) -> Vec<&String> {
    let mut out = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if VALUE_FLAGS.contains(&a.as_str()) {
            it.next();
        } else if !a.starts_with("--") {
            out.push(a);
        }
    }
    out
}

/// `flag`'s value as a number: `default` when the flag is absent, `None`
/// when the value does not parse.
fn number_flag<T: std::str::FromStr>(args: &[String], flag: &str, default: T) -> Option<T> {
    flag_value(args, flag).map_or(Some(default), |v| v.parse().ok())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        return usage();
    };
    let dir = PathBuf::from(flag_value(rest, "--dir").unwrap_or_else(|| "traces".to_string()));
    let paths = positionals(rest);
    match cmd.as_str() {
        "run" if paths.is_empty() => run(rest, &dir),
        "report" if paths.is_empty() => {
            let which = flag_value(rest, "--workload").unwrap_or_else(|| "all".to_string());
            let Some(top) = number_flag(rest, "--top", 5usize) else {
                return usage();
            };
            report(&dir, &which, top)
        }
        "diff" if paths.len() == 2 => {
            let Some(threshold) = number_flag(rest, "--threshold", 10.0f64) else {
                return usage();
            };
            diff(Path::new(paths[0]), Path::new(paths[1]), threshold)
        }
        "export" if paths.is_empty() && has_flag(rest, "--prometheus") => {
            let stem = flag_value(rest, "--workload").unwrap_or_else(|| "SalaryDB".to_string());
            export_prometheus(&dir, &stem)
        }
        _ => usage(),
    }
}
