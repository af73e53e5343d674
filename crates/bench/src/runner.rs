//! Shared plumbing for the `bench_*` binaries: flag parsing, the standard
//! prepared-pipeline → mutated-VM construction, best-of-N wall timing and
//! the hand-rolled `BENCH_*.json` document builder. Each binary used to
//! carry its own copy of these; they live here so a harness fix lands in
//! every emitter at once.

use crate::measured_config;
use dchm_core::pipeline::Prepared;
use dchm_core::MutationEngine;
use dchm_vm::Vm;
use dchm_workloads::{Scale, Workload};
use std::fmt::Write as _;

/// The value following `flag` in a raw argument list, if present.
pub fn flag_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

/// True when `flag` appears anywhere in the argument list.
pub fn has_flag(args: &[String], flag: &str) -> bool {
    args.iter().any(|a| a == flag)
}

/// The benchmark scale selected by `--small` (default [`Scale::Full`]).
pub fn scale_from_args(args: &[String]) -> Scale {
    if has_flag(args, "--small") {
        Scale::Small
    } else {
        Scale::Full
    }
}

/// A fresh mutated VM for `w` from an already prepared pipeline, under the
/// standard measured configuration. `emit_guards: false` re-plans without
/// state guards (the `bench_deopt` ablation).
pub fn mutated_vm(prepared: &Prepared, w: &Workload, emit_guards: bool) -> Vm {
    let mut plan = prepared.plan.clone();
    plan.emit_guards = emit_guards;
    let engine = MutationEngine::new(plan, prepared.olc.clone());
    engine.attach(prepared.program.clone(), measured_config(w))
}

/// Runs `run` `repeats` times and keeps the result of the fastest run
/// (by its reported wall seconds). Wall rates on shared machines are
/// noisy; only the fastest run approximates the actual cost.
pub fn best_of<T>(repeats: u32, mut run: impl FnMut() -> (T, f64)) -> (T, f64) {
    let mut best: Option<(T, f64)> = None;
    for _ in 0..repeats.max(1) {
        let (value, secs) = run();
        if best.as_ref().is_none_or(|(_, b)| secs < *b) {
            best = Some((value, secs));
        }
    }
    best.expect("repeats >= 1")
}

/// Builder for the flat `BENCH_*.json` documents the bench binaries emit:
/// a few header fields, then a `"workloads"` array of pre-rendered row
/// objects. Rendering is hand-rolled (stable field order, no dependency on
/// serde map ordering) — rows are raw JSON object strings.
pub struct BenchJson {
    head: String,
    rows: Vec<String>,
}

/// Version of the unified `BENCH_*.json` schema shared by every emitter.
/// Bump when a header field changes meaning; `dchm-inspect` and the
/// committed-artifact test key on it.
pub const BENCH_SCHEMA_VERSION: u32 = 1;

impl BenchJson {
    /// Starts a document with the standard header fields: schema version,
    /// benchmark identity and the machine the numbers were taken on.
    pub fn new(benchmark: &str, scale: Scale, unit: &str) -> Self {
        let mut head = String::from("{\n");
        let _ = writeln!(head, "  \"schema_version\": {BENCH_SCHEMA_VERSION},");
        let _ = writeln!(head, "  \"benchmark\": \"{benchmark}\",");
        let _ = writeln!(head, "  \"scale\": \"{scale:?}\",");
        let _ = writeln!(head, "  \"unit\": \"{unit}\",");
        let _ = writeln!(
            head,
            "  \"machine\": {{\"os\": \"{}\", \"arch\": \"{}\"}},",
            std::env::consts::OS,
            std::env::consts::ARCH
        );
        BenchJson { head, rows: Vec::new() }
    }

    /// Adds an extra header field with a raw (pre-rendered) JSON value.
    pub fn meta(&mut self, key: &str, raw_value: &str) {
        let _ = writeln!(self.head, "  \"{key}\": {raw_value},");
    }

    /// Appends one workload row — a complete JSON object, no trailing comma.
    pub fn row(&mut self, raw_object: String) {
        self.rows.push(raw_object);
    }

    /// Renders the document.
    pub fn finish(self) -> String {
        let mut out = self.head;
        out.push_str("  \"workloads\": [\n");
        for (i, r) in self.rows.iter().enumerate() {
            out.push_str("    ");
            out.push_str(r);
            out.push_str(if i + 1 < self.rows.len() { ",\n" } else { "\n" });
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Renders, writes to `path` and returns the JSON text.
    ///
    /// # Panics
    /// Panics if the file cannot be written — a bench emitter has nothing
    /// useful to do without its output.
    pub fn write(self, path: &str) -> String {
        let json = self.finish();
        std::fs::write(path, &json).unwrap_or_else(|e| panic!("write {path}: {e}"));
        json
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn flag_parsing() {
        let a = args(&["--small", "--out", "dir"]);
        assert!(has_flag(&a, "--small"));
        assert!(!has_flag(&a, "--trace"));
        assert_eq!(flag_value(&a, "--out").as_deref(), Some("dir"));
        assert_eq!(flag_value(&a, "--missing"), None);
        assert_eq!(scale_from_args(&a), Scale::Small);
        assert_eq!(scale_from_args(&args(&[])), Scale::Full);
    }

    #[test]
    fn best_of_keeps_fastest() {
        let mut times = [3.0, 1.0, 2.0].into_iter();
        let (v, secs) = best_of(3, || {
            let t = times.next().unwrap();
            (t as u64, t)
        });
        assert_eq!((v, secs), (1, 1.0));
    }

    #[test]
    fn json_document_shape() {
        let mut doc = BenchJson::new("demo", Scale::Small, "widgets");
        doc.meta("seed", "7");
        doc.row("{\"name\": \"a\"}".to_string());
        doc.row("{\"name\": \"b\"}".to_string());
        let json = doc.finish();
        assert!(json.contains(&format!("\"schema_version\": {BENCH_SCHEMA_VERSION}")));
        assert!(json.contains("\"benchmark\": \"demo\""));
        assert!(json.contains("\"scale\": \"Small\""));
        assert!(json.contains("\"machine\": {\"os\": "));
        assert!(json.contains("\"seed\": 7"));
        assert!(json.contains("{\"name\": \"a\"},\n"));
        assert!(json.ends_with("  ]\n}\n"));
        // The hand-rolled document must parse as JSON.
        let v: serde::Value = serde_json::from_str(&json).expect("valid JSON");
        assert!(matches!(v, serde::Value::Object(_)));
    }

    /// Every committed `BENCH_*.json` at the repo root must carry the
    /// unified schema: version, benchmark/scale/unit, machine fields and a
    /// non-empty workloads array.
    #[test]
    fn committed_bench_files_match_schema() {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let mut checked = 0;
        for entry in std::fs::read_dir(&root).expect("repo root") {
            let path = entry.expect("dir entry").path();
            let Some(name) = path.file_name().and_then(|n| n.to_str()).map(String::from) else {
                continue;
            };
            if !(name.starts_with("BENCH_") && name.ends_with(".json")) {
                continue;
            }
            let text = std::fs::read_to_string(&path).expect("readable BENCH file");
            let doc: serde::Value =
                serde_json::from_str(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
            let field = |k: &str| {
                serde::helpers::field(&doc, k)
                    .unwrap_or_else(|e| panic!("{name}: {e}"))
                    .clone()
            };
            assert_eq!(
                field("schema_version"),
                serde::Value::Int(BENCH_SCHEMA_VERSION as i64),
                "{name}: schema_version"
            );
            for k in ["benchmark", "scale", "unit"] {
                assert!(matches!(field(k), serde::Value::Str(_)), "{name}: {k}");
            }
            let machine = field("machine");
            for k in ["os", "arch"] {
                assert!(
                    matches!(serde::helpers::field(&machine, k), Ok(&serde::Value::Str(_))),
                    "{name}: machine.{k}"
                );
            }
            let rows = match field("workloads") {
                serde::Value::Array(rows) => rows,
                other => panic!("{name}: workloads is {other:?}"),
            };
            assert!(!rows.is_empty(), "{name}: empty workloads");
            if name == "BENCH_fleet.json" {
                // Fleet rows carry measured wall time and nothing modeled:
                // exactly these columns.
                let columns = "name workers jobs wall_secs wall_speedup_vs_1 output_match";
                for row in &rows {
                    let serde::Value::Object(fields) = row else {
                        panic!("{name}: row is {row:?}")
                    };
                    let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
                    assert_eq!(keys.join(" "), columns, "{name}: row columns");
                }
            }
            if name == "BENCH_resilience.json" {
                // The storm row carries its host wall before and after.
                let storm = field("storm");
                for k in ["wall_ms_off", "wall_ms_on", "prev_wall_ms_off", "prev_wall_ms_on"] {
                    assert!(
                        matches!(serde::helpers::field(&storm, k), Ok(&serde::Value::Float(_))),
                        "{name}: storm.{k}"
                    );
                }
            }
            checked += 1;
        }
        assert!(checked >= 4, "expected >=4 committed BENCH files, found {checked}");
    }
}
