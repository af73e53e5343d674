//! End-to-end tests for the `dchm-inspect` CLI: `run` regenerates the
//! committed `traces/SalaryDB.*` byte for byte (and those artifacts hold
//! their schema and conservation invariants), report + Prometheus export
//! read them, the diff regression gate (zero delta on identical profiles,
//! non-zero exit on an injected regression fixture) and argument errors —
//! `repro`'s included.

use std::path::{Path, PathBuf};
use std::process::Command;

use serde::Value;

fn inspect() -> Command {
    Command::new(env!("CARGO_BIN_EXE_dchm-inspect"))
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dchm-inspect-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// The committed artifact directory at the repository root.
fn committed_traces() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../traces")
}

const ARTIFACTS: [&str; 4] = ["trace.json", "metrics.json", "folded", "census.json"];

fn load(path: &Path) -> Value {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    serde_json::from_str(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// `v` at a `.`-separated object path; panics naming the missing key.
fn at<'a>(v: &'a Value, path: &str) -> &'a Value {
    path.split('.').fold(v, |v, k| {
        serde::helpers::field(v, k).unwrap_or_else(|e| panic!("{path}: {e}"))
    })
}

fn int(v: &Value, path: &str) -> i64 {
    match at(v, path) {
        Value::Int(i) => *i,
        other => panic!("{path} is {other:?}, not an integer"),
    }
}

fn array<'a>(v: &'a Value, path: &str) -> &'a [Value] {
    match at(v, path) {
        Value::Array(items) => items,
        other => panic!("{path} is {other:?}, not an array"),
    }
}

/// The schema and conservation invariants of one workload's artifacts.
fn check_artifacts(dir: &Path, name: &str) {
    let trace = load(&dir.join(format!("{name}.trace.json")));
    let events = array(&trace, "traceEvents");
    assert!(!events.is_empty(), "empty traceEvents");
    for e in events {
        for k in ["name", "ph", "ts", "pid", "tid"] {
            assert!(serde::helpers::field(e, k).is_ok(), "trace event without {k}: {e:?}");
        }
    }
    let ts: Vec<i64> = events.iter().map(|e| int(e, "ts")).collect();
    assert!(ts.windows(2).all(|w| w[0] <= w[1]), "trace ts not sorted");

    let metrics = load(&dir.join(format!("{name}.metrics.json")));
    assert_eq!(
        int(&metrics, "vm_stats.tib_flips"),
        int(&metrics, "trace_metrics.tib_flips"),
        "counted and traced TIB flips disagree"
    );

    let doc = load(&dir.join(format!("{name}.census.json")));
    let census = at(&doc, "census");
    assert_eq!(
        int(census, "object_bytes") + int(census, "array_bytes"),
        int(census, "heap_used_bytes"),
        "census bytes not conserved"
    );
    let per_class: i64 = array(census, "per_class").iter().map(|c| int(c, "objects")).sum();
    assert_eq!(int(census, "live_objects"), per_class, "live objects != per-class sum");
    let mut open_stays = 0;
    for r in array(census, "residency") {
        let (count, exits) = (int(r, "residency.count"), int(r, "exits"));
        assert!(count >= 0 && exits >= 0, "negative residency count: {r:?}");
        open_stays += count - exits;
    }
    // A stay without an exit is an object still in its special state.
    assert_eq!(open_stays, int(census, "in_special_state"), "open stays != in_special_state");
}

/// `run --small` is the generator of the committed SalaryDB artifacts: a
/// fresh run reproduces all four files byte for byte.
#[test]
fn run_reproduces_the_committed_artifacts() {
    let dir = scratch("run");
    let out = inspect()
        .args(["run", "--small", "--workload", "SalaryDB", "--dir", dir.to_str().unwrap()])
        .output()
        .expect("run dchm-inspect");
    assert!(out.status.success(), "run failed: {out:?}");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("== SalaryDB =="), "no stats table in:\n{text}");
    check_artifacts(&dir, "SalaryDB");

    let committed = committed_traces();
    for ext in ARTIFACTS {
        let fresh = std::fs::read(dir.join(format!("SalaryDB.{ext}"))).expect("fresh artifact");
        let kept = std::fs::read(committed.join(format!("SalaryDB.{ext}"))).expect("committed");
        assert!(
            fresh == kept,
            "traces/SalaryDB.{ext} differs from a fresh run; if the change is meant to \
             move the model, regenerate with \
             `cargo run --release -p dchm-bench --bin dchm-inspect -- run --small --workload SalaryDB --dir traces`"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn report_and_export_read_real_artifacts() {
    let dir = committed_traces();
    let out = inspect()
        .args(["report", "--dir", dir.to_str().unwrap(), "--workload", "SalaryDB"])
        .output()
        .expect("run dchm-inspect");
    assert!(out.status.success(), "report failed: {out:?}");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("== SalaryDB =="));
    assert!(text.contains("cycles"), "missing cycle breakdown:\n{text}");
    assert!(text.contains("profile"), "missing profile section:\n{text}");
    assert!(text.contains("census"), "missing census section:\n{text}");

    let out = inspect()
        .args([
            "export",
            "--prometheus",
            "--dir",
            dir.to_str().unwrap(),
            "--workload",
            "SalaryDB",
        ])
        .output()
        .expect("run dchm-inspect");
    assert!(out.status.success(), "export failed: {out:?}");
    let text = String::from_utf8_lossy(&out.stdout);
    for needle in [
        "dchm_vm_exec_cycles ",
        "dchm_vm_tib_flips ",
        "dchm_census_live_objects ",
        "dchm_profile_samples_total ",
    ] {
        assert!(text.contains(needle), "missing {needle} in:\n{text}");
    }
    // Every exposition line is `name value` or `name{labels} value` or a
    // comment — no stray JSON.
    for line in text.lines().filter(|l| !l.is_empty() && !l.starts_with('#')) {
        assert!(
            line.rsplit_once(' ').is_some_and(|(_, v)| v.parse::<f64>().is_ok()),
            "malformed exposition line: {line}"
        );
    }
}

/// Argument errors: a stray positional or an unparsable number is a usage
/// error (exit 2, usage on stderr), and a named workload with no artifacts
/// fails (exit 1) instead of printing an empty report.
#[test]
fn bad_arguments_are_rejected() {
    let dir = scratch("args");
    std::fs::write(dir.join("W.folded"), "Main::main#o0 10\n").unwrap();
    let d = dir.to_str().unwrap();

    for bad in [
        vec!["report", d],
        vec!["report", "--dir", d, "--top", "x"],
        vec!["diff", "a.folded", "b.folded", "--threshold", "x"],
        vec!["export", "--prometheus", d],
        vec!["run", d],
    ] {
        let out = inspect().args(&bad).output().expect("run dchm-inspect");
        assert_eq!(out.status.code(), Some(2), "{bad:?} must exit 2: {out:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.contains("usage: dchm-inspect"),
            "{bad:?}: no usage in:\n{err}"
        );
    }

    let out = inspect()
        .args(["report", "--dir", d, "--workload", "Nope"])
        .output()
        .expect("run dchm-inspect");
    assert_eq!(
        out.status.code(),
        Some(1),
        "unknown workload must exit 1: {out:?}"
    );

    // The same directory reports fine under the name it does hold.
    let out = inspect()
        .args(["report", "--dir", d, "--workload", "W", "--top", "3"])
        .output()
        .expect("run dchm-inspect");
    assert!(out.status.success(), "report failed: {out:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn diff_is_zero_on_identical_profiles_and_gates_regressions() {
    let dir = scratch("diff");
    let a = dir.join("a.folded");
    let b = dir.join("b.folded");
    let base = "Main::main#o0;Acct::work#s2 40\nMain::main#o0 10\n";
    std::fs::write(&a, base).unwrap();
    std::fs::write(&b, base).unwrap();

    // Identical profiles: zero delta, exit 0.
    let out = inspect()
        .args(["diff", a.to_str().unwrap(), b.to_str().unwrap()])
        .output()
        .expect("run dchm-inspect");
    assert!(out.status.success(), "identical diff must exit 0: {out:?}");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("zero per-cell delta"), "got:\n{text}");

    // Injected regression: one cell's samples inflated past the threshold.
    let regressed = "Main::main#o0;Acct::work#s2 80\nMain::main#o0 10\n";
    std::fs::write(&b, regressed).unwrap();
    let out = inspect()
        .args(["diff", a.to_str().unwrap(), b.to_str().unwrap(), "--threshold", "10"])
        .output()
        .expect("run dchm-inspect");
    assert_eq!(out.status.code(), Some(2), "regression must exit 2: {out:?}");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("REGRESSED"), "got:\n{text}");

    // A shrinking cell is an improvement, not a regression.
    let improved = "Main::main#o0;Acct::work#s2 20\nMain::main#o0 10\n";
    std::fs::write(&b, improved).unwrap();
    let out = inspect()
        .args(["diff", a.to_str().unwrap(), b.to_str().unwrap()])
        .output()
        .expect("run dchm-inspect");
    assert!(out.status.success(), "improvement must exit 0: {out:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// `repro`'s target is its first non-flag argument: `--small` may come
/// before it, and an unknown target is still a usage error.
#[test]
fn repro_takes_small_before_or_after_the_target() {
    let repro = |args: &[&str]| {
        Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(args)
            .output()
            .expect("run repro")
    };
    let after = repro(&["table1", "--small"]);
    let before = repro(&["--small", "table1"]);
    assert!(after.status.success(), "table1 --small failed: {after:?}");
    assert!(before.status.success(), "--small table1 failed: {before:?}");
    assert!(String::from_utf8_lossy(&after.stdout).contains("== Table 1"));
    assert_eq!(before.stdout, after.stdout);

    let bogus = repro(&["--small", "fig99"]);
    assert_eq!(
        bogus.status.code(),
        Some(2),
        "unknown target must exit 2: {bogus:?}"
    );
    let err = String::from_utf8_lossy(&bogus.stderr);
    assert!(
        err.contains("unknown target fig99") && err.contains("plan"),
        "got:\n{err}"
    );
}
