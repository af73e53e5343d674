//! End-to-end tests for the `dchm-inspect` CLI: artifact round-trip
//! (report + Prometheus export over real SalaryDB artifacts), the diff
//! regression gate (zero delta on identical profiles, non-zero exit on an
//! injected regression fixture) and argument errors — `repro`'s included.

use std::path::PathBuf;
use std::process::Command;

use dchm_bench::artifacts::{write_profile_artifacts, write_trace_artifacts};
use dchm_bench::{measured_config, prepare_workload};
use dchm_workloads::{salarydb, Scale};

fn inspect() -> Command {
    Command::new(env!("CARGO_BIN_EXE_dchm-inspect"))
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dchm-inspect-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// One traced+profiled mutated SalaryDB run, artifacts written to `dir`.
fn emit_salarydb(dir: &std::path::Path) {
    let w = salarydb::build(Scale::Small);
    let prepared = prepare_workload(&w);
    let mut vm = prepared.make_vm(measured_config(&w));
    vm.enable_tracing(16 * 1024);
    w.run(&mut vm).expect("run");
    write_trace_artifacts(dir, w.name, &vm).expect("trace artifacts");
    write_profile_artifacts(dir, w.name, &vm).expect("profile artifacts");
}

#[test]
fn report_and_export_read_real_artifacts() {
    let dir = scratch("report");
    emit_salarydb(&dir);

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
    let _ = std::fs::remove_dir_all(&dir);
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
