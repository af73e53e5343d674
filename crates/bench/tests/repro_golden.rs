//! `repro all` and `repro ablations` print exactly the goldens in
//! `repro_golden/`, at `--small` and at full scale. The figures derive from
//! the modeled clock, so a golden moves only with an intended cost-model
//! change; EXPERIMENTS.md's and README.md's tables are copied from them.

use std::process::Command;

fn check(args: &[&str], golden: &str) {
    let out = Command::new(env!("CARGO_BIN_EXE_repro")).args(args).output().expect("run repro");
    assert!(out.status.success(), "repro {args:?}: {}", String::from_utf8_lossy(&out.stderr));
    let path = format!("{}/tests/repro_golden/{golden}", env!("CARGO_MANIFEST_DIR"));
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    assert_eq!(String::from_utf8_lossy(&out.stdout), want, "repro {args:?} differs from {path}");
}

#[test]
fn small_scale_figures_are_the_golden() {
    check(&["all", "--small"], "all_small.txt");
    check(&["ablations", "--small"], "ablations_small.txt");
}

#[test]
fn full_scale_all_is_the_golden() {
    check(&["all"], "all_full.txt");
}

#[test]
fn full_scale_ablations_is_the_golden() {
    check(&["ablations"], "ablations_full.txt");
}
