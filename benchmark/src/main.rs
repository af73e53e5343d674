//! Command line of the benchmark. `benchmark/run.sh` builds this and
//! passes its arguments through.
//!
//! ```text
//! dchm-benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
//!                [--quick] [--trace-out FILE] [--bless] [--contract]
//! ```
//!
//! With `--workload` it runs one pass of one workload in this process and
//! ends with the result object on the last line of stdout (what a harness
//! reads). Without it, it runs every workload, each pass in a process of
//! its own so that `peak_rss_mb` is per workload, and sums up.

use dchm_benchmark::engine::Budget;
use dchm_benchmark::workloads::Kind;
use dchm_benchmark::{bless, run, Args, DEFAULT_SEED};
use serde::Value;
use std::process::{Command, ExitCode, Stdio};

const USAGE: &str = "usage: dchm-benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--quick] [--trace-out FILE] [--bless] [--contract]";

struct Cli {
    kind: Option<Kind>,
    seed: u64,
    seconds: f64,
    trace: Option<bool>,
    quick: bool,
    trace_out: Option<String>,
    bless: bool,
    contract: bool,
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        kind: None,
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: None,
        quick: false,
        trace_out: None,
        bless: false,
        contract: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} takes a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                cli.kind =
                    Some(Kind::parse(name).ok_or_else(|| format!("unknown workload `{name}`"))?);
            }
            "--seed" => cli.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                cli.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(cli.seconds > 0.0 && cli.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                cli.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                })
            }
            "--quick" => cli.quick = true,
            "--trace-out" => cli.trace_out = Some(value()?.clone()),
            "--bless" => cli.bless = true,
            "--contract" => cli.contract = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(cli)
}

fn write_trace(path: &str, events: Vec<Value>) -> Result<(), String> {
    let text = serde_json::to_string(&Value::Array(events)).map_err(|e| e.to_string())?;
    std::fs::write(path, text).map_err(|e| format!("{path}: {e}"))
}

/// One pass of one workload in this process.
fn single(cli: &Cli, kind: Kind) -> ExitCode {
    let args = Args {
        kind,
        seed: cli.seed,
        trace: cli.trace.unwrap_or(false),
        budget: Budget {
            seconds: cli.seconds,
            quick: cli.quick,
        },
    };
    let mut result = run(&args);
    if let Some(path) = &cli.trace_out {
        if let Err(e) = write_trace(path, std::mem::take(&mut result.trace_events)) {
            eprintln!("trace not written: {e}");
            return ExitCode::FAILURE;
        }
    }
    println!("{}", result.to_json());
    if result.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Every workload, each pass in a child process; prints the children's
/// reports, then the totals, and merges their traces.
fn all(cli: &Cli) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("cannot find own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let passes: &[bool] = match cli.trace {
        Some(true) => &[true],
        Some(false) => &[false],
        None => &[false, true],
    };
    let (mut attempted, mut failed, mut all_correct) = (0i64, 0i64, true);
    let mut merged: Vec<Value> = Vec::new();
    for kind in Kind::ALL {
        for &trace in passes {
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", kind.name(), "--seed", &cli.seed.to_string()])
                .args([
                    "--seconds",
                    &cli.seconds.to_string(),
                    "--trace",
                    if trace { "1" } else { "0" },
                ])
                .stdin(Stdio::null())
                .stderr(Stdio::inherit());
            if cli.quick {
                cmd.arg("--quick");
            }
            let part = cli
                .trace_out
                .as_ref()
                .filter(|_| trace)
                .map(|p| format!("{p}.{}.part", kind.name()));
            if let Some(part) = &part {
                cmd.args(["--trace-out", part]);
            }
            // `output` waits for the child to end.
            let out = match cmd.output() {
                Ok(o) => o,
                Err(e) => {
                    eprintln!("{}: cannot start child: {e}", kind.name());
                    return ExitCode::FAILURE;
                }
            };
            let stdout = String::from_utf8_lossy(&out.stdout);
            print!("{stdout}");
            let last = stdout.lines().last().unwrap_or("");
            match serde_json::from_str::<Value>(last) {
                Ok(doc) => {
                    let int = |k: &str| match serde::helpers::field(&doc, k) {
                        Ok(Value::Int(n)) => *n,
                        _ => 0,
                    };
                    attempted += int("attempted");
                    failed += int("failed");
                    all_correct &= out.status.success();
                }
                Err(_) => {
                    eprintln!("{}: child printed no result ({})", kind.name(), out.status);
                    all_correct = false;
                }
            }
            if let Some(part) = part {
                if let Ok(text) = std::fs::read_to_string(&part) {
                    if let Ok(Value::Array(events)) = serde_json::from_str::<Value>(&text) {
                        merged.extend(events);
                    }
                }
                let _ = std::fs::remove_file(&part);
            }
        }
    }
    if let Some(path) = &cli.trace_out {
        match write_trace(path, merged) {
            Ok(()) => println!("info all trace written to {path}"),
            Err(e) => {
                eprintln!("trace not written: {e}");
                all_correct = false;
            }
        }
    }
    println!(
        "e2e all failure_ratio {} failed/attempted bound=0 ({failed} of {attempted})",
        failed as f64 / attempted.max(1) as f64
    );
    if all_correct && failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse(&args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if cli.contract {
        // `benchmark/run.sh --contract > BENCHMARK.json` after editing contract.rs.
        print!("{}", dchm_benchmark::contract::benchmark_json());
        return ExitCode::SUCCESS;
    }
    if cli.bless {
        print!("{}", bless());
        return ExitCode::SUCCESS;
    }
    match cli.kind {
        Some(kind) => single(&cli, kind),
        None => all(&cli),
    }
}
