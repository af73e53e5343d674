//! Regenerates the golden cycle fingerprints asserted by
//! `tests/determinism.rs`.
//!
//! The evaluator's cycle cost model must be independent of host-side
//! interpreter optimizations: `clock`, `ops_executed` and the per-method
//! cycle/invocation profile are part of the reproduction's observable
//! results. This tool prints one fingerprint row per (workload, mutation
//! on/off) pair at `Scale::Small`; paste its output into the `GOLDEN` table
//! in `tests/determinism.rs` whenever the *cost model itself* changes
//! intentionally. A diff that was not meant to change the model must leave
//! these values bit-identical.
//!
//! Run with: `cargo run --release --example golden_cycles`

use dchm_testutil::{fingerprint_all, Fingerprint};

fn main() {
    let rows: Vec<(String, Fingerprint)> = fingerprint_all();
    println!("const GOLDEN: &[(&str, Fingerprint)] = &[");
    for (label, fp) in rows {
        println!(
            "    (\"{label}\", Fingerprint {{ clock: {}, ops_executed: {}, per_method_hash: 0x{:016x} }}),",
            fp.clock, fp.ops_executed, fp.per_method_hash
        );
    }
    println!("];");
}
