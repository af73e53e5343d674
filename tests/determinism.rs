//! The evaluator fast path (cursor interpreter, pooled register windows,
//! inline caches, per-block cost prefix sums) must not change modeled
//! cycles by a single tick. These goldens were recorded from the seed
//! (pre-optimization) evaluator; every workload is checked with mutation
//! off and on.
//!
//! If a change to the *cost model itself* is intended, regenerate with
//! `cargo run --release --example golden_cycles` and paste the new table —
//! but a host-side evaluator change must never need that.

use dchm_testutil::{fingerprint_all, Fingerprint};

const GOLDEN: &[(&str, Fingerprint)] = &[
    (
        "SalaryDB/base",
        Fingerprint {
            clock: 241491,
            ops_executed: 55329,
            per_method_hash: 0x55dedf76ffa08d5d,
        },
    ),
    (
        "SalaryDB/mutated",
        Fingerprint {
            clock: 314683,
            ops_executed: 48201,
            per_method_hash: 0xa1816d8eee908511,
        },
    ),
    (
        "SimLogic/base",
        Fingerprint {
            clock: 140981,
            ops_executed: 41114,
            per_method_hash: 0xbdaa9406ccc3c23c,
        },
    ),
    (
        "SimLogic/mutated",
        Fingerprint {
            clock: 199341,
            ops_executed: 41162,
            per_method_hash: 0xf644ef36835e0eac,
        },
    ),
    (
        "CSVToXML/base",
        Fingerprint {
            clock: 358113,
            ops_executed: 135533,
            per_method_hash: 0x75f49c2cd53c1183,
        },
    ),
    (
        "CSVToXML/mutated",
        Fingerprint {
            clock: 358410,
            ops_executed: 135536,
            per_method_hash: 0x55021ecf976636a0,
        },
    ),
    (
        "Java2XHTML/base",
        Fingerprint {
            clock: 285603,
            ops_executed: 129887,
            per_method_hash: 0x1757ecf8cc771bfa,
        },
    ),
    (
        "Java2XHTML/mutated",
        Fingerprint {
            clock: 285801,
            ops_executed: 129889,
            per_method_hash: 0x234304b7b95d0568,
        },
    ),
    (
        "Weka/base",
        Fingerprint {
            clock: 250842,
            ops_executed: 62547,
            per_method_hash: 0x20ad371097b933b2,
        },
    ),
    (
        "Weka/mutated",
        Fingerprint {
            clock: 273757,
            ops_executed: 60912,
            per_method_hash: 0x5bb7cc194542be59,
        },
    ),
    (
        "SPECjbb2000/base",
        Fingerprint {
            clock: 857092,
            ops_executed: 143714,
            per_method_hash: 0x0c03073bccf4cb98,
        },
    ),
    (
        "SPECjbb2000/mutated",
        Fingerprint {
            clock: 796711,
            ops_executed: 143793,
            per_method_hash: 0xf173418408591835,
        },
    ),
    (
        "SPECjbb2005/base",
        Fingerprint {
            clock: 1267591,
            ops_executed: 429591,
            per_method_hash: 0xa0a1b3f4c765f310,
        },
    ),
    (
        "SPECjbb2005/mutated",
        Fingerprint {
            clock: 1268386,
            ops_executed: 429664,
            per_method_hash: 0x7ffd304946219c6d,
        },
    ),
];

#[test]
fn cycle_model_matches_pre_optimization_goldens() {
    let rows = fingerprint_all();
    assert_eq!(rows.len(), GOLDEN.len(), "workload catalog changed size");
    for ((name, got), (gname, want)) in rows.iter().zip(GOLDEN) {
        assert_eq!(name, gname, "workload catalog changed order");
        assert_eq!(
            got, want,
            "{name}: modeled cycles drifted from the seed evaluator"
        );
    }
}
