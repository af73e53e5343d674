//! The correctness gate's reference file.
//!
//! `expected.json` holds, per workload × program, the output checksum, the
//! executed-op count and the modeled clock of the measured run. It is
//! written by `--bless`, reviewed once, committed, and compiled into the
//! benchmark, so a run cannot pass by reading a file the change under test
//! rewrote. Seed-dependent programs are drawn from fixed pools (see
//! [`crate::programs`]), so every seed has entries.

use serde::Value;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Observable fingerprint of one finished run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Entry {
    /// VM output checksum.
    pub checksum: u64,
    /// Executed bytecode ops.
    pub ops: u64,
    /// Total modeled cycles.
    pub clock: u64,
}

/// The parsed reference file.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Expected {
    entries: BTreeMap<String, Entry>,
}

fn field_u64(v: &Value, name: &str) -> Result<u64, String> {
    match serde::helpers::field(v, name).map_err(|e| e.to_string())? {
        Value::Int(n) => u64::try_from(*n).map_err(|_| format!("`{name}` is negative")),
        // Checksums use all 64 bits, which JSON integers cannot carry.
        Value::Str(s) => u64::from_str_radix(s.trim_start_matches("0x"), 16)
            .map_err(|e| format!("`{name}`: {e}")),
        other => Err(format!("`{name}`: expected a number, found {other:?}")),
    }
}

impl Expected {
    /// The committed reference file.
    ///
    /// # Panics
    /// Panics when the committed file does not parse: a broken checkout.
    pub fn committed() -> Self {
        Self::parse(include_str!("../expected.json")).expect("benchmark/expected.json parses")
    }

    /// Parses reference-file text.
    ///
    /// # Errors
    /// Describes the malformed part.
    pub fn parse(text: &str) -> Result<Self, String> {
        let doc: Value = serde_json::from_str(text).map_err(|e| e.to_string())?;
        let Value::Object(items) =
            serde::helpers::field(&doc, "entries").map_err(|e| e.to_string())?
        else {
            return Err("`entries` is not an object".into());
        };
        let mut entries = BTreeMap::new();
        for (key, v) in items {
            let e = Entry {
                checksum: field_u64(v, "checksum").map_err(|e| format!("{key}: {e}"))?,
                ops: field_u64(v, "ops").map_err(|e| format!("{key}: {e}"))?,
                clock: field_u64(v, "clock").map_err(|e| format!("{key}: {e}"))?,
            };
            entries.insert(key.clone(), e);
        }
        Ok(Expected { entries })
    }

    /// Records the reference for `workload/program` (bless mode).
    pub fn insert(&mut self, workload: &str, program: &str, entry: Entry) {
        self.entries.insert(format!("{workload}/{program}"), entry);
    }

    /// Compares a run with its reference.
    ///
    /// # Errors
    /// Names the field that differs; a missing entry is an error too, so a
    /// new program cannot slip past the gate unblessed.
    pub fn check(&self, workload: &str, program: &str, got: &Entry) -> Result<(), String> {
        let key = format!("{workload}/{program}");
        let want = self
            .entries
            .get(&key)
            .ok_or_else(|| format!("{key}: no entry in expected.json (run --bless and review)"))?;
        for (what, w, g) in [
            ("checksum", want.checksum, got.checksum),
            ("ops", want.ops, got.ops),
            ("modeled clock", want.clock, got.clock),
        ] {
            if w != g {
                return Err(format!("{key}: {what} is {g:#x}, expected {w:#x}"));
            }
        }
        Ok(())
    }

    /// Renders the file, one entry per line so a review diff is readable.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"schema\": 1,\n  \"entries\": {\n");
        let n = self.entries.len();
        for (i, (key, e)) in self.entries.iter().enumerate() {
            let comma = if i + 1 < n { "," } else { "" };
            let _ = writeln!(
                out,
                "    \"{key}\": {{\"checksum\": \"{:#018x}\", \"ops\": {}, \"clock\": {}}}{comma}",
                e.checksum, e.ops, e.clock
            );
        }
        out.push_str("  }\n}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_parse_roundtrip_keeps_all_64_checksum_bits() {
        let mut e = Expected::default();
        let entry = Entry {
            checksum: 0x8a1e_0000_0000_0001,
            ops: 4_038_255,
            clock: 99,
        };
        e.insert("catalog_full", "SalaryDB", entry);
        e.insert(
            "alloc_gc",
            "AllocChurn-03",
            Entry {
                checksum: 1,
                ops: 2,
                clock: 3,
            },
        );
        let back = Expected::parse(&e.to_json()).unwrap();
        assert_eq!(back, e);
        assert!(back.check("catalog_full", "SalaryDB", &entry).is_ok());
    }

    #[test]
    fn mismatch_and_missing_entry_are_errors() {
        let mut e = Expected::default();
        e.insert(
            "w",
            "p",
            Entry {
                checksum: 1,
                ops: 2,
                clock: 3,
            },
        );
        let err = e
            .check(
                "w",
                "p",
                &Entry {
                    checksum: 1,
                    ops: 5,
                    clock: 3,
                },
            )
            .unwrap_err();
        assert!(err.contains("w/p") && err.contains("ops"), "{err}");
        assert!(e
            .check(
                "w",
                "q",
                &Entry {
                    checksum: 1,
                    ops: 2,
                    clock: 3
                }
            )
            .unwrap_err()
            .contains("no entry"));
    }

    #[test]
    fn committed_file_covers_every_pool() {
        let e = Expected::committed();
        // 7 catalog_full + (384 pool + 7 small) + (16 variants + jbb) + 3 storm + 7 fleet.
        assert_eq!(e.entries.len(), 7 + 384 + 7 + 16 + 1 + 3 + 7);
    }
}
