//! Heap & state census: where every live byte sits, and how long objects
//! stay in each special state.
//!
//! The census complements [`crate::metrics`]: metrics fold the *event
//! stream* (what happened), the census walks the *live heap* (what is).
//! A walk produces a [`CensusSnapshot`] — live-object counts and bytes
//! per class and per TIB (class TIBs and special-state TIBs separately) —
//! plus TIB-flip residency: the modeled-cycle distance between an object
//! entering a special state and leaving it, folded into the same log2
//! [`Histogram`] shape metrics use.
//!
//! An open stay needs no bookkeeping of its own: the object header holds
//! the state (its TIB pointer) and the cycle it entered it, so the walk
//! measures every open stay to the snapshot cycle, and a swept object's
//! stay vanishes with its cell. Only completed stays are kept, in a
//! [`ResidencyTracker`] the VM feeds at every exit flip.
//!
//! Census data is host-side only. The walk never charges the modeled
//! clock, and exits are recorded unconditionally (gating them on tracing
//! would change the census's shape when a tracer attaches). Conservation
//! is structural: the walk visits exactly the unswept heap cells, so its
//! byte total equals the heap's `used_bytes` at the same tick, floating
//! garbage included.

use crate::metrics::Histogram;
use serde::Serialize;
use std::collections::BTreeMap;
use std::fmt;

/// Live objects and bytes of one class (all its TIBs pooled).
#[derive(Clone, Debug, Default, Serialize)]
pub struct ClassCensus {
    /// Class id.
    pub class: u32,
    /// Class display name.
    pub name: String,
    /// Live (unswept) instances.
    pub objects: u64,
    /// Bytes those instances occupy.
    pub bytes: u64,
}

/// Live objects and bytes of one TIB.
#[derive(Clone, Debug, Default, Serialize)]
pub struct TibCensus {
    /// TIB id.
    pub tib: u32,
    /// Class the TIB describes.
    pub class: u32,
    /// Special-state index for special TIBs, `None` for class TIBs.
    pub state: Option<u32>,
    /// Live (unswept) instances pointing at this TIB.
    pub objects: u64,
    /// Bytes those instances occupy.
    pub bytes: u64,
}

/// Residency of one (class, special-state) pair: how long objects sat in
/// the state before flipping out, log2-bucketed in modeled cycles.
#[derive(Clone, Debug, Default, Serialize)]
pub struct StateResidency {
    /// Class id.
    pub class: u32,
    /// Special-state index.
    pub state: u32,
    /// Completed stays (exit flips observed).
    pub exits: u64,
    /// Stay lengths in modeled cycles; stays still open at snapshot time
    /// are measured to the snapshot cycle.
    pub residency: Histogram,
}

/// One census walk: heap occupancy by class and TIB, plus state
/// residency, stamped with the modeled clock.
#[derive(Clone, Debug, Default, Serialize)]
pub struct CensusSnapshot {
    /// Modeled clock when the walk ran.
    pub at_cycle: u64,
    /// Unswept heap objects (arrays excluded).
    pub live_objects: u64,
    /// Unswept arrays.
    pub live_arrays: u64,
    /// Bytes held by unswept objects.
    pub object_bytes: u64,
    /// Bytes held by unswept arrays.
    pub array_bytes: u64,
    /// The heap's own `used_bytes` at the same tick — always equals
    /// `object_bytes + array_bytes` (conservation).
    pub heap_used_bytes: u64,
    /// Objects currently in a special-state TIB.
    pub in_special_state: u64,
    /// Per-class occupancy, ascending class id.
    pub per_class: Vec<ClassCensus>,
    /// Per-TIB occupancy, ascending TIB id.
    pub per_tib: Vec<TibCensus>,
    /// Per-(class, state) residency, ascending ids.
    pub residency: Vec<StateResidency>,
}

impl CensusSnapshot {
    /// Total bytes the walk saw.
    pub fn total_bytes(&self) -> u64 {
        self.object_bytes + self.array_bytes
    }
}

impl fmt::Display for CensusSnapshot {
    /// A stable table: one summary line, a per-class section (descending
    /// bytes, top ten), and a residency section.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "census @ cycle {}: {} objects + {} arrays, {} bytes ({} in special state)",
            self.at_cycle,
            self.live_objects,
            self.live_arrays,
            self.total_bytes(),
            self.in_special_state
        )?;
        let mut by_bytes: Vec<&ClassCensus> = self.per_class.iter().collect();
        by_bytes.sort_by(|a, b| b.bytes.cmp(&a.bytes).then(a.class.cmp(&b.class)));
        for c in by_bytes.iter().take(10) {
            writeln!(f, "  class {:<24} {:>8} objects {:>10} bytes", c.name, c.objects, c.bytes)?;
        }
        for r in &self.residency {
            writeln!(
                f,
                "  state c{}/s{}: {} exits, residency mean {:.0} cy (max {})",
                r.class,
                r.state,
                r.exits,
                r.residency.mean(),
                r.residency.max
            )?;
        }
        Ok(())
    }
}

/// Residency per (class, special state): completed stays as the VM
/// records them at exit flips, plus whatever open stays a census walk adds
/// to its own copy.
#[derive(Clone, Debug, Default)]
pub struct ResidencyTracker {
    /// (class, state) → (exits, stay lengths).
    stays: BTreeMap<(u32, u32), (u64, Histogram)>,
}

impl ResidencyTracker {
    /// Records an exit: an object of `class` left special `state` after
    /// `cycles` in it.
    pub fn close(&mut self, class: u32, state: u32, cycles: u64) {
        let e = self.stays.entry((class, state)).or_default();
        e.0 += 1;
        e.1.record(cycles);
    }

    /// Records a stay still open at snapshot time, `cycles` long so far:
    /// a sample without an exit.
    pub fn add_open(&mut self, class: u32, state: u32, cycles: u64) {
        self.stays.entry((class, state)).or_default().1.record(cycles);
    }

    /// The residency table, ascending (class, state). Deterministic: the
    /// stays sit in a key-ordered map and histogram recording is
    /// order-insensitive.
    pub fn table(self) -> Vec<StateResidency> {
        self.stays
            .into_iter()
            .map(|((class, state), (exits, residency))| StateResidency {
                class,
                state,
                exits,
                residency,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exits_and_open_stays_share_one_histogram() {
        let mut t = ResidencyTracker::default();
        t.close(1, 0, 250);
        let mut snap = t.clone();
        snap.add_open(1, 0, 600);
        let r = snap.table();
        assert_eq!(r.len(), 1);
        assert_eq!((r[0].class, r[0].state), (1, 0));
        // One closed 250-cycle stay, one open one 600 cycles long so far.
        assert_eq!(r[0].exits, 1);
        assert_eq!(r[0].residency.count, 2);
        assert_eq!(r[0].residency.sum, 250 + 600);
        // The snapshot's open stay did not reach the tracker.
        assert_eq!(t.table()[0].residency.count, 1);
    }

    #[test]
    fn snapshot_display_is_stable() {
        let mut t = ResidencyTracker::default();
        t.close(2, 1, 64);
        let snap = CensusSnapshot {
            at_cycle: 100,
            live_objects: 3,
            live_arrays: 1,
            object_bytes: 72,
            array_bytes: 24,
            heap_used_bytes: 96,
            in_special_state: 0,
            per_class: vec![ClassCensus { class: 2, name: "Acct".into(), objects: 3, bytes: 72 }],
            per_tib: vec![],
            residency: t.table(),
        };
        assert_eq!(snap.total_bytes(), snap.heap_used_bytes);
        let text = snap.to_string();
        assert!(text.starts_with("census @ cycle 100: 3 objects + 1 arrays, 96 bytes"));
        assert!(text.contains("class Acct"));
        assert!(text.contains("state c2/s1: 1 exits"));
        let json = serde_json::to_string(&snap).unwrap();
        assert!(json.contains("\"heap_used_bytes\":96"));
        assert!(json.contains("\"residency\""));
    }
}
