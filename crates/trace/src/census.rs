//! Heap & state census: where every live byte sits, and how long objects
//! stay in each special state.
//!
//! The census complements [`crate::metrics`]: metrics fold the *event
//! stream* (what happened), the census walks the *live heap* (what is).
//! A walk produces a [`CensusSnapshot`] — live-object counts and bytes
//! per class and per TIB (class TIBs and special-state TIBs separately) —
//! and the VM pairs it with a [`ResidencyTracker`] that measures TIB-flip
//! residency: the modeled-cycle distance between an object entering a
//! special state and leaving it, folded into the same log2
//! [`Histogram`] shape metrics use.
//!
//! Census data is host-side only. The walk never charges the modeled
//! clock, and the residency tracker is updated unconditionally at every
//! TIB flip (it must not be gated on tracing, or the census would change
//! shape when a tracer attaches). Conservation is structural: the walk
//! visits exactly the unswept heap cells, so its byte total equals the
//! heap's `used_bytes` at the same tick, floating garbage included.

use crate::metrics::Histogram;
use serde::Serialize;
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};

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

/// Hasher for the dense `u32` object ids keying [`ResidencyTracker::open`]
/// (heap cell indices the VM hands out, never outside input): one multiply
/// by 2^64/φ. Consecutive ids land in distinct buckets (the product's low
/// bits are a bijection of the id's), and the top bits — the table cuts its
/// control bytes from them; the identity leaves them zero — mix the whole id.
#[derive(Default)]
struct IdHasher(u64);

impl Hasher for IdHasher {
    fn write(&mut self, _: &[u8]) {
        unreachable!("keys are u32 object ids");
    }
    fn write_u32(&mut self, id: u32) {
        self.0 = u64::from(id).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
    fn finish(&self) -> u64 {
        self.0
    }
}

/// Tracks how long each object has been in its current special state.
/// Owned by the VM and updated at every TIB flip, tracing on or off.
#[derive(Debug, Default)]
pub struct ResidencyTracker {
    /// Object → (cycle it entered its current special state, class,
    /// state index). Objects in a class TIB have no entry.
    open: HashMap<u32, (u64, u32, u32), BuildHasherDefault<IdHasher>>,
    /// (class, state) → completed stays.
    closed: BTreeMap<(u32, u32), (u64, Histogram)>,
}

impl ResidencyTracker {
    /// Records a TIB flip of `obj` (of `class`) at modeled `cycle`:
    /// leaving `from_state` closes the open stay, entering `to_state`
    /// opens one. Class-TIB ↔ class-TIB flips are no-ops.
    pub fn on_flip(
        &mut self,
        obj: u32,
        class: u32,
        from_state: Option<u32>,
        to_state: Option<u32>,
        cycle: u64,
    ) {
        if let Some(s) = from_state {
            if let Some((since, c, _)) = self.open.remove(&obj) {
                let e = self.closed.entry((c, s)).or_default();
                e.0 += 1;
                e.1.record(cycle - since);
            }
        }
        if let Some(s) = to_state {
            self.open.insert(obj, (cycle, class, s));
        }
    }

    /// Drops open stays of objects the GC just swept, so a recycled
    /// object id cannot inherit a dead object's entry cycle.
    pub fn prune(&mut self, mut live: impl FnMut(u32) -> bool) {
        self.open.retain(|&o, _| live(o));
    }

    /// Objects currently tracked as in a special state.
    #[cfg(test)]
    fn open_stays(&self) -> usize {
        self.open.len()
    }

    /// The residency table at modeled `at_cycle`: completed stays plus
    /// open stays measured to `at_cycle`. Deterministic — the fold lands
    /// in a key-ordered map and histogram recording is order-insensitive.
    pub fn snapshot(&self, at_cycle: u64) -> Vec<StateResidency> {
        let mut all = self.closed.clone();
        for &(since, class, state) in self.open.values() {
            all.entry((class, state))
                .or_default()
                .1
                .record(at_cycle.saturating_sub(since));
        }
        all.into_iter()
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
    fn flip_cycle_closes_and_reopens_stays() {
        let mut t = ResidencyTracker::default();
        t.on_flip(5, 1, None, Some(0), 100); // enter state 0
        t.on_flip(5, 1, Some(0), None, 350); // leave
        t.on_flip(5, 1, None, Some(0), 400); // re-enter
        let r = t.snapshot(1000);
        assert_eq!(r.len(), 1);
        assert_eq!((r[0].class, r[0].state), (1, 0));
        assert_eq!(r[0].exits, 1);
        // One closed 250-cycle stay, one open stay measured to 1000.
        assert_eq!(r[0].residency.count, 2);
        assert_eq!(r[0].residency.sum, 250 + 600);
        assert_eq!(t.open_stays(), 1);
        // Snapshotting did not consume the closed record.
        assert_eq!(t.snapshot(1000)[0].residency.sum, 850);
    }

    #[test]
    fn prune_drops_dead_objects_only() {
        let mut t = ResidencyTracker::default();
        t.on_flip(1, 0, None, Some(0), 10);
        t.on_flip(2, 0, None, Some(0), 20);
        t.prune(|o| o == 2);
        assert_eq!(t.open_stays(), 1);
        // The dead object's stay never closes into the histogram: its exit
        // flip after the prune is a no-op.
        t.on_flip(1, 0, Some(0), None, 100);
        let r = t.snapshot(100);
        assert_eq!(r.len(), 1);
        assert_eq!(r[0].exits, 0);
        // Only the survivor's open stay (80 cycles) is measured.
        assert_eq!(r[0].residency.count, 1);
        assert_eq!(r[0].residency.sum, 80);
    }

    #[test]
    fn snapshot_display_is_stable() {
        let mut t = ResidencyTracker::default();
        t.on_flip(7, 2, None, Some(1), 0);
        t.on_flip(7, 2, Some(1), None, 64);
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
            residency: t.snapshot(100),
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
