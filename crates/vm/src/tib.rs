//! Type Information Blocks (TIBs) and Interface Method Tables (IMTs).
//!
//! A TIB is the Jikes name for a virtual-function table plus type metadata.
//! Every class gets one *class TIB* at startup; the mutation engine adds
//! *special TIBs*, one per hot state of a mutable class, and points their
//! method entries at specialized compiled code (paper Sections 2–3). Every
//! other special-TIB entry inherits the class TIB's, so general installs
//! reach it with no copying. Type tests always consult the TIB's
//! type-information entry — never TIB-pointer identity — so special TIBs are
//! invisible to `instanceof`/`checkcast` (Sec. 3.2.3).
//!
//! Interface dispatch uses a fixed-size IMT hashed by selector. A class TIB
//! and all its special TIBs share a single IMT: IMT entries resolve to a
//! *TIB offset* rather than a code pointer (the modification Sec. 3.2.3
//! proposes), so the final load goes through whichever TIB the object
//! currently carries.

use crate::state::CodeSlot;
use dchm_bytecode::{ClassId, SelectorId};
use std::fmt;

/// Number of IMT slots (Jikes' static compilation constant).
pub const IMT_SLOTS: usize = 29;

/// Identifies a TIB in the [`crate::VmState`]'s TIB table.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TibId(pub u32);

impl TibId {
    /// Raw index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for TibId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "tib{}", self.0)
    }
}

impl fmt::Display for TibId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "tib{}", self.0)
    }
}

/// Whether a TIB is the canonical class TIB or a mutation-created special.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TibKind {
    /// The one TIB every instance starts with.
    Class,
    /// A special TIB for hot state `state_index` of the class.
    Special {
        /// Index of the hot state this TIB embodies (engine-defined).
        state_index: usize,
    },
}

/// One IMT slot.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub enum ImtEntry {
    /// No interface method hashes here.
    #[default]
    Empty,
    /// Exactly one interface method: resolved directly to a vtable offset.
    Single {
        /// The selector (for debugging; dispatch doesn't re-check it).
        sel: SelectorId,
        /// Offset into the TIB's method array.
        vslot: u32,
    },
    /// Conflict stub: multiple methods hash here; dispatch searches by
    /// selector (charged extra cycles by the evaluator).
    Conflict(Vec<(SelectorId, u32)>),
}

/// An interface method table, shared by a class TIB and its special TIBs.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Imt {
    /// The slots.
    pub slots: Vec<ImtEntry>,
}

impl Default for Imt {
    fn default() -> Self {
        Imt {
            slots: vec![ImtEntry::Empty; IMT_SLOTS],
        }
    }
}

impl Imt {
    /// The slot a selector hashes to.
    #[inline]
    fn slot_of(sel: SelectorId) -> usize {
        sel.0 as usize % IMT_SLOTS
    }

    /// Adds `sel -> vslot`, upgrading to a conflict entry if needed.
    pub fn add(&mut self, sel: SelectorId, vslot: u32) {
        let slot = &mut self.slots[Self::slot_of(sel)];
        match slot {
            ImtEntry::Empty => *slot = ImtEntry::Single { sel, vslot },
            ImtEntry::Single { sel: s0, vslot: v0 } => {
                if *s0 == sel {
                    *slot = ImtEntry::Single { sel, vslot };
                } else {
                    *slot = ImtEntry::Conflict(vec![(*s0, *v0), (sel, vslot)]);
                }
            }
            ImtEntry::Conflict(list) => {
                if let Some(e) = list.iter_mut().find(|(s, _)| *s == sel) {
                    e.1 = vslot;
                } else {
                    list.push((sel, vslot));
                }
            }
        }
    }

    /// Resolves a selector; `(vslot, conflicted)`.
    pub fn lookup(&self, sel: SelectorId) -> Option<(u32, bool)> {
        match &self.slots[Self::slot_of(sel)] {
            ImtEntry::Empty => None,
            ImtEntry::Single { sel: s, vslot } => {
                if *s == sel {
                    Some((*vslot, false))
                } else {
                    None
                }
            }
            ImtEntry::Conflict(list) => list
                .iter()
                .find(|(s, _)| *s == sel)
                .map(|(_, v)| (*v, true)),
        }
    }
}

/// A Type Information Block.
#[derive(Clone, PartialEq, Debug)]
pub struct Tib {
    /// Type-information entry: the exact class this TIB describes. Identical
    /// between a class TIB and its specials; `instanceof`/`checkcast` use
    /// only this.
    pub class: ClassId,
    /// Class TIB or special TIB.
    pub kind: TibKind,
    /// Method entries, indexed by vtable slot. A special TIB's entries start
    /// as [`CodeSlot::Lazy`], read as *inherit the class TIB's entry*
    /// ([`crate::VmState::tib_slot`]), and the mutation engine points some
    /// of them at special compiled code.
    pub methods: Vec<CodeSlot>,
    /// Index of the shared IMT (one per class; specials share it).
    pub imt: u32,
}

impl Tib {
    /// Modeled memory footprint in bytes: one word per method entry plus a
    /// three-word header (type info, kind/status, IMT pointer).
    pub fn bytes(&self) -> usize {
        12 + 4 * self.methods.len()
    }

    /// The special-state index this TIB embodies, or `None` for the class
    /// TIB — the census/profiler view of [`TibKind`].
    #[inline]
    pub fn special_state(&self) -> Option<u32> {
        match self.kind {
            TibKind::Class => None,
            TibKind::Special { state_index } => Some(state_index as u32),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn imt_single_then_conflict() {
        let mut imt = Imt::default();
        let s1 = SelectorId(3);
        let s2 = SelectorId(3 + IMT_SLOTS as u32); // same slot, different selector
        imt.add(s1, 10);
        assert_eq!(imt.lookup(s1), Some((10, false)));
        imt.add(s2, 20);
        assert_eq!(imt.lookup(s1), Some((10, true)));
        assert_eq!(imt.lookup(s2), Some((20, true)));
        // Updating an existing conflicted entry replaces it.
        imt.add(s1, 11);
        assert_eq!(imt.lookup(s1), Some((11, true)));
    }

    #[test]
    fn imt_update_single() {
        let mut imt = Imt::default();
        let s = SelectorId(5);
        imt.add(s, 1);
        imt.add(s, 2);
        assert_eq!(imt.lookup(s), Some((2, false)));
    }

    #[test]
    fn imt_miss_is_none() {
        let imt = Imt::default();
        assert_eq!(imt.lookup(SelectorId(0)), None);
        let mut imt = Imt::default();
        imt.add(SelectorId(0), 4);
        // Different selector hashing to the same slot misses on a Single.
        assert_eq!(imt.lookup(SelectorId(IMT_SLOTS as u32)), None);
    }

    #[test]
    fn tib_bytes_scale_with_methods() {
        let t = Tib {
            class: ClassId(0),
            kind: TibKind::Class,
            methods: vec![CodeSlot::Lazy; 5],
            imt: 0,
        };
        assert_eq!(t.bytes(), 12 + 20);
    }
}
