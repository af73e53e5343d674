//! Object heap with mark-sweep garbage collection.
//!
//! Jikes' production GenMS collector is modeled as a single-space mark-sweep
//! collector with byte-accurate heap accounting. Allocation charges cycles
//! per word; collections charge per object marked and per cell swept, so the
//! paper's observation that memory-aggressive workloads (SPECjbb2005) dilute
//! the mutation benefit reproduces naturally.
//!
//! TIBs are *not* heap objects (they are immortal in Jikes, Sec. 7.2), so
//! special-TIB creation never adds GC pressure.

use crate::error::RunError;
use crate::tib::TibId;
use dchm_bytecode::value::ObjRef;
use dchm_bytecode::{ClassId, ElemKind, Value};
use std::collections::BTreeMap;

/// A heap-allocated class instance.
#[derive(Clone, Debug, PartialEq)]
pub struct Object {
    /// Exact run-time class (the TIB's type-information entry mirrors this).
    pub class: ClassId,
    /// Current TIB pointer; the mutation engine repoints this between the
    /// class TIB and special TIBs.
    pub tib: TibId,
    /// Modeled cycle of the last TIB flip (0 before the first): while `tib`
    /// is a special TIB, when the object entered that state.
    pub(crate) since: u64,
    /// Field slots, laid out per [`dchm_bytecode::ClassDef::all_instance_fields`].
    /// A boxed slice, not a `Vec`: without a capacity word the object stays
    /// 32 bytes beside `since`, so a heap cell keeps a plain tag byte
    /// instead of hiding its tag in a capacity niche that every cell access
    /// would have to range-check.
    pub fields: Box<[Value]>,
}

/// A heap-allocated array.
#[derive(Clone, Debug, PartialEq)]
pub struct ArrayObj {
    /// Element kind (determines whether the GC traces elements).
    pub kind: ElemKind,
    /// Element storage.
    pub elems: Vec<Value>,
}

/// One heap cell.
#[derive(Clone, Debug, PartialEq)]
enum Cell {
    Free,
    Obj(Object),
    Arr(ArrayObj),
}

/// Raw occupancy census of every unswept heap cell — the heap-side half
/// of `dchm_trace::census::CensusSnapshot` (the VM layers TIB kinds,
/// names and residency on top, the last from the same walk). Conservation
/// holds by construction: the walk visits exactly the cells `used_bytes`
/// accounts for, so `object_bytes + array_bytes == used_bytes()` at any
/// tick, floating garbage included.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HeapCensus {
    /// Unswept objects.
    pub objects: u64,
    /// Unswept arrays.
    pub arrays: u64,
    /// Bytes held by unswept objects.
    pub object_bytes: u64,
    /// Bytes held by unswept arrays.
    pub array_bytes: u64,
    /// Per-class `(objects, bytes)`, keyed by raw class id.
    pub per_class: BTreeMap<u32, (u64, u64)>,
    /// Per-TIB `(objects, bytes)`, keyed by raw TIB id.
    pub per_tib: BTreeMap<u32, (u64, u64)>,
}

impl HeapCensus {
    /// Total bytes the walk saw (equals the heap's `used_bytes`).
    pub fn total_bytes(&self) -> u64 {
        self.object_bytes + self.array_bytes
    }
}

/// GC & allocation statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HeapStats {
    /// Number of collections run.
    pub gc_count: u64,
    /// Cycles charged to collections.
    pub gc_cycles: u64,
    /// Total objects+arrays ever allocated.
    pub allocations: u64,
    /// Total bytes ever allocated.
    pub bytes_allocated: u64,
    /// Live bytes after the most recent collection.
    pub live_bytes_after_gc: usize,
}

/// The heap. Object handles ([`ObjRef`]) are stable across collections
/// (mark-sweep does not move), matching the paper's observation that object
/// pointers can't be tracked cheaply but TIB pointers can be updated at
/// field-assignment sites.
#[derive(Debug)]
pub struct Heap {
    cells: Vec<Cell>,
    free: Vec<u32>,
    /// Bytes currently considered in use (live + floating garbage).
    used_bytes: usize,
    /// Configured capacity in bytes.
    capacity: usize,
    /// Statistics.
    pub stats: HeapStats,
    mark: Vec<bool>,
    /// The mark stack, kept between collections so one allocates nothing.
    stack: Vec<u32>,
}

/// Header bytes per object/array.
const HEADER_BYTES: usize = 16;
/// Bytes per field/element slot.
const SLOT_BYTES: usize = 8;

fn obj_bytes(nfields: usize) -> usize {
    HEADER_BYTES + SLOT_BYTES * nfields
}

impl Heap {
    /// Creates a heap with `capacity` bytes.
    pub fn new(capacity: usize) -> Self {
        Heap {
            cells: Vec::new(),
            free: Vec::new(),
            used_bytes: 0,
            capacity,
            stats: HeapStats::default(),
            mark: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Configured capacity in bytes.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Bytes currently accounted as used.
    pub fn used_bytes(&self) -> usize {
        self.used_bytes
    }

    /// Number of live cells (objects + arrays).
    #[cfg(test)]
    fn live_count(&self) -> usize {
        self.cells.len() - self.free.len()
    }

    /// True when an allocation of `bytes` requires a collection first.
    pub fn needs_gc(&self, bytes: usize) -> bool {
        self.used_bytes + bytes > self.capacity
    }

    /// Accounted size of an array of `len` elements (a negative length
    /// counts as empty; allocating it fails later, by type).
    ///
    /// # Errors
    /// [`RunError::OutOfMemory`] when the size, or the heap's running total
    /// with it, does not fit `usize`: no collection could make room, so
    /// callers fail before collecting or charging for it.
    pub fn array_bytes(&self, len: i64) -> Result<usize, RunError> {
        usize::try_from(len.max(0))
            .ok()
            .and_then(|n| n.checked_mul(SLOT_BYTES)?.checked_add(HEADER_BYTES))
            .filter(|&bytes| self.used_bytes.checked_add(bytes).is_some())
            .ok_or(RunError::OutOfMemory { requested: usize::MAX, heap: self.capacity })
    }

    fn take_slot(&mut self, cell: Cell, bytes: usize) -> ObjRef {
        self.used_bytes += bytes;
        self.stats.allocations += 1;
        self.stats.bytes_allocated += bytes as u64;
        match self.free.pop() {
            Some(i) => {
                self.cells[i as usize] = cell;
                ObjRef(i)
            }
            None => {
                let i = self.cells.len() as u32;
                self.cells.push(cell);
                ObjRef(i)
            }
        }
    }

    /// Allocates an object (does not run GC; callers check [`Self::needs_gc`]
    /// first so roots can be gathered).
    ///
    /// # Errors
    /// Returns [`RunError::OutOfMemory`] if the heap is full.
    pub fn alloc_object(
        &mut self,
        class: ClassId,
        tib: TibId,
        fields: Vec<Value>,
    ) -> Result<ObjRef, RunError> {
        let bytes = obj_bytes(fields.len());
        if self.used_bytes + bytes > self.capacity {
            return Err(RunError::OutOfMemory {
                requested: bytes,
                heap: self.capacity,
            });
        }
        let fields = fields.into_boxed_slice();
        Ok(self.take_slot(Cell::Obj(Object { class, tib, since: 0, fields }), bytes))
    }

    /// Allocates an array of `len` default-initialized elements.
    ///
    /// # Errors
    /// Returns [`RunError::NegativeArraySize`] or [`RunError::OutOfMemory`].
    pub fn alloc_array(&mut self, kind: ElemKind, len: i64) -> Result<ObjRef, RunError> {
        if len < 0 {
            return Err(RunError::NegativeArraySize(len));
        }
        let bytes = self.array_bytes(len)?;
        let len = len as usize;
        if self.used_bytes + bytes > self.capacity {
            return Err(RunError::OutOfMemory {
                requested: bytes,
                heap: self.capacity,
            });
        }
        let init = match kind {
            ElemKind::Int => Value::Int(0),
            ElemKind::Double => Value::Double(0.0),
            ElemKind::Ref => Value::Null,
        };
        Ok(self.take_slot(
            Cell::Arr(ArrayObj {
                kind,
                elems: vec![init; len],
            }),
            bytes,
        ))
    }

    fn confusion(r: ObjRef, cell: &Cell, wanted: &str) -> RunError {
        let found = match cell {
            Cell::Free => "a freed cell",
            Cell::Obj(_) => "an object",
            Cell::Arr(_) => "an array",
        };
        RunError::TypeConfusion {
            what: format!("{r} is not {wanted} but {found}"),
        }
    }

    /// The object behind `r`, as a typed error on mismatch — the
    /// interpreter's trap path for reference-typed ops applied to the wrong
    /// cell kind.
    ///
    /// # Errors
    /// Returns [`RunError::TypeConfusion`] if `r` is not a live object.
    #[inline]
    pub fn try_object(&self, r: ObjRef) -> Result<&Object, RunError> {
        match &self.cells[r.0 as usize] {
            Cell::Obj(o) => Ok(o),
            other => Err(Self::confusion(r, other, "an object")),
        }
    }

    /// Mutable [`Self::try_object`].
    ///
    /// # Errors
    /// Returns [`RunError::TypeConfusion`] if `r` is not a live object.
    #[inline]
    pub fn try_object_mut(&mut self, r: ObjRef) -> Result<&mut Object, RunError> {
        match &mut self.cells[r.0 as usize] {
            Cell::Obj(o) => Ok(o),
            other => Err(Self::confusion(r, other, "an object")),
        }
    }

    /// The array behind `r`, as a typed error on mismatch.
    ///
    /// # Errors
    /// Returns [`RunError::TypeConfusion`] if `r` is not a live array.
    #[inline]
    pub fn try_array(&self, r: ObjRef) -> Result<&ArrayObj, RunError> {
        match &self.cells[r.0 as usize] {
            Cell::Arr(a) => Ok(a),
            other => Err(Self::confusion(r, other, "an array")),
        }
    }

    /// Mutable [`Self::try_array`].
    ///
    /// # Errors
    /// Returns [`RunError::TypeConfusion`] if `r` is not a live array.
    #[inline]
    pub fn try_array_mut(&mut self, r: ObjRef) -> Result<&mut ArrayObj, RunError> {
        match &mut self.cells[r.0 as usize] {
            Cell::Arr(a) => Ok(a),
            other => Err(Self::confusion(r, other, "an array")),
        }
    }

    /// The object behind `r` (host-side convenience).
    ///
    /// # Panics
    /// Panics if `r` is not a live object handle (VM bug, not program bug).
    #[inline]
    pub fn object(&self, r: ObjRef) -> &Object {
        self.try_object(r).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Mutable access to the object behind `r`.
    ///
    /// # Panics
    /// Panics if `r` is not a live object handle.
    #[inline]
    pub fn object_mut(&mut self, r: ObjRef) -> &mut Object {
        self.try_object_mut(r).unwrap_or_else(|e| panic!("{e}"))
    }

    /// The array behind `r` (host-side convenience).
    ///
    /// # Panics
    /// Panics if `r` is not a live array handle.
    #[inline]
    #[cfg(test)]
    fn array(&self, r: ObjRef) -> &ArrayObj {
        self.try_array(r).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Mutable access to the array behind `r`.
    ///
    /// # Panics
    /// Panics if `r` is not a live array handle.
    #[inline]
    #[cfg(test)]
    fn array_mut(&mut self, r: ObjRef) -> &mut ArrayObj {
        self.try_array_mut(r).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Iterates all live objects (not arrays) with their exact classes.
    /// `MutationEngine::install_online` adopts through it the objects that
    /// existed before a plan was installed.
    pub fn iter_live_objects(&self) -> impl Iterator<Item = (ObjRef, ClassId)> + '_ {
        self.cells.iter().enumerate().filter_map(|(i, c)| match c {
            Cell::Obj(o) => Some((ObjRef(i as u32), o.class)),
            _ => None,
        })
    }

    /// Walks every unswept cell and tallies occupancy per class and per
    /// TIB (arrays have neither; they pool into the array totals), handing
    /// each object to `visit` on the way. Pure host-side observation:
    /// charges no cycles, touches no stats.
    pub fn census(&self, mut visit: impl FnMut(&Object)) -> HeapCensus {
        let mut c = HeapCensus::default();
        for cell in &self.cells {
            match cell {
                Cell::Obj(o) => {
                    visit(o);
                    let bytes = obj_bytes(o.fields.len()) as u64;
                    c.objects += 1;
                    c.object_bytes += bytes;
                    let pc = c.per_class.entry(o.class.0).or_insert((0, 0));
                    pc.0 += 1;
                    pc.1 += bytes;
                    let pt = c.per_tib.entry(o.tib.0).or_insert((0, 0));
                    pt.0 += 1;
                    pt.1 += bytes;
                }
                Cell::Arr(a) => {
                    c.arrays += 1;
                    c.array_bytes += obj_bytes(a.elems.len()) as u64;
                }
                Cell::Free => {}
            }
        }
        c
    }

    /// True if `r` currently points at a live cell.
    #[cfg(test)]
    pub(crate) fn is_live(&self, r: ObjRef) -> bool {
        matches!(
            self.cells.get(r.0 as usize),
            Some(Cell::Obj(_) | Cell::Arr(_))
        )
    }

    /// Runs a mark-sweep collection over `roots`; returns cycles charged.
    pub fn gc(&mut self, roots: impl Iterator<Item = ObjRef>) -> u64 {
        use dchm_ir::cost::CostModel;
        let n = self.cells.len();
        self.mark.clear();
        self.mark.resize(n, false);

        let mut marked = 0u64;
        self.stack.clear();
        for r in roots {
            let i = r.0 as usize;
            if i < n && !self.mark[i] && !matches!(self.cells[i], Cell::Free) {
                self.mark[i] = true;
                self.stack.push(r.0);
            }
        }
        while let Some(i) = self.stack.pop() {
            marked += 1;
            // Collect child refs without holding the borrow across pushes.
            let push_child = |v: &Value, stack: &mut Vec<u32>, mark: &mut [bool]| {
                if let Value::Ref(c) = v {
                    let ci = c.0 as usize;
                    if !mark[ci] {
                        mark[ci] = true;
                        stack.push(c.0);
                    }
                }
            };
            match &self.cells[i as usize] {
                Cell::Obj(o) => {
                    for v in &o.fields {
                        push_child(v, &mut self.stack, &mut self.mark);
                    }
                }
                Cell::Arr(a) if a.kind == ElemKind::Ref => {
                    for v in &a.elems {
                        push_child(v, &mut self.stack, &mut self.mark);
                    }
                }
                _ => {}
            }
        }

        // Sweep.
        let mut swept = 0u64;
        let mut live_bytes = 0usize;
        self.free.clear();
        for i in 0..n {
            if self.mark[i] {
                live_bytes += match &self.cells[i] {
                    Cell::Obj(o) => obj_bytes(o.fields.len()),
                    Cell::Arr(a) => obj_bytes(a.elems.len()),
                    Cell::Free => 0,
                };
            } else {
                if !matches!(self.cells[i], Cell::Free) {
                    swept += 1;
                }
                self.cells[i] = Cell::Free;
                self.free.push(i as u32);
            }
        }
        self.used_bytes = live_bytes;
        self.stats.gc_count += 1;
        self.stats.live_bytes_after_gc = live_bytes;
        let cycles = marked * CostModel::GC_MARK_COST + swept * CostModel::GC_SWEEP_COST;
        self.stats.gc_cycles += cycles;
        cycles
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_heap() -> Heap {
        Heap::new(4096)
    }

    #[test]
    fn alloc_and_access_object() {
        let mut h = small_heap();
        let r = h
            .alloc_object(ClassId(1), TibId(0), vec![Value::Int(5), Value::Null])
            .unwrap();
        assert_eq!(h.object(r).class, ClassId(1));
        assert_eq!(h.object(r).fields[0], Value::Int(5));
        h.object_mut(r).fields[0] = Value::Int(9);
        assert_eq!(h.object(r).fields[0], Value::Int(9));
        assert_eq!(h.live_count(), 1);
    }

    #[test]
    fn alloc_array_kinds() {
        let mut h = small_heap();
        let a = h.alloc_array(ElemKind::Double, 3).unwrap();
        assert_eq!(h.array(a).elems, vec![Value::Double(0.0); 3]);
        let b = h.alloc_array(ElemKind::Ref, 2).unwrap();
        assert_eq!(h.array(b).elems, vec![Value::Null; 2]);
        assert!(matches!(
            h.alloc_array(ElemKind::Int, -1),
            Err(RunError::NegativeArraySize(-1))
        ));
    }

    #[test]
    fn gc_reclaims_unreachable() {
        let mut h = small_heap();
        let keep = h.alloc_object(ClassId(0), TibId(0), vec![]).unwrap();
        let _drop1 = h.alloc_object(ClassId(0), TibId(0), vec![]).unwrap();
        let _drop2 = h.alloc_array(ElemKind::Int, 8).unwrap();
        assert_eq!(h.live_count(), 3);
        let cycles = h.gc([keep].into_iter());
        assert!(cycles > 0);
        assert_eq!(h.live_count(), 1);
        assert!(h.is_live(keep));
        assert_eq!(h.stats.gc_count, 1);
    }

    #[test]
    fn gc_traces_object_fields_and_ref_arrays() {
        let mut h = small_heap();
        let leaf = h.alloc_object(ClassId(0), TibId(0), vec![]).unwrap();
        let arr = h.alloc_array(ElemKind::Ref, 1).unwrap();
        h.array_mut(arr).elems[0] = Value::Ref(leaf);
        let root = h
            .alloc_object(ClassId(0), TibId(0), vec![Value::Ref(arr)])
            .unwrap();
        h.gc([root].into_iter());
        assert!(h.is_live(leaf));
        assert!(h.is_live(arr));
        assert!(h.is_live(root));
        assert_eq!(h.live_count(), 3);
    }

    #[test]
    fn gc_does_not_trace_int_arrays() {
        let mut h = small_heap();
        let victim = h.alloc_object(ClassId(0), TibId(0), vec![]).unwrap();
        // An int array whose bits happen to equal the victim's handle must
        // not keep it alive.
        let arr = h.alloc_array(ElemKind::Int, 1).unwrap();
        h.array_mut(arr).elems[0] = Value::Int(victim.0 as i64);
        h.gc([arr].into_iter());
        assert!(!h.is_live(victim));
        assert!(h.is_live(arr));
    }

    #[test]
    fn slots_are_reused_after_gc() {
        let mut h = small_heap();
        let a = h.alloc_object(ClassId(0), TibId(0), vec![]).unwrap();
        h.gc(std::iter::empty());
        assert!(!h.is_live(a));
        let b = h.alloc_object(ClassId(0), TibId(0), vec![]).unwrap();
        // The freed slot is reused; handle equality is incidental but the
        // cell count must not grow.
        assert_eq!(h.cells.len(), 1);
        assert!(h.is_live(b));
    }

    #[test]
    fn mismatched_handles_are_typed_errors() {
        let mut h = small_heap();
        let o = h.alloc_object(ClassId(0), TibId(0), vec![]).unwrap();
        let a = h.alloc_array(ElemKind::Int, 1).unwrap();
        assert!(matches!(h.try_array(o), Err(RunError::TypeConfusion { .. })));
        assert!(matches!(h.try_object(a), Err(RunError::TypeConfusion { .. })));
        assert!(h.try_object(o).is_ok() && h.try_array_mut(a).is_ok());
        h.gc(std::iter::empty());
        // Freed cells are type confusion too, not index panics.
        assert!(matches!(h.try_object(o), Err(RunError::TypeConfusion { .. })));
        assert!(matches!(h.try_array(a), Err(RunError::TypeConfusion { .. })));
    }

    #[test]
    fn oom_when_full() {
        let mut h = Heap::new(64);
        // 16 header + 8*8 = 80 > 64.
        let r = h.alloc_object(ClassId(0), TibId(0), vec![Value::Int(0); 8]);
        assert!(matches!(r, Err(RunError::OutOfMemory { .. })));
    }

    #[test]
    fn used_bytes_tracks_alloc_and_gc() {
        let mut h = small_heap();
        assert_eq!(h.used_bytes(), 0);
        let r = h
            .alloc_object(ClassId(0), TibId(0), vec![Value::Int(0); 2])
            .unwrap();
        assert_eq!(h.used_bytes(), 32);
        h.gc([r].into_iter());
        assert_eq!(h.used_bytes(), 32);
        h.gc(std::iter::empty());
        assert_eq!(h.used_bytes(), 0);
    }

    #[test]
    fn census_conserves_used_bytes() {
        let mut h = small_heap();
        let keep = h
            .alloc_object(ClassId(1), TibId(0), vec![Value::Int(0); 2])
            .unwrap();
        let _dead = h.alloc_object(ClassId(2), TibId(3), vec![]).unwrap();
        let _arr = h.alloc_array(ElemKind::Int, 4).unwrap();
        let c = h.census(|_| {});
        // Floating garbage counts on both sides of the ledger.
        assert_eq!(c.total_bytes(), h.used_bytes() as u64);
        assert_eq!((c.objects, c.arrays), (2, 1));
        assert_eq!(c.per_class.get(&1), Some(&(1, 32)));
        assert_eq!(c.per_tib.get(&3), Some(&(1, 16)));
        h.gc([keep].into_iter());
        let c = h.census(|_| {});
        assert_eq!(c.total_bytes(), h.used_bytes() as u64);
        assert_eq!((c.objects, c.arrays), (1, 0));
        assert!(!c.per_class.contains_key(&2));
    }

    #[test]
    fn cyclic_garbage_is_collected() {
        let mut h = small_heap();
        let a = h.alloc_object(ClassId(0), TibId(0), vec![Value::Null]).unwrap();
        let b = h
            .alloc_object(ClassId(0), TibId(0), vec![Value::Ref(a)])
            .unwrap();
        h.object_mut(a).fields[0] = Value::Ref(b);
        h.gc(std::iter::empty());
        assert!(!h.is_live(a));
        assert!(!h.is_live(b));
    }
}
