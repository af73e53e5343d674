//! State-field value sampling.
//!
//! The paper augments Jikes to record "the possible values for each field
//! and the distribution of the values of a field over time" (Sec. 3.1).
//! Here an observer watches candidate state fields and histograms every
//! value stored to them; hot states fall out of the histograms.

use dchm_bytecode::{ClassId, FieldId, Program, Value};
use dchm_vm::{Vm, VmConfig, VmObserver};
use std::cell::RefCell;
use std::collections::{HashMap, HashSet};
use std::rc::Rc;

/// A hashable key for observed values (doubles keyed by bit pattern).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum ValueKey {
    /// Integer value.
    Int(i64),
    /// Double, by bits.
    Double(u64),
    /// Null reference.
    Null,
}

impl ValueKey {
    /// Keys a runtime value. Object references are all collapsed to `Null`
    /// (reference identity is never a specializable constant).
    pub fn of(v: Value) -> ValueKey {
        match v {
            Value::Int(i) => ValueKey::Int(i),
            Value::Double(d) => ValueKey::Double(d.to_bits()),
            Value::Ref(_) | Value::Null => ValueKey::Null,
        }
    }

    /// Back to a [`Value`].
    fn to_value(self) -> Value {
        match self {
            ValueKey::Int(i) => Value::Int(i),
            ValueKey::Double(b) => Value::Double(f64::from_bits(b)),
            ValueKey::Null => Value::Null,
        }
    }
}

/// Histogram of values stored to one field.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ValueHistogram {
    /// Value -> store count.
    pub counts: HashMap<ValueKey, u64>,
    /// Total stores observed.
    pub total: u64,
}

impl ValueHistogram {
    fn record(&mut self, v: Value) {
        *self.counts.entry(ValueKey::of(v)).or_insert(0) += 1;
        self.total += 1;
    }

    /// Values sorted by frequency (descending), with relative frequency.
    pub fn ranked(&self) -> Vec<(Value, f64)> {
        let mut v: Vec<(ValueKey, u64)> = self.counts.iter().map(|(k, c)| (*k, *c)).collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| format!("{:?}", a.0).cmp(&format!("{:?}", b.0))));
        v.into_iter()
            .map(|(k, c)| (k.to_value(), c as f64 / self.total.max(1) as f64))
            .collect()
    }
}

/// The value-sampling report.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ValueReport {
    /// Per-field histograms.
    pub fields: HashMap<FieldId, ValueHistogram>,
    /// Instance-store counts per (class, field): which exact classes
    /// actually carried the stores.
    pub by_class: HashMap<(ClassId, FieldId), u64>,
}

impl ValueReport {
    /// Histogram of one field (empty if never stored).
    pub fn histogram(&self, f: FieldId) -> ValueHistogram {
        self.fields.get(&f).cloned().unwrap_or_default()
    }

    /// Drops every field `keep` rejects, leaving the report a run watching
    /// only the kept fields would have produced.
    pub fn retain_fields(&mut self, keep: impl Fn(FieldId) -> bool) {
        self.fields.retain(|f, _| keep(*f));
        self.by_class.retain(|(_, f), _| keep(*f));
    }
}

/// The observer; shares its store so the report survives the VM.
#[derive(Clone, Debug)]
pub struct ValueProfiler {
    watch: HashSet<FieldId>,
    store: Rc<RefCell<ValueReport>>,
}

impl ValueProfiler {
    /// Creates a profiler watching `fields`.
    pub fn new(fields: impl IntoIterator<Item = FieldId>) -> Self {
        ValueProfiler {
            watch: fields.into_iter().collect(),
            store: Rc::new(RefCell::new(ValueReport::default())),
        }
    }

    /// Moves the collected report out, leaving this profiler's store empty
    /// (a wide run's histograms are too big to copy for nothing).
    pub fn take_report(&self) -> ValueReport {
        self.store.take()
    }
}

impl VmObserver for ValueProfiler {
    fn watched_fields(&self) -> HashSet<FieldId> {
        self.watch.clone()
    }

    fn on_instance_store(&mut self, class: ClassId, field: FieldId, value: Value) {
        let mut s = self.store.borrow_mut();
        s.fields.entry(field).or_default().record(value);
        *s.by_class.entry((class, field)).or_insert(0) += 1;
    }

    fn on_static_store(&mut self, field: FieldId, value: Value) {
        self.store
            .borrow_mut()
            .fields
            .entry(field)
            .or_default()
            .record(value);
    }
}

/// Runs `driver` with a value profiler attached and returns the report:
/// the value half of [`crate::profile`].
pub fn profile_field_values(
    program: Program,
    config: VmConfig,
    fields: impl IntoIterator<Item = FieldId>,
    driver: impl FnOnce(&mut Vm),
) -> ValueReport {
    crate::profile(program, config, fields, driver).1
}

#[cfg(test)]
mod tests {
    use super::*;
    use dchm_bytecode::{CmpOp, MethodSig, ProgramBuilder, Ty};

    #[test]
    fn histogram_finds_dominant_value() {
        let mut pb = ProgramBuilder::new();
        let c = pb.class("C").build();
        let f = pb.instance_field(c, "grade", Ty::Int);
        pb.trivial_ctor(c);
        let mut m = pb.method(c, "setg", MethodSig::new(vec![Ty::Int], None));
        let this = m.this();
        let v = m.param(0);
        m.put_field(this, f, v);
        m.ret(None);
        m.build();
        let mut m = pb.static_method(c, "main", MethodSig::void());
        let o = m.reg();
        m.new_init(o, c, vec![]);
        let i = m.reg();
        m.const_i(i, 0);
        let head = m.label();
        let done = m.label();
        m.bind(head);
        let lim = m.imm(100);
        m.br_icmp(CmpOp::Ge, i, lim, done);
        // 90% of stores write 2, 10% write i % 7.
        let ten = m.imm(10);
        let rem = m.reg();
        m.irem(rem, i, ten);
        let in_minority = m.label();
        let after = m.label();
        let zero = m.imm(0);
        m.br_icmp(CmpOp::Eq, rem, zero, in_minority);
        let two = m.imm(2);
        m.call_virtual(None, o, "setg", vec![two]);
        m.jmp(after);
        m.bind(in_minority);
        let seven = m.imm(7);
        let odd = m.reg();
        m.irem(odd, i, seven);
        m.call_virtual(None, o, "setg", vec![odd]);
        m.bind(after);
        m.iadd_imm(i, i, 1);
        m.jmp(head);
        m.bind(done);
        m.ret(None);
        let main = m.build();
        pb.set_entry(main);
        let p = pb.finish().unwrap();

        let report = profile_field_values(p, VmConfig::default(), [f], |vm| {
            vm.run_entry().unwrap();
        });
        let hist = report.histogram(f);
        assert_eq!(hist.total, 100);
        let ranked = hist.ranked();
        assert_eq!(ranked[0].0, Value::Int(2));
        assert!(ranked[0].1 >= 0.9);
        // Class attribution recorded.
        assert_eq!(report.by_class.get(&(c, f)), Some(&100));
    }

    #[test]
    fn value_key_roundtrip() {
        for v in [Value::Int(-3), Value::Double(2.5), Value::Null] {
            assert!(ValueKey::of(v).to_value().key_eq(v));
        }
        // NaN keys stably.
        let k1 = ValueKey::of(Value::Double(f64::NAN));
        let k2 = ValueKey::of(Value::Double(f64::NAN));
        assert_eq!(k1, k2);
    }

    #[test]
    fn unwatched_fields_not_recorded() {
        let mut pb = ProgramBuilder::new();
        let c = pb.class("C").build();
        let f = pb.static_field(c, "s", Ty::Int, 0i64.into());
        let g = pb.static_field(c, "t", Ty::Int, 0i64.into());
        let mut m = pb.static_method(c, "main", MethodSig::void());
        let v = m.imm(5);
        m.put_static(f, v);
        m.put_static(g, v);
        m.ret(None);
        let main = m.build();
        pb.set_entry(main);
        let p = pb.finish().unwrap();
        let report = profile_field_values(p, VmConfig::default(), [f], |vm| {
            vm.run_entry().unwrap();
        });
        assert_eq!(report.histogram(f).total, 1);
        assert_eq!(report.histogram(g).total, 0);
    }
}
