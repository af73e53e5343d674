//! Runtime values, primitive types and comparison operators.

use crate::ids::ClassId;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A heap object reference. The VM interprets this as a handle into its
/// object store; the bytecode layer treats it as opaque.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize, Deserialize)]
pub struct ObjRef(pub u32);

impl fmt::Display for ObjRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "obj#{}", self.0)
    }
}

/// The static type of a field, parameter or return value.
#[derive(Clone, Copy, PartialEq, Debug, Serialize, Deserialize)]
pub enum Ty {
    /// 64-bit signed integer (models Java's int/long/char/boolean).
    Int,
    /// 64-bit IEEE float (models Java's float/double).
    Double,
    /// Reference to an instance of `ClassId` or any subclass, or null.
    Ref(ClassId),
    /// Reference to an array of the given element kind, or null.
    Arr(ElemKind),
}

impl Ty {
    /// The default (zero) value of this type, used to initialize fields.
    pub fn default_value(self) -> Value {
        match self {
            Ty::Int => Value::Int(0),
            Ty::Double => Value::Double(0.0),
            Ty::Ref(_) | Ty::Arr(_) => Value::Null,
        }
    }
}

impl fmt::Display for Ty {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Ty::Int => write!(f, "int"),
            Ty::Double => write!(f, "double"),
            Ty::Ref(c) => write!(f, "ref({c})"),
            Ty::Arr(k) => write!(f, "{k}[]"),
        }
    }
}

/// Array element kinds.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub enum ElemKind {
    /// 64-bit integers.
    Int,
    /// 64-bit floats.
    Double,
    /// Object references.
    Ref,
}

impl fmt::Display for ElemKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ElemKind::Int => write!(f, "int"),
            ElemKind::Double => write!(f, "double"),
            ElemKind::Ref => write!(f, "ref"),
        }
    }
}

/// A dynamically-typed runtime value.
///
/// `Value` is what registers, fields and array slots hold at run time.
#[derive(Clone, Copy, PartialEq, Debug, Serialize, Deserialize)]
pub enum Value {
    /// Integer value.
    Int(i64),
    /// Floating-point value.
    Double(f64),
    /// Non-null object or array reference.
    Ref(ObjRef),
    /// The null reference.
    Null,
}

impl Value {
    /// Extracts an integer.
    ///
    /// # Panics
    /// Panics if the value is not [`Value::Int`]; bytecode verification makes
    /// this unreachable for verified programs.
    #[inline]
    pub fn as_int(self) -> i64 {
        match self {
            Value::Int(v) => v,
            other => panic!("expected int, found {other:?}"),
        }
    }

    /// Extracts a float.
    ///
    /// # Panics
    /// Panics if the value is not [`Value::Double`].
    #[inline]
    pub fn as_double(self) -> f64 {
        match self {
            Value::Double(v) => v,
            other => panic!("expected double, found {other:?}"),
        }
    }

    /// Extracts an object reference, or `None` for null.
    ///
    /// # Panics
    /// Panics if the value is an `Int` or `Double`.
    #[inline]
    pub fn as_ref_opt(self) -> Option<ObjRef> {
        match self {
            Value::Ref(r) => Some(r),
            Value::Null => None,
            other => panic!("expected reference, found {other:?}"),
        }
    }

    /// True for `Ref`/`Null` values.
    #[inline]
    pub fn is_reference(self) -> bool {
        matches!(self, Value::Ref(_) | Value::Null)
    }

    /// Structural equality usable as a key: integers compare by value,
    /// doubles by bit pattern (so `NaN == NaN` here), references by handle.
    pub fn key_eq(self, other: Value) -> bool {
        match (self, other) {
            (Value::Int(a), Value::Int(b)) => a == b,
            (Value::Double(a), Value::Double(b)) => a.to_bits() == b.to_bits(),
            (Value::Ref(a), Value::Ref(b)) => a == b,
            (Value::Null, Value::Null) => true,
            _ => false,
        }
    }
}

impl Default for Value {
    fn default() -> Self {
        Value::Int(0)
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(v) => write!(f, "{v}"),
            Value::Double(v) => write!(f, "{v}"),
            Value::Ref(r) => write!(f, "{r}"),
            Value::Null => write!(f, "null"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Double(v)
    }
}

/// Comparison operators used by compare instructions.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub enum CmpOp {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Less than.
    Lt,
    /// Less than or equal.
    Le,
    /// Greater than.
    Gt,
    /// Greater than or equal.
    Ge,
}

impl CmpOp {
    /// Applies the operator to two integers.
    #[inline]
    pub fn eval_int(self, a: i64, b: i64) -> bool {
        match self {
            CmpOp::Eq => a == b,
            CmpOp::Ne => a != b,
            CmpOp::Lt => a < b,
            CmpOp::Le => a <= b,
            CmpOp::Gt => a > b,
            CmpOp::Ge => a >= b,
        }
    }

    /// Applies the operator to two floats (IEEE semantics: comparisons with
    /// NaN are false, so `Ne` with NaN is true).
    #[inline]
    pub fn eval_double(self, a: f64, b: f64) -> bool {
        match self {
            CmpOp::Eq => a == b,
            CmpOp::Ne => a != b,
            CmpOp::Lt => a < b,
            CmpOp::Le => a <= b,
            CmpOp::Gt => a > b,
            CmpOp::Ge => a >= b,
        }
    }

    /// The operator with operands swapped (`a op b` == `b op.swapped() a`).
    #[cfg(test)]
    fn swapped(self) -> CmpOp {
        match self {
            CmpOp::Eq => CmpOp::Eq,
            CmpOp::Ne => CmpOp::Ne,
            CmpOp::Lt => CmpOp::Gt,
            CmpOp::Le => CmpOp::Ge,
            CmpOp::Gt => CmpOp::Lt,
            CmpOp::Ge => CmpOp::Le,
        }
    }

    /// The logical negation of the operator.
    pub fn negated(self) -> CmpOp {
        match self {
            CmpOp::Eq => CmpOp::Ne,
            CmpOp::Ne => CmpOp::Eq,
            CmpOp::Lt => CmpOp::Ge,
            CmpOp::Le => CmpOp::Gt,
            CmpOp::Gt => CmpOp::Le,
            CmpOp::Ge => CmpOp::Lt,
        }
    }
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CmpOp::Eq => "==",
            CmpOp::Ne => "!=",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        };
        write!(f, "{s}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_values_match_types() {
        assert_eq!(Ty::Int.default_value(), Value::Int(0));
        assert_eq!(Ty::Double.default_value(), Value::Double(0.0));
        assert_eq!(Ty::Ref(ClassId(0)).default_value(), Value::Null);
        assert_eq!(Ty::Arr(ElemKind::Int).default_value(), Value::Null);
    }

    #[test]
    fn cmp_int_all_ops() {
        assert!(CmpOp::Eq.eval_int(1, 1));
        assert!(CmpOp::Ne.eval_int(1, 2));
        assert!(CmpOp::Lt.eval_int(1, 2));
        assert!(CmpOp::Le.eval_int(2, 2));
        assert!(CmpOp::Gt.eval_int(3, 2));
        assert!(CmpOp::Ge.eval_int(2, 2));
        assert!(!CmpOp::Lt.eval_int(2, 2));
    }

    #[test]
    fn cmp_double_nan_semantics() {
        assert!(!CmpOp::Eq.eval_double(f64::NAN, f64::NAN));
        assert!(CmpOp::Ne.eval_double(f64::NAN, 0.0));
        assert!(!CmpOp::Lt.eval_double(f64::NAN, 0.0));
    }

    #[test]
    fn swapped_and_negated_are_consistent() {
        for op in [
            CmpOp::Eq,
            CmpOp::Ne,
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
        ] {
            for a in -2..3i64 {
                for b in -2..3i64 {
                    assert_eq!(op.eval_int(a, b), op.swapped().eval_int(b, a));
                    assert_eq!(op.eval_int(a, b), !op.negated().eval_int(a, b));
                }
            }
        }
    }

    #[test]
    fn key_eq_treats_nan_as_equal() {
        assert!(Value::Double(f64::NAN).key_eq(Value::Double(f64::NAN)));
        assert!(!Value::Double(0.0).key_eq(Value::Int(0)));
        assert!(Value::Null.key_eq(Value::Null));
    }

    #[test]
    fn value_accessors() {
        assert_eq!(Value::Int(5).as_int(), 5);
        assert_eq!(Value::Double(2.5).as_double(), 2.5);
        assert_eq!(Value::Null.as_ref_opt(), None);
        assert_eq!(Value::Ref(ObjRef(3)).as_ref_opt(), Some(ObjRef(3)));
        assert!(Value::Null.is_reference());
        assert!(!Value::Int(1).is_reference());
    }
}
