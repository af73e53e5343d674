//! Structural bytecode verification.
//!
//! The verifier enforces the invariants the evaluator, the optimizer and the
//! mutation engine rely on, so that they can use `panic!`-on-impossible
//! internally without risking silent miscompilation:
//!
//! * branch targets are in range and the last instruction cannot fall off
//!   the end of the method;
//! * every register index is within the method's declared frame;
//! * field accesses agree with the static/instance split;
//! * call sites resolve and pass the right number of arguments;
//! * `Notify*` patch-point pseudo-ops never appear in frontend bytecode
//!   (they are compiler-inserted only);
//! * interfaces declare no instance state and no concrete code.

use crate::class::MethodKind;
use crate::ids::{ClassId, MethodId};
use crate::instr::{Instr, Op};
use crate::program::Program;
use std::fmt;

/// A verification failure. The `method`/`class` fields name the offending
/// entity by its human-readable name.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum VerifyError {
    /// The class hierarchy contains a cycle.
    CyclicHierarchy {
        /// A class on the cycle.
        class: String,
    },
    /// A branch target is out of range.
    BadBranchTarget {
        /// Offending method.
        method: String,
        /// Instruction index of the branch.
        at: usize,
        /// The bogus target.
        target: usize,
    },
    /// Control can fall off the end of the method.
    FallsOffEnd {
        /// Offending method.
        method: String,
    },
    /// A register index is outside the declared frame.
    RegOutOfRange {
        /// Offending method.
        method: String,
        /// Instruction index.
        at: usize,
        /// The register.
        reg: u16,
        /// Declared frame size.
        num_regs: u16,
    },
    /// An instance field was accessed with a static op or vice versa.
    FieldKindMismatch {
        /// Offending method.
        method: String,
        /// Instruction index.
        at: usize,
        /// The field's name.
        field: String,
    },
    /// A call site could not be resolved.
    UnresolvedCall {
        /// Offending method.
        method: String,
        /// Instruction index.
        at: usize,
        /// Human-readable description of the target.
        target: String,
    },
    /// A call passes the wrong number of arguments.
    ArityMismatch {
        /// Offending method.
        method: String,
        /// Instruction index.
        at: usize,
        /// Callee name.
        callee: String,
        /// Expected argument count (excluding receiver).
        expected: usize,
        /// Found argument count.
        found: usize,
    },
    /// A `Notify*` pseudo-op appeared in frontend bytecode.
    NotifyInSource {
        /// Offending method.
        method: String,
        /// Instruction index.
        at: usize,
    },
    /// `new` on an interface.
    NewOfInterface {
        /// Offending method.
        method: String,
        /// Instruction index.
        at: usize,
        /// The interface's name.
        class: String,
    },
    /// An interface declares an instance field or concrete method.
    MalformedInterface {
        /// The interface's name.
        class: String,
    },
    /// The entry point is not a static method.
    BadEntry {
        /// Entry method name.
        method: String,
    },
    /// Two methods share a selector but disagree on arity, which would make
    /// vtable dispatch ill-typed.
    SelectorArityConflict {
        /// The selector's name.
        selector: String,
    },
    /// A class declares more than one constructor. Constructors share the
    /// `<init>` selector and `invokespecial` resolves by selector, so
    /// overloaded constructors are not representable.
    MultipleConstructors {
        /// The class's name.
        class: String,
    },
    /// An instruction references an entity id outside the program's tables
    /// (a dangling class/method/field/selector reference).
    DanglingRef {
        /// Offending method.
        method: String,
        /// Instruction index.
        at: usize,
        /// Human-readable description of the dangling id.
        what: String,
    },
    /// An instruction can never execute (no path from the method entry
    /// reaches it). Only reported by [`verify_reachability`] /
    /// [`crate::ProgramBuilder::finish_strict`]; plain verification
    /// tolerates dead code.
    UnreachableCode {
        /// Offending method.
        method: String,
        /// Index of the first unreachable instruction.
        at: usize,
    },
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VerifyError::CyclicHierarchy { class } => {
                write!(f, "cyclic class hierarchy involving {class}")
            }
            VerifyError::BadBranchTarget { method, at, target } => {
                write!(f, "{method}@{at}: branch target {target} out of range")
            }
            VerifyError::FallsOffEnd { method } => {
                write!(f, "{method}: control can fall off the end")
            }
            VerifyError::RegOutOfRange {
                method,
                at,
                reg,
                num_regs,
            } => write!(
                f,
                "{method}@{at}: register r{reg} outside frame of {num_regs}"
            ),
            VerifyError::FieldKindMismatch { method, at, field } => {
                write!(f, "{method}@{at}: static/instance mismatch on field {field}")
            }
            VerifyError::UnresolvedCall { method, at, target } => {
                write!(f, "{method}@{at}: cannot resolve call to {target}")
            }
            VerifyError::ArityMismatch {
                method,
                at,
                callee,
                expected,
                found,
            } => write!(
                f,
                "{method}@{at}: call to {callee} passes {found} args, expected {expected}"
            ),
            VerifyError::NotifyInSource { method, at } => {
                write!(f, "{method}@{at}: Notify pseudo-op in frontend bytecode")
            }
            VerifyError::NewOfInterface { method, at, class } => {
                write!(f, "{method}@{at}: cannot instantiate interface {class}")
            }
            VerifyError::MalformedInterface { class } => {
                write!(f, "interface {class} declares instance state or concrete code")
            }
            VerifyError::BadEntry { method } => {
                write!(f, "entry point {method} is not a static method")
            }
            VerifyError::SelectorArityConflict { selector } => {
                write!(f, "methods sharing selector {selector} disagree on arity")
            }
            VerifyError::MultipleConstructors { class } => {
                write!(f, "class {class} declares more than one constructor")
            }
            VerifyError::DanglingRef { method, at, what } => {
                write!(f, "{method}@{at}: dangling reference to {what}")
            }
            VerifyError::UnreachableCode { method, at } => {
                write!(f, "{method}@{at}: instruction is unreachable")
            }
        }
    }
}

impl std::error::Error for VerifyError {}

/// Verifies a linked program.
///
/// # Errors
/// Returns the first violation found.
pub fn verify_program(p: &Program) -> Result<(), VerifyError> {
    verify_interfaces(p)?;
    verify_selector_arities(p)?;
    for c in &p.classes {
        let ctors = c
            .methods
            .iter()
            .filter(|&&m| p.method(m).kind == MethodKind::Constructor)
            .count();
        if ctors > 1 {
            return Err(VerifyError::MultipleConstructors {
                class: c.name.clone(),
            });
        }
    }
    if let Some(entry) = p.entry {
        if p.method(entry).kind != MethodKind::Static {
            return Err(VerifyError::BadEntry {
                method: p.method(entry).name.clone(),
            });
        }
    }
    for i in 0..p.methods.len() {
        verify_method(p, MethodId::from_index(i))?;
    }
    Ok(())
}

fn verify_interfaces(p: &Program) -> Result<(), VerifyError> {
    for c in &p.classes {
        if !c.is_interface {
            continue;
        }
        let has_instance_field = c
            .fields
            .iter()
            .any(|&f| !p.field(f).is_static);
        let has_concrete_method = c
            .methods
            .iter()
            .any(|&m| p.method(m).kind != MethodKind::Abstract);
        if has_instance_field || has_concrete_method {
            return Err(VerifyError::MalformedInterface {
                class: c.name.clone(),
            });
        }
    }
    Ok(())
}

fn verify_selector_arities(p: &Program) -> Result<(), VerifyError> {
    use std::collections::HashMap;
    let mut arity: HashMap<u32, usize> = HashMap::new();
    for m in &p.methods {
        if m.kind == MethodKind::Static || m.kind == MethodKind::Constructor {
            continue; // statically named; selectors need not be globally consistent
        }
        match arity.insert(m.selector.0, m.sig.params.len()) {
            Some(prev) if prev != m.sig.params.len() => {
                return Err(VerifyError::SelectorArityConflict {
                    selector: p.selector_name(m.selector).to_string(),
                });
            }
            _ => {}
        }
    }
    Ok(())
}

fn verify_method(p: &Program, mid: MethodId) -> Result<(), VerifyError> {
    let m = p.method(mid);
    if m.kind == MethodKind::Abstract {
        return Ok(());
    }
    let name = || format!("{}::{}", p.class(m.owner).name, m.name);

    if m.code.is_empty() || !m.code.last().unwrap().is_terminator() {
        return Err(VerifyError::FallsOffEnd { method: name() });
    }

    let check_reg = |r: crate::ids::Reg, at: usize| -> Result<(), VerifyError> {
        if r.0 >= m.num_regs {
            Err(VerifyError::RegOutOfRange {
                method: name(),
                at,
                reg: r.0,
                num_regs: m.num_regs,
            })
        } else {
            Ok(())
        }
    };

    for (at, instr) in m.code.iter().enumerate() {
        match instr {
            Instr::Jmp(t) => {
                if t.index() >= m.code.len() {
                    return Err(VerifyError::BadBranchTarget {
                        method: name(),
                        at,
                        target: t.index(),
                    });
                }
            }
            Instr::BrIf { cond, target } => {
                check_reg(*cond, at)?;
                if target.index() >= m.code.len() {
                    return Err(VerifyError::BadBranchTarget {
                        method: name(),
                        at,
                        target: target.index(),
                    });
                }
                // BrIf at the last position would fall through off the end.
                if at + 1 >= m.code.len() {
                    return Err(VerifyError::FallsOffEnd { method: name() });
                }
            }
            Instr::Ret(v) => {
                if let Some(r) = v {
                    check_reg(*r, at)?;
                }
            }
            Instr::Op(op) => {
                let mut reg_err = None;
                if let Some(d) = op.def() {
                    if d.0 >= m.num_regs {
                        reg_err = Some(d);
                    }
                }
                op.for_each_use(|r| {
                    if r.0 >= m.num_regs && reg_err.is_none() {
                        reg_err = Some(r);
                    }
                });
                if let Some(r) = reg_err {
                    return Err(VerifyError::RegOutOfRange {
                        method: name(),
                        at,
                        reg: r.0,
                        num_regs: m.num_regs,
                    });
                }
                check_refs(p, op, &name, at)?;
                verify_op(p, op, &name, at)?;
            }
        }
    }
    Ok(())
}

/// Rejects entity ids that index outside the program's tables, so the
/// resolution checks below (and every downstream consumer) can index
/// without panicking. Runs before [`verify_op`] on every instruction.
fn check_refs(
    p: &Program,
    op: &Op,
    name: &dyn Fn() -> String,
    at: usize,
) -> Result<(), VerifyError> {
    let dangling = |what: String| VerifyError::DanglingRef {
        method: name(),
        at,
        what,
    };
    let class = |c: &ClassId| {
        (c.index() < p.classes.len())
            .then_some(())
            .ok_or_else(|| dangling(format!("class {c}")))
    };
    let field = |f: &crate::ids::FieldId| {
        (f.index() < p.fields.len())
            .then_some(())
            .ok_or_else(|| dangling(format!("field {f}")))
    };
    let sel = |s: &crate::ids::SelectorId| {
        (s.index() < p.selectors.len())
            .then_some(())
            .ok_or_else(|| dangling(format!("selector {s}")))
    };
    match op {
        Op::New { class: c, .. }
        | Op::InstanceOf { class: c, .. }
        | Op::CheckCast { class: c, .. } => class(c),
        Op::GetField { field: f, .. }
        | Op::PutField { field: f, .. }
        | Op::GetStatic { field: f, .. }
        | Op::PutStatic { field: f, .. } => field(f),
        Op::CallVirtual { sel: s, .. } => sel(s),
        Op::CallSpecial { class: c, sel: s, .. } => class(c).and_then(|()| sel(s)),
        Op::CallInterface { iface, sel: s, .. } => class(iface).and_then(|()| sel(s)),
        Op::CallStatic { method, .. } => (method.index() < p.methods.len())
            .then_some(())
            .ok_or_else(|| dangling(format!("method {method}"))),
        _ => Ok(()),
    }
}

fn check_field(
    p: &Program,
    field: crate::ids::FieldId,
    want_static: bool,
    name: &dyn Fn() -> String,
    at: usize,
) -> Result<(), VerifyError> {
    if p.field(field).is_static != want_static {
        return Err(VerifyError::FieldKindMismatch {
            method: name(),
            at,
            field: p.field(field).name.clone(),
        });
    }
    Ok(())
}

fn check_arity(
    expected: usize,
    found: usize,
    callee: String,
    name: &dyn Fn() -> String,
    at: usize,
) -> Result<(), VerifyError> {
    if expected != found {
        return Err(VerifyError::ArityMismatch {
            method: name(),
            at,
            callee,
            expected,
            found,
        });
    }
    Ok(())
}

fn verify_op(
    p: &Program,
    op: &Op,
    name: &dyn Fn() -> String,
    at: usize,
) -> Result<(), VerifyError> {
    match op {
        Op::GetField { field, .. } | Op::PutField { field, .. } => {
            check_field(p, *field, false, name, at)
        }
        Op::GetStatic { field, .. } | Op::PutStatic { field, .. } => {
            check_field(p, *field, true, name, at)
        }
        Op::New { class, .. } => {
            if p.class(*class).is_interface {
                return Err(VerifyError::NewOfInterface {
                    method: name(),
                    at,
                    class: p.class(*class).name.clone(),
                });
            }
            Ok(())
        }
        Op::CallVirtual { sel, args, .. } => {
            // The selector must be implemented somewhere with matching arity.
            let target = p
                .methods
                .iter()
                .find(|m| m.selector == *sel && m.kind != MethodKind::Static);
            match target {
                Some(m) => check_arity(m.sig.params.len(), args.len(), m.name.clone(), name, at),
                None => Err(VerifyError::UnresolvedCall {
                    method: name(),
                    at,
                    target: p.selector_name(*sel).to_string(),
                }),
            }
        }
        Op::CallSpecial {
            class, sel, args, ..
        } => match p.resolve_special(*class, *sel) {
            Some(m) => check_arity(
                p.method(m).sig.params.len(),
                args.len(),
                p.method(m).name.clone(),
                name,
                at,
            ),
            None => Err(VerifyError::UnresolvedCall {
                method: name(),
                at,
                target: format!("{}::{}", p.class(*class).name, p.selector_name(*sel)),
            }),
        },
        Op::CallStatic { method, args, .. } => {
            let m = p.method(*method);
            if m.kind != MethodKind::Static {
                return Err(VerifyError::UnresolvedCall {
                    method: name(),
                    at,
                    target: format!("{} (not static)", m.name),
                });
            }
            check_arity(m.sig.params.len(), args.len(), m.name.clone(), name, at)
        }
        Op::CallInterface {
            iface, sel, args, ..
        } => {
            if !p.class(*iface).is_interface {
                return Err(VerifyError::UnresolvedCall {
                    method: name(),
                    at,
                    target: format!("{} (not an interface)", p.class(*iface).name),
                });
            }
            let target = p
                .class(*iface)
                .methods
                .iter()
                .map(|&m| p.method(m))
                .find(|m| m.selector == *sel);
            match target {
                Some(m) => check_arity(m.sig.params.len(), args.len(), m.name.clone(), name, at),
                None => Err(VerifyError::UnresolvedCall {
                    method: name(),
                    at,
                    target: format!("{}::{}", p.class(*iface).name, p.selector_name(*sel)),
                }),
            }
        }
        Op::NotifyCtorExit { .. }
        | Op::NotifyInstStore { .. }
        | Op::NotifyStaticStore { .. }
        | Op::GuardState { .. } => Err(VerifyError::NotifyInSource { method: name(), at }),
        _ => Ok(()),
    }
}

/// Checks that every instruction of every concrete method is reachable
/// from its entry.
///
/// This is *stricter* than [`verify_program`]: the evaluator tolerates dead
/// code (it simply never runs), and hand-written workloads occasionally
/// carry some, so plain verification accepts it. Machine generators and
/// shrinkers, on the other hand, must not emit code the differential oracle
/// can never exercise — they link through
/// [`crate::ProgramBuilder::finish_strict`], which adds this pass.
///
/// # Errors
/// Returns [`VerifyError::UnreachableCode`] naming the first dead
/// instruction found.
pub fn verify_reachability(p: &Program) -> Result<(), VerifyError> {
    for m in &p.methods {
        if m.code.is_empty() {
            continue;
        }
        let n = m.code.len();
        let mut reachable = vec![false; n];
        let mut stack = vec![0usize];
        while let Some(i) = stack.pop() {
            if i >= n || reachable[i] {
                continue;
            }
            reachable[i] = true;
            match &m.code[i] {
                Instr::Jmp(t) => stack.push(t.index()),
                Instr::BrIf { target, .. } => {
                    stack.push(target.index());
                    stack.push(i + 1);
                }
                Instr::Ret(_) => {}
                Instr::Op(_) => stack.push(i + 1),
            }
        }
        if let Some(at) = reachable.iter().position(|&r| !r) {
            return Err(VerifyError::UnreachableCode {
                method: format!("{}::{}", p.class(m.owner).name, m.name),
                at,
            });
        }
    }
    Ok(())
}

/// Convenience: verify and name the class a method belongs to.
pub fn method_display_name(p: &Program, m: MethodId) -> String {
    let md = p.method(m);
    format!("{}::{}", p.class(md.owner).name, md.name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;
    use crate::class::MethodSig;
    use crate::ids::{Label, Reg};
    use crate::value::Ty;

    #[test]
    fn ok_program_verifies() {
        let mut pb = ProgramBuilder::new();
        let c = pb.class("C").build();
        let mut m = pb.static_method(c, "main", MethodSig::void());
        m.ret(None);
        let main = m.build();
        pb.set_entry(main);
        assert!(pb.finish().is_ok());
    }

    #[test]
    fn falls_off_end_detected() {
        let mut pb = ProgramBuilder::new();
        let c = pb.class("C").build();
        let mut m = pb.static_method(c, "f", MethodSig::void());
        let r = m.reg();
        m.const_i(r, 1); // no terminator
        m.build();
        let err = pb.finish().unwrap_err();
        assert!(matches!(err, VerifyError::FallsOffEnd { .. }));
    }

    #[test]
    fn brif_last_detected() {
        let mut pb = ProgramBuilder::new();
        let c = pb.class("C").build();
        let mut m = pb.static_method(c, "f", MethodSig::void());
        let l = m.label();
        m.bind(l);
        let r = m.reg();
        m.const_i(r, 1);
        m.br_if(r, l); // BrIf as last instruction can fall off
        m.build();
        let err = pb.finish().unwrap_err();
        assert!(matches!(err, VerifyError::FallsOffEnd { .. }));
    }

    #[test]
    fn reg_out_of_range_detected() {
        let mut pb = ProgramBuilder::new();
        let c = pb.class("C").build();
        let mut m = pb.static_method(c, "f", MethodSig::void());
        m.emit(crate::Instr::Ret(Some(Reg(99))));
        m.build();
        let err = pb.finish().unwrap_err();
        assert!(matches!(err, VerifyError::RegOutOfRange { reg: 99, .. }));
    }

    #[test]
    fn bad_branch_target_detected() {
        let mut pb = ProgramBuilder::new();
        let c = pb.class("C").build();
        let mut m = pb.static_method(c, "f", MethodSig::void());
        m.emit(crate::Instr::Jmp(Label(42)));
        m.ret(None);
        // Bypass label resolution by emitting a raw out-of-range label: the
        // builder would normally panic, so emit directly.
        let err = {
            // label resolution happens in build() only for builder labels;
            // raw labels pass through untouched.
            m.build();
            pb.finish().unwrap_err()
        };
        assert!(matches!(err, VerifyError::BadBranchTarget { target: 42, .. }));
    }

    #[test]
    fn field_kind_mismatch_detected() {
        let mut pb = ProgramBuilder::new();
        let c = pb.class("C").build();
        let f = pb.static_field(c, "s", Ty::Int, 0i64.into());
        let mut m = pb.method(c, "f", MethodSig::void());
        let r = m.reg();
        let this = m.this();
        m.get_field(r, this, f); // static field via instance op
        m.ret(None);
        m.build();
        pb.trivial_ctor(c);
        let err = pb.finish().unwrap_err();
        assert!(matches!(err, VerifyError::FieldKindMismatch { .. }));
    }

    #[test]
    fn arity_mismatch_detected() {
        let mut pb = ProgramBuilder::new();
        let c = pb.class("C").build();
        let mut callee = pb.method(c, "takes2", MethodSig::new(vec![Ty::Int, Ty::Int], None));
        callee.ret(None);
        callee.build();
        let mut m = pb.method(c, "f", MethodSig::void());
        let this = m.this();
        let a = m.imm(1);
        m.call_virtual(None, this, "takes2", vec![a]); // only one arg
        m.ret(None);
        m.build();
        let err = pb.finish().unwrap_err();
        assert!(matches!(
            err,
            VerifyError::ArityMismatch {
                expected: 2,
                found: 1,
                ..
            }
        ));
    }

    #[test]
    fn notify_in_source_rejected() {
        let mut pb = ProgramBuilder::new();
        let c = pb.class("C").build();
        let f = pb.instance_field(c, "x", Ty::Int);
        let mut m = pb.method(c, "f", MethodSig::void());
        let this = m.this();
        m.op(Op::NotifyInstStore {
            obj: this,
            class: c,
            field: f,
        });
        m.ret(None);
        m.build();
        let err = pb.finish().unwrap_err();
        assert!(matches!(err, VerifyError::NotifyInSource { .. }));
    }

    #[test]
    fn new_of_interface_rejected() {
        let mut pb = ProgramBuilder::new();
        let i = pb.class("I").interface().build();
        let c = pb.class("C").build();
        let mut m = pb.static_method(c, "f", MethodSig::void());
        let r = m.reg();
        m.new_obj(r, i);
        m.ret(None);
        m.build();
        let err = pb.finish().unwrap_err();
        assert!(matches!(err, VerifyError::NewOfInterface { .. }));
    }

    #[test]
    fn selector_arity_conflict_rejected() {
        let mut pb = ProgramBuilder::new();
        let a = pb.class("A").build();
        let b = pb.class("B").build();
        let mut m = pb.method(a, "f", MethodSig::new(vec![Ty::Int], None));
        m.ret(None);
        m.build();
        let mut m = pb.method(b, "f", MethodSig::new(vec![], None));
        m.ret(None);
        m.build();
        let err = pb.finish().unwrap_err();
        assert!(matches!(err, VerifyError::SelectorArityConflict { .. }));
    }

    #[test]
    fn multiple_constructors_rejected() {
        let mut pb = ProgramBuilder::new();
        let c = pb.class("C").build();
        pb.trivial_ctor(c);
        let mut m = pb.ctor(c, vec![Ty::Int]);
        m.ret(None);
        m.build();
        let err = pb.finish().unwrap_err();
        assert!(matches!(err, VerifyError::MultipleConstructors { .. }));
    }

    #[test]
    fn error_display_is_informative() {
        let e = VerifyError::FallsOffEnd {
            method: "C::f".into(),
        };
        assert!(format!("{e}").contains("C::f"));
    }
}
