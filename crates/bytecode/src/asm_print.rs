//! Printing programs back to assembly text — the inverse of
//! [`crate::asm::assemble`]. Together they give a complete textual
//! save/load path for programs: `assemble(print_asm(p))` reproduces `p`'s
//! structure and semantics.

use crate::class::{MethodDef, MethodKind, Visibility};
use crate::ids::{ClassId, FieldId, MethodId, Reg};
use crate::instr::{DBinOp, IBinOp, Instr, IntrinsicKind, Op};
use crate::program::Program;
use crate::value::{CmpOp, ElemKind, Ty, Value};
use std::collections::BTreeSet;
use std::fmt::{self, Display, Write as _};

/// Renders a whole program as assembly text.
///
/// Programs containing compiler-inserted `Notify*` pseudo-ops cannot be
/// represented (they are rejected by the verifier on re-assembly); frontend
/// programs never contain them.
pub fn print_asm(p: &Program) -> String {
    let mut out = String::new();
    for (ci, c) in p.classes.iter().enumerate() {
        let id = ClassId::from_index(ci);
        if c.is_interface {
            let _ = write!(out, ".interface {}", c.name);
        } else {
            let _ = write!(out, ".class {}", c.name);
        }
        if let Some(sup) = c.super_class {
            let _ = write!(out, " extends {}", p.class(sup).name);
        }
        if !c.interfaces.is_empty() {
            let _ = write!(out, " implements");
            for &i in &c.interfaces {
                let _ = write!(out, " {}", p.class(i).name);
            }
        }
        out.push('\n');
        for &f in &c.fields {
            let fd = p.field(f);
            let dir = if fd.is_static { ".sfield" } else { ".field" };
            let _ = write!(out, "{dir} {} {}", fd.name, ty_str(p, fd.ty));
            if fd.visibility == Visibility::Private {
                out.push_str(" private");
            }
            if fd.is_static && !matches!(fd.initial, Value::Null) {
                let _ = match fd.initial {
                    Value::Int(i) => write!(out, " {i}"),
                    Value::Double(d) => write!(out, " {d:?}"),
                    Value::Null | Value::Ref(_) => write!(out, " null"),
                };
            }
            out.push('\n');
        }
        for &m in &c.methods {
            print_method(p, m, &mut out);
        }
        out.push_str(".end\n\n");
        let _ = id;
    }
    if let Some(entry) = p.entry {
        let md = p.method(entry);
        let _ = writeln!(out, ".entry {}.{}", p.class(md.owner).name, md.name);
    }
    out
}

fn print_method(p: &Program, mid: MethodId, out: &mut String) {
    let md = p.method(mid);
    match md.kind {
        MethodKind::Abstract => {
            let _ = write!(out, ".amethod {} {}", md.name, ret_str(p, md));
            for &t in &md.sig.params {
                let _ = write!(out, " {}", ty_str(p, t));
            }
            out.push('\n');
            return;
        }
        MethodKind::Constructor => {
            let _ = write!(out, ".ctor");
        }
        MethodKind::Static => {
            let _ = write!(out, ".smethod {} {}", md.name, ret_str(p, md));
        }
        MethodKind::Instance => {
            let _ = write!(out, ".method {} {}", md.name, ret_str(p, md));
        }
    }
    for &t in &md.sig.params {
        let _ = write!(out, " {}", ty_str(p, t));
    }
    if md.visibility == Visibility::Private {
        out.push_str(" private");
    }
    out.push('\n');

    // Branch targets get labels.
    let mut targets: BTreeSet<usize> = BTreeSet::new();
    for instr in &md.code {
        match instr {
            Instr::Jmp(t) => {
                targets.insert(t.index());
            }
            Instr::BrIf { target, .. } => {
                targets.insert(target.index());
            }
            _ => {}
        }
    }
    for (i, instr) in md.code.iter().enumerate() {
        if targets.contains(&i) {
            let _ = writeln!(out, "L{i}:");
        }
        match instr {
            Instr::Op(op) => {
                out.push_str("  ");
                let _ = write_op(out, p, op);
                out.push('\n');
            }
            Instr::Jmp(t) => {
                let _ = writeln!(out, "  jmp L{}", t.index());
            }
            Instr::BrIf { cond, target } => {
                let _ = writeln!(out, "  brif r{}, L{}", cond.0, target.index());
            }
            Instr::Ret(Some(r)) => {
                let _ = writeln!(out, "  ret r{}", r.0);
            }
            Instr::Ret(None) => {
                let _ = writeln!(out, "  ret");
            }
        }
    }
    out.push_str(".end_method\n");
}

fn ret_str<'a>(p: &'a Program, md: &MethodDef) -> &'a str {
    match md.sig.ret {
        None => "void",
        Some(t) => ty_str(p, t),
    }
}

fn ty_str(p: &Program, t: Ty) -> &str {
    match t {
        Ty::Int => "int",
        Ty::Double => "double",
        Ty::Arr(ElemKind::Int) => "int[]",
        Ty::Arr(ElemKind::Double) => "double[]",
        Ty::Arr(ElemKind::Ref) => "ref[]",
        Ty::Ref(c) => &p.class(c).name,
    }
}

fn cmp_str(c: CmpOp) -> &'static str {
    match c {
        CmpOp::Eq => "eq",
        CmpOp::Ne => "ne",
        CmpOp::Lt => "lt",
        CmpOp::Le => "le",
        CmpOp::Gt => "gt",
        CmpOp::Ge => "ge",
    }
}

/// `Owner.name` of a field.
struct FieldRef<'a>(&'a Program, FieldId);

impl Display for FieldRef<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let fd = self.0.field(self.1);
        write!(f, "{}.{}", self.0.class(fd.owner).name, fd.name)
    }
}

/// A register list `r1, r2`, led by the given separator unless empty.
struct Regs<'a>(&'static str, &'a [Reg]);

impl Display for Regs<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, r) in self.1.iter().enumerate() {
            write!(f, "{}r{}", if i == 0 { self.0 } else { ", " }, r.0)?;
        }
        Ok(())
    }
}

#[allow(clippy::too_many_lines)]
fn write_op(out: &mut String, p: &Program, op: &Op) -> fmt::Result {
    match op {
        Op::ConstI { dst, val } => write!(out, "consti r{}, {val}", dst.0),
        Op::ConstD { dst, val } => write!(out, "constd r{}, {val:?}", dst.0),
        Op::ConstNull { dst } => write!(out, "constnull r{}", dst.0),
        Op::Mov { dst, src } => write!(out, "mov r{}, r{}", dst.0, src.0),
        Op::IBin { op, dst, a, b } => {
            let name = match op {
                IBinOp::Add => "iadd",
                IBinOp::Sub => "isub",
                IBinOp::Mul => "imul",
                IBinOp::Div => "idiv",
                IBinOp::Rem => "irem",
                IBinOp::And => "iand",
                IBinOp::Or => "ior",
                IBinOp::Xor => "ixor",
                IBinOp::Shl => "ishl",
                IBinOp::Shr => "ishr",
            };
            write!(out, "{name} r{}, r{}, r{}", dst.0, a.0, b.0)
        }
        Op::INeg { dst, a } => write!(out, "ineg r{}, r{}", dst.0, a.0),
        Op::DBin { op, dst, a, b } => {
            let name = match op {
                DBinOp::Add => "dadd",
                DBinOp::Sub => "dsub",
                DBinOp::Mul => "dmul",
                DBinOp::Div => "ddiv",
            };
            write!(out, "{name} r{}, r{}, r{}", dst.0, a.0, b.0)
        }
        Op::DNeg { dst, a } => write!(out, "dneg r{}, r{}", dst.0, a.0),
        Op::I2D { dst, a } => write!(out, "i2d r{}, r{}", dst.0, a.0),
        Op::D2I { dst, a } => write!(out, "d2i r{}, r{}", dst.0, a.0),
        Op::ICmp { op, dst, a, b } => {
            write!(out, "icmp {}, r{}, r{}, r{}", cmp_str(*op), dst.0, a.0, b.0)
        }
        Op::DCmp { op, dst, a, b } => {
            write!(out, "dcmp {}, r{}, r{}, r{}", cmp_str(*op), dst.0, a.0, b.0)
        }
        Op::RefEq { dst, a, b } => write!(out, "refeq r{}, r{}, r{}", dst.0, a.0, b.0),
        Op::New { dst, class } => write!(out, "new r{}, {}", dst.0, p.class(*class).name),
        Op::GetField { dst, obj, field } => {
            write!(out, "getfield r{}, r{}, {}", dst.0, obj.0, FieldRef(p, *field))
        }
        Op::PutField { obj, field, src } => {
            write!(out, "putfield r{}, {}, r{}", obj.0, FieldRef(p, *field), src.0)
        }
        Op::GetStatic { dst, field } => {
            write!(out, "getstatic r{}, {}", dst.0, FieldRef(p, *field))
        }
        Op::PutStatic { field, src } => {
            write!(out, "putstatic {}, r{}", FieldRef(p, *field), src.0)
        }
        Op::CallVirtual { dst, sel, obj, args } => {
            let name = p.selector_name(*sel);
            let tail = Regs(", ", args);
            match dst {
                Some(d) => write!(out, "callvirtual r{}, r{}, {name}{tail}", d.0, obj.0),
                None => write!(out, "callvirtual_v r{}, {name}{tail}", obj.0),
            }
        }
        Op::CallSpecial {
            dst,
            class,
            sel,
            obj,
            args,
        } => {
            let cname = &p.class(*class).name;
            let mname = p.selector_name(*sel);
            if mname == crate::builder::CTOR_NAME {
                return write!(out, "callctor r{}, {cname}{}", obj.0, Regs(", ", args));
            }
            let tail = Regs(" ", args);
            match dst {
                Some(d) => write!(out, "callspecial r{}, {cname}, {mname}, r{}{tail}", d.0, obj.0),
                None => write!(out, "callspecial_v {cname}, {mname}, r{}{tail}", obj.0),
            }
        }
        Op::CallStatic { dst, method, args } => {
            let md = p.method(*method);
            let (cname, mname, tail) = (&p.class(md.owner).name, &md.name, Regs(", ", args));
            match dst {
                Some(d) => write!(out, "callstatic r{}, {cname}.{mname}{tail}", d.0),
                None => write!(out, "callstatic_v {cname}.{mname}{tail}"),
            }
        }
        Op::CallInterface {
            dst,
            iface,
            sel,
            obj,
            args,
        } => {
            let iname = &p.class(*iface).name;
            let mname = p.selector_name(*sel);
            let tail = Regs(", ", args);
            match dst {
                Some(d) => {
                    write!(out, "callinterface r{}, {iname}, {mname}, r{}{tail}", d.0, obj.0)
                }
                None => write!(out, "callinterface_v {iname}, {mname}, r{}{tail}", obj.0),
            }
        }
        Op::InstanceOf { dst, obj, class } => {
            write!(out, "instanceof r{}, r{}, {}", dst.0, obj.0, p.class(*class).name)
        }
        Op::CheckCast { obj, class } => {
            write!(out, "checkcast r{}, {}", obj.0, p.class(*class).name)
        }
        Op::NewArr { dst, kind, len } => {
            let k = match kind {
                ElemKind::Int => "int",
                ElemKind::Double => "double",
                ElemKind::Ref => "ref",
            };
            write!(out, "newarr r{}, {k}, r{}", dst.0, len.0)
        }
        Op::ALoad { dst, arr, idx } => write!(out, "aload r{}, r{}, r{}", dst.0, arr.0, idx.0),
        Op::AStore { arr, idx, src } => write!(out, "astore r{}, r{}, r{}", arr.0, idx.0, src.0),
        Op::ALen { dst, arr } => write!(out, "alen r{}, r{}", dst.0, arr.0),
        Op::Intrinsic { dst, kind, args } => {
            let (name, needs_dst) = match kind {
                IntrinsicKind::PrintInt => ("printint", false),
                IntrinsicKind::PrintDouble => ("printdouble", false),
                IntrinsicKind::PrintChar => ("printchar", false),
                IntrinsicKind::SinkInt => ("sinkint", false),
                IntrinsicKind::SinkDouble => ("sinkdouble", false),
                IntrinsicKind::DSqrt => ("dsqrt", true),
                IntrinsicKind::DAbs => ("dabs", true),
                IntrinsicKind::IAbs => ("iabs", true),
                IntrinsicKind::IMin => ("imin", true),
                IntrinsicKind::IMax => ("imax", true),
            };
            if needs_dst {
                let d = dst.map(|d| d.0).unwrap_or(0);
                write!(out, "{name} r{d}, {}", Regs("", args))
            } else {
                write!(out, "{name} {}", Regs("", args))
            }
        }
        Op::NotifyCtorExit { .. }
        | Op::NotifyInstStore { .. }
        | Op::NotifyStaticStore { .. }
        | Op::GuardState { .. } => {
            // Compiler-internal; never present in frontend programs.
            out.write_str("; <compiler pseudo-op: not printable>")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::assemble;

    const SRC: &str = r#"
.interface Greeter
.amethod greet int ()
.end

.class Base
.field x int
.sfield counter int 7
.ctor (int)
  putfield r0, Base.x, r1
  ret
.end_method
.method getx int ()
  getfield r2, r0, Base.x
  ret r2
.end_method
.end

.class Derived extends Base implements Greeter
.ctor (int)
  callspecial_v Base <init> r0 r1
  ret
.end_method
.method greet int ()
  callvirtual r2, r0, getx
  getstatic r3, Base.counter
  iadd r2, r2, r3
  ret r2
.end_method
.end

.class Main
.smethod main int ()
  new r0, Derived
  consti r1, 5
  callctor r0, Derived, r1
  callinterface r2, Greeter, greet, r0
  ret r2
.end_method
.end
.entry Main.main
"#;

    #[test]
    fn round_trip_preserves_structure() {
        let p1 = assemble(SRC).unwrap();
        let text = print_asm(&p1);
        let p2 = assemble(&text).unwrap_or_else(|e| panic!("re-assembly failed: {e}\n{text}"));
        assert_eq!(p1.classes.len(), p2.classes.len());
        assert_eq!(p1.methods.len(), p2.methods.len());
        assert_eq!(p1.fields.len(), p2.fields.len());
        for (c1, c2) in p1.classes.iter().zip(&p2.classes) {
            assert_eq!(c1.name, c2.name);
            assert_eq!(c1.is_interface, c2.is_interface);
            assert_eq!(c1.vtable.len(), c2.vtable.len());
        }
        // Bodies survive verbatim (same instruction sequences).
        for (m1, m2) in p1.methods.iter().zip(&p2.methods) {
            assert_eq!(m1.name, m2.name);
            assert_eq!(m1.code.len(), m2.code.len(), "method {}", m1.name);
        }
    }

    #[test]
    fn round_trip_is_a_fixpoint() {
        let p1 = assemble(SRC).unwrap();
        let t1 = print_asm(&p1);
        let p2 = assemble(&t1).unwrap();
        let t2 = print_asm(&p2);
        assert_eq!(t1, t2, "printing must be stable after one round trip");
    }

    /// Already in printed form, covering the argument-list shapes (note
    /// `callspecial`'s space before its arguments) and the value-returning
    /// intrinsics.
    const CANON: &str = "\
.interface Shape
.amethod area int int
.end

.class Base
.field x int private
.sfield scale double 1.5
.ctor int
  putfield r0, Base.x, r1
  ret
.end_method
.method area int int
  getfield r2, r0, Base.x
  ineg r3, r2
  ishl r3, r3, r1
  imin r3, r2, r3
  ret r3
.end_method
.method grow void int int
  ret
.end_method
.end

.class Derived extends Base implements Shape
.ctor int
  callctor r0, Base, r1
  ret
.end_method
.method area int int
  callspecial r2, Base, area, r0 r1
  callspecial_v Base, grow, r0 r1, r2
  ret r2
.end_method
.end

.class Main
.smethod main int
  new r0, Derived
  consti r1, 5
  callctor r0, Derived, r1
  callinterface r2, Shape, area, r0, r1
  callvirtual_v r0, grow, r1, r2
  instanceof r3, r0, Base
  getstatic r4, Base.scale
  dneg r4, r4
  dsqrt r4, r4
  d2i r5, r4
  printint r5
  printdouble r4
  printchar r1
  ret r2
.end_method
.end

.entry Main.main
";

    #[test]
    fn printed_form_reprints_byte_for_byte() {
        assert_eq!(print_asm(&assemble(CANON).unwrap()), CANON);
    }
}
