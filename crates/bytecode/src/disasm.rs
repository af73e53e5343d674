//! Human-readable disassembly of bytecode.

use crate::instr::{Instr, Op};
use std::fmt;

impl fmt::Display for Op {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Op::ConstI { dst, val } => write!(f, "{dst} = const {val}"),
            Op::ConstD { dst, val } => write!(f, "{dst} = const {val}"),
            Op::ConstNull { dst } => write!(f, "{dst} = null"),
            Op::Mov { dst, src } => write!(f, "{dst} = {src}"),
            Op::IBin { op, dst, a, b } => write!(f, "{dst} = {a} {op:?} {b}"),
            Op::INeg { dst, a } => write!(f, "{dst} = ineg {a}"),
            Op::DBin { op, dst, a, b } => write!(f, "{dst} = {a} d{op:?} {b}"),
            Op::DNeg { dst, a } => write!(f, "{dst} = dneg {a}"),
            Op::I2D { dst, a } => write!(f, "{dst} = i2d {a}"),
            Op::D2I { dst, a } => write!(f, "{dst} = d2i {a}"),
            Op::ICmp { op, dst, a, b } => write!(f, "{dst} = {a} {op} {b}"),
            Op::DCmp { op, dst, a, b } => write!(f, "{dst} = {a} d{op} {b}"),
            Op::RefEq { dst, a, b } => write!(f, "{dst} = refeq {a}, {b}"),
            Op::New { dst, class } => write!(f, "{dst} = new {class}"),
            Op::GetField { dst, obj, field } => write!(f, "{dst} = {obj}.{field}"),
            Op::PutField { obj, field, src } => write!(f, "{obj}.{field} = {src}"),
            Op::GetStatic { dst, field } => write!(f, "{dst} = static {field}"),
            Op::PutStatic { field, src } => write!(f, "static {field} = {src}"),
            Op::CallVirtual { dst, sel, obj, args } => {
                write_call(f, *dst, &format!("virtual {obj}.{sel}"), args)
            }
            Op::CallSpecial {
                dst,
                class,
                sel,
                obj,
                args,
            } => write_call(f, *dst, &format!("special {class}::{sel}({obj})"), args),
            Op::CallStatic { dst, method, args } => {
                write_call(f, *dst, &format!("static {method}"), args)
            }
            Op::CallInterface {
                dst,
                iface,
                sel,
                obj,
                args,
            } => write_call(f, *dst, &format!("interface {iface}::{sel}({obj})"), args),
            Op::InstanceOf { dst, obj, class } => {
                write!(f, "{dst} = {obj} instanceof {class}")
            }
            Op::CheckCast { obj, class } => write!(f, "checkcast {obj} as {class}"),
            Op::NewArr { dst, kind, len } => write!(f, "{dst} = new {kind}[{len}]"),
            Op::ALoad { dst, arr, idx } => write!(f, "{dst} = {arr}[{idx}]"),
            Op::AStore { arr, idx, src } => write!(f, "{arr}[{idx}] = {src}"),
            Op::ALen { dst, arr } => write!(f, "{dst} = len {arr}"),
            Op::Intrinsic { dst, kind, args } => {
                write_call(f, *dst, &format!("intrinsic {kind:?}"), args)
            }
            Op::NotifyCtorExit { obj, class } => write!(f, "notify-ctor-exit {obj} : {class}"),
            Op::NotifyInstStore { obj, class, field } => {
                write!(f, "notify-inst-store {obj}.{field} : {class}")
            }
            Op::NotifyStaticStore { field } => write!(f, "notify-static-store {field}"),
            Op::GuardState {
                obj,
                instance,
                statics,
                guard,
                live_prefix,
            } => {
                write!(f, "guard-state")?;
                if let Some(o) = obj {
                    write!(f, " {o}")?;
                }
                for (fid, v) in instance {
                    write!(f, " {fid}=={v}")?;
                }
                for (fid, v) in statics {
                    write!(f, " static {fid}=={v}")?;
                }
                write!(f, " else deopt#{guard} (live r0..r{live_prefix})")
            }
        }
    }
}

fn write_call(
    f: &mut fmt::Formatter<'_>,
    dst: Option<crate::ids::Reg>,
    what: &str,
    args: &[crate::ids::Reg],
) -> fmt::Result {
    if let Some(d) = dst {
        write!(f, "{d} = ")?;
    }
    write!(f, "call {what}(")?;
    for (i, a) in args.iter().enumerate() {
        if i > 0 {
            write!(f, ", ")?;
        }
        write!(f, "{a}")?;
    }
    write!(f, ")")
}

impl fmt::Display for Instr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Instr::Op(op) => write!(f, "{op}"),
            Instr::Jmp(t) => write!(f, "jmp {t}"),
            Instr::BrIf { cond, target } => write!(f, "br_if {cond} -> {target}"),
            Instr::Ret(Some(r)) => write!(f, "ret {r}"),
            Instr::Ret(None) => write!(f, "ret"),
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::builder::ProgramBuilder;
    use crate::class::MethodSig;

    #[test]
    fn display_renders_operands_and_intrinsics() {
        let mut pb = ProgramBuilder::new();
        let c = pb.class("Widget").build();
        let mut m = pb.static_method(c, "main", MethodSig::void());
        let r = m.reg();
        m.const_i(r, 42);
        m.print_int(r);
        m.ret(None);
        let mid = m.build();
        let p = pb.finish().unwrap();
        let lines: Vec<String> = p.method(mid).code.iter().map(|i| i.to_string()).collect();
        assert!(lines[0].contains("const 42"));
        assert!(lines[1].contains("PrintInt"));
        assert_eq!(lines[2], "ret");
    }
}
