//! Fluent builders for programs, classes and method bodies.
//!
//! Workloads in `dchm-workloads` are written against this API; it plays the
//! role `javac` plays for the paper's benchmarks.

use crate::class::{ClassDef, FieldDef, MethodDef, MethodKind, MethodSig, Visibility};
use crate::ids::{ClassId, FieldId, Label, MethodId, Reg, SelectorId};
use crate::instr::{DBinOp, IBinOp, Instr, IntrinsicKind, Op};
use crate::program::Program;
use crate::value::{CmpOp, ElemKind, Ty, Value};
use crate::verify::{verify_program, VerifyError};
use std::collections::HashMap;

/// Name used for constructors, like the JVM's `<init>`.
pub const CTOR_NAME: &str = "<init>";

/// Incrementally builds a [`Program`].
#[derive(Debug, Default)]
pub struct ProgramBuilder {
    classes: Vec<ClassDef>,
    methods: Vec<MethodDef>,
    fields: Vec<FieldDef>,
    selectors: Vec<String>,
    sel_map: HashMap<String, SelectorId>,
    entry: Option<MethodId>,
}

impl ProgramBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Starts a class definition; call [`ClassBuilder::build`] to register it.
    pub fn class<'a>(&'a mut self, name: &str) -> ClassBuilder<'a> {
        ClassBuilder {
            pb: self,
            name: name.to_string(),
            package: "main".to_string(),
            super_class: None,
            interfaces: Vec::new(),
            is_interface: false,
        }
    }

    /// Interns a method selector.
    pub fn selector(&mut self, name: &str) -> SelectorId {
        if let Some(&s) = self.sel_map.get(name) {
            return s;
        }
        let id = SelectorId::from_index(self.selectors.len());
        self.selectors.push(name.to_string());
        self.sel_map.insert(name.to_string(), id);
        id
    }

    /// Declares an instance field with default (package) visibility.
    pub fn instance_field(&mut self, class: ClassId, name: &str, ty: Ty) -> FieldId {
        self.field_raw(class, name, ty, false, Visibility::Package, ty.default_value())
    }

    /// Declares a private instance field.
    pub fn private_field(&mut self, class: ClassId, name: &str, ty: Ty) -> FieldId {
        self.field_raw(class, name, ty, false, Visibility::Private, ty.default_value())
    }

    /// Declares a static field with an initial value.
    pub fn static_field(&mut self, class: ClassId, name: &str, ty: Ty, initial: Value) -> FieldId {
        self.field_raw(class, name, ty, true, Visibility::Package, initial)
    }

    /// Declares a field with full control over its attributes.
    pub fn field_raw(
        &mut self,
        class: ClassId,
        name: &str,
        ty: Ty,
        is_static: bool,
        visibility: Visibility,
        initial: Value,
    ) -> FieldId {
        let id = FieldId::from_index(self.fields.len());
        self.fields.push(FieldDef {
            name: name.to_string(),
            owner: class,
            ty,
            is_static,
            visibility,
            slot: 0,
            initial,
        });
        self.classes[class.index()].fields.push(id);
        id
    }

    /// Starts an instance method body.
    pub fn method<'a>(&'a mut self, class: ClassId, name: &str, sig: MethodSig) -> MethodBuilder<'a> {
        MethodBuilder::new(self, class, name, MethodKind::Instance, sig)
    }

    /// Starts a static method body.
    pub fn static_method<'a>(
        &'a mut self,
        class: ClassId,
        name: &str,
        sig: MethodSig,
    ) -> MethodBuilder<'a> {
        MethodBuilder::new(self, class, name, MethodKind::Static, sig)
    }

    /// Starts a constructor body.
    pub fn ctor<'a>(&'a mut self, class: ClassId, params: Vec<Ty>) -> MethodBuilder<'a> {
        MethodBuilder::new(
            self,
            class,
            CTOR_NAME,
            MethodKind::Constructor,
            MethodSig::new(params, None),
        )
    }

    /// Registers a trivial `<init>() { }` constructor and returns it.
    pub fn trivial_ctor(&mut self, class: ClassId) -> MethodId {
        let mut m = self.ctor(class, vec![]);
        m.ret(None);
        m.build()
    }

    /// Declares an abstract method on an interface.
    pub fn abstract_method(&mut self, iface: ClassId, name: &str, sig: MethodSig) -> MethodId {
        let selector = self.selector(name);
        let id = MethodId::from_index(self.methods.len());
        let nregs = 1 + sig.params.len();
        self.methods.push(MethodDef {
            name: name.to_string(),
            selector,
            owner: iface,
            kind: MethodKind::Abstract,
            visibility: Visibility::Public,
            sig,
            num_regs: nregs as u16,
            code: Vec::new(),
        });
        self.classes[iface.index()].methods.push(id);
        id
    }

    /// Sets the program entry point (must be a static method).
    pub fn set_entry(&mut self, m: MethodId) {
        self.entry = Some(m);
    }

    /// Links and verifies the program.
    ///
    /// # Errors
    /// Returns the first [`VerifyError`] found; the program is unusable then.
    pub fn finish(self) -> Result<Program, VerifyError> {
        let mut p = Program {
            classes: self.classes,
            methods: self.methods,
            fields: self.fields,
            selectors: self.selectors,
            entry: self.entry,
            num_static_slots: 0,
            children: Vec::new(),
        };
        verify_hierarchy(&p)?;
        p.link();
        verify_program(&p)?;
        Ok(p)
    }

    /// Like [`ProgramBuilder::finish`], but additionally rejects dead code
    /// ([`crate::verify::verify_reachability`]). Program generators and
    /// shrinkers use this so every emitted instruction is exercisable by
    /// the differential oracle; hand-written frontends keep the laxer
    /// [`ProgramBuilder::finish`].
    ///
    /// # Errors
    /// Returns the first [`VerifyError`] found, including
    /// [`VerifyError::UnreachableCode`].
    pub fn finish_strict(self) -> Result<Program, VerifyError> {
        let p = self.finish()?;
        crate::verify::verify_reachability(&p)?;
        Ok(p)
    }
}

fn verify_hierarchy(p: &Program) -> Result<(), VerifyError> {
    // Acyclicity: walk each chain with a step budget.
    for (i, c) in p.classes.iter().enumerate() {
        let mut cur = c.super_class;
        let mut steps = 0;
        while let Some(s) = cur {
            steps += 1;
            if steps > p.classes.len() {
                return Err(VerifyError::CyclicHierarchy {
                    class: p.classes[i].name.clone(),
                });
            }
            cur = p.classes[s.index()].super_class;
        }
    }
    Ok(())
}

/// Builds one class; created by [`ProgramBuilder::class`].
#[derive(Debug)]
pub struct ClassBuilder<'a> {
    pb: &'a mut ProgramBuilder,
    name: String,
    package: String,
    super_class: Option<ClassId>,
    interfaces: Vec<ClassId>,
    is_interface: bool,
}

impl<'a> ClassBuilder<'a> {
    /// Sets the superclass.
    pub fn extends(mut self, sup: ClassId) -> Self {
        self.super_class = Some(sup);
        self
    }

    /// Adds an implemented interface.
    pub fn implements(mut self, iface: ClassId) -> Self {
        self.interfaces.push(iface);
        self
    }

    /// Sets the package (controls `Package` visibility scope).
    pub fn package(mut self, pkg: &str) -> Self {
        self.package = pkg.to_string();
        self
    }

    /// Marks this as an interface.
    pub fn interface(mut self) -> Self {
        self.is_interface = true;
        self
    }

    /// Registers the class and returns its id.
    pub fn build(self) -> ClassId {
        let id = ClassId::from_index(self.pb.classes.len());
        self.pb.classes.push(ClassDef {
            name: self.name,
            package: self.package,
            super_class: self.super_class,
            interfaces: self.interfaces,
            is_interface: self.is_interface,
            methods: Vec::new(),
            fields: Vec::new(),
            vtable: Vec::new(),
            vslot: HashMap::new(),
            instance_slots: 0,
            all_instance_fields: Vec::new(),
        });
        id
    }
}

/// Builds one method body; created by [`ProgramBuilder::method`] and friends.
///
/// Registers `0..arg_count` hold the arguments (receiver first for instance
/// methods); [`MethodBuilder::reg`] allocates fresh temporaries above them.
/// Labels are forward-declarable with [`MethodBuilder::label`] and bound with
/// [`MethodBuilder::bind`]; [`MethodBuilder::build`] resolves them to
/// instruction indices.
#[derive(Debug)]
pub struct MethodBuilder<'a> {
    pb: &'a mut ProgramBuilder,
    owner: ClassId,
    name: String,
    kind: MethodKind,
    visibility: Visibility,
    sig: MethodSig,
    code: Vec<Instr>,
    labels: Vec<Option<u32>>,
    next_reg: u16,
}

impl<'a> MethodBuilder<'a> {
    fn new(
        pb: &'a mut ProgramBuilder,
        owner: ClassId,
        name: &str,
        kind: MethodKind,
        sig: MethodSig,
    ) -> Self {
        let has_recv = !matches!(kind, MethodKind::Static);
        let next_reg = (has_recv as usize + sig.params.len()) as u16;
        MethodBuilder {
            pb,
            owner,
            name: name.to_string(),
            kind,
            visibility: Visibility::Public,
            sig,
            code: Vec::new(),
            labels: Vec::new(),
            next_reg,
        }
    }

    /// Marks the method private (statically bound).
    pub fn private(&mut self) -> &mut Self {
        self.visibility = Visibility::Private;
        self
    }

    /// Sets an explicit visibility.
    pub fn visibility(&mut self, v: Visibility) -> &mut Self {
        self.visibility = v;
        self
    }

    /// The receiver register (`this`).
    ///
    /// # Panics
    /// Panics for static methods.
    pub fn this(&self) -> Reg {
        assert!(
            !matches!(self.kind, MethodKind::Static),
            "static methods have no receiver"
        );
        Reg(0)
    }

    /// The register holding parameter `i` (0-based, excluding the receiver).
    ///
    /// # Panics
    /// Panics if `i` is out of range.
    pub fn param(&self, i: usize) -> Reg {
        assert!(i < self.sig.params.len(), "parameter index out of range");
        let base = !matches!(self.kind, MethodKind::Static) as usize;
        Reg((base + i) as u16)
    }

    /// Allocates a fresh temporary register.
    pub fn reg(&mut self) -> Reg {
        let r = Reg(self.next_reg);
        self.next_reg = self.next_reg.checked_add(1).expect("register overflow");
        r
    }

    /// Current frame size (registers allocated so far, parameters included).
    #[cfg(test)]
    fn reg_count(&self) -> u16 {
        self.next_reg
    }

    /// Grows the frame to at least `n` registers (used by the assembler,
    /// where register indices appear literally in the source).
    pub fn ensure_regs(&mut self, n: u16) {
        self.next_reg = self.next_reg.max(n);
    }

    /// Creates an unbound label.
    pub fn label(&mut self) -> Label {
        let l = Label(self.labels.len() as u32);
        self.labels.push(None);
        l
    }

    /// Binds `label` to the next emitted instruction.
    ///
    /// # Panics
    /// Panics if the label is already bound.
    pub fn bind(&mut self, label: Label) {
        let slot = &mut self.labels[label.index()];
        assert!(slot.is_none(), "label bound twice");
        *slot = Some(self.code.len() as u32);
    }

    /// Emits a raw instruction.
    pub fn emit(&mut self, i: Instr) {
        self.code.push(i);
    }

    /// Emits a raw op.
    pub fn op(&mut self, op: Op) {
        self.code.push(Instr::Op(op));
    }

    // ---- constants & moves ----

    /// `dst = val`
    pub fn const_i(&mut self, dst: Reg, val: i64) {
        self.op(Op::ConstI { dst, val });
    }

    /// Fresh register holding `val`.
    pub fn imm(&mut self, val: i64) -> Reg {
        let r = self.reg();
        self.const_i(r, val);
        r
    }

    /// `dst = val`
    pub fn const_d(&mut self, dst: Reg, val: f64) {
        self.op(Op::ConstD { dst, val });
    }

    /// Fresh register holding `val`.
    pub fn imm_d(&mut self, val: f64) -> Reg {
        let r = self.reg();
        self.const_d(r, val);
        r
    }

    /// `dst = null`
    pub fn const_null(&mut self, dst: Reg) {
        self.op(Op::ConstNull { dst });
    }

    /// `dst = src`
    pub fn mov(&mut self, dst: Reg, src: Reg) {
        self.op(Op::Mov { dst, src });
    }

    // ---- arithmetic ----

    /// `dst = a <op> b` (integers)
    pub fn ibin(&mut self, op: IBinOp, dst: Reg, a: Reg, b: Reg) {
        self.op(Op::IBin { op, dst, a, b });
    }

    /// `dst = a + b`
    pub fn iadd(&mut self, dst: Reg, a: Reg, b: Reg) {
        self.ibin(IBinOp::Add, dst, a, b);
    }

    /// `dst = a - b`
    pub fn isub(&mut self, dst: Reg, a: Reg, b: Reg) {
        self.ibin(IBinOp::Sub, dst, a, b);
    }

    /// `dst = a * b`
    pub fn imul(&mut self, dst: Reg, a: Reg, b: Reg) {
        self.ibin(IBinOp::Mul, dst, a, b);
    }

    /// `dst = a / b`
    pub fn idiv(&mut self, dst: Reg, a: Reg, b: Reg) {
        self.ibin(IBinOp::Div, dst, a, b);
    }

    /// `dst = a % b`
    pub fn irem(&mut self, dst: Reg, a: Reg, b: Reg) {
        self.ibin(IBinOp::Rem, dst, a, b);
    }

    /// `dst = a + imm`
    pub fn iadd_imm(&mut self, dst: Reg, a: Reg, imm: i64) {
        let t = self.imm(imm);
        self.iadd(dst, a, t);
    }

    /// `dst = -a`
    pub fn ineg(&mut self, dst: Reg, a: Reg) {
        self.op(Op::INeg { dst, a });
    }

    /// `dst = a <op> b` (doubles)
    pub fn dbin(&mut self, op: DBinOp, dst: Reg, a: Reg, b: Reg) {
        self.op(Op::DBin { op, dst, a, b });
    }

    /// `dst = a + b` (doubles)
    pub fn dadd(&mut self, dst: Reg, a: Reg, b: Reg) {
        self.dbin(DBinOp::Add, dst, a, b);
    }

    /// `dst = a - b` (doubles)
    pub fn dsub(&mut self, dst: Reg, a: Reg, b: Reg) {
        self.dbin(DBinOp::Sub, dst, a, b);
    }

    /// `dst = a * b` (doubles)
    pub fn dmul(&mut self, dst: Reg, a: Reg, b: Reg) {
        self.dbin(DBinOp::Mul, dst, a, b);
    }

    /// `dst = a / b` (doubles)
    pub fn ddiv(&mut self, dst: Reg, a: Reg, b: Reg) {
        self.dbin(DBinOp::Div, dst, a, b);
    }

    /// `dst = (double) a`
    pub fn i2d(&mut self, dst: Reg, a: Reg) {
        self.op(Op::I2D { dst, a });
    }

    /// `dst = (long) a`
    pub fn d2i(&mut self, dst: Reg, a: Reg) {
        self.op(Op::D2I { dst, a });
    }

    // ---- comparisons ----

    /// `dst = a <op> b` (integers)
    pub fn icmp(&mut self, op: CmpOp, dst: Reg, a: Reg, b: Reg) {
        self.op(Op::ICmp { op, dst, a, b });
    }

    /// `dst = a <op> b` (doubles)
    pub fn dcmp(&mut self, op: CmpOp, dst: Reg, a: Reg, b: Reg) {
        self.op(Op::DCmp { op, dst, a, b });
    }

    /// `dst = (a == b)` for references.
    pub fn ref_eq(&mut self, dst: Reg, a: Reg, b: Reg) {
        self.op(Op::RefEq { dst, a, b });
    }

    // ---- control flow ----

    /// Unconditional jump.
    pub fn jmp(&mut self, target: Label) {
        self.emit(Instr::Jmp(target));
    }

    /// Branch to `target` if `cond != 0`.
    pub fn br_if(&mut self, cond: Reg, target: Label) {
        self.emit(Instr::BrIf { cond, target });
    }

    /// Branch to `target` if `a <op> b` (integers).
    pub fn br_icmp(&mut self, op: CmpOp, a: Reg, b: Reg, target: Label) {
        let t = self.reg();
        self.icmp(op, t, a, b);
        self.br_if(t, target);
    }

    /// Branch to `target` if `a <op> imm` (integers).
    pub fn br_icmp_imm(&mut self, op: CmpOp, a: Reg, imm: i64, target: Label) {
        let b = self.imm(imm);
        self.br_icmp(op, a, b, target);
    }

    /// Return with an optional value.
    pub fn ret(&mut self, val: Option<Reg>) {
        self.emit(Instr::Ret(val));
    }

    // ---- objects ----

    /// `dst = new class` (uninitialized; follow with [`Self::call_ctor`]).
    pub fn new_obj(&mut self, dst: Reg, class: ClassId) {
        self.op(Op::New { dst, class });
    }

    /// `dst = obj.field`
    pub fn get_field(&mut self, dst: Reg, obj: Reg, field: FieldId) {
        self.op(Op::GetField { dst, obj, field });
    }

    /// `obj.field = src`
    pub fn put_field(&mut self, obj: Reg, field: FieldId, src: Reg) {
        self.op(Op::PutField { obj, field, src });
    }

    /// `dst = Class.field`
    pub fn get_static(&mut self, dst: Reg, field: FieldId) {
        self.op(Op::GetStatic { dst, field });
    }

    /// `Class.field = src`
    pub fn put_static(&mut self, field: FieldId, src: Reg) {
        self.op(Op::PutStatic { field, src });
    }

    /// Virtual call `dst = obj.name(args)`.
    pub fn call_virtual(&mut self, dst: Option<Reg>, obj: Reg, name: &str, args: Vec<Reg>) {
        let sel = self.pb.selector(name);
        self.op(Op::CallVirtual {
            dst,
            sel,
            obj,
            args,
        });
    }

    /// Statically-bound call (`invokespecial`): `dst = class::name(obj, args)`.
    pub fn call_special(
        &mut self,
        dst: Option<Reg>,
        class: ClassId,
        name: &str,
        obj: Reg,
        args: Vec<Reg>,
    ) {
        let sel = self.pb.selector(name);
        self.op(Op::CallSpecial {
            dst,
            class,
            sel,
            obj,
            args,
        });
    }

    /// Constructor invocation `class::<init>(obj, args)`.
    pub fn call_ctor(&mut self, obj: Reg, class: ClassId, args: Vec<Reg>) {
        self.call_special(None, class, CTOR_NAME, obj, args);
    }

    /// `dst = new class(args)` — allocation plus constructor call.
    pub fn new_init(&mut self, dst: Reg, class: ClassId, args: Vec<Reg>) {
        self.new_obj(dst, class);
        self.call_ctor(dst, class, args);
    }

    /// Static call `dst = method(args)`.
    pub fn call_static(&mut self, dst: Option<Reg>, method: MethodId, args: Vec<Reg>) {
        self.op(Op::CallStatic { dst, method, args });
    }

    /// Interface call `dst = ((iface) obj).name(args)`.
    pub fn call_interface(
        &mut self,
        dst: Option<Reg>,
        iface: ClassId,
        obj: Reg,
        name: &str,
        args: Vec<Reg>,
    ) {
        let sel = self.pb.selector(name);
        self.op(Op::CallInterface {
            dst,
            iface,
            sel,
            obj,
            args,
        });
    }

    /// `dst = obj instanceof class`
    pub fn instance_of(&mut self, dst: Reg, obj: Reg, class: ClassId) {
        self.op(Op::InstanceOf { dst, obj, class });
    }

    /// `(class) obj` — traps if incompatible.
    pub fn check_cast(&mut self, obj: Reg, class: ClassId) {
        self.op(Op::CheckCast { obj, class });
    }

    // ---- arrays ----

    /// `dst = new kind[len]`
    pub fn new_arr(&mut self, dst: Reg, kind: ElemKind, len: Reg) {
        self.op(Op::NewArr { dst, kind, len });
    }

    /// `dst = arr[idx]`
    pub fn aload(&mut self, dst: Reg, arr: Reg, idx: Reg) {
        self.op(Op::ALoad { dst, arr, idx });
    }

    /// `arr[idx] = src`
    pub fn astore(&mut self, arr: Reg, idx: Reg, src: Reg) {
        self.op(Op::AStore { arr, idx, src });
    }

    /// `dst = arr.length`
    pub fn alen(&mut self, dst: Reg, arr: Reg) {
        self.op(Op::ALen { dst, arr });
    }

    // ---- intrinsics ----

    /// Emits an intrinsic.
    pub fn intrinsic(&mut self, dst: Option<Reg>, kind: IntrinsicKind, args: Vec<Reg>) {
        self.op(Op::Intrinsic { dst, kind, args });
    }

    /// Prints an integer to the VM output log.
    pub fn print_int(&mut self, src: Reg) {
        self.intrinsic(None, IntrinsicKind::PrintInt, vec![src]);
    }

    /// Folds an integer into the VM output checksum.
    pub fn sink_int(&mut self, src: Reg) {
        self.intrinsic(None, IntrinsicKind::SinkInt, vec![src]);
    }

    /// Folds a double into the VM output checksum.
    pub fn sink_double(&mut self, src: Reg) {
        self.intrinsic(None, IntrinsicKind::SinkDouble, vec![src]);
    }

    /// `dst = sqrt(a)`
    pub fn dsqrt(&mut self, dst: Reg, a: Reg) {
        self.intrinsic(Some(dst), IntrinsicKind::DSqrt, vec![a]);
    }

    /// Resolves labels and registers the method; returns its id.
    ///
    /// # Panics
    /// Panics if any used label was never bound.
    pub fn build(self) -> MethodId {
        let MethodBuilder {
            pb,
            owner,
            name,
            kind,
            visibility,
            sig,
            mut code,
            labels,
            next_reg,
        } = self;

        // Labels created via `label()` are resolved to instruction indices.
        // Raw labels beyond the builder's table (from `emit` of pre-resolved
        // code) pass through untouched and are range-checked by the verifier.
        let resolve = |l: Label| -> Label {
            match labels.get(l.index()) {
                Some(Some(pc)) => Label(*pc),
                Some(None) => panic!("unbound label {l}"),
                None => l,
            }
        };
        for instr in &mut code {
            match instr {
                Instr::Jmp(t) => *t = resolve(*t),
                Instr::BrIf { target, .. } => *target = resolve(*target),
                _ => {}
            }
        }

        let selector = pb.selector(&name);
        let id = MethodId::from_index(pb.methods.len());
        pb.methods.push(MethodDef {
            name,
            selector,
            owner,
            kind,
            visibility,
            sig,
            num_regs: next_reg,
            code,
        });
        pb.classes[owner.index()].methods.push(id);
        id
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_resolve_forward_and_backward() {
        let mut pb = ProgramBuilder::new();
        let c = pb.class("C").build();
        let mut m = pb.static_method(c, "loop", MethodSig::new(vec![Ty::Int], Some(Ty::Int)));
        let n = m.param(0);
        let acc = m.reg();
        let i = m.reg();
        m.const_i(acc, 0);
        m.const_i(i, 0);
        let head = m.label();
        let done = m.label();
        m.bind(head);
        m.br_icmp(CmpOp::Ge, i, n, done);
        m.iadd(acc, acc, i);
        m.iadd_imm(i, i, 1);
        m.jmp(head);
        m.bind(done);
        m.ret(Some(acc));
        let mid = m.build();
        let p = pb.finish().unwrap();
        let md = p.method(mid);
        // Backward jump goes to the bound position of `head` (instr 2).
        let mut saw_back_jump = false;
        for instr in &md.code {
            if let Instr::Jmp(t) = instr {
                assert_eq!(t.index(), 2);
                saw_back_jump = true;
            }
        }
        assert!(saw_back_jump);
    }

    #[test]
    #[should_panic(expected = "unbound label")]
    fn unbound_label_panics() {
        let mut pb = ProgramBuilder::new();
        let c = pb.class("C").build();
        let mut m = pb.static_method(c, "f", MethodSig::void());
        let l = m.label();
        m.jmp(l);
        m.build();
    }

    #[test]
    fn params_and_this() {
        let mut pb = ProgramBuilder::new();
        let c = pb.class("C").build();
        let m = pb.method(c, "f", MethodSig::new(vec![Ty::Int, Ty::Int], None));
        assert_eq!(m.this(), Reg(0));
        assert_eq!(m.param(0), Reg(1));
        assert_eq!(m.param(1), Reg(2));

        let m = pb.static_method(c, "g", MethodSig::new(vec![Ty::Int], None));
        assert_eq!(m.param(0), Reg(0));
    }

    #[test]
    #[should_panic(expected = "no receiver")]
    fn static_this_panics() {
        let mut pb = ProgramBuilder::new();
        let c = pb.class("C").build();
        let m = pb.static_method(c, "g", MethodSig::void());
        let _ = m.this();
    }

    #[test]
    fn reg_count_and_ensure_regs() {
        let mut pb = ProgramBuilder::new();
        let c = pb.class("C").build();
        let mut m = pb.method(c, "f", MethodSig::new(vec![Ty::Int], None));
        assert_eq!(m.reg_count(), 2); // this + param
        m.ensure_regs(10);
        assert_eq!(m.reg_count(), 10);
        assert_eq!(m.reg(), Reg(10));
        m.ensure_regs(4); // never shrinks
        assert_eq!(m.reg_count(), 11);
        m.ret(None);
        m.build();
    }

    #[test]
    fn trivial_ctor_builds() {
        let mut pb = ProgramBuilder::new();
        let c = pb.class("C").build();
        let ctor = pb.trivial_ctor(c);
        let p = pb.finish().unwrap();
        assert_eq!(p.method(ctor).kind, MethodKind::Constructor);
        assert_eq!(p.method(ctor).name, CTOR_NAME);
    }
}
