//! Lowering from flattened `flat-ir` to the register bytecode.
//!
//! The pass is a single walk over the program body. Every `VName` is
//! resolved here, once, to a [`Loc`]; the runtime never sees a name.
//! Scalar statements become one instruction; `if`/`loop` bodies and
//! segop/SOAC bodies become separate functions referenced by structured
//! instructions; segops and SOACs additionally get side-table entries
//! carrying their compiled context bindings and operator functions.
//!
//! Type errors (non-bool conditions, array/scalar confusion, non-integral
//! widths) surface at compile time here rather than at evaluation time;
//! data-dependent errors (division by zero, negative widths,
//! out-of-bounds indices) remain runtime errors so the VM agrees with
//! the interpreter on every well-typed program.

use crate::bytecode::*;
use flat_exec::ExecError;
use flat_ir::ast::*;
use flat_ir::types::{Param, ScalarType, Type};
use flat_ir::VName;
use std::collections::HashMap;

type Result<T> = std::result::Result<T, ExecError>;

fn err<T>(msg: impl Into<String>) -> Result<T> {
    Err(ExecError(msg.into()))
}

/// Lower a program to bytecode.
pub fn compile(prog: &Program) -> Result<CompiledProgram> {
    let mut c = Compiler::default();
    let main = c.new_func();
    let mut params = Vec::new();
    for p in &prog.params {
        let l = c.loc_for_type(&p.ty);
        c.env.insert(p.name, l);
        params.push((l, p.ty.clone(), p.name.to_string()));
    }
    let results = c.compile_body(main, &prog.body)?;
    Ok(CompiledProgram {
        name: prog.name.clone(),
        params,
        results,
        main,
        funcs: c.funcs,
        segs: c.segs,
        soacs: c.soacs,
        n_int: c.n_int,
        n_flt: c.n_flt,
        n_arr: c.n_arr,
    })
}

#[derive(Default)]
struct Compiler {
    env: HashMap<VName, Loc>,
    n_int: u32,
    n_flt: u32,
    n_arr: u32,
    funcs: Vec<Vec<Instr>>,
    segs: Vec<CompiledSeg>,
    soacs: Vec<CompiledSoac>,
}

impl Compiler {
    fn new_func(&mut self) -> FuncId {
        self.funcs.push(Vec::new());
        (self.funcs.len() - 1) as FuncId
    }

    fn emit(&mut self, f: FuncId, ins: Instr) {
        self.funcs[f as usize].push(ins);
    }

    // -- register allocation (never reused) ---------------------------

    fn int_loc(&mut self, st: ScalarType) -> Loc {
        let r = self.n_int;
        self.n_int += 1;
        Loc::Int { r, st }
    }

    fn flt_loc(&mut self, st: ScalarType) -> Loc {
        let r = self.n_flt;
        self.n_flt += 1;
        Loc::Flt { r, st }
    }

    fn arr_loc(&mut self) -> Loc {
        let r = self.n_arr;
        self.n_arr += 1;
        Loc::Arr { r }
    }

    fn loc_for_type(&mut self, ty: &Type) -> Loc {
        if ty.rank() > 0 {
            self.arr_loc()
        } else {
            match ty.scalar {
                ScalarType::F32 | ScalarType::F64 => self.flt_loc(ty.scalar),
                st => self.int_loc(st),
            }
        }
    }

    /// A fresh register in the same bank (and of the same encoded type)
    /// as `l` — scratch for two-phase parallel moves.
    fn scratch_like(&mut self, l: Loc) -> Loc {
        match l {
            Loc::Int { st, .. } => self.int_loc(st),
            Loc::Flt { st, .. } => self.flt_loc(st),
            Loc::Arr { .. } => self.arr_loc(),
        }
    }

    // -- operand resolution -------------------------------------------

    /// Materialize a constant into a fresh register.
    fn const_loc(&mut self, f: FuncId, c: Const) -> Loc {
        match c {
            Const::I64(v) => {
                let l = self.int_loc(ScalarType::I64);
                let Loc::Int { r, .. } = l else { unreachable!() };
                self.emit(f, Instr::IConst { dst: r, v });
                l
            }
            Const::I32(v) => {
                let l = self.int_loc(ScalarType::I32);
                let Loc::Int { r, .. } = l else { unreachable!() };
                self.emit(f, Instr::IConst { dst: r, v: v as i64 });
                l
            }
            Const::Bool(b) => {
                let l = self.int_loc(ScalarType::Bool);
                let Loc::Int { r, .. } = l else { unreachable!() };
                self.emit(f, Instr::IConst { dst: r, v: b as i64 });
                l
            }
            Const::F64(v) => {
                let l = self.flt_loc(ScalarType::F64);
                let Loc::Flt { r, .. } = l else { unreachable!() };
                self.emit(f, Instr::FConst { dst: r, v });
                l
            }
            Const::F32(v) => {
                let l = self.flt_loc(ScalarType::F32);
                let Loc::Flt { r, .. } = l else { unreachable!() };
                self.emit(f, Instr::FConst { dst: r, v: v as f64 });
                l
            }
        }
    }

    fn lookup(&self, v: VName) -> Result<Loc> {
        self.env.get(&v).copied().ok_or_else(|| ExecError(format!("variable {v} unbound")))
    }

    fn loc_of_subexp(&mut self, f: FuncId, se: &SubExp) -> Result<Loc> {
        match se {
            SubExp::Const(c) => Ok(self.const_loc(f, *c)),
            SubExp::Var(v) => self.lookup(*v),
        }
    }

    /// An `i64`-valued driver operand (width, bound, index, factor).
    fn op_of_subexp(&mut self, se: &SubExp) -> Result<Operand> {
        match se {
            SubExp::Const(c) => c
                .as_i64()
                .map(Operand::Const)
                .ok_or_else(|| ExecError("expected integral scalar".into())),
            SubExp::Var(v) => match self.lookup(*v)? {
                Loc::Int { r, st: ScalarType::I64 | ScalarType::I32 } => Ok(Operand::Reg(r)),
                Loc::Int { .. } | Loc::Flt { .. } => err("expected integral scalar"),
                Loc::Arr { .. } => err(format!("expected scalar, {v} is an array")),
            },
        }
    }

    fn arr_reg(&self, v: VName) -> Result<(u32, String)> {
        match self.lookup(v)? {
            Loc::Arr { r } => Ok((r, v.to_string())),
            _ => err(format!("expected array, {v} is a scalar")),
        }
    }

    // -- moves ---------------------------------------------------------

    fn mov(&mut self, f: FuncId, src: Loc, dst: Loc) -> Result<()> {
        match (src, dst) {
            (Loc::Int { r: s, .. }, Loc::Int { r: d, .. }) => {
                self.emit(f, Instr::IMov { dst: d, src: s })
            }
            (Loc::Flt { r: s, .. }, Loc::Flt { r: d, .. }) => {
                self.emit(f, Instr::FMov { dst: d, src: s })
            }
            (Loc::Arr { r: s }, Loc::Arr { r: d }) => {
                self.emit(f, Instr::AMov { dst: d, src: s })
            }
            _ => return err("value kind mismatch in binding"),
        }
        Ok(())
    }

    fn movs(&mut self, f: FuncId, srcs: &[Loc], dsts: &[Loc]) -> Result<()> {
        for (&s, &d) in srcs.iter().zip(dsts) {
            self.mov(f, s, d)?;
        }
        Ok(())
    }

    /// A parallel move through scratch registers: the sources may
    /// mention the destinations (loop carries, accumulator updates).
    fn movs_parallel(&mut self, f: FuncId, srcs: &[Loc], dsts: &[Loc]) -> Result<()> {
        let scratch: Vec<Loc> = srcs.iter().map(|&s| self.scratch_like(s)).collect();
        self.movs(f, srcs, &scratch)?;
        self.movs(f, &scratch, dsts)
    }

    // -- bodies and statements ----------------------------------------

    fn compile_body(&mut self, f: FuncId, body: &Body) -> Result<Vec<Loc>> {
        for stm in &body.stms {
            self.compile_stm(f, stm)?;
        }
        body.result.iter().map(|r| self.loc_of_subexp(f, r)).collect()
    }

    fn bind_pat(&mut self, pat: &[Param]) -> Vec<Loc> {
        let locs: Vec<Loc> = pat.iter().map(|p| self.loc_for_type(&p.ty)).collect();
        for (p, &l) in pat.iter().zip(&locs) {
            self.env.insert(p.name, l);
        }
        locs
    }

    fn arity(&self, produced: usize, pat: &[Param]) -> Result<()> {
        if produced != pat.len() {
            return err(format!(
                "statement produced {produced} values for {} bindings",
                pat.len()
            ));
        }
        Ok(())
    }

    /// Lambda parameters: allocate and bind, returning the locations.
    fn lam_params(&mut self, params: &[Param]) -> Vec<Loc> {
        params
            .iter()
            .map(|p| {
                let l = self.loc_for_type(&p.ty);
                self.env.insert(p.name, l);
                l
            })
            .collect()
    }

    fn compile_stm(&mut self, f: FuncId, stm: &Stm) -> Result<()> {
        match &stm.exp {
            Exp::Seg(op) => return self.compile_seg(f, op, stm),
            Exp::Soac(so) => return self.compile_soac(f, so, &stm.pat),
            Exp::If { cond, tb, fb, .. } => {
                let cl = self.loc_of_subexp(f, cond)?;
                let Loc::Int { r: cr, st: ScalarType::Bool } = cl else {
                    return err("if condition is not bool");
                };
                let dsts = self.bind_pat(&stm.pat);
                let tf = self.new_func();
                let tres = self.compile_body(tf, tb)?;
                self.arity(tres.len(), &stm.pat)?;
                self.movs(tf, &tres, &dsts)?;
                let ff = self.new_func();
                let fres = self.compile_body(ff, fb)?;
                self.arity(fres.len(), &stm.pat)?;
                self.movs(ff, &fres, &dsts)?;
                self.emit(f, Instr::If { cond: cr, tf, ff });
                return Ok(());
            }
            Exp::Loop { params, ivar, bound, body } => {
                let bound = self.op_of_subexp(bound)?;
                let inits: Vec<Loc> = params
                    .iter()
                    .map(|(_, init)| self.loc_of_subexp(f, init))
                    .collect::<Result<_>>()?;
                let plocs = self.lam_params(
                    &params.iter().map(|(p, _)| p.clone()).collect::<Vec<_>>(),
                );
                self.movs(f, &inits, &plocs)?;
                let iv = self.int_loc(ScalarType::I64);
                let Loc::Int { r: ivr, .. } = iv else { unreachable!() };
                self.env.insert(*ivar, iv);
                let bf = self.new_func();
                let res = self.compile_body(bf, body)?;
                if res.len() != params.len() {
                    return err("loop body arity mismatch");
                }
                self.movs_parallel(bf, &res, &plocs)?;
                self.emit(f, Instr::Loop { ivar: ivr, bound, body: bf });
                self.arity(params.len(), &stm.pat)?;
                let dsts = self.bind_pat(&stm.pat);
                self.movs(f, &plocs, &dsts)?;
                return Ok(());
            }
            _ => {}
        }
        // Single-value expressions.
        self.arity(1, &stm.pat)?;
        let dst = self.loc_for_type(&stm.pat[0].ty);
        match &stm.exp {
            Exp::SubExp(se) => {
                let src = self.loc_of_subexp(f, se)?;
                self.mov(f, src, dst)?;
            }
            Exp::UnOp(op, a) => {
                let al = self.loc_of_subexp(f, a)?;
                self.compile_unop(f, *op, al, dst)?;
            }
            Exp::BinOp(op, a, b) => {
                let al = self.loc_of_subexp(f, a)?;
                let bl = self.loc_of_subexp(f, b)?;
                self.compile_binop(f, *op, al, bl, dst)?;
            }
            Exp::CmpThreshold { factors, threshold } => {
                let fs: Vec<Operand> =
                    factors.iter().map(|x| self.op_of_subexp(x)).collect::<Result<_>>()?;
                let Loc::Int { r, .. } = dst else {
                    return err("threshold comparison into non-bool binding");
                };
                self.emit(
                    f,
                    Instr::CmpThr { id: *threshold, factors: fs.into_boxed_slice(), dst: r },
                );
            }
            Exp::Index { arr, idxs } => {
                let (ar, _) = self.arr_reg(*arr)?;
                let is: Vec<Operand> =
                    idxs.iter().map(|i| self.op_of_subexp(i)).collect::<Result<_>>()?;
                self.emit(f, Instr::Index { arr: ar, idxs: is.into_boxed_slice(), dst });
            }
            Exp::Iota { n } => {
                let n = self.op_of_subexp(n)?;
                let Loc::Arr { r } = dst else { return err("iota into scalar binding") };
                self.emit(f, Instr::Iota { n, dst: r });
            }
            Exp::Replicate { n, elem } => {
                let n = self.op_of_subexp(n)?;
                let el = self.loc_of_subexp(f, elem)?;
                let Loc::Arr { r } = dst else { return err("replicate into scalar binding") };
                match el {
                    Loc::Arr { r: er } => self.emit(f, Instr::RepArr { n, elem: er, dst: r }),
                    _ => self.emit(f, Instr::RepScalar { n, elem: el, dst: r }),
                }
            }
            Exp::Rearrange { perm, arr } => {
                let (ar, _) = self.arr_reg(*arr)?;
                let Loc::Arr { r } = dst else { return err("rearrange into scalar binding") };
                self.emit(
                    f,
                    Instr::Rearrange { perm: perm.clone().into_boxed_slice(), arr: ar, dst: r },
                );
            }
            Exp::ArrayLit { elems, elem_ty } => {
                let els: Vec<Loc> =
                    elems.iter().map(|e| self.loc_of_subexp(f, e)).collect::<Result<_>>()?;
                let Loc::Arr { r } = dst else { return err("array literal into scalar binding") };
                self.emit(
                    f,
                    Instr::ArrayLit {
                        elems: els.into_boxed_slice(),
                        st: elem_ty.scalar,
                        dst: r,
                    },
                );
            }
            Exp::If { .. } | Exp::Loop { .. } | Exp::Soac(_) | Exp::Seg(_) => unreachable!(),
        }
        self.env.insert(stm.pat[0].name, dst);
        Ok(())
    }

    // -- scalar operator selection ------------------------------------

    fn compile_unop(&mut self, f: FuncId, op: UnOp, a: Loc, dst: Loc) -> Result<()> {
        match (op, a, dst) {
            (UnOp::Neg, Loc::Int { r: ar, st: ScalarType::I64 }, Loc::Int { r: d, .. }) => {
                self.emit(f, Instr::NegI64 { dst: d, a: ar })
            }
            (UnOp::Neg, Loc::Flt { r: ar, .. }, Loc::Flt { r: d, .. }) => {
                // Sign flip commutes with f32<->f64 widening, so one
                // opcode serves both float types.
                self.emit(f, Instr::NegF64 { dst: d, a: ar })
            }
            (UnOp::Not, Loc::Int { r: ar, st: ScalarType::Bool }, Loc::Int { r: d, .. }) => {
                self.emit(f, Instr::Not { dst: d, a: ar })
            }
            (_, Loc::Arr { .. }, _) => return err("unop on an array"),
            _ => self.emit(f, Instr::UnGen { op, a, dst }),
        }
        Ok(())
    }

    fn compile_binop(&mut self, f: FuncId, op: BinOp, a: Loc, b: Loc, dst: Loc) -> Result<()> {
        use BinOp::*;
        if matches!(a, Loc::Arr { .. }) || matches!(b, Loc::Arr { .. }) {
            return err("binop on an array");
        }
        let ins = match (a, b) {
            (
                Loc::Int { r: ar, st: ScalarType::I64 },
                Loc::Int { r: br, st: ScalarType::I64 },
            ) => {
                let d = match dst {
                    Loc::Int { r, .. } => r,
                    _ => return err("value type mismatch"),
                };
                match op {
                    Add => Some(Instr::AddI64 { dst: d, a: ar, b: br }),
                    Sub => Some(Instr::SubI64 { dst: d, a: ar, b: br }),
                    Mul => Some(Instr::MulI64 { dst: d, a: ar, b: br }),
                    Min => Some(Instr::MinI64 { dst: d, a: ar, b: br }),
                    Max => Some(Instr::MaxI64 { dst: d, a: ar, b: br }),
                    Eq => Some(Instr::EqI64 { dst: d, a: ar, b: br }),
                    Neq => Some(Instr::NeqI64 { dst: d, a: ar, b: br }),
                    Lt => Some(Instr::LtI64 { dst: d, a: ar, b: br }),
                    Le => Some(Instr::LeI64 { dst: d, a: ar, b: br }),
                    _ => None,
                }
            }
            (
                Loc::Flt { r: ar, st: ScalarType::F64 },
                Loc::Flt { r: br, st: ScalarType::F64 },
            ) => match (op, dst) {
                (Add, Loc::Flt { r: d, .. }) => Some(Instr::AddF64 { dst: d, a: ar, b: br }),
                (Sub, Loc::Flt { r: d, .. }) => Some(Instr::SubF64 { dst: d, a: ar, b: br }),
                (Mul, Loc::Flt { r: d, .. }) => Some(Instr::MulF64 { dst: d, a: ar, b: br }),
                (Div, Loc::Flt { r: d, .. }) => Some(Instr::DivF64 { dst: d, a: ar, b: br }),
                (Min, Loc::Flt { r: d, .. }) => Some(Instr::MinF64 { dst: d, a: ar, b: br }),
                (Max, Loc::Flt { r: d, .. }) => Some(Instr::MaxF64 { dst: d, a: ar, b: br }),
                (Eq, Loc::Int { r: d, .. }) => Some(Instr::EqF64 { dst: d, a: ar, b: br }),
                (Neq, Loc::Int { r: d, .. }) => Some(Instr::NeqF64 { dst: d, a: ar, b: br }),
                (Lt, Loc::Int { r: d, .. }) => Some(Instr::LtF64 { dst: d, a: ar, b: br }),
                (Le, Loc::Int { r: d, .. }) => Some(Instr::LeF64 { dst: d, a: ar, b: br }),
                _ => None,
            },
            (
                Loc::Flt { r: ar, st: ScalarType::F32 },
                Loc::Flt { r: br, st: ScalarType::F32 },
            ) => match (op, dst) {
                (Add, Loc::Flt { r: d, .. }) => Some(Instr::AddF32 { dst: d, a: ar, b: br }),
                (Sub, Loc::Flt { r: d, .. }) => Some(Instr::SubF32 { dst: d, a: ar, b: br }),
                (Mul, Loc::Flt { r: d, .. }) => Some(Instr::MulF32 { dst: d, a: ar, b: br }),
                (Div, Loc::Flt { r: d, .. }) => Some(Instr::DivF32 { dst: d, a: ar, b: br }),
                _ => None,
            },
            _ => None,
        };
        match ins {
            Some(i) => self.emit(f, i),
            None => self.emit(f, Instr::BinGen { op, a, b, dst }),
        }
        Ok(())
    }

    // -- SOACs ---------------------------------------------------------

    fn compile_soac(&mut self, f: FuncId, so: &Soac, pat: &[Param]) -> Result<()> {
        let arr_inputs = |c: &Self, arrs: &[VName]| -> Result<(Vec<u32>, Vec<String>)> {
            let mut regs = Vec::with_capacity(arrs.len());
            let mut names = Vec::with_capacity(arrs.len());
            for a in arrs {
                let (r, n) = c.arr_reg(*a)?;
                regs.push(r);
                names.push(n);
            }
            Ok((regs, names))
        };
        // Split an operator lambda into accumulator and right-hand
        // parameters (`k` = number of neutral elements).
        let split = |lam: &Lambda, k: usize| -> Result<(Vec<Param>, Vec<Param>)> {
            if lam.params.len() < k {
                return err(format!("lambda arity {} vs {} arguments", lam.params.len(), k));
            }
            Ok((lam.params[..k].to_vec(), lam.params[k..].to_vec()))
        };
        let cs = match so {
            Soac::Map { w, lam, arrs } => {
                let w = self.op_of_subexp(w)?;
                let (arrs, arr_names) = arr_inputs(self, arrs)?;
                let elems = self.lam_params(&lam.params);
                let step = self.new_func();
                let outs = self.compile_body(step, &lam.body)?;
                CompiledSoac {
                    kind: SoacKind::Map,
                    w,
                    arrs,
                    arr_names,
                    elems,
                    nes: vec![],
                    accs: vec![],
                    step,
                    outs,
                    ret: lam.ret.clone(),
                    dsts: vec![],
                }
            }
            Soac::Reduce { w, lam, nes, arrs } | Soac::Scan { w, lam, nes, arrs } => {
                let kind = if matches!(so, Soac::Reduce { .. }) {
                    SoacKind::Reduce
                } else {
                    SoacKind::Scan
                };
                let w = self.op_of_subexp(w)?;
                let (arrs, arr_names) = arr_inputs(self, arrs)?;
                let (accp, elemp) = split(lam, nes.len())?;
                let accs = self.lam_params(&accp);
                let elems = self.lam_params(&elemp);
                let nes: Vec<Loc> =
                    nes.iter().map(|ne| self.loc_of_subexp(f, ne)).collect::<Result<_>>()?;
                let step = self.new_func();
                let res = self.compile_body(step, &lam.body)?;
                if res.len() != accs.len() {
                    return err(format!(
                        "lambda arity {} vs {} arguments",
                        lam.params.len(),
                        accs.len() + res.len()
                    ));
                }
                self.movs_parallel(step, &res, &accs)?;
                CompiledSoac {
                    kind,
                    w,
                    arrs,
                    arr_names,
                    elems,
                    nes,
                    accs: accs.clone(),
                    step,
                    outs: accs,
                    ret: lam.ret.clone(),
                    dsts: vec![],
                }
            }
            Soac::Redomap { w, red, map, nes, arrs }
            | Soac::Scanomap { w, scan: red, map, nes, arrs } => {
                let kind = if matches!(so, Soac::Redomap { .. }) {
                    SoacKind::Redomap
                } else {
                    SoacKind::Scanomap
                };
                let w = self.op_of_subexp(w)?;
                let (arrs, arr_names) = arr_inputs(self, arrs)?;
                let elems = self.lam_params(&map.params);
                let (accp, rhsp) = split(red, nes.len())?;
                let accs = self.lam_params(&accp);
                let rhs = self.lam_params(&rhsp);
                let nes: Vec<Loc> =
                    nes.iter().map(|ne| self.loc_of_subexp(f, ne)).collect::<Result<_>>()?;
                let step = self.new_func();
                let mres = self.compile_body(step, &map.body)?;
                if mres.len() != rhs.len() {
                    return err(format!(
                        "lambda arity {} vs {} arguments",
                        red.params.len(),
                        accs.len() + mres.len()
                    ));
                }
                self.movs(step, &mres, &rhs)?;
                let rres = self.compile_body(step, &red.body)?;
                if rres.len() != accs.len() {
                    return err(format!(
                        "lambda arity {} vs {} arguments",
                        red.params.len(),
                        accs.len() + rres.len()
                    ));
                }
                self.movs_parallel(step, &rres, &accs)?;
                CompiledSoac {
                    kind,
                    w,
                    arrs,
                    arr_names,
                    elems,
                    nes,
                    accs: accs.clone(),
                    step,
                    outs: accs,
                    ret: red.ret.clone(),
                    dsts: vec![],
                }
            }
        };
        self.arity(cs.outs.len(), pat)?;
        if cs.arrs.len() != cs.elems.len() {
            return err(format!(
                "lambda arity {} vs {} arguments",
                cs.elems.len(),
                cs.arrs.len()
            ));
        }
        let dsts = self.bind_pat(pat);
        let id = self.soacs.len() as u32;
        self.soacs.push(CompiledSoac { dsts, ..cs });
        self.emit(f, Instr::Soac(id));
        Ok(())
    }

    // -- segmented operators ------------------------------------------

    fn compile_seg(&mut self, f: FuncId, op: &SegOp, stm: &Stm) -> Result<()> {
        if op.ctx.is_empty() {
            return err("segop with empty context");
        }
        let widths: Vec<Operand> =
            op.ctx.iter().map(|d| self.op_of_subexp(&d.width)).collect::<Result<_>>()?;
        let mut ctx = Vec::with_capacity(op.ctx.len());
        for (dim, w) in op.ctx.iter().zip(widths) {
            let mut binds = Vec::with_capacity(dim.binds.len());
            for (p, arr) in &dim.binds {
                let (areg, name) = self.arr_reg(*arr)?;
                let dst = self.loc_for_type(&p.ty);
                self.env.insert(p.name, dst);
                binds.push(CBind { arr: areg, name, dst });
            }
            ctx.push(CDim { width: w, binds });
        }
        let kind = match &op.kind {
            SegKind::Map => {
                let body = self.new_func();
                let outs = self.compile_body(body, &op.body)?;
                CSegKind::Map { body, outs }
            }
            SegKind::Red { op: lam, nes } | SegKind::Scan { op: lam, nes } => {
                let k = nes.len();
                if lam.params.len() < k {
                    return err(format!("lambda arity {} vs {} arguments", lam.params.len(), k));
                }
                let accs = self.lam_params(&lam.params[..k]);
                let rhs = self.lam_params(&lam.params[k..]);
                let nes: Vec<Loc> =
                    nes.iter().map(|ne| self.loc_of_subexp(f, ne)).collect::<Result<_>>()?;
                // Fold: body, then the operator applied to accs ++ body
                // results, leaving the new accumulators in `accs`.
                let fold = self.new_func();
                let bres = self.compile_body(fold, &op.body)?;
                if bres.len() != rhs.len() {
                    return err(format!(
                        "lambda arity {} vs {} arguments",
                        lam.params.len(),
                        k + bres.len()
                    ));
                }
                self.movs(fold, &bres, &rhs)?;
                let lres = self.compile_body(fold, &lam.body)?;
                if lres.len() != accs.len() {
                    return err(format!(
                        "lambda arity {} vs {} arguments",
                        lam.params.len(),
                        k + lres.len()
                    ));
                }
                self.movs_parallel(fold, &lres, &accs)?;
                // Combine: the operator alone on accs ++ rhs (a second,
                // independent compilation of the lambda body).
                let combine = self.new_func();
                let cres = self.compile_body(combine, &lam.body)?;
                if cres.len() != accs.len() {
                    return err(format!(
                        "lambda arity {} vs {} arguments",
                        lam.params.len(),
                        k + cres.len()
                    ));
                }
                self.movs_parallel(combine, &cres, &accs)?;
                if matches!(op.kind, SegKind::Red { .. }) {
                    CSegKind::Red { fold, combine, nes, accs, rhs }
                } else {
                    CSegKind::Scan { fold, combine, nes, accs, rhs }
                }
            }
        };
        self.arity(kind.outs().len(), &stm.pat)?;
        let dsts = self.bind_pat(&stm.pat);
        let name = stm
            .pat
            .first()
            .map(|p| p.name.to_string())
            .unwrap_or_else(|| kind.name().to_string());
        let id = self.segs.len() as u32;
        self.segs.push(CompiledSeg {
            kind,
            level: op.level,
            ctx,
            body_ret: op.body_ret.clone(),
            dsts,
            name,
            prov: stm.prov,
        });
        self.emit(f, Instr::Seg(id));
        Ok(())
    }
}
