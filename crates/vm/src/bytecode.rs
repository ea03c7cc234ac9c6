//! The register bytecode: what [`crate::compile`] lowers `flat-ir` to
//! and what [`crate::run`] executes.
//!
//! A compiled program is a set of *functions* (flat `Vec<Instr>` with no
//! internal control flow — `if`/`loop` are structured instructions that
//! name other functions), a table of compiled segmented operators, and a
//! table of compiled SOACs. Every `flat-ir` name is resolved at compile
//! time to a dense index into one of three register banks:
//!
//! * `ints` (`Vec<i64>`) — `i64` raw, `i32` sign-extended, `bool` as 0/1;
//! * `flts` (`Vec<f64>`) — `f64` raw, `f32` widened on write and
//!   narrowed on read (a bitwise round-trip for every value the
//!   toolchain produces);
//! * `arrs` (`Vec<Option<Arc<ArrayVal>>>`) — whole arrays by reference.
//!
//! Registers are never reused: each binding, lambda parameter, and
//! temporary gets a fresh index. That makes a kernel task's private
//! frame a plain clone of the register files, and lets the sequential
//! combine passes of `segred`/`segscan` run directly on the host frame —
//! any register they clobber is dead afterwards.
//!
//! The hot interpreter loop is a `match` on [`Instr`] (`#[repr(u8)]`
//! discriminant) over the unboxed banks. The common `i64`/`f64`
//! arithmetic and comparison operators get monomorphic opcodes;
//! everything rarer ([`Instr::BinGen`]/[`Instr::UnGen`]) reconstructs
//! `Const`s and defers to the reference interpreter's scalar evaluators,
//! so scalar semantics (wrapping, NaN ordering, division errors) are the
//! interpreter's by construction.

use flat_ir::ast::{BinOp, Level, ThresholdId, UnOp};
use flat_ir::prov::Prov;
use flat_ir::types::{ScalarType, Type};
use std::fmt;

/// Index of a function (a straight-line instruction sequence).
pub type FuncId = u32;

/// A typed register reference: which bank, which index, and the scalar
/// type the stored word encodes (for `Const` reconstruction).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Loc {
    /// Integer bank: `i64` raw, `i32` sign-extended, `bool` as 0/1.
    Int { r: u32, st: ScalarType },
    /// Float bank: `f64` raw, `f32` widened.
    Flt { r: u32, st: ScalarType },
    /// Array bank.
    Arr { r: u32 },
}

impl Loc {
    /// The scalar type a scalar register encodes (arrays have none).
    pub fn scalar_type(&self) -> Option<ScalarType> {
        match *self {
            Loc::Int { st, .. } | Loc::Flt { st, .. } => Some(st),
            Loc::Arr { .. } => None,
        }
    }
}

/// An `i64`-valued operand in a driver position (widths, loop bounds,
/// index expressions, threshold factors): either an immediate or an
/// integer register read raw.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Operand {
    Const(i64),
    Reg(u32),
}

/// One bytecode instruction. Monomorphic opcodes carry bare register
/// indices into a known bank; the generic fallbacks carry full [`Loc`]s.
#[derive(Clone, Debug)]
#[repr(u8)]
pub enum Instr {
    // -- constants and moves ------------------------------------------
    IConst { dst: u32, v: i64 },
    FConst { dst: u32, v: f64 },
    IMov { dst: u32, src: u32 },
    FMov { dst: u32, src: u32 },
    AMov { dst: u32, src: u32 },
    // -- monomorphic i64 ----------------------------------------------
    AddI64 { dst: u32, a: u32, b: u32 },
    SubI64 { dst: u32, a: u32, b: u32 },
    MulI64 { dst: u32, a: u32, b: u32 },
    MinI64 { dst: u32, a: u32, b: u32 },
    MaxI64 { dst: u32, a: u32, b: u32 },
    NegI64 { dst: u32, a: u32 },
    EqI64 { dst: u32, a: u32, b: u32 },
    NeqI64 { dst: u32, a: u32, b: u32 },
    LtI64 { dst: u32, a: u32, b: u32 },
    LeI64 { dst: u32, a: u32, b: u32 },
    // -- monomorphic f64 (NegF64 also covers f32: sign flip commutes
    //    with widening) ------------------------------------------------
    AddF64 { dst: u32, a: u32, b: u32 },
    SubF64 { dst: u32, a: u32, b: u32 },
    MulF64 { dst: u32, a: u32, b: u32 },
    DivF64 { dst: u32, a: u32, b: u32 },
    MinF64 { dst: u32, a: u32, b: u32 },
    MaxF64 { dst: u32, a: u32, b: u32 },
    NegF64 { dst: u32, a: u32 },
    EqF64 { dst: u32, a: u32, b: u32 },
    NeqF64 { dst: u32, a: u32, b: u32 },
    LtF64 { dst: u32, a: u32, b: u32 },
    LeF64 { dst: u32, a: u32, b: u32 },
    // -- monomorphic f32 (narrow operands, compute at f32, widen) -----
    AddF32 { dst: u32, a: u32, b: u32 },
    SubF32 { dst: u32, a: u32, b: u32 },
    MulF32 { dst: u32, a: u32, b: u32 },
    DivF32 { dst: u32, a: u32, b: u32 },
    // -- bool ----------------------------------------------------------
    Not { dst: u32, a: u32 },
    // -- generic scalar fallbacks (i32, bool logic, pow/div/rem, casts,
    //    transcendentals): reconstruct Consts, defer to the interpreter
    BinGen { op: BinOp, a: Loc, b: Loc, dst: Loc },
    UnGen { op: UnOp, a: Loc, dst: Loc },
    // -- incremental flattening's live dispatch ------------------------
    CmpThr { id: ThresholdId, factors: Box<[Operand]>, dst: u32 },
    // -- array constructors and views ---------------------------------
    Index { arr: u32, idxs: Box<[Operand]>, dst: Loc },
    Iota { n: Operand, dst: u32 },
    RepScalar { n: Operand, elem: Loc, dst: u32 },
    RepArr { n: Operand, elem: u32, dst: u32 },
    Rearrange { perm: Box<[usize]>, arr: u32, dst: u32 },
    ArrayLit { elems: Box<[Loc]>, st: ScalarType, dst: u32 },
    // -- structured control --------------------------------------------
    If { cond: u32, tf: FuncId, ff: FuncId },
    Loop { ivar: u32, bound: Operand, body: FuncId },
    // -- side-table dispatch -------------------------------------------
    Soac(u32),
    Seg(u32),
}

/// One bound context-dimension parameter of a compiled segop.
#[derive(Clone, Debug)]
pub struct CBind {
    /// Source array register.
    pub arr: u32,
    /// Source array's surface name (error messages only).
    pub name: String,
    /// Where the element (row or scalar) lands.
    pub dst: Loc,
}

/// One compiled context dimension.
#[derive(Clone, Debug)]
pub struct CDim {
    pub width: Operand,
    pub binds: Vec<CBind>,
}

/// The per-kind piece of a compiled segop. `fold` runs the segop body
/// for one inner element and folds the result into `accs` with the
/// operator; `combine` applies the operator to `accs ++ rhs`, leaving
/// the result in `accs`.
#[derive(Clone, Debug)]
pub enum CSegKind {
    Map { body: FuncId, outs: Vec<Loc> },
    Red { fold: FuncId, combine: FuncId, nes: Vec<Loc>, accs: Vec<Loc>, rhs: Vec<Loc> },
    Scan { fold: FuncId, combine: FuncId, nes: Vec<Loc>, accs: Vec<Loc>, rhs: Vec<Loc> },
}

impl CSegKind {
    pub fn name(&self) -> &'static str {
        match self {
            CSegKind::Map { .. } => "segmap",
            CSegKind::Red { .. } => "segred",
            CSegKind::Scan { .. } => "segscan",
        }
    }

    /// The locations holding one point's results after the body/fold ran.
    pub fn outs(&self) -> &[Loc] {
        match self {
            CSegKind::Map { outs, .. } => outs,
            CSegKind::Red { accs, .. } | CSegKind::Scan { accs, .. } => accs,
        }
    }
}

/// A compiled segmented operator (the side table an [`Instr::Seg`]
/// indexes into).
#[derive(Clone, Debug)]
pub struct CompiledSeg {
    pub kind: CSegKind,
    pub level: Level,
    pub ctx: Vec<CDim>,
    /// Per-result element types, for empty iteration spaces.
    pub body_ret: Vec<Type>,
    /// Where the finished segop results land.
    pub dsts: Vec<Loc>,
    /// Launch name: the first value the segop binds.
    pub name: String,
    pub prov: Prov,
    /// A `segmap` whose body reaches a loop, SOAC or segop (through
    /// `if` branches): its points are heavy enough that a host-level
    /// launch splits across the threads, not only by the grain.
    pub heavy: bool,
}

/// Which SOAC a [`CompiledSoac`] drives.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SoacKind {
    Map,
    Reduce,
    Scan,
    Redomap,
    Scanomap,
}

/// A compiled SOAC. SOACs execute sequentially exactly as in the
/// interpreter: `step` runs once per element with the element parameters
/// bound; for reductions and scans it also folds into `accs`.
#[derive(Clone, Debug)]
pub struct CompiledSoac {
    pub kind: SoacKind,
    pub w: Operand,
    /// Input array registers, plus surface names for error messages.
    pub arrs: Vec<u32>,
    pub arr_names: Vec<String>,
    /// Element parameter locations, one per input array.
    pub elems: Vec<Loc>,
    /// Neutral-element locations (empty for `map`).
    pub nes: Vec<Loc>,
    /// Accumulator locations (empty for `map`).
    pub accs: Vec<Loc>,
    pub step: FuncId,
    /// Per-element result locations (`accs` for reductions/scans).
    pub outs: Vec<Loc>,
    /// Per-element result types, for width-0 inputs.
    pub ret: Vec<Type>,
    pub dsts: Vec<Loc>,
}

/// A whole lowered program.
#[derive(Clone, Debug)]
pub struct CompiledProgram {
    pub name: String,
    /// Parameter locations, types, and surface names, in order.
    pub params: Vec<(Loc, Type, String)>,
    /// Locations of the program results.
    pub results: Vec<Loc>,
    /// The entry function.
    pub main: FuncId,
    pub funcs: Vec<Vec<Instr>>,
    pub segs: Vec<CompiledSeg>,
    pub soacs: Vec<CompiledSoac>,
    /// Bank sizes.
    pub n_int: u32,
    pub n_flt: u32,
    pub n_arr: u32,
}

// ---------------------------------------------------------------------
// Disassembly. Prints register indices and structure only — never
// surface names, whose numbering is process-global and would make
// goldens unstable.
// ---------------------------------------------------------------------

impl fmt::Display for Loc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Loc::Int { r, st } => write!(f, "i{r}:{st}"),
            Loc::Flt { r, st } => write!(f, "f{r}:{st}"),
            Loc::Arr { r } => write!(f, "a{r}"),
        }
    }
}

impl fmt::Display for Operand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Operand::Const(v) => write!(f, "#{v}"),
            Operand::Reg(r) => write!(f, "i{r}"),
        }
    }
}

fn locs(ls: &[Loc]) -> String {
    let s: Vec<String> = ls.iter().map(|l| l.to_string()).collect();
    format!("[{}]", s.join(", "))
}

impl fmt::Display for Instr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use Instr::*;
        let bin3 = |f: &mut fmt::Formatter<'_>, n: &str, d: &u32, a: &u32, b: &u32, bank: char| {
            write!(f, "{n:<12} {bank}{d} <- {bank}{a}, {bank}{b}")
        };
        match self {
            IConst { dst, v } => write!(f, "{:<12} i{dst} <- {v}", "iconst"),
            FConst { dst, v } => write!(f, "{:<12} f{dst} <- {v:?}", "fconst"),
            IMov { dst, src } => write!(f, "{:<12} i{dst} <- i{src}", "mov"),
            FMov { dst, src } => write!(f, "{:<12} f{dst} <- f{src}", "mov"),
            AMov { dst, src } => write!(f, "{:<12} a{dst} <- a{src}", "mov"),
            AddI64 { dst, a, b } => bin3(f, "add.i64", dst, a, b, 'i'),
            SubI64 { dst, a, b } => bin3(f, "sub.i64", dst, a, b, 'i'),
            MulI64 { dst, a, b } => bin3(f, "mul.i64", dst, a, b, 'i'),
            MinI64 { dst, a, b } => bin3(f, "min.i64", dst, a, b, 'i'),
            MaxI64 { dst, a, b } => bin3(f, "max.i64", dst, a, b, 'i'),
            NegI64 { dst, a } => write!(f, "{:<12} i{dst} <- i{a}", "neg.i64"),
            EqI64 { dst, a, b } => bin3(f, "eq.i64", dst, a, b, 'i'),
            NeqI64 { dst, a, b } => bin3(f, "neq.i64", dst, a, b, 'i'),
            LtI64 { dst, a, b } => bin3(f, "lt.i64", dst, a, b, 'i'),
            LeI64 { dst, a, b } => bin3(f, "le.i64", dst, a, b, 'i'),
            AddF64 { dst, a, b } => bin3(f, "add.f64", dst, a, b, 'f'),
            SubF64 { dst, a, b } => bin3(f, "sub.f64", dst, a, b, 'f'),
            MulF64 { dst, a, b } => bin3(f, "mul.f64", dst, a, b, 'f'),
            DivF64 { dst, a, b } => bin3(f, "div.f64", dst, a, b, 'f'),
            MinF64 { dst, a, b } => bin3(f, "min.f64", dst, a, b, 'f'),
            MaxF64 { dst, a, b } => bin3(f, "max.f64", dst, a, b, 'f'),
            NegF64 { dst, a } => write!(f, "{:<12} f{dst} <- f{a}", "neg.f64"),
            EqF64 { dst, a, b } => write!(f, "{:<12} i{dst} <- f{a}, f{b}", "eq.f64"),
            NeqF64 { dst, a, b } => write!(f, "{:<12} i{dst} <- f{a}, f{b}", "neq.f64"),
            LtF64 { dst, a, b } => write!(f, "{:<12} i{dst} <- f{a}, f{b}", "lt.f64"),
            LeF64 { dst, a, b } => write!(f, "{:<12} i{dst} <- f{a}, f{b}", "le.f64"),
            AddF32 { dst, a, b } => bin3(f, "add.f32", dst, a, b, 'f'),
            SubF32 { dst, a, b } => bin3(f, "sub.f32", dst, a, b, 'f'),
            MulF32 { dst, a, b } => bin3(f, "mul.f32", dst, a, b, 'f'),
            DivF32 { dst, a, b } => bin3(f, "div.f32", dst, a, b, 'f'),
            Not { dst, a } => write!(f, "{:<12} i{dst} <- i{a}", "not"),
            BinGen { op, a, b, dst } => write!(f, "{:<12} {dst} <- {a}, {b}", format!("bin.{op:?}").to_lowercase()),
            UnGen { op, a, dst } => write!(f, "{:<12} {dst} <- {a}", format!("un.{op:?}").to_lowercase()),
            CmpThr { id, factors, dst } => {
                let fs: Vec<String> = factors.iter().map(|o| o.to_string()).collect();
                write!(f, "{:<12} i{dst} <- t{} [{}]", "cmpthr", id.0, fs.join(", "))
            }
            Index { arr, idxs, dst } => {
                let is: Vec<String> = idxs.iter().map(|o| o.to_string()).collect();
                write!(f, "{:<12} {dst} <- a{arr}[{}]", "index", is.join(", "))
            }
            Iota { n, dst } => write!(f, "{:<12} a{dst} <- {n}", "iota"),
            RepScalar { n, elem, dst } => write!(f, "{:<12} a{dst} <- {n} x {elem}", "replicate"),
            RepArr { n, elem, dst } => write!(f, "{:<12} a{dst} <- {n} x a{elem}", "replicate"),
            Rearrange { perm, arr, dst } => write!(f, "{:<12} a{dst} <- a{arr} {perm:?}", "rearrange"),
            ArrayLit { elems, st, dst } => write!(f, "{:<12} a{dst} <- {st} {}", "arraylit", locs(elems)),
            If { cond, tf, ff } => write!(f, "{:<12} i{cond} ? fn{tf} : fn{ff}", "if"),
            Loop { ivar, bound, body } => write!(f, "{:<12} i{ivar} < {bound} : fn{body}", "loop"),
            Soac(id) => write!(f, "{:<12} s{id}", "soac"),
            Seg(id) => write!(f, "{:<12} g{id}", "seg"),
        }
    }
}

impl fmt::Display for CompiledProgram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "vm program: funcs={} segs={} soacs={} regs int={} flt={} arr={}",
            self.funcs.len(),
            self.segs.len(),
            self.soacs.len(),
            self.n_int,
            self.n_flt,
            self.n_arr
        )?;
        writeln!(f, "params: {}", {
            // Rank, not the full type: dimension sub-expressions embed
            // surface names, which would destabilize goldens.
            let s: Vec<String> =
                self.params.iter().map(|(l, t, _)| format!("{l}^{}", t.rank())).collect();
            s.join(", ")
        })?;
        writeln!(f, "results: {}", locs(&self.results))?;
        for (i, body) in self.funcs.iter().enumerate() {
            let main = if i as FuncId == self.main { " (entry)" } else { "" };
            writeln!(f, "fn{i}:{main}")?;
            for ins in body {
                writeln!(f, "  {ins}")?;
            }
        }
        for (i, sg) in self.segs.iter().enumerate() {
            let heavy = if sg.heavy { " heavy" } else { "" };
            writeln!(f, "g{i}: {} level={}{heavy}", sg.kind.name(), sg.level)?;
            for (k, dim) in sg.ctx.iter().enumerate() {
                let bs: Vec<String> =
                    dim.binds.iter().map(|b| format!("{} <- a{}[.]", b.dst, b.arr)).collect();
                writeln!(f, "  dim {k}: width={} binds=[{}]", dim.width, bs.join(", "))?;
            }
            match &sg.kind {
                CSegKind::Map { body, outs } => {
                    writeln!(f, "  body=fn{body} outs={}", locs(outs))?;
                }
                CSegKind::Red { fold, combine, nes, accs, rhs }
                | CSegKind::Scan { fold, combine, nes, accs, rhs } => {
                    writeln!(
                        f,
                        "  fold=fn{fold} combine=fn{combine} nes={} accs={} rhs={}",
                        locs(nes),
                        locs(accs),
                        locs(rhs)
                    )?;
                }
            }
            writeln!(f, "  dsts={}", locs(&sg.dsts))?;
        }
        for (i, so) in self.soacs.iter().enumerate() {
            writeln!(
                f,
                "s{i}: {:?} w={} arrs=[{}] elems={} nes={} accs={} step=fn{} outs={} dsts={}",
                so.kind,
                so.w,
                so.arrs.iter().map(|r| format!("a{r}")).collect::<Vec<_>>().join(", "),
                locs(&so.elems),
                locs(&so.nes),
                locs(&so.accs),
                so.step,
                locs(&so.outs),
                locs(&so.dsts)
            )?;
        }
        Ok(())
    }
}

/// Render the full disassembly of a compiled program.
pub fn disasm(p: &CompiledProgram) -> String {
    p.to_string()
}
