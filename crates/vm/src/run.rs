//! The VM executor: runs compiled bytecode as data-parallel kernels on
//! the work-stealing pool, with live threshold dispatch.
//!
//! ## Determinism
//!
//! Every *combine* follows the configured grain size only, never the
//! thread count, and task results are combined in task order on the
//! calling thread. Two runs with different `FLAT_EXEC_THREADS`
//! therefore produce bit-identical values:
//!
//! * `segmap` has no combine step: chunks write private buffers that
//!   concatenate in index order, so its chunking may follow the thread
//!   count. A host-level segmap is cut into grain-sized chunks, or, if
//!   it is *heavy* (its body reaches a loop, SOAC or segop; see
//!   [`Vm::map_chunk`]), into at least `4 × threads` chunks.
//! * `segred`: each (segment, block) task folds its grain-sized block
//!   left-to-right from the neutral element; block partials combine
//!   left-to-right per segment. With one block per segment this is
//!   exactly the interpreter's fold (bitwise, even for floats); with
//!   several blocks it is the same reassociation for every thread count.
//! * `segscan`: per-block local scans over grain-sized blocks, a
//!   sequential prefix over block totals, then a fixup `op(prefix,
//!   elem)` for every block after the first (the first block's local
//!   scan is already final, so a single-block segment is again bitwise
//!   equal to the interpreter, and skips the other passes).
//! * Nested segops run inline: a segop reached from inside a kernel
//!   task runs the same blocks, in task order, on that task's frame,
//!   and never touches the pool (see [`Vm::run_tasks`]). A level-0
//!   segop is part of its level-1 task, as a GPU workgroup's threads
//!   are.
//!
//! A host-level kernel task's "frame" is a clone of three flat register
//! banks, the body is a `match` over monomorphic opcodes, and the
//! sequential combine passes of `segred`/`segscan` run directly on the
//! host frame (safe because registers are never reused, so everything
//! they clobber is dead) — the same argument that lets nested segops
//! run every block on one frame.

use crate::bytecode::*;
use flat_exec::{ExecConfig, ExecError, ExecLaunch, ExecReport, KernelTelem};
use flat_ir::ast::{Const, Program};
use flat_ir::interp::{self as interp, Thresholds};
use flat_ir::types::ScalarType;
use flat_ir::value::{ArrayVal, Buffer, Value};
use gpu_sim::CmpRecord;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

type Result<T> = std::result::Result<T, ExecError>;

fn err<T>(msg: impl Into<String>) -> Result<T> {
    Err(ExecError(msg.into()))
}

/// A heavy host-level segmap is cut into at least this many chunks per
/// pool thread, so uneven rows still balance (see [`Vm::map_chunk`]).
const HEAVY_CHUNKS_PER_THREAD: usize = 4;

/// Compile and execute a program on concrete values.
pub fn run_program(prog: &Program, args: &[Value], cfg: &ExecConfig) -> Result<ExecReport> {
    let compiled = crate::compile::compile(prog)?;
    run_compiled(&compiled, args, cfg)
}

/// Execute an already-compiled program (lets `measure` pay the lowering
/// cost once, outside the timed region).
pub fn run_compiled(
    prog: &CompiledProgram,
    args: &[Value],
    cfg: &ExecConfig,
) -> Result<ExecReport> {
    let pool = match cfg.threads {
        Some(n) => workpool::pool_with(n),
        None => workpool::global(),
    };
    let _span = flat_obs::span("vm", "vm.run");
    if prog.params.len() != args.len() {
        return err(format!(
            "program {} expects {} arguments, got {}",
            prog.name,
            prog.params.len(),
            args.len()
        ));
    }
    // Telemetry runs hold a reference-counted session on the shared
    // (process-cached) pool: counters stay on while any run needs them
    // and switch off when the last one finishes, and span recording is
    // owned exclusively for the run, so concurrent runs neither clobber
    // each other's switches nor steal each other's drained spans.
    let telem_on = cfg.telemetry || cfg.worker_trace;
    let session = telem_on.then(|| pool.telemetry_session(cfg.worker_trace));
    let pool_before = telem_on.then(|| pool.telemetry());
    let vm = Vm {
        prog,
        thresholds: &cfg.thresholds,
        pool: &pool,
        grain: cfg.grain.max(1),
        t0: Instant::now(),
        telem: telem_on,
        cur_tag: AtomicU64::new(0),
    };
    let mut fr = VmFrame {
        ints: vec![0; prog.n_int as usize],
        flts: vec![0.0; prog.n_flt as usize],
        arrs: vec![None; prog.n_arr as usize],
        path: Vec::new(),
        launches: Vec::new(),
        in_kernel: false,
    };
    let bound = bind_args(&mut fr, prog, args);
    let started = Instant::now();
    let eval = bound.and_then(|()| vm.run_func(&mut fr, prog.main));
    let wall_nanos = started.elapsed().as_nanos() as f64;
    let pool_telem = pool_before.map(|b| pool.telemetry().delta_since(&b));
    let mut spans = match &session {
        Some(s) if s.recording_spans() => s.take_spans(),
        _ => Vec::new(),
    };
    drop(session);
    if !spans.is_empty() {
        let own: std::collections::HashSet<u64> =
            fr.launches.iter().map(|l| l.tag).filter(|&t| t != 0).collect();
        spans.retain(|s| own.contains(&s.tag));
    }
    eval?;
    let values: Vec<Value> =
        prog.results.iter().map(|&l| vm.read_value(&fr, l)).collect::<Result<_>>()?;
    if let Some(t) = &pool_telem {
        let total = t.total();
        let m = flat_obs::global().metrics();
        m.add("vm.pool.tasks", total.tasks);
        m.add("vm.pool.steals", total.steals);
        m.add("vm.pool.steal_fails", total.steal_fails);
        m.add("vm.pool.parks", total.parks);
        m.add("vm.pool.busy_ns", total.busy_ns);
        for l in &fr.launches {
            m.observe("vm.kernel_ns", l.nanos as u64);
        }
    }
    Ok(ExecReport {
        values,
        path: fr.path,
        launches: fr.launches,
        wall_nanos,
        threads: pool.threads(),
        grain: cfg.grain.max(1),
        pool: pool_telem,
        spans,
    })
}

fn bind_args(fr: &mut VmFrame, prog: &CompiledProgram, args: &[Value]) -> Result<()> {
    for ((loc, ty, name), a) in prog.params.iter().zip(args) {
        match (loc, a) {
            (Loc::Arr { r }, Value::Array(av)) => {
                fr.arrs[*r as usize] = Some(Arc::new(av.clone()));
            }
            (Loc::Arr { .. }, Value::Scalar(_)) => {
                return err(format!("expected array, {name} is a scalar"));
            }
            (_, Value::Array(_)) => {
                return err(format!("expected scalar, {name} is an array"));
            }
            (&l, Value::Scalar(c)) => {
                if Some(c.scalar_type()) != l.scalar_type() {
                    return err(format!(
                        "program {} argument {name}: expected {}, got {}",
                        prog.name,
                        ty.scalar,
                        c.scalar_type()
                    ));
                }
                write_const(fr, l, *c)?;
            }
        }
    }
    Ok(())
}

/// One evaluation context: the three register banks plus the records a
/// kernel task accumulates privately and the host merges in task order.
pub(crate) struct VmFrame {
    pub(crate) ints: Vec<i64>,
    pub(crate) flts: Vec<f64>,
    pub(crate) arrs: Vec<Option<Arc<ArrayVal>>>,
    path: Vec<CmpRecord>,
    launches: Vec<ExecLaunch>,
    in_kernel: bool,
}

/// A value crossing a task boundary (block partials, scan prefixes):
/// scalars by value, arrays by reference.
#[derive(Clone)]
enum TVal {
    S(Const),
    A(Arc<ArrayVal>),
}

/// One context dimension's binds, prefetched for a task: source array
/// and destination register, width-checked at build time. Sound to hold
/// across body runs because registers are never reused — a body cannot
/// redefine a segop input array.
struct DimPlan {
    binds: Vec<(Arc<ArrayVal>, Loc)>,
}

fn read_const(fr: &VmFrame, l: Loc) -> Result<Const> {
    match l {
        Loc::Int { r, st } => {
            let v = fr.ints[r as usize];
            Ok(match st {
                ScalarType::I64 => Const::I64(v),
                ScalarType::I32 => Const::I32(v as i32),
                ScalarType::Bool => Const::Bool(v != 0),
                _ => return err("corrupt register type"),
            })
        }
        Loc::Flt { r, st } => {
            let v = fr.flts[r as usize];
            Ok(match st {
                ScalarType::F64 => Const::F64(v),
                ScalarType::F32 => Const::F32(v as f32),
                _ => return err("corrupt register type"),
            })
        }
        Loc::Arr { .. } => err("expected scalar, got an array"),
    }
}

fn write_const(fr: &mut VmFrame, l: Loc, c: Const) -> Result<()> {
    match (l, c) {
        (Loc::Int { r, st: ScalarType::I64 }, Const::I64(v)) => fr.ints[r as usize] = v,
        (Loc::Int { r, st: ScalarType::I32 }, Const::I32(v)) => fr.ints[r as usize] = v as i64,
        (Loc::Int { r, st: ScalarType::Bool }, Const::Bool(b)) => fr.ints[r as usize] = b as i64,
        (Loc::Flt { r, st: ScalarType::F64 }, Const::F64(v)) => fr.flts[r as usize] = v,
        (Loc::Flt { r, st: ScalarType::F32 }, Const::F32(v)) => fr.flts[r as usize] = v as f64,
        _ => return err(format!("value type mismatch: {c} into {l}")),
    }
    Ok(())
}

pub(crate) struct Vm<'a> {
    prog: &'a CompiledProgram,
    thresholds: &'a Thresholds,
    pool: &'a workpool::Pool,
    grain: usize,
    t0: Instant,
    telem: bool,
    /// Tag stamped on the current kernel's pool jobs; allocated by
    /// [`workpool::fresh_tag`], unique across concurrent runs.
    cur_tag: AtomicU64,
}

/// A per-task result slot: the task's value plus its
/// privately recorded threshold comparisons.
type TaskSlot<T> = Mutex<Option<Result<(T, Vec<CmpRecord>)>>>;

fn take_slot<T>(slot: TaskSlot<T>) -> Result<(T, Vec<CmpRecord>)> {
    slot.into_inner()
        .unwrap()
        .ok_or_else(|| ExecError("kernel task did not run".into()))?
}

impl Vm<'_> {
    fn read_op(&self, fr: &VmFrame, op: Operand) -> i64 {
        match op {
            Operand::Const(v) => v,
            Operand::Reg(r) => fr.ints[r as usize],
        }
    }

    fn arr<'f>(&self, fr: &'f VmFrame, r: u32) -> Result<&'f Arc<ArrayVal>> {
        fr.arrs[r as usize]
            .as_ref()
            .ok_or_else(|| ExecError(format!("array register a{r} unbound")))
    }

    fn read_value(&self, fr: &VmFrame, l: Loc) -> Result<Value> {
        match l {
            Loc::Arr { r } => Ok(Value::Array((**self.arr(fr, r)?).clone())),
            _ => Ok(Value::Scalar(read_const(fr, l)?)),
        }
    }

    fn write_value(&self, fr: &mut VmFrame, l: Loc, v: Value) -> Result<()> {
        match (l, v) {
            (Loc::Arr { r }, Value::Array(av)) => {
                fr.arrs[r as usize] = Some(Arc::new(av));
                Ok(())
            }
            (_, Value::Scalar(c)) => write_const(fr, l, c),
            (_, Value::Array(_)) => err("value type mismatch: array into scalar register"),
        }
    }

    fn read_tvals(&self, fr: &VmFrame, locs: &[Loc]) -> Result<Vec<TVal>> {
        locs.iter()
            .map(|&l| match l {
                Loc::Arr { r } => Ok(TVal::A(self.arr(fr, r)?.clone())),
                _ => Ok(TVal::S(read_const(fr, l)?)),
            })
            .collect()
    }

    fn write_tvals(&self, fr: &mut VmFrame, locs: &[Loc], vals: &[TVal]) -> Result<()> {
        for (&l, v) in locs.iter().zip(vals) {
            match (l, v) {
                (Loc::Arr { r }, TVal::A(a)) => fr.arrs[r as usize] = Some(a.clone()),
                (_, TVal::S(c)) => write_const(fr, l, *c)?,
                (_, TVal::A(_)) => {
                    return err("value type mismatch: array into scalar register")
                }
            }
        }
        Ok(())
    }

    /// Copy registers pairwise (neutral elements into accumulators,
    /// accumulators into destinations). Destinations are always fresh
    /// registers, so no scratch pass is needed.
    fn copy_locs(&self, fr: &mut VmFrame, srcs: &[Loc], dsts: &[Loc]) -> Result<()> {
        for (&s, &d) in srcs.iter().zip(dsts) {
            match (s, d) {
                (Loc::Int { r: sr, .. }, Loc::Int { r: dr, .. }) => {
                    fr.ints[dr as usize] = fr.ints[sr as usize]
                }
                (Loc::Flt { r: sr, .. }, Loc::Flt { r: dr, .. }) => {
                    fr.flts[dr as usize] = fr.flts[sr as usize]
                }
                (Loc::Arr { r: sr }, Loc::Arr { r: dr }) => {
                    fr.arrs[dr as usize] = fr.arrs[sr as usize].clone()
                }
                _ => return err("value kind mismatch in binding"),
            }
        }
        Ok(())
    }

    /// A kernel-side frame: a clone of the register banks with private
    /// path/launch records.
    fn task_frame(&self, fr: &VmFrame) -> VmFrame {
        VmFrame {
            ints: fr.ints.clone(),
            flts: fr.flts.clone(),
            arrs: fr.arrs.clone(),
            path: Vec::new(),
            launches: Vec::new(),
            in_kernel: true,
        }
    }

    // -- the dispatch loop --------------------------------------------

    pub(crate) fn run_func(&self, fr: &mut VmFrame, f: FuncId) -> Result<()> {
        let instrs: &[Instr] = &self.prog.funcs[f as usize];
        for ins in instrs {
            match ins {
                Instr::IConst { dst, v } => fr.ints[*dst as usize] = *v,
                Instr::FConst { dst, v } => fr.flts[*dst as usize] = *v,
                Instr::IMov { dst, src } => fr.ints[*dst as usize] = fr.ints[*src as usize],
                Instr::FMov { dst, src } => fr.flts[*dst as usize] = fr.flts[*src as usize],
                Instr::AMov { dst, src } => {
                    fr.arrs[*dst as usize] = fr.arrs[*src as usize].clone()
                }
                Instr::AddI64 { dst, a, b } => {
                    fr.ints[*dst as usize] =
                        fr.ints[*a as usize].wrapping_add(fr.ints[*b as usize])
                }
                Instr::SubI64 { dst, a, b } => {
                    fr.ints[*dst as usize] =
                        fr.ints[*a as usize].wrapping_sub(fr.ints[*b as usize])
                }
                Instr::MulI64 { dst, a, b } => {
                    fr.ints[*dst as usize] =
                        fr.ints[*a as usize].wrapping_mul(fr.ints[*b as usize])
                }
                Instr::MinI64 { dst, a, b } => {
                    fr.ints[*dst as usize] = fr.ints[*a as usize].min(fr.ints[*b as usize])
                }
                Instr::MaxI64 { dst, a, b } => {
                    fr.ints[*dst as usize] = fr.ints[*a as usize].max(fr.ints[*b as usize])
                }
                Instr::NegI64 { dst, a } => {
                    fr.ints[*dst as usize] = fr.ints[*a as usize].wrapping_neg()
                }
                Instr::EqI64 { dst, a, b } => {
                    fr.ints[*dst as usize] = (fr.ints[*a as usize] == fr.ints[*b as usize]) as i64
                }
                Instr::NeqI64 { dst, a, b } => {
                    fr.ints[*dst as usize] = (fr.ints[*a as usize] != fr.ints[*b as usize]) as i64
                }
                Instr::LtI64 { dst, a, b } => {
                    fr.ints[*dst as usize] = (fr.ints[*a as usize] < fr.ints[*b as usize]) as i64
                }
                Instr::LeI64 { dst, a, b } => {
                    fr.ints[*dst as usize] = (fr.ints[*a as usize] <= fr.ints[*b as usize]) as i64
                }
                Instr::AddF64 { dst, a, b } => {
                    fr.flts[*dst as usize] = fr.flts[*a as usize] + fr.flts[*b as usize]
                }
                Instr::SubF64 { dst, a, b } => {
                    fr.flts[*dst as usize] = fr.flts[*a as usize] - fr.flts[*b as usize]
                }
                Instr::MulF64 { dst, a, b } => {
                    fr.flts[*dst as usize] = fr.flts[*a as usize] * fr.flts[*b as usize]
                }
                Instr::DivF64 { dst, a, b } => {
                    fr.flts[*dst as usize] = fr.flts[*a as usize] / fr.flts[*b as usize]
                }
                Instr::MinF64 { dst, a, b } => {
                    fr.flts[*dst as usize] = fr.flts[*a as usize].min(fr.flts[*b as usize])
                }
                Instr::MaxF64 { dst, a, b } => {
                    fr.flts[*dst as usize] = fr.flts[*a as usize].max(fr.flts[*b as usize])
                }
                Instr::NegF64 { dst, a } => fr.flts[*dst as usize] = -fr.flts[*a as usize],
                Instr::EqF64 { dst, a, b } => {
                    fr.ints[*dst as usize] = (fr.flts[*a as usize] == fr.flts[*b as usize]) as i64
                }
                Instr::NeqF64 { dst, a, b } => {
                    fr.ints[*dst as usize] = (fr.flts[*a as usize] != fr.flts[*b as usize]) as i64
                }
                Instr::LtF64 { dst, a, b } => {
                    fr.ints[*dst as usize] = (fr.flts[*a as usize] < fr.flts[*b as usize]) as i64
                }
                // Le(a, b) = !Lt(b, a), the interpreter's NaN rule —
                // deliberately NOT `a <= b`, which differs for NaN.
                #[allow(clippy::neg_cmp_op_on_partial_ord)]
                Instr::LeF64 { dst, a, b } => {
                    fr.ints[*dst as usize] =
                        (!(fr.flts[*b as usize] < fr.flts[*a as usize])) as i64
                }
                Instr::AddF32 { dst, a, b } => {
                    fr.flts[*dst as usize] =
                        (fr.flts[*a as usize] as f32 + fr.flts[*b as usize] as f32) as f64
                }
                Instr::SubF32 { dst, a, b } => {
                    fr.flts[*dst as usize] =
                        (fr.flts[*a as usize] as f32 - fr.flts[*b as usize] as f32) as f64
                }
                Instr::MulF32 { dst, a, b } => {
                    fr.flts[*dst as usize] =
                        (fr.flts[*a as usize] as f32 * fr.flts[*b as usize] as f32) as f64
                }
                Instr::DivF32 { dst, a, b } => {
                    fr.flts[*dst as usize] =
                        (fr.flts[*a as usize] as f32 / fr.flts[*b as usize] as f32) as f64
                }
                Instr::Not { dst, a } => {
                    fr.ints[*dst as usize] = (fr.ints[*a as usize] == 0) as i64
                }
                Instr::BinGen { op, a, b, dst } => {
                    let x = read_const(fr, *a)?;
                    let y = read_const(fr, *b)?;
                    write_const(fr, *dst, interp::eval_binop(*op, x, y)?)?;
                }
                Instr::UnGen { op, a, dst } => {
                    let x = read_const(fr, *a)?;
                    write_const(fr, *dst, interp::eval_unop(*op, x)?)?;
                }
                Instr::CmpThr { id, factors, dst } => {
                    let mut par: i64 = 1;
                    for fx in factors.iter() {
                        par = par.saturating_mul(self.read_op(fr, *fx));
                    }
                    let taken = par >= self.thresholds.get(*id);
                    fr.path.push(CmpRecord { id: *id, par, taken });
                    fr.ints[*dst as usize] = taken as i64;
                }
                Instr::Index { arr, idxs, dst } => {
                    // Read everything out of the (shared) array before
                    // touching the frame mutably; no Arc clone needed.
                    enum Got {
                        C(Const),
                        A(ArrayVal),
                    }
                    let got = {
                        let a = self.arr(fr, *arr)?;
                        if idxs.len() > a.rank() {
                            return err("too many indices");
                        }
                        let mut off: i64 = 0;
                        for (k, ix) in idxs.iter().enumerate() {
                            let i = self.read_op(fr, *ix);
                            if i < 0 || i >= a.shape[k] {
                                return err(format!(
                                    "index {i} out of bounds for axis {k} of extent {}",
                                    a.shape[k]
                                ));
                            }
                            off = off * a.shape[k] + i;
                        }
                        let rest = &a.shape[idxs.len()..];
                        if rest.is_empty() {
                            Got::C(a.data.get(off as usize))
                        } else {
                            let row: usize = rest.iter().product::<i64>() as usize;
                            Got::A(ArrayVal::new(
                                rest.to_vec(),
                                a.data.slice(off as usize * row, row),
                            ))
                        }
                    };
                    match got {
                        Got::C(c) => write_const(fr, *dst, c)?,
                        Got::A(av) => self.write_value(fr, *dst, Value::Array(av))?,
                    }
                }
                Instr::Iota { n, dst } => {
                    let n = self.read_op(fr, *n);
                    if n < 0 {
                        return err("iota of negative length");
                    }
                    let av = ArrayVal::new(vec![n], Buffer::I64((0..n).collect()));
                    fr.arrs[*dst as usize] = Some(Arc::new(av));
                }
                Instr::RepScalar { n, elem, dst } => {
                    let n = self.read_op(fr, *n);
                    if n < 0 {
                        return err("replicate of negative length");
                    }
                    let c = read_const(fr, *elem)?;
                    let mut data = Buffer::with_capacity(c.scalar_type(), n as usize);
                    for _ in 0..n {
                        data.push(c);
                    }
                    fr.arrs[*dst as usize] = Some(Arc::new(ArrayVal::new(vec![n], data)));
                }
                Instr::RepArr { n, elem, dst } => {
                    let n = self.read_op(fr, *n);
                    if n < 0 {
                        return err("replicate of negative length");
                    }
                    let a = self.arr(fr, *elem)?.clone();
                    let mut data =
                        Buffer::with_capacity(a.data.scalar_type(), n as usize * a.data.len());
                    for _ in 0..n {
                        data.extend_range(&a.data, 0, a.data.len());
                    }
                    let mut shape = vec![n];
                    shape.extend(&a.shape);
                    fr.arrs[*dst as usize] = Some(Arc::new(ArrayVal::new(shape, data)));
                }
                Instr::Rearrange { perm, arr, dst } => {
                    let a = self.arr(fr, *arr)?.clone();
                    fr.arrs[*dst as usize] = Some(Arc::new(a.rearrange(perm)));
                }
                Instr::ArrayLit { elems, st, dst } => {
                    let mut buf = Buffer::with_capacity(*st, elems.len());
                    for &e in elems.iter() {
                        buf.push(read_const(fr, e)?);
                    }
                    let av = ArrayVal::new(vec![elems.len() as i64], buf);
                    fr.arrs[*dst as usize] = Some(Arc::new(av));
                }
                Instr::If { cond, tf, ff } => {
                    if fr.ints[*cond as usize] != 0 {
                        self.run_func(fr, *tf)?;
                    } else {
                        self.run_func(fr, *ff)?;
                    }
                }
                Instr::Loop { ivar, bound, body } => {
                    let n = self.read_op(fr, *bound);
                    for i in 0..n {
                        fr.ints[*ivar as usize] = i;
                        self.run_func(fr, *body)?;
                    }
                }
                Instr::Soac(id) => self.run_soac(fr, *id)?,
                Instr::Seg(id) => self.run_seg(fr, *id)?,
            }
        }
        Ok(())
    }

    // -- SOACs (sequential, as in the interpreter) --------------------

    fn run_soac(&self, fr: &mut VmFrame, id: u32) -> Result<()> {
        let so = &self.prog.soacs[id as usize];
        let n = self.read_op(fr, so.w);
        let mut inputs = Vec::with_capacity(so.arrs.len());
        for (&r, name) in so.arrs.iter().zip(&so.arr_names) {
            let a = self.arr(fr, r)?.clone();
            if a.shape[0] != n {
                return err(format!(
                    "SOAC width {n} but array {name} has outer size {}",
                    a.shape[0]
                ));
            }
            inputs.push(a);
        }
        match so.kind {
            SoacKind::Map => {
                let mut out: Option<Vec<VAcc>> = None;
                for i in 0..n {
                    self.bind_elems(fr, so, &inputs, i)?;
                    self.run_func(fr, so.step)?;
                    self.accumulate_locs(fr, &mut out, &so.outs)?;
                }
                self.finish_soac(fr, so, out, n)
            }
            SoacKind::Reduce | SoacKind::Redomap => {
                self.copy_locs(fr, &so.nes, &so.accs)?;
                for i in 0..n {
                    self.bind_elems(fr, so, &inputs, i)?;
                    self.run_func(fr, so.step)?;
                }
                self.copy_locs(fr, &so.accs, &so.dsts)
            }
            SoacKind::Scan | SoacKind::Scanomap => {
                self.copy_locs(fr, &so.nes, &so.accs)?;
                let mut out: Option<Vec<VAcc>> = None;
                for i in 0..n {
                    self.bind_elems(fr, so, &inputs, i)?;
                    self.run_func(fr, so.step)?;
                    self.accumulate_locs(fr, &mut out, &so.outs)?;
                }
                self.finish_soac(fr, so, out, n)
            }
        }
    }

    fn bind_elems(
        &self,
        fr: &mut VmFrame,
        so: &CompiledSoac,
        inputs: &[Arc<ArrayVal>],
        i: i64,
    ) -> Result<()> {
        for (a, &dst) in inputs.iter().zip(&so.elems) {
            self.bind_row(fr, a, i, dst)?;
        }
        Ok(())
    }

    fn finish_soac(
        &self,
        fr: &mut VmFrame,
        so: &CompiledSoac,
        out: Option<Vec<VAcc>>,
        n: i64,
    ) -> Result<()> {
        match out {
            Some(accs) => {
                for (acc, &d) in accs.into_iter().zip(&so.dsts) {
                    self.write_value(fr, d, acc.finish_shaped(&[n]))?;
                }
            }
            None => {
                for (t, &d) in so.ret.iter().zip(&so.dsts) {
                    let mut shape = vec![0i64];
                    shape.extend(std::iter::repeat_n(0, t.rank()));
                    let av = ArrayVal::new(shape, Buffer::with_capacity(t.scalar, 0));
                    self.write_value(fr, d, Value::Array(av))?;
                }
            }
        }
        Ok(())
    }

    /// Bind one outer element of `a` (scalar for rank 1, row view
    /// otherwise) into `dst`.
    fn bind_row(&self, fr: &mut VmFrame, a: &ArrayVal, i: i64, dst: Loc) -> Result<()> {
        if a.rank() == 1 {
            let i = i as usize;
            match (&a.data, dst) {
                (Buffer::I64(v), Loc::Int { r, st: ScalarType::I64 }) => {
                    fr.ints[r as usize] = v[i]
                }
                (Buffer::I32(v), Loc::Int { r, st: ScalarType::I32 }) => {
                    fr.ints[r as usize] = v[i] as i64
                }
                (Buffer::Bool(v), Loc::Int { r, st: ScalarType::Bool }) => {
                    fr.ints[r as usize] = v[i] as i64
                }
                (Buffer::F64(v), Loc::Flt { r, st: ScalarType::F64 }) => {
                    fr.flts[r as usize] = v[i]
                }
                (Buffer::F32(v), Loc::Flt { r, st: ScalarType::F32 }) => {
                    fr.flts[r as usize] = v[i] as f64
                }
                _ => return write_const(fr, dst, a.data.get(i)),
            }
            Ok(())
        } else {
            let Loc::Arr { r } = dst else {
                return err("value type mismatch: array row into scalar register");
            };
            let row: usize = a.shape[1..].iter().product::<i64>() as usize;
            let av = ArrayVal::new(a.shape[1..].to_vec(), a.data.slice(i as usize * row, row));
            fr.arrs[r as usize] = Some(Arc::new(av));
            Ok(())
        }
    }

    // -- segmented operators ------------------------------------------

    /// Bind the element parameters of the first `ndims` context
    /// dimensions for the point `idxs`, outermost first.
    fn bind_ctx(
        &self,
        fr: &mut VmFrame,
        sg: &CompiledSeg,
        widths: &[i64],
        idxs: &[i64],
        ndims: usize,
    ) -> Result<()> {
        for (k, dim) in sg.ctx.iter().take(ndims).enumerate() {
            for b in &dim.binds {
                let a = self.arr(fr, b.arr)?.clone();
                if a.shape[0] != widths[k] {
                    return err(format!(
                        "segop context dim {k}: width {} but array {} outer size {}",
                        widths[k], b.name, a.shape[0]
                    ));
                }
                self.bind_row(fr, &a, idxs[k], b.dst)?;
            }
        }
        Ok(())
    }

    /// Bind the outer (non-innermost) context dimensions for a segment.
    fn bind_segment(
        &self,
        fr: &mut VmFrame,
        sg: &CompiledSeg,
        widths: &[i64],
        seg: i64,
    ) -> Result<()> {
        let p = widths.len();
        let mut idxs = vec![0i64; p];
        let mut rem = seg;
        for k in (0..p - 1).rev() {
            idxs[k] = rem % widths[k];
            rem /= widths[k];
        }
        self.bind_ctx(fr, sg, widths, &idxs, p - 1)
    }

    /// Prefetch one context dimension's binds for a task: the source
    /// arrays (`Arc`s held once, not cloned per element) with the width
    /// check done up front — the same check, against the same width and
    /// with the same message, the per-element path would repeat.
    fn dim_plan(&self, fr: &VmFrame, dim: &CDim, k: usize, w: i64) -> Result<DimPlan> {
        let mut binds = Vec::with_capacity(dim.binds.len());
        for b in &dim.binds {
            let a = self.arr(fr, b.arr)?.clone();
            if a.shape[0] != w {
                return err(format!(
                    "segop context dim {k}: width {w} but array {} outer size {}",
                    b.name, a.shape[0]
                ));
            }
            binds.push((a, b.dst));
        }
        Ok(DimPlan { binds })
    }

    /// As [`Vm::dim_plan`] for the innermost dimension, with the fold
    /// loops' error message. Build it only when the loop is nonempty, so
    /// an empty block skips the check exactly as the per-element path
    /// would.
    fn inner_plan(&self, fr: &VmFrame, sg: &CompiledSeg, inner_w: i64) -> Result<DimPlan> {
        let dim = sg
            .ctx
            .last()
            .ok_or_else(|| ExecError("segop with empty context".into()))?;
        let mut binds = Vec::with_capacity(dim.binds.len());
        for b in &dim.binds {
            let a = self.arr(fr, b.arr)?.clone();
            if a.shape[0] != inner_w {
                return err(format!(
                    "segop innermost dim: width {inner_w} but array {} outer size {}",
                    b.name, a.shape[0]
                ));
            }
            binds.push((a, b.dst));
        }
        Ok(DimPlan { binds })
    }

    /// Bind element `i` of every array in a prefetched dimension plan.
    fn bind_dim(&self, fr: &mut VmFrame, plan: &DimPlan, i: i64) -> Result<()> {
        for (a, dst) in &plan.binds {
            self.bind_row(fr, a, i, *dst)?;
        }
        Ok(())
    }

    fn run_seg(&self, fr: &mut VmFrame, id: u32) -> Result<()> {
        let sg = &self.prog.segs[id as usize];
        let widths: Vec<i64> = sg.ctx.iter().map(|d| self.read_op(fr, d.width)).collect();
        let inner_w = *widths
            .last()
            .ok_or_else(|| ExecError("segop with empty context".into()))?;
        if widths.iter().any(|&w| w < 0) {
            return err(format!("segop with negative width in {widths:?}"));
        }
        let total: i64 = widths.iter().product();
        let segments: i64 = widths[..widths.len() - 1].iter().product();
        let out_shape: Vec<i64> = match sg.kind {
            CSegKind::Red { .. } => widths[..widths.len() - 1].to_vec(),
            _ => widths.clone(),
        };
        // Elements per task: the map chunk, or the red/scan block.
        let chunk = match sg.kind {
            CSegKind::Map { .. } => self.map_chunk(sg, total.max(0) as usize, fr.in_kernel),
            _ => self.grain,
        };

        let kind_name = sg.kind.name();
        let record = !fr.in_kernel;
        let path_sig = gpu_sim::path_signature(&fr.path);
        let start_nanos = self.t0.elapsed().as_nanos() as f64;
        let _span = if record {
            Some(flat_obs::span("vm", kind_name))
        } else {
            None
        };
        let telem_on = record && self.telem;
        let tag = if telem_on { workpool::fresh_tag() } else { 0 };
        if record {
            self.cur_tag.store(tag, Ordering::Relaxed);
        }
        let pool_before = telem_on.then(|| self.pool.telemetry());
        let pool_start_ns = if telem_on { self.pool.now_ns() } else { 0 };
        let started = Instant::now();

        let (out, tasks) = match &sg.kind {
            CSegKind::Map { body, outs } => {
                self.seg_map(fr, sg, *body, outs, &widths, total, chunk)?
            }
            CSegKind::Red { fold, combine, nes, accs, rhs } => self.seg_red(
                fr, sg, *fold, *combine, nes, accs, rhs, &widths, segments, inner_w,
            )?,
            CSegKind::Scan { fold, combine, nes, accs, rhs } => self.seg_scan(
                fr, sg, *fold, *combine, nes, accs, rhs, &widths, segments, inner_w, total,
            )?,
        };

        if record {
            flat_obs::counter("vm.launches").inc();
            let telem = pool_before.map(|before| KernelTelem {
                pool: self.pool.telemetry().delta_since(&before),
                task_sizes: flat_exec::task_size_histogram(
                    matches!(sg.kind, CSegKind::Map { .. }),
                    total,
                    segments,
                    inner_w,
                    chunk,
                ),
            });
            fr.launches.push(ExecLaunch {
                name: sg.name.clone(),
                kind: kind_name,
                level: sg.level,
                space: total.max(0) as f64,
                tasks: tasks as u64,
                nanos: started.elapsed().as_nanos() as f64,
                start_nanos,
                prov: sg.prov,
                path: path_sig,
                widths: widths.clone(),
                tag,
                pool_start_ns,
                telem,
            });
        }

        match out {
            None => {
                for (t, &d) in sg.body_ret.iter().zip(&sg.dsts) {
                    let mut shape = out_shape.clone();
                    shape.extend(std::iter::repeat_n(0, t.rank()));
                    let av = ArrayVal::new(shape, Buffer::with_capacity(t.scalar, 0));
                    self.write_value(fr, d, Value::Array(av))?;
                }
            }
            Some(accs) => {
                for (acc, &d) in accs.into_iter().zip(&sg.dsts) {
                    self.write_value(fr, d, acc.finish_shaped(&out_shape))?;
                }
            }
        }
        Ok(())
    }

    /// Points per task of a segmap over `total` points. Inside a kernel
    /// task it is all of them: one range, run in place. From the host
    /// it is the grain, or less for a heavy segmap, which is cut into
    /// at least [`HEAVY_CHUNKS_PER_THREAD`] chunks per pool thread (at
    /// most one per point), so a few hundred heavy rows still spread
    /// over every thread. A segmap has no combine step, so its chunking
    /// cannot change a result bit.
    fn map_chunk(&self, sg: &CompiledSeg, total: usize, in_kernel: bool) -> usize {
        if in_kernel {
            return total.max(1);
        }
        let mut chunks = total.div_ceil(self.grain);
        if sg.heavy {
            chunks = chunks.max(total.min(HEAVY_CHUNKS_PER_THREAD * self.pool.threads()));
        }
        total.div_ceil(chunks.max(1)).max(1)
    }

    /// Run `n` kernel tasks and return their results in task order, each
    /// task's threshold records appended to `fr.path` in that order.
    ///
    /// From the host, the tasks run on the pool, each on a private clone
    /// of `fr`. Inside a kernel task they run in order on `fr` itself and
    /// never touch the pool: a nested segop is part of its enclosing
    /// task, as level-0 threads are part of their workgroup. One frame
    /// serves every task because registers are never reused: a task
    /// writes each register it reads first (segment and element binds,
    /// accumulators, body temporaries), so what an earlier task left
    /// behind is dead.
    fn run_tasks<T: Send>(
        &self,
        fr: &mut VmFrame,
        n: usize,
        task: &(dyn Fn(&mut VmFrame, usize) -> Result<T> + Sync),
    ) -> Result<Vec<T>> {
        if fr.in_kernel {
            return (0..n).map(|t| task(fr, t)).collect();
        }
        let slots: Vec<TaskSlot<T>> = (0..n).map(|_| Mutex::new(None)).collect();
        let host: &VmFrame = fr;
        self.pool
            .run_tagged(n, self.cur_tag.load(Ordering::Relaxed), &|t| {
                let mut sub = self.task_frame(host);
                let r = task(&mut sub, t);
                *slots[t].lock().unwrap() = Some(r.map(|v| (v, sub.path)));
            });
        let mut out = Vec::with_capacity(n);
        for slot in slots {
            let (v, path) = take_slot(slot)?;
            fr.path.extend(path);
            out.push(v);
        }
        Ok(out)
    }

    #[allow(clippy::too_many_arguments)]
    fn seg_map(
        &self,
        fr: &mut VmFrame,
        sg: &CompiledSeg,
        body: FuncId,
        outs: &[Loc],
        widths: &[i64],
        total: i64,
        chunk: usize,
    ) -> Result<(Option<Vec<VAcc>>, usize)> {
        if total <= 0 {
            return Ok((None, 0));
        }
        let total = total as usize;
        let n_chunks = total.div_ceil(chunk);
        let chunks = self.run_tasks(fr, n_chunks, &|sub, c| {
            let (lo, hi) = (c * chunk, ((c + 1) * chunk).min(total));
            self.map_range(sub, sg, body, outs, widths, lo, hi)
        })?;
        Ok((concat_vaccs(chunks)?, n_chunks))
    }

    #[allow(clippy::too_many_arguments)]
    fn map_range(
        &self,
        fr: &mut VmFrame,
        sg: &CompiledSeg,
        body: FuncId,
        outs: &[Loc],
        widths: &[i64],
        lo: usize,
        hi: usize,
    ) -> Result<Vec<VAcc>> {
        let p = widths.len();
        // Re-bind a dimension only when its coordinate moved — and then
        // every dimension inside it too, because dim k's source arrays
        // can be the row views dim k-1 just bound. A dim's prefetched
        // plan is valid exactly as long as every outer dim is unchanged.
        // Consecutive flat indices share their outer coordinates, so the
        // expensive outer row copies happen once per row, not once per
        // element; register contents at body entry are identical.
        let mut plans: Vec<Option<DimPlan>> = (0..p).map(|_| None).collect();
        let mut idxs = vec![0i64; p];
        let mut prev = vec![-1i64; p];
        let mut out: Option<Vec<VAcc>> = None;
        for flat in lo..hi {
            let mut rem = flat as i64;
            for k in (0..p).rev() {
                idxs[k] = rem % widths[k];
                rem /= widths[k];
            }
            let k0 = (0..p).find(|&k| idxs[k] != prev[k]).unwrap_or(p);
            for k in k0..p {
                if k > k0 {
                    plans[k] = None;
                }
                let plan = match &plans[k] {
                    Some(pl) => pl,
                    None => {
                        plans[k] = Some(self.dim_plan(fr, &sg.ctx[k], k, widths[k])?);
                        plans[k].as_ref().expect("plan just built")
                    }
                };
                self.bind_dim(fr, plan, idxs[k])?;
                prev[k] = idxs[k];
            }
            self.run_func(fr, body)?;
            self.accumulate_locs(fr, &mut out, outs)?;
        }
        out.ok_or_else(|| ExecError("empty segmap chunk".into()))
    }

    #[allow(clippy::too_many_arguments)]
    fn seg_red(
        &self,
        fr: &mut VmFrame,
        sg: &CompiledSeg,
        fold: FuncId,
        combine: FuncId,
        nes: &[Loc],
        accs: &[Loc],
        rhs: &[Loc],
        widths: &[i64],
        segments: i64,
        inner_w: i64,
    ) -> Result<(Option<Vec<VAcc>>, usize)> {
        if segments <= 0 {
            return Ok((None, 0));
        }
        let segments = segments as usize;
        let grain = self.grain as i64;
        let blocks = (((inner_w + grain - 1) / grain).max(1)) as usize;
        let tasks = segments * blocks;
        let partials = self.run_tasks(fr, tasks, &|sub, t| {
            let seg = (t / blocks) as i64;
            let b = (t % blocks) as i64;
            self.bind_segment(sub, sg, widths, seg)?;
            // Neutral elements read after the segment context is bound
            // (they may reference it).
            self.copy_locs(sub, nes, accs)?;
            let (jlo, jhi) = (b * grain, (b * grain + grain).min(inner_w));
            if jlo < jhi {
                let plan = self.inner_plan(sub, sg, inner_w)?;
                for j in jlo..jhi {
                    self.bind_dim(sub, &plan, j)?;
                    self.run_func(sub, fold)?;
                }
            }
            self.read_tvals(sub, accs)
        })?;
        // Combine block partials left-to-right within each segment, in
        // the segment's context. Runs on the host frame in kernel mode:
        // every register it writes is dead afterwards (no reuse), and
        // its threshold records land in fr.path in evaluation order.
        let saved = fr.in_kernel;
        fr.in_kernel = true;
        let res = (|| {
            let mut out: Option<Vec<VAcc>> = None;
            let mut partials = partials.into_iter();
            for seg in 0..segments {
                self.bind_segment(fr, sg, widths, seg as i64)?;
                let mut acc = partials
                    .next()
                    .ok_or_else(|| ExecError("one partial per block missing".into()))?;
                for _ in 1..blocks {
                    let nxt = partials
                        .next()
                        .ok_or_else(|| ExecError("one partial per block missing".into()))?;
                    self.write_tvals(fr, accs, &acc)?;
                    self.write_tvals(fr, rhs, &nxt)?;
                    self.run_func(fr, combine)?;
                    acc = self.read_tvals(fr, accs)?;
                }
                accumulate_tvals(&mut out, &acc)?;
            }
            Ok((out, tasks))
        })();
        fr.in_kernel = saved;
        res
    }

    #[allow(clippy::too_many_arguments)]
    fn seg_scan(
        &self,
        fr: &mut VmFrame,
        sg: &CompiledSeg,
        fold: FuncId,
        combine: FuncId,
        nes: &[Loc],
        accs: &[Loc],
        rhs: &[Loc],
        widths: &[i64],
        segments: i64,
        inner_w: i64,
        total: i64,
    ) -> Result<(Option<Vec<VAcc>>, usize)> {
        if total <= 0 {
            return Ok((None, 0));
        }
        let segments = segments as usize;
        let grain = self.grain as i64;
        let blocks = ((inner_w + grain - 1) / grain) as usize;
        let tasks = segments * blocks;

        // Pass 1: per-block local scans, recording the scanned elements
        // and the running total.
        let pass1: Vec<(Vec<VAcc>, Vec<TVal>)> = self.run_tasks(fr, tasks, &|sub, t| {
            let seg = (t / blocks) as i64;
            let b = (t % blocks) as i64;
            self.bind_segment(sub, sg, widths, seg)?;
            self.copy_locs(sub, nes, accs)?;
            let mut local: Option<Vec<VAcc>> = None;
            let (jlo, jhi) = (b * grain, (b * grain + grain).min(inner_w));
            if jlo < jhi {
                let plan = self.inner_plan(sub, sg, inner_w)?;
                for j in jlo..jhi {
                    self.bind_dim(sub, &plan, j)?;
                    self.run_func(sub, fold)?;
                    self.accumulate_locs(sub, &mut local, accs)?;
                }
            }
            let local = local.ok_or_else(|| ExecError("empty segscan block".into()))?;
            Ok((local, self.read_tvals(sub, accs)?))
        })?;
        // A single block per segment is already final: there is no
        // prefix to fix up.
        if blocks == 1 {
            let locals = pass1.into_iter().map(|(local, _)| local).collect();
            return Ok((concat_vaccs(locals)?, tasks));
        }

        // Pass 2: sequential prefix over block totals per segment, on
        // the host frame in kernel mode (registers dead afterwards).
        let mut prefixes: Vec<Option<Vec<TVal>>> = vec![None; tasks];
        let saved = fr.in_kernel;
        fr.in_kernel = true;
        let res: Result<()> = (|| {
            for seg in 0..segments {
                self.bind_segment(fr, sg, widths, seg as i64)?;
                let mut running: Vec<TVal> = pass1[seg * blocks].1.clone();
                for b in 1..blocks {
                    prefixes[seg * blocks + b] = Some(running.clone());
                    if b + 1 < blocks {
                        self.write_tvals(fr, accs, &running)?;
                        self.write_tvals(fr, rhs, &pass1[seg * blocks + b].1)?;
                        self.run_func(fr, combine)?;
                        running = self.read_tvals(fr, accs)?;
                    }
                }
            }
            Ok(())
        })();
        fr.in_kernel = saved;
        res?;

        // Pass 3: fixup — combine the prefix into every element of the
        // later blocks.
        let fixed = self.run_tasks(fr, tasks, &|sub, t| {
            let (locals, _) = &pass1[t];
            let Some(prefix) = &prefixes[t] else {
                return Ok(locals.to_vec());
            };
            self.bind_segment(sub, sg, widths, (t / blocks) as i64)?;
            let count = locals.first().map(|a| a.count).unwrap_or(0);
            let mut out: Option<Vec<VAcc>> = None;
            for i in 0..count {
                self.write_tvals(sub, accs, prefix)?;
                for (local, &rl) in locals.iter().zip(rhs) {
                    self.write_value(sub, rl, local.elem_at(i))?;
                }
                self.run_func(sub, combine)?;
                self.accumulate_locs(sub, &mut out, accs)?;
            }
            out.ok_or_else(|| ExecError("empty segscan fixup".into()))
        })?;
        Ok((concat_vaccs(fixed)?, tasks))
    }

    /// Append one point's results (read straight from their registers)
    /// onto the accumulators, without intermediate `Value`s.
    fn accumulate_locs(
        &self,
        fr: &VmFrame,
        out: &mut Option<Vec<VAcc>>,
        locs: &[Loc],
    ) -> Result<()> {
        match out {
            None => {
                let mut accs = Vec::with_capacity(locs.len());
                for &l in locs {
                    accs.push(match l {
                        Loc::Arr { r } => {
                            let a = self.arr(fr, r)?;
                            let mut data =
                                Buffer::with_capacity(a.data.scalar_type(), a.data.len());
                            data.extend_range(&a.data, 0, a.data.len());
                            VAcc { elem_shape: a.shape.clone(), data, count: 1 }
                        }
                        _ => {
                            let c = read_const(fr, l)?;
                            let mut data = Buffer::with_capacity(c.scalar_type(), 16);
                            data.push(c);
                            VAcc { elem_shape: vec![], data, count: 1 }
                        }
                    });
                }
                *out = Some(accs);
                Ok(())
            }
            Some(accs) => {
                if accs.len() != locs.len() {
                    return err("result arity changed across iterations");
                }
                for (acc, &l) in accs.iter_mut().zip(locs) {
                    match l {
                        Loc::Arr { r } => {
                            let a = self.arr(fr, r)?;
                            if a.shape != acc.elem_shape {
                                return err(format!(
                                    "irregular parallelism: element shape {:?} vs {:?}",
                                    a.shape, acc.elem_shape
                                ));
                            }
                            acc.data.extend_range(&a.data, 0, a.data.len());
                        }
                        // Monomorphic pushes for the hot scalar cases;
                        // the fallback reconstructs a Const.
                        Loc::Int { r, st: ScalarType::I64 } => {
                            let Buffer::I64(v) = &mut acc.data else {
                                return err("result type changed across iterations");
                            };
                            v.push(fr.ints[r as usize]);
                        }
                        Loc::Flt { r, st: ScalarType::F64 } => {
                            let Buffer::F64(v) = &mut acc.data else {
                                return err("result type changed across iterations");
                            };
                            v.push(fr.flts[r as usize]);
                        }
                        Loc::Flt { r, st: ScalarType::F32 } => {
                            let Buffer::F32(v) = &mut acc.data else {
                                return err("result type changed across iterations");
                            };
                            v.push(fr.flts[r as usize] as f32);
                        }
                        _ => acc.data.push(read_const(fr, l)?),
                    }
                    acc.count += 1;
                }
                Ok(())
            }
        }
    }
}

/// A result accumulator: per-result flat buffers plus the element shape
/// and count.
#[derive(Clone)]
pub(crate) struct VAcc {
    elem_shape: Vec<i64>,
    data: Buffer,
    count: usize,
}

impl VAcc {
    fn finish_shaped(self, outer: &[i64]) -> Value {
        if outer.is_empty() && self.elem_shape.is_empty() {
            return Value::Scalar(self.data.get(0));
        }
        let mut shape = outer.to_vec();
        shape.extend(&self.elem_shape);
        Value::Array(ArrayVal::new(shape, self.data))
    }

    fn elem_at(&self, i: usize) -> Value {
        if self.elem_shape.is_empty() {
            Value::Scalar(self.data.get(i))
        } else {
            let len = self.elem_shape.iter().product::<i64>() as usize;
            Value::Array(ArrayVal::new(self.elem_shape.clone(), self.data.slice(i * len, len)))
        }
    }
}

fn accumulate_tvals(out: &mut Option<Vec<VAcc>>, vals: &[TVal]) -> Result<()> {
    match out {
        None => {
            *out = Some(
                vals.iter()
                    .map(|v| match v {
                        TVal::S(c) => {
                            let mut data = Buffer::with_capacity(c.scalar_type(), 16);
                            data.push(*c);
                            VAcc { elem_shape: vec![], data, count: 1 }
                        }
                        TVal::A(a) => {
                            let mut data =
                                Buffer::with_capacity(a.data.scalar_type(), a.data.len());
                            data.extend_range(&a.data, 0, a.data.len());
                            VAcc { elem_shape: a.shape.clone(), data, count: 1 }
                        }
                    })
                    .collect(),
            );
            Ok(())
        }
        Some(accs) => {
            if accs.len() != vals.len() {
                return err("result arity changed across iterations");
            }
            for (acc, v) in accs.iter_mut().zip(vals) {
                match v {
                    TVal::S(c) => {
                        acc.data.push(*c);
                        acc.count += 1;
                    }
                    TVal::A(a) => {
                        if a.shape != acc.elem_shape {
                            return err(format!(
                                "irregular parallelism: element shape {:?} vs {:?}",
                                a.shape, acc.elem_shape
                            ));
                        }
                        acc.data.extend_range(&a.data, 0, a.data.len());
                        acc.count += 1;
                    }
                }
            }
            Ok(())
        }
    }
}

/// Concatenate per-task results in task order, each result into one
/// buffer allocated at its final size (a single part is moved, not
/// copied), dropping every part once it is copied.
fn concat_vaccs(parts: Vec<Vec<VAcc>>) -> Result<Option<Vec<VAcc>>> {
    if parts.len() <= 1 {
        return Ok(parts.into_iter().next());
    }
    let mut out: Vec<VAcc> = parts[0]
        .iter()
        .enumerate()
        .map(|(i, a)| {
            let len = parts.iter().map(|p| p.get(i).map_or(0, |x| x.data.len())).sum();
            VAcc {
                elem_shape: a.elem_shape.clone(),
                data: Buffer::with_capacity(a.data.scalar_type(), len),
                count: 0,
            }
        })
        .collect();
    for part in parts {
        if part.len() != out.len() {
            return err("result arity changed across chunks");
        }
        for (c, a) in out.iter_mut().zip(part) {
            if a.elem_shape != c.elem_shape {
                return err(format!(
                    "irregular parallelism: element shape {:?} vs {:?}",
                    a.elem_shape, c.elem_shape
                ));
            }
            c.data.extend_range(&a.data, 0, a.data.len());
            c.count += a.count;
        }
    }
    Ok(Some(out))
}

#[cfg(test)]
mod tests {
    use super::*;
    use flat_ir::ast::*;
    use flat_ir::builder::*;
    use flat_ir::types::{Param, Type};

    fn cfg(threads: usize, grain: usize) -> ExecConfig {
        ExecConfig {
            thresholds: Thresholds::new(),
            threads: Some(threads),
            grain,
            ..ExecConfig::default()
        }
    }

    /// A one-segop program over rows: `[n][m]i64 -> [n]i64` row sums
    /// (`Red`) or `[n][m]i64 -> [n][m]i64` row prefix sums (`Scan`).
    fn row_prog(name: &str, scan: bool) -> Program {
        let mut pb = ProgramBuilder::new(name);
        let n = pb.size_param("n");
        let m = pb.size_param("m");
        let xss = pb.param(
            "xss",
            Type::i64()
                .array_of(SubExp::Var(m))
                .array_of(SubExp::Var(n)),
        );
        let xs_p = Param::fresh("xs", Type::i64().array_of(SubExp::Var(m)));
        let x_p = Param::fresh("x", Type::i64());
        let op = binop_lambda(BinOp::Add, ScalarType::I64);
        let nes = vec![SubExp::i64(0)];
        let seg = SegOp {
            kind: if scan {
                SegKind::Scan { op, nes }
            } else {
                SegKind::Red { op, nes }
            },
            level: LVL_GRID,
            ctx: vec![
                CtxDim::new(SubExp::Var(n), vec![(xs_p.clone(), xss)]),
                CtxDim::new(SubExp::Var(m), vec![(x_p.clone(), xs_p.name)]),
            ],
            body: Body::results(vec![SubExp::Var(x_p.name)]),
            body_ret: vec![Type::i64()],
            tiling: Tiling::None,
        };
        let mut out_t = Type::i64();
        if scan {
            out_t = out_t.array_of(SubExp::Var(m));
        }
        let out_t = out_t.array_of(SubExp::Var(n));
        let ys = pb.body.bind("ys", out_t.clone(), Exp::Seg(seg));
        pb.finish(vec![SubExp::Var(ys)], vec![out_t])
    }

    fn matrix(n: i64, m: i64) -> Value {
        let data: Vec<i64> = (0..n * m).map(|i| i * 7 - 3).collect();
        Value::array_from(vec![n, m], Buffer::I64(data))
    }

    #[test]
    fn segred_matches_interpreter_across_grains_and_threads() {
        let prog = row_prog("rowsums", false);
        let args = vec![Value::i64_(5), Value::i64_(13), matrix(5, 13)];
        let expect = interp::run_program(&prog, &args, &Thresholds::new()).unwrap();
        for threads in [1, 4, 8] {
            for grain in [1, 3, 256] {
                let rep = run_program(&prog, &args, &cfg(threads, grain)).unwrap();
                assert_eq!(rep.values, expect, "threads={threads} grain={grain}");
                assert_eq!(rep.launches.len(), 1);
                assert_eq!(rep.launches[0].kind, "segred");
            }
        }
    }

    #[test]
    fn segscan_matches_interpreter_across_grains_and_threads() {
        let prog = row_prog("rowscans", true);
        let args = vec![Value::i64_(4), Value::i64_(17), matrix(4, 17)];
        let expect = interp::run_program(&prog, &args, &Thresholds::new()).unwrap();
        for threads in [1, 4, 8] {
            for grain in [1, 5, 256] {
                let rep = run_program(&prog, &args, &cfg(threads, grain)).unwrap();
                assert_eq!(rep.values, expect, "threads={threads} grain={grain}");
                assert_eq!(rep.launches[0].kind, "segscan");
            }
        }
    }

    #[test]
    fn empty_spaces_match_interpreter() {
        for (scan, shapes) in [
            (false, &[(0, 5), (5, 0), (0, 0)][..]),
            (true, &[(0, 5), (5, 0)][..]),
        ] {
            let prog = row_prog("rows", scan);
            for &(n, m) in shapes {
                let args = vec![Value::i64_(n), Value::i64_(m), matrix(n, m)];
                let expect = interp::run_program(&prog, &args, &Thresholds::new()).unwrap();
                let rep = run_program(&prog, &args, &cfg(4, 2)).unwrap();
                assert_eq!(rep.values, expect, "scan={scan} n={n} m={m}");
            }
        }
    }

    #[test]
    fn threshold_guard_is_dispatched_live() {
        let mut pb = ProgramBuilder::new("guarded");
        let n = pb.size_param("n");
        let c = pb.body.bind(
            "c",
            Type::bool(),
            Exp::CmpThreshold {
                factors: vec![SubExp::Var(n)],
                threshold: ThresholdId(0),
            },
        );
        let r = pb.body.bind(
            "r",
            Type::i64(),
            Exp::If {
                cond: SubExp::Var(c),
                tb: Body::results(vec![SubExp::i64(1)]),
                fb: Body::results(vec![SubExp::i64(2)]),
                ret: vec![Type::i64()],
            },
        );
        let prog = pb.finish(vec![SubExp::Var(r)], vec![Type::i64()]);
        let cfg = ExecConfig {
            thresholds: Thresholds::new().with(ThresholdId(0), 100),
            threads: Some(2),
            ..ExecConfig::default()
        };

        let hi = run_program(&prog, &[Value::i64_(500)], &cfg).unwrap();
        assert_eq!(hi.values, vec![Value::i64_(1)]);
        assert_eq!(hi.signature(), vec![(0, true)]);
        assert_eq!(hi.path[0].par, 500);

        let lo = run_program(&prog, &[Value::i64_(50)], &cfg).unwrap();
        assert_eq!(lo.values, vec![Value::i64_(2)]);
        assert_eq!(lo.signature(), vec![(0, false)]);
    }

    #[test]
    fn measure_returns_the_last_report_and_the_spread() {
        let prog = row_prog("rowsums", false);
        let args = vec![Value::i64_(3), Value::i64_(4), matrix(3, 4)];
        let (rep, m) = crate::measure(&prog, &args, &cfg(2, 256), 3, 1).unwrap();
        assert_eq!(m.runs.len(), 3);
        assert!(m.median_nanos > 0.0);
        assert!(m.min_nanos <= m.median_nanos && m.median_nanos <= m.max_nanos);
        assert!(m.mean_nanos > 0.0 && m.stddev_nanos >= 0.0);
        assert_eq!(rep.values[0].shape(), vec![3]);
    }
}
