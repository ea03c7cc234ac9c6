//! # flat-vm
//!
//! The CPU executor: lowers a flattened target-language [`Program`] to
//! a flat register bytecode and runs it on the vendored work-stealing
//! pool (`workpool`), filling in `flat-exec`'s shared runtime types
//! ([`ExecConfig`] in, [`ExecReport`] out).
//!
//! * **Lowering** ([`compile`]) resolves every name to a dense register
//!   index in one of three banks (`i64`, `f64`, array handles) at
//!   compile time; scalar arithmetic on `i64`/`f64` gets monomorphic
//!   opcodes so the inner loop is a `match` on a `#[repr(u8)]` opcode
//!   over unboxed register files, with no hashing, boxing, or dynamic
//!   type dispatch. `iota`/`replicate`/`rearrange`/indexing are index
//!   arithmetic over raw buffers.
//! * **Execution** ([`run_program`], [`run_compiled`], [`measure`])
//!   decomposes every kernel by the grain size only — grain-size
//!   chunking for `segmap`, block partials combined left-to-right for
//!   `segred`, the three-pass `segscan` — so results are bitwise
//!   identical at every thread count. Threshold guards are dispatched
//!   live against the actual degree of parallelism, and the taken path
//!   is recorded with the same `path_signature` the simulator emits.
//!   The reference interpreter ([`flat_ir::interp`]) is the semantic
//!   oracle.
//! * **Observability**: [`disasm`] renders the bytecode for golden
//!   tests; runs emit `vm.*` metrics.
//!
//! See `docs/EXECUTION.md` for the design.

pub mod bytecode;
mod compile;
mod run;

pub use bytecode::{disasm, CompiledProgram, Instr, Loc, Operand};
pub use compile::compile;
pub use run::{run_compiled, run_program};

use flat_exec::{ExecConfig, ExecError, ExecReport, Measurement};
use flat_ir::ast::Program;
use flat_ir::value::Value;

/// Median-of-k wall-clock measurement: `warmup` untimed runs, then
/// `reps` timed runs (at least one), returning the last run's report
/// and the timing summary. The program is compiled once, outside the
/// timed region — the lowering cost is paid per program, not per run.
/// Results are deterministic, so repetitions differ only in timing.
pub fn measure(
    prog: &Program,
    args: &[Value],
    cfg: &ExecConfig,
    reps: usize,
    warmup: usize,
) -> Result<(ExecReport, Measurement), ExecError> {
    measure_compiled(&compile(prog)?, args, cfg, reps, warmup)
}

/// [`measure`] for an already-compiled program.
pub fn measure_compiled(
    prog: &CompiledProgram,
    args: &[Value],
    cfg: &ExecConfig,
    reps: usize,
    warmup: usize,
) -> Result<(ExecReport, Measurement), ExecError> {
    let _span = flat_obs::span("vm", "vm.measure");
    for _ in 0..warmup {
        run_compiled(prog, args, cfg)?;
    }
    let reps = reps.max(1);
    let mut runs = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps {
        let rep = run_compiled(prog, args, cfg)?;
        runs.push(rep.wall_nanos);
        last = Some(rep);
    }
    Ok((last.expect("reps >= 1"), Measurement::from_runs(runs)))
}
