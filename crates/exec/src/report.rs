//! The runtime types every CPU execution shares: configuration, the
//! report of one run, its per-kernel launch records, and the error
//! type.
//!
//! `flat-vm` is the executor that fills them in; its kernel
//! decomposition depends only on [`ExecConfig::grain`], never on the
//! thread count, which is what makes results bit-identical across
//! `FLAT_EXEC_THREADS` (see `docs/EXECUTION.md`).

use crate::obs::KernelTelem;
use flat_ir::ast::Level;
use flat_ir::interp::{self, Thresholds};
use flat_ir::prov::Prov;
use flat_ir::value::Value;
use gpu_sim::CmpRecord;
use std::fmt;
use workpool::{PoolTelemetry, TaskSpan};

/// An execution error (unbound names, shape violations, etc.).
#[derive(Debug, Clone, PartialEq)]
pub struct ExecError(pub String);

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "execution error: {}", self.0)
    }
}

impl std::error::Error for ExecError {}

impl From<interp::InterpError> for ExecError {
    fn from(e: interp::InterpError) -> ExecError {
        ExecError(e.0)
    }
}

/// Default elements per parallel task. Small enough that the modest
/// inner widths of the test programs still split into several blocks,
/// large enough that per-task overhead stays negligible.
pub const DEFAULT_GRAIN: usize = 256;

/// Execution configuration.
#[derive(Clone, Debug)]
pub struct ExecConfig {
    /// The live threshold assignment guards are evaluated against
    /// (defaults, a `.tuning` file, or explicit overrides).
    pub thresholds: Thresholds,
    /// Thread count; `None` uses the process default, which honours
    /// `FLAT_EXEC_THREADS`.
    pub threads: Option<usize>,
    /// Elements per parallel task. Fixes the kernel decomposition
    /// independently of the thread count (see the module docs).
    pub grain: usize,
    /// Collect pool scheduler counters (steals, parks, busy time) and
    /// per-kernel telemetry. Off by default; purely observational — the
    /// task decomposition and results are unchanged.
    pub telemetry: bool,
    /// Also record one [`TaskSpan`] per executed task for wall-clock
    /// worker timelines (implies `telemetry`). Off by default.
    pub worker_trace: bool,
}

impl Default for ExecConfig {
    fn default() -> ExecConfig {
        ExecConfig {
            thresholds: Thresholds::new(),
            threads: None,
            grain: DEFAULT_GRAIN,
            telemetry: false,
            worker_trace: false,
        }
    }
}

/// One executed kernel (a host-level segop dispatch).
#[derive(Clone, Debug)]
pub struct ExecLaunch {
    /// Name of the first value the kernel binds.
    pub name: String,
    /// `segmap`, `segred`, or `segscan`.
    pub kind: &'static str,
    pub level: Level,
    /// Total points of the iteration space.
    pub space: f64,
    /// Parallel tasks dispatched to the pool.
    pub tasks: u64,
    /// Measured wall time of the kernel, nanoseconds.
    pub nanos: f64,
    /// Start offset from the beginning of the run, nanoseconds.
    pub start_nanos: f64,
    /// Provenance of the statement that launched the kernel.
    pub prov: Prov,
    /// Threshold path signature observed before the launch.
    pub path: Vec<(u32, bool)>,
    /// Context widths of the iteration space, outermost first.
    pub widths: Vec<i64>,
    /// Tag stamped on this kernel's pool tasks (0 when telemetry was
    /// off); joins [`ExecReport::spans`] back to their launch.
    pub tag: u64,
    /// Kernel start on the *pool* clock ([`workpool::Pool::now_ns`]),
    /// the clock task spans use. 0 when telemetry was off.
    pub pool_start_ns: u64,
    /// Per-kernel scheduler counters and task-size histogram; `Some`
    /// only when telemetry was on.
    pub telem: Option<KernelTelem>,
}

/// The result of executing one program run.
#[derive(Clone, Debug)]
pub struct ExecReport {
    pub values: Vec<Value>,
    /// Threshold comparisons in evaluation order — the live-dispatched
    /// path through the branching tree.
    pub path: Vec<CmpRecord>,
    /// One record per host-level kernel dispatch, in launch order.
    pub launches: Vec<ExecLaunch>,
    /// Wall time of the whole run, nanoseconds.
    pub wall_nanos: f64,
    /// Threads the pool used (caller included).
    pub threads: usize,
    /// The grain size the decomposition used.
    pub grain: usize,
    /// Pool scheduler counters scoped to this run (`Some` only when
    /// `ExecConfig::telemetry` or `worker_trace` was set).
    pub pool: Option<PoolTelemetry>,
    /// Raw task spans for worker timelines (non-empty only when
    /// `ExecConfig::worker_trace` was set). Match `tag` against
    /// [`ExecLaunch::tag`] to attribute a span to its kernel.
    pub spans: Vec<TaskSpan>,
}

impl ExecReport {
    /// The canonical signature of the live-dispatched path — same
    /// function the simulator and interpreter signatures go through.
    pub fn signature(&self) -> Vec<(u32, bool)> {
        gpu_sim::path_signature(&self.path)
    }
}
